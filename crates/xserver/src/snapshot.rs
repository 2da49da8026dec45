//! Display-manager checkpoint/restore: the [`XServer`] half of the
//! versioned snapshot format.
//!
//! Everything the server holds is primary state — clients and their event
//! queues, the window tree (including stacking order and `visible_since`
//! clocks, which the clickjacking gate depends on), selection ownership
//! and in-flight transfers, the overlay alert and prompt surfaces, input
//! focus, and the hash-chained ledger (the audit log is rendered from it
//! when read, so nothing is rebuilt on decode). The shared virtual clock and tracer are owned
//! by the system harness, which serializes each once and hands the
//! imported handles back in.

use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
use overhaul_sim::{impl_pack, Clock, Tracer};

use crate::{XConfig, XServer};

impl_pack!(XConfig {
    overhaul_enabled,
    visibility_threshold,
    alert_duration,
    shared_secret,
    screen
});

impl XServer {
    /// Serializes the server's state into `enc`.
    ///
    /// The shared clock/tracer handles are serialized by the system
    /// harness, not here.
    pub fn export_snapshot(&self, enc: &mut Enc) {
        self.config.pack(enc);
        self.clients.pack(enc);
        self.windows.pack(enc);
        self.selections.pack(enc);
        self.alerts.pack(enc);
        self.prompts.pack(enc);
        self.focus.pack(enc);
        self.ledger.pack(enc);
    }

    /// Rebuilds a server from state serialized by
    /// [`XServer::export_snapshot`], wiring in the shared `clock` and
    /// `tracer` handles the system harness imported.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from a truncated or corrupt state section.
    pub fn import_snapshot(
        dec: &mut Dec<'_>,
        clock: Clock,
        tracer: Tracer,
    ) -> Result<XServer, SnapshotError> {
        Ok(XServer {
            config: Pack::unpack(dec)?,
            clients: Pack::unpack(dec)?,
            windows: Pack::unpack(dec)?,
            selections: Pack::unpack(dec)?,
            alerts: Pack::unpack(dec)?,
            prompts: Pack::unpack(dec)?,
            focus: Pack::unpack(dec)?,
            ledger: Pack::unpack(dec)?,
            clock,
            tracer,
        })
    }
}
