//! The authoritative, hash-chained history.
//!
//! The paper's evaluation (§V-C/§V-D) rests on inspecting Overhaul's
//! logs. Earlier revisions of this reproduction kept three parallel,
//! mutually unverifiable histories — the free-form [`AuditLog`], the
//! structured decision traces, and the replay event log. This module
//! unifies the first two behind one **append-only, totally ordered,
//! hash-chained ledger**:
//!
//! * Every control-plane observable — config changes, verdicts, channel
//!   state transitions, device-map updates, interaction notifications and
//!   propagations, ptrace/selection hardening — is appended as a typed
//!   [`LedgerEntry`] carrying an optional structured [`Effect`].
//! * Each appended entry is sealed into a [`SealedEntry`] with a monotone
//!   sequence number and a running FNV-1a chain hash over
//!   `(previous chain, seq, entry)`. [`Ledger::verify_chain`] re-derives
//!   the chain and reports any tamper as a typed [`LedgerError`] — a
//!   single flipped bit anywhere in the retained history changes some
//!   entry's encoding, so its recomputed seal (or a successor's) stops
//!   matching the stored one.
//! * The ledger is the only stored history. [`Ledger::audit`] renders
//!   the [`AuditLog`] on demand from the retained entries that are not
//!   `silent` (silent entries carry structured effects only), so
//!   appending and decoding do no work for the audit view.
//! * Control-plane state is a **deterministic reduction** of the ledger:
//!   [`Ledger::reduce`] folds the effects into a [`ControlPlane`] whose
//!   [`ControlPlane::state_hash`] must equal the live system's — from
//!   boot, and from any restored mid-run snapshot.
//!
//! Measurement harnesses may [`Ledger::clear`] retained entries; the
//! chain head and sequence numbers stay monotone across clears (the
//! base head seals the discarded prefix), so verification of the
//! retained suffix still works and appends never restart the chain.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::audit::{AuditCategory, AuditLog};
use crate::ids::Pid;
use crate::snapshot::{fnv1a64, Dec, Enc, Pack, Snapshot, SnapshotError};
use crate::time::Timestamp;

/// Chain hash of the empty history (the FNV-1a 64-bit offset basis, i.e.
/// `fnv1a64(&[])`), so a freshly created ledger and a verifier agree on
/// the genesis head without exchanging anything.
pub const GENESIS_HEAD: u64 = 0xcbf2_9ce4_8422_2325;

/// Which control-plane configuration knob a [`Effect::Config`] entry set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigKey {
    /// `KernelConfig::overhaul_enabled`.
    OverhaulEnabled,
    /// `KernelConfig::ptrace_hardening`.
    PtraceHardening,
    /// The kernel's `channel_required` switch.
    ChannelRequired,
    /// The monitor's temporal-proximity threshold δ, in milliseconds.
    DeltaMs,
    /// The monitor's grant-all (measurement) mode.
    GrantAll,
}

/// Channel health as recorded in the ledger (mirrors the kernel's
/// `ChannelState` without depending on the kernel crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelTag {
    /// Authenticated and healthy.
    Up,
    /// Healthy but recently lossy/reordered.
    Degraded,
    /// No authenticated display channel.
    #[default]
    Down,
}

/// Which policy rule produced a verdict (mirrors the kernel's
/// `DecisionTrace` variants; labels match `DecisionTrace::kind_str`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// Interaction within δ.
    WithinThreshold,
    /// Grant-all measurement mode.
    GrantAll,
    /// No interaction on record.
    NoInteraction,
    /// Interaction on record but older than δ.
    Stale,
    /// Permissions frozen by ptrace hardening.
    PermissionsFrozen,
    /// Channel required but down: fail closed.
    ChannelDown,
    /// Device quarantined pending a helper update.
    Quarantined,
    /// Unknown requesting process.
    UnknownProcess,
}

impl RuleKind {
    /// Stable label (identical to the decision trace's `kind_str`).
    pub fn label(&self) -> &'static str {
        match self {
            RuleKind::WithinThreshold => "within-threshold",
            RuleKind::GrantAll => "grant-all",
            RuleKind::NoInteraction => "no-interaction",
            RuleKind::Stale => "stale",
            RuleKind::PermissionsFrozen => "permissions-frozen",
            RuleKind::ChannelDown => "channel-down",
            RuleKind::Quarantined => "quarantined",
            RuleKind::UnknownProcess => "unknown-process",
        }
    }
}

/// The structured, foldable payload of a ledger entry: what the entry
/// *did* to control-plane state (or, for verdicts, what the policy engine
/// concluded). Entries that are purely informational carry no effect.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// A configuration knob was set.
    Config {
        /// Which knob.
        key: ConfigKey,
        /// New value (booleans as 0/1).
        value: u64,
    },
    /// The display channel transitioned.
    Channel {
        /// The state it transitioned to.
        to: ChannelTag,
    },
    /// A device node was attached and mapped (boot/udev attach).
    DeviceAttached {
        /// Device node path.
        path: String,
        /// Raw device id.
        device: u32,
    },
    /// The trusted helper mapped a path (lifting any quarantine).
    DeviceInserted {
        /// Device node path.
        path: String,
        /// Raw device id.
        device: u32,
    },
    /// The trusted helper moved a mapping (lifting any quarantine).
    /// Renames of unknown paths fold to nothing, mirroring the map.
    DeviceRenamed {
        /// Previous path.
        old: String,
        /// New path.
        new: String,
    },
    /// A path was revoked and its device quarantined (fail closed).
    DeviceRevoked {
        /// The revoked path.
        path: String,
    },
    /// A path mapping was removed without quarantine.
    DeviceRemoved {
        /// The removed path.
        path: String,
    },
    /// A permission verdict (the structured mirror of the decision
    /// trace, `Copy`-sized so the decide hot path never allocates).
    Verdict {
        /// Whether access was granted.
        granted: bool,
        /// Raw resource-op tag (kernel `ResourceOp` discriminant).
        op: u8,
        /// Which policy rule fired.
        rule: RuleKind,
    },
}

impl Effect {
    /// A stable small-integer class tag for effect histograms (the
    /// fleet's per-class entry counts). [`Effect::NO_EFFECT_CLASS`] is
    /// reserved for entries that carry no effect.
    pub fn class(&self) -> u8 {
        match self {
            Effect::Config { .. } => 0,
            Effect::Channel { .. } => 1,
            Effect::DeviceAttached { .. } => 2,
            Effect::DeviceInserted { .. } => 3,
            Effect::DeviceRenamed { .. } => 4,
            Effect::DeviceRevoked { .. } => 5,
            Effect::DeviceRemoved { .. } => 6,
            Effect::Verdict { .. } => 7,
        }
    }

    /// Class tag counted for entries with no effect payload.
    pub const NO_EFFECT_CLASS: u8 = 255;

    /// Human label for a class tag from [`Effect::class`].
    pub fn class_label(class: u8) -> &'static str {
        match class {
            0 => "config",
            1 => "channel",
            2 => "device_attached",
            3 => "device_inserted",
            4 => "device_renamed",
            5 => "device_revoked",
            6 => "device_removed",
            7 => "verdict",
            Effect::NO_EFFECT_CLASS => "none",
            _ => "unknown",
        }
    }
}

/// One typed history entry, before sealing.
///
/// `category`/`pid`/`detail` are what the rendered audit row shows;
/// `effect` is the structured payload the reduction folds; a `silent`
/// entry is left out of the rendered audit log — used for control-plane
/// mutations that were historically unaudited, so the rendered log stays
/// byte-identical to what tests expect.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Virtual time of the event.
    pub at: Timestamp,
    /// The process the entry concerns, if any.
    pub pid: Option<Pid>,
    /// Audit category (also the rendered audit row's category).
    pub category: AuditCategory,
    /// Rendered detail. Hot-path appends use `Cow::Borrowed` statics so
    /// sealing is allocation-free.
    pub detail: Cow<'static, str>,
    /// Structured payload, if the entry mutates control-plane state or
    /// records a verdict.
    pub effect: Option<Effect>,
    /// Whether the entry is excluded from the rendered audit log.
    pub silent: bool,
}

impl LedgerEntry {
    /// An audited (non-silent) entry with no structured effect — the
    /// shape of an audit row.
    #[inline]
    pub fn event(
        at: Timestamp,
        category: AuditCategory,
        pid: Option<Pid>,
        detail: impl Into<Cow<'static, str>>,
    ) -> Self {
        LedgerEntry {
            at,
            pid,
            category,
            detail: detail.into(),
            effect: None,
            silent: false,
        }
    }

    /// Attaches a structured effect.
    #[inline]
    pub fn with_effect(mut self, effect: Effect) -> Self {
        self.effect = Some(effect);
        self
    }

    /// A silent entry: structured effect only, no audit row.
    pub fn silent(at: Timestamp, effect: Effect) -> Self {
        LedgerEntry {
            at,
            pid: None,
            category: AuditCategory::Info,
            detail: Cow::Borrowed(""),
            effect: Some(effect),
            silent: true,
        }
    }
}

/// An entry sealed into the chain: its sequence number and the chain
/// hash covering the whole history up to and including it.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedEntry {
    /// Monotone position in the total order (never reused, survives
    /// harness clears).
    pub seq: u64,
    /// Running chain hash after this entry.
    pub chain: u64,
    /// The entry itself.
    pub entry: LedgerEntry,
}

/// A typed chain-verification failure. Never a panic: adversarial inputs
/// land here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerError {
    /// An entry's sequence number is not `base_seq + index`: the history
    /// was reordered, spliced, or truncated in the middle.
    SeqGap {
        /// The sequence number expected at this position.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
    /// An entry's stored seal does not match the recomputed chain hash.
    ChainMismatch {
        /// Sequence number of the offending entry.
        seq: u64,
        /// The recomputed seal.
        expected: u64,
        /// The stored seal.
        found: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::SeqGap { expected, found } => {
                write!(f, "ledger sequence gap: expected {expected}, found {found}")
            }
            LedgerError::ChainMismatch {
                seq,
                expected,
                found,
            } => write!(
                f,
                "ledger chain mismatch at seq {seq}: recomputed {expected:#018x}, stored {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Seals one entry onto the chain: FNV-1a over the packed
/// `(prev, seq, entry)`, staged through `scratch` (cleared first) so hot
/// append loops reuse one buffer instead of allocating per record. The
/// sealed bytes — and so every chain head — are identical to packing into
/// a fresh encoder.
#[inline]
fn seal(scratch: &mut Enc, prev: u64, seq: u64, entry: &LedgerEntry) -> u64 {
    scratch.clear();
    prev.pack(scratch);
    seq.pack(scratch);
    entry.pack(scratch);
    fnv1a64(scratch.bytes())
}

/// The append-only hash-chained history.
///
/// Serialization keeps `seq`/`chain` verbatim (they are *evidence*, not
/// derivable hints), so corruption introduced between a seal and a later
/// verify is detected rather than silently re-derived away.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Sequence number of the first retained entry (entries before it
    /// were discarded by a harness clear; their history is summarized by
    /// `base_head`).
    base_seq: u64,
    /// Chain hash sealing everything before the first retained entry
    /// ([`GENESIS_HEAD`] for a never-cleared ledger).
    base_head: u64,
    entries: Vec<SealedEntry>,
    /// Reusable seal staging buffer (never serialized or compared; purely
    /// an allocation-avoidance cache for the append hot path).
    scratch: Enc,
}

impl Ledger {
    /// An empty ledger at the genesis head.
    pub fn new() -> Self {
        Ledger {
            base_seq: 0,
            base_head: GENESIS_HEAD,
            entries: Vec::new(),
            scratch: Enc::new(),
        }
    }

    /// Appends an entry, sealing it onto the chain. Returns the new chain
    /// head.
    #[inline]
    pub fn append(&mut self, entry: LedgerEntry) -> u64 {
        let seq = self.next_seq();
        let prev = self.head();
        let chain = seal(&mut self.scratch, prev, seq, &entry);
        self.entries.push(SealedEntry { seq, chain, entry });
        chain
    }

    /// The current chain head (covers every entry ever appended,
    /// including ones discarded by [`Ledger::clear`]).
    #[inline]
    pub fn head(&self) -> u64 {
        self.entries.last().map_or(self.base_head, |e| e.chain)
    }

    /// Reassembles a ledger from untrusted parts — e.g. a history shipped
    /// by another machine, or a tampering corpus under test. Seals and
    /// sequence numbers are taken verbatim; run [`Ledger::verify_chain`]
    /// before trusting the result.
    pub fn from_parts(base_seq: u64, base_head: u64, entries: Vec<SealedEntry>) -> Ledger {
        Ledger {
            base_seq,
            base_head,
            entries,
            scratch: Enc::new(),
        }
    }

    /// The next sequence number an append would take (equals the count
    /// of entries ever appended).
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.entries.len() as u64
    }

    /// Sequence number of the first retained entry.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Chain hash sealing the discarded prefix ([`GENESIS_HEAD`] for a
    /// never-cleared ledger).
    pub fn base_head(&self) -> u64 {
        self.base_head
    }

    /// The retained sealed entries.
    pub fn entries(&self) -> &[SealedEntry] {
        &self.entries
    }

    /// The retained entries that are not silent: the rows of the audit
    /// log, in append order.
    pub fn audited(&self) -> impl Iterator<Item = &LedgerEntry> {
        self.entries
            .iter()
            .map(|sealed| &sealed.entry)
            .filter(|entry| !entry.silent)
    }

    /// The audit log of the retained history, rendered from
    /// [`Ledger::audited`] on each call.
    pub fn audit(&self) -> AuditLog {
        let mut log = AuditLog::new();
        for entry in self.audited() {
            log.record(entry.at, entry.category, entry.pid, entry.detail.clone());
        }
        log
    }

    /// Discards retained entries, keeping the chain head and sequence
    /// numbering monotone (measurement harnesses call this so unbounded
    /// history growth cannot distort long loops).
    pub fn clear(&mut self) {
        self.base_seq = self.next_seq();
        self.base_head = self.head();
        self.entries.clear();
    }

    /// Re-derives the chain over the retained entries and checks every
    /// stored seal and sequence number.
    ///
    /// # Errors
    ///
    /// [`LedgerError::SeqGap`] on reordered/spliced/renumbered history,
    /// [`LedgerError::ChainMismatch`] on any payload or seal corruption.
    pub fn verify_chain(&self) -> Result<(), LedgerError> {
        let mut prev = self.base_head;
        let mut scratch = Enc::new();
        for (i, sealed) in self.entries.iter().enumerate() {
            let expected_seq = self.base_seq + i as u64;
            if sealed.seq != expected_seq {
                return Err(LedgerError::SeqGap {
                    expected: expected_seq,
                    found: sealed.seq,
                });
            }
            let expected = seal(&mut scratch, prev, sealed.seq, &sealed.entry);
            if sealed.chain != expected {
                return Err(LedgerError::ChainMismatch {
                    seq: sealed.seq,
                    expected,
                    found: sealed.chain,
                });
            }
            prev = sealed.chain;
        }
        Ok(())
    }

    /// Folds the retained entries' effects into `seed` (boot defaults for
    /// a full history, or a restored control plane for a suffix) and
    /// returns the reduced control-plane state.
    pub fn reduce(&self, mut seed: ControlPlane) -> ControlPlane {
        for sealed in &self.entries {
            if let Some(effect) = &sealed.entry.effect {
                seed.apply(effect);
            }
        }
        seed
    }

    /// Serializes the ledger into its own versioned container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.pack(&mut enc);
        Snapshot::new(enc.into_bytes(), Vec::new()).to_bytes()
    }

    /// Parses a ledger serialized by [`Ledger::to_bytes`]. Seals and
    /// sequence numbers are restored verbatim — run
    /// [`Ledger::verify_chain`] to validate them.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from a truncated or corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Ledger, SnapshotError> {
        let container = Snapshot::from_bytes(bytes)?;
        let mut dec = Dec::new(container.state());
        let ledger = Pack::unpack(&mut dec)?;
        dec.finish()?;
        Ok(ledger)
    }
}

/// The control-plane state that is, by construction, a pure fold of the
/// ledger: policy switches, the monitor's δ/grant-all, channel health,
/// and the device map (paths + quarantine set).
///
/// `Default` is the boot state of a machine that has recorded nothing:
/// everything off, channel down, no devices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ControlPlane {
    /// Whether Overhaul mediation is enabled.
    pub overhaul_enabled: bool,
    /// Whether ptrace hardening is enabled.
    pub ptrace_hardening: bool,
    /// Whether mediation requires a live display channel.
    pub channel_required: bool,
    /// The monitor's temporal-proximity threshold δ, in milliseconds.
    pub delta_ms: u64,
    /// The monitor's grant-all (measurement) mode.
    pub grant_all: bool,
    /// Display-channel health.
    pub channel: ChannelTag,
    /// Sensitive-device map: path → raw device id.
    pub devices_by_path: BTreeMap<String, u32>,
    /// Devices quarantined pending a helper update.
    pub quarantined: BTreeSet<u32>,
}

impl ControlPlane {
    /// Applies one effect, mirroring the kernel's own mutation semantics
    /// (notably: revoking an unknown path quarantines nothing, renaming
    /// an unknown path is ignored, and any insert lifts quarantine).
    pub fn apply(&mut self, effect: &Effect) {
        match effect {
            Effect::Config { key, value } => match key {
                ConfigKey::OverhaulEnabled => self.overhaul_enabled = *value != 0,
                ConfigKey::PtraceHardening => self.ptrace_hardening = *value != 0,
                ConfigKey::ChannelRequired => self.channel_required = *value != 0,
                ConfigKey::DeltaMs => self.delta_ms = *value,
                ConfigKey::GrantAll => self.grant_all = *value != 0,
            },
            Effect::Channel { to } => self.channel = *to,
            Effect::DeviceAttached { path, device } | Effect::DeviceInserted { path, device } => {
                self.quarantined.remove(device);
                self.devices_by_path.insert(path.clone(), *device);
            }
            Effect::DeviceRenamed { old, new } => {
                if let Some(device) = self.devices_by_path.remove(old) {
                    self.quarantined.remove(&device);
                    self.devices_by_path.insert(new.clone(), device);
                }
            }
            Effect::DeviceRevoked { path } => {
                if let Some(device) = self.devices_by_path.remove(path) {
                    self.quarantined.insert(device);
                }
            }
            Effect::DeviceRemoved { path } => {
                self.devices_by_path.remove(path);
            }
            Effect::Verdict { .. } => {}
        }
    }

    /// FNV-1a hash of the packed control plane — the byte-identity the
    /// state-as-reduction acceptance check compares.
    pub fn state_hash(&self) -> u64 {
        let mut enc = Enc::new();
        self.pack(&mut enc);
        fnv1a64(enc.bytes())
    }

    /// Field-by-field divergence between two control planes, one line per
    /// differing field (`field: self_value != other_value`). Empty when
    /// the planes agree — the fleet's ledger-diff view uses this to
    /// localize *where* two shards' control planes drifted apart.
    pub fn diff(&self, other: &ControlPlane) -> Vec<String> {
        let mut out = Vec::new();
        if self.overhaul_enabled != other.overhaul_enabled {
            out.push(format!(
                "overhaul_enabled: {} != {}",
                self.overhaul_enabled, other.overhaul_enabled
            ));
        }
        if self.ptrace_hardening != other.ptrace_hardening {
            out.push(format!(
                "ptrace_hardening: {} != {}",
                self.ptrace_hardening, other.ptrace_hardening
            ));
        }
        if self.channel_required != other.channel_required {
            out.push(format!(
                "channel_required: {} != {}",
                self.channel_required, other.channel_required
            ));
        }
        if self.delta_ms != other.delta_ms {
            out.push(format!("delta_ms: {} != {}", self.delta_ms, other.delta_ms));
        }
        if self.grant_all != other.grant_all {
            out.push(format!(
                "grant_all: {} != {}",
                self.grant_all, other.grant_all
            ));
        }
        if self.channel != other.channel {
            out.push(format!(
                "channel: {:?} != {:?}",
                self.channel, other.channel
            ));
        }
        if self.devices_by_path != other.devices_by_path {
            let mine: Vec<&String> = self
                .devices_by_path
                .keys()
                .filter(|k| self.devices_by_path.get(*k) != other.devices_by_path.get(*k))
                .collect();
            let theirs: Vec<&String> = other
                .devices_by_path
                .keys()
                .filter(|k| !self.devices_by_path.contains_key(*k))
                .collect();
            out.push(format!(
                "devices_by_path: {} vs {} entries (changed here: {mine:?}, only there: {theirs:?})",
                self.devices_by_path.len(),
                other.devices_by_path.len()
            ));
        }
        if self.quarantined != other.quarantined {
            out.push(format!(
                "quarantined: {:?} != {:?}",
                self.quarantined, other.quarantined
            ));
        }
        out
    }
}

/// A compact, serializable digest of one [`Ledger`]: chain anchors, entry
/// and effect-class counts, and the control plane reduced from the
/// retained history. This is what shards ship to the fleet for the
/// cross-shard ledger aggregation/diff view — small enough to collect
/// from hundreds of shards, rich enough to localize a divergence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LedgerSummary {
    /// Current chain head.
    pub head: u64,
    /// Sequence number of the first retained entry.
    pub base_seq: u64,
    /// Chain hash sealing the discarded prefix.
    pub base_head: u64,
    /// The next sequence number an append would take.
    pub next_seq: u64,
    /// Retained entry count.
    pub entries: u64,
    /// Effect-class tag ([`Effect::class`]) → count over retained
    /// entries; entries without an effect count under
    /// [`Effect::NO_EFFECT_CLASS`].
    pub effects: BTreeMap<u8, u64>,
    /// The control plane reduced from the retained history (boot state
    /// seed), i.e. `ledger.reduce(ControlPlane::default())`.
    pub plane: ControlPlane,
}

impl LedgerSummary {
    /// Digests a ledger.
    pub fn of(ledger: &Ledger) -> LedgerSummary {
        let mut effects: BTreeMap<u8, u64> = BTreeMap::new();
        for sealed in ledger.entries() {
            let class = sealed
                .entry
                .effect
                .as_ref()
                .map_or(Effect::NO_EFFECT_CLASS, Effect::class);
            *effects.entry(class).or_insert(0) += 1;
        }
        LedgerSummary {
            head: ledger.head(),
            base_seq: ledger.base_seq(),
            base_head: ledger.base_head(),
            next_seq: ledger.next_seq(),
            entries: ledger.entries().len() as u64,
            effects,
            plane: ledger.reduce(ControlPlane::default()),
        }
    }

    /// Renders the digest for humans (`ovq` and the soak report).
    pub fn render(&self) -> String {
        let mut out = format!(
            "head {:016x}  seqs [{}, {})  entries {}\n",
            self.head, self.base_seq, self.next_seq, self.entries
        );
        for (class, count) in &self.effects {
            out.push_str(&format!(
                "  effect {:<16} {count}\n",
                Effect::class_label(*class)
            ));
        }
        out
    }

    /// Localizes the divergence between two shard histories: chain
    /// anchors, per-class entry counts, and the reduced control planes
    /// are compared field by field. Empty when the digests agree.
    pub fn diff(&self, other: &LedgerSummary) -> Vec<String> {
        let mut out = Vec::new();
        if self.head != other.head {
            out.push(format!("head: {:016x} != {:016x}", self.head, other.head));
        }
        if (self.base_seq, self.base_head) != (other.base_seq, other.base_head) {
            out.push(format!(
                "base: seq {} head {:016x} != seq {} head {:016x}",
                self.base_seq, self.base_head, other.base_seq, other.base_head
            ));
        }
        if self.entries != other.entries {
            out.push(format!("entries: {} != {}", self.entries, other.entries));
        }
        let classes: std::collections::BTreeSet<u8> = self
            .effects
            .keys()
            .chain(other.effects.keys())
            .copied()
            .collect();
        for class in classes {
            let a = self.effects.get(&class).copied().unwrap_or(0);
            let b = other.effects.get(&class).copied().unwrap_or(0);
            if a != b {
                out.push(format!("effect {}: {a} != {b}", Effect::class_label(class)));
            }
        }
        for line in self.plane.diff(&other.plane) {
            out.push(format!("plane {line}"));
        }
        out
    }
}

mod pack {
    //! Versioned binary codec for the ledger, reusing the snapshot
    //! machinery. Seals and sequence numbers serialize verbatim so a
    //! decoded ledger still witnesses any corruption of its bytes.

    use std::borrow::Cow;

    use super::{
        ChannelTag, ConfigKey, ControlPlane, Effect, Ledger, LedgerEntry, RuleKind, SealedEntry,
    };
    use crate::audit::AuditCategory;
    use crate::impl_pack;
    use crate::snapshot::{Dec, Enc, Pack, SnapshotError};

    impl Pack for AuditCategory {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                AuditCategory::InteractionNotification => 0,
                AuditCategory::PermissionGranted => 1,
                AuditCategory::PermissionDenied => 2,
                AuditCategory::SyntheticInputFiltered => 3,
                AuditCategory::ClickjackingSuppressed => 4,
                AuditCategory::AlertDisplayed => 5,
                AuditCategory::InteractionPropagated => 6,
                AuditCategory::ProtocolAttackBlocked => 7,
                AuditCategory::PtraceHardening => 8,
                AuditCategory::ChannelEvent => 9,
                AuditCategory::Info => 10,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => AuditCategory::InteractionNotification,
                1 => AuditCategory::PermissionGranted,
                2 => AuditCategory::PermissionDenied,
                3 => AuditCategory::SyntheticInputFiltered,
                4 => AuditCategory::ClickjackingSuppressed,
                5 => AuditCategory::AlertDisplayed,
                6 => AuditCategory::InteractionPropagated,
                7 => AuditCategory::ProtocolAttackBlocked,
                8 => AuditCategory::PtraceHardening,
                9 => AuditCategory::ChannelEvent,
                10 => AuditCategory::Info,
                _ => return Err(SnapshotError::BadValue("audit category")),
            })
        }
    }

    /// `Cow` details encode by content; restore owns the string. Equality
    /// and rendering only see the content, so this is transparent.
    impl Pack for Cow<'static, str> {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u64(self.len() as u64);
            enc.put_slice(self.as_bytes());
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(Cow::Owned(String::unpack(dec)?))
        }
    }

    impl Pack for ConfigKey {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                ConfigKey::OverhaulEnabled => 0,
                ConfigKey::PtraceHardening => 1,
                ConfigKey::ChannelRequired => 2,
                ConfigKey::DeltaMs => 3,
                ConfigKey::GrantAll => 4,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => ConfigKey::OverhaulEnabled,
                1 => ConfigKey::PtraceHardening,
                2 => ConfigKey::ChannelRequired,
                3 => ConfigKey::DeltaMs,
                4 => ConfigKey::GrantAll,
                _ => return Err(SnapshotError::BadValue("config key tag")),
            })
        }
    }

    impl Pack for ChannelTag {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                ChannelTag::Up => 0,
                ChannelTag::Degraded => 1,
                ChannelTag::Down => 2,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => ChannelTag::Up,
                1 => ChannelTag::Degraded,
                2 => ChannelTag::Down,
                _ => return Err(SnapshotError::BadValue("channel tag")),
            })
        }
    }

    impl Pack for RuleKind {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                RuleKind::WithinThreshold => 0,
                RuleKind::GrantAll => 1,
                RuleKind::NoInteraction => 2,
                RuleKind::Stale => 3,
                RuleKind::PermissionsFrozen => 4,
                RuleKind::ChannelDown => 5,
                RuleKind::Quarantined => 6,
                RuleKind::UnknownProcess => 7,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => RuleKind::WithinThreshold,
                1 => RuleKind::GrantAll,
                2 => RuleKind::NoInteraction,
                3 => RuleKind::Stale,
                4 => RuleKind::PermissionsFrozen,
                5 => RuleKind::ChannelDown,
                6 => RuleKind::Quarantined,
                7 => RuleKind::UnknownProcess,
                _ => return Err(SnapshotError::BadValue("rule kind tag")),
            })
        }
    }

    impl Pack for Effect {
        fn pack(&self, enc: &mut Enc) {
            match self {
                Effect::Config { key, value } => {
                    enc.put_u8(0);
                    key.pack(enc);
                    value.pack(enc);
                }
                Effect::Channel { to } => {
                    enc.put_u8(1);
                    to.pack(enc);
                }
                Effect::DeviceAttached { path, device } => {
                    enc.put_u8(2);
                    path.pack(enc);
                    device.pack(enc);
                }
                Effect::DeviceInserted { path, device } => {
                    enc.put_u8(3);
                    path.pack(enc);
                    device.pack(enc);
                }
                Effect::DeviceRenamed { old, new } => {
                    enc.put_u8(4);
                    old.pack(enc);
                    new.pack(enc);
                }
                Effect::DeviceRevoked { path } => {
                    enc.put_u8(5);
                    path.pack(enc);
                }
                Effect::DeviceRemoved { path } => {
                    enc.put_u8(6);
                    path.pack(enc);
                }
                Effect::Verdict { granted, op, rule } => {
                    enc.put_u8(7);
                    granted.pack(enc);
                    enc.put_u8(*op);
                    rule.pack(enc);
                }
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => Effect::Config {
                    key: Pack::unpack(dec)?,
                    value: Pack::unpack(dec)?,
                },
                1 => Effect::Channel {
                    to: Pack::unpack(dec)?,
                },
                2 => Effect::DeviceAttached {
                    path: Pack::unpack(dec)?,
                    device: Pack::unpack(dec)?,
                },
                3 => Effect::DeviceInserted {
                    path: Pack::unpack(dec)?,
                    device: Pack::unpack(dec)?,
                },
                4 => Effect::DeviceRenamed {
                    old: Pack::unpack(dec)?,
                    new: Pack::unpack(dec)?,
                },
                5 => Effect::DeviceRevoked {
                    path: Pack::unpack(dec)?,
                },
                6 => Effect::DeviceRemoved {
                    path: Pack::unpack(dec)?,
                },
                7 => Effect::Verdict {
                    granted: Pack::unpack(dec)?,
                    op: dec.take_u8()?,
                    rule: Pack::unpack(dec)?,
                },
                _ => return Err(SnapshotError::BadValue("effect tag")),
            })
        }
    }

    impl_pack!(LedgerEntry {
        at,
        pid,
        category,
        detail,
        effect,
        silent
    });

    impl_pack!(SealedEntry { seq, chain, entry });

    // Hand-written (not `impl_pack!`): the seal scratch buffer is not
    // state, so every serialized byte past the container framing is
    // covered by the chain.
    impl Pack for Ledger {
        fn pack(&self, enc: &mut Enc) {
            self.base_seq.pack(enc);
            self.base_head.pack(enc);
            self.entries.pack(enc);
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            let base_seq = Pack::unpack(dec)?;
            let base_head = Pack::unpack(dec)?;
            let entries: Vec<SealedEntry> = Pack::unpack(dec)?;
            Ok(Ledger::from_parts(base_seq, base_head, entries))
        }
    }

    impl_pack!(ControlPlane {
        overhaul_enabled,
        ptrace_hardening,
        channel_required,
        delta_ms,
        grant_all,
        channel,
        devices_by_path,
        quarantined
    });

    impl_pack!(super::LedgerSummary {
        head,
        base_seq,
        base_head,
        next_seq,
        entries,
        effects,
        plane
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ms: u64, detail: &'static str) -> LedgerEntry {
        LedgerEntry::event(
            Timestamp::from_millis(ms),
            AuditCategory::Info,
            None,
            detail,
        )
    }

    fn sample() -> Ledger {
        let mut ledger = Ledger::new();
        ledger.append(LedgerEntry::silent(
            Timestamp::from_millis(0),
            Effect::Config {
                key: ConfigKey::OverhaulEnabled,
                value: 1,
            },
        ));
        ledger.append(
            entry(10, "udev: attached microphone 'mic' at /dev/snd/mic0").with_effect(
                Effect::DeviceAttached {
                    path: "/dev/snd/mic0".into(),
                    device: 7,
                },
            ),
        );
        ledger.append(
            entry(20, "netlink: peer authenticated")
                .with_effect(Effect::Channel { to: ChannelTag::Up }),
        );
        ledger.append(entry(30, "op=mic granted").with_effect(Effect::Verdict {
            granted: true,
            op: 0,
            rule: RuleKind::WithinThreshold,
        }));
        ledger
    }

    #[test]
    fn chain_verifies_and_heads_are_monotone_evidence() {
        let ledger = sample();
        assert!(ledger.verify_chain().is_ok());
        assert_ne!(ledger.head(), GENESIS_HEAD);
        assert_eq!(ledger.next_seq(), 4);
        // Same history, same head; one more entry, different head.
        assert_eq!(sample().head(), ledger.head());
        let mut longer = sample();
        longer.append(entry(40, "marker"));
        assert_ne!(longer.head(), ledger.head());
    }

    #[test]
    fn projection_skips_silent_entries() {
        let ledger = sample();
        assert_eq!(ledger.entries().len(), 4);
        assert_eq!(
            ledger.audit().len(),
            3,
            "silent config entry must not project"
        );
        assert_eq!(ledger.audit().matching("op=mic granted").count(), 1);
    }

    #[test]
    fn tampered_payload_seal_or_seq_fails_typed() {
        // Payload tamper.
        let mut ledger = sample();
        ledger.entries[1].entry.detail = Cow::Borrowed("forged");
        assert!(matches!(
            ledger.verify_chain(),
            Err(LedgerError::ChainMismatch { seq: 1, .. })
        ));
        // Seal tamper.
        let mut ledger = sample();
        ledger.entries[2].chain ^= 1;
        assert!(matches!(
            ledger.verify_chain(),
            Err(LedgerError::ChainMismatch { seq: 2, .. })
        ));
        // Reorder.
        let mut ledger = sample();
        ledger.entries.swap(1, 2);
        assert!(matches!(
            ledger.verify_chain(),
            Err(LedgerError::SeqGap { .. })
        ));
        // Drop in the middle.
        let mut ledger = sample();
        ledger.entries.remove(1);
        assert!(ledger.verify_chain().is_err());
    }

    #[test]
    fn clear_keeps_chain_monotone_and_suffix_verifiable() {
        let mut ledger = sample();
        let head = ledger.head();
        ledger.clear();
        assert_eq!(ledger.head(), head, "clear must not rewind the chain");
        assert_eq!(ledger.next_seq(), 4);
        assert!(ledger.audit().is_empty());
        ledger.append(entry(50, "after clear"));
        assert!(ledger.verify_chain().is_ok());
        assert_eq!(ledger.entries()[0].seq, 4);
    }

    #[test]
    fn round_trip_preserves_chain_and_projection() {
        let ledger = sample();
        let decoded = Ledger::from_bytes(&ledger.to_bytes()).expect("decode");
        assert_eq!(decoded.head(), ledger.head());
        assert_eq!(decoded.next_seq(), ledger.next_seq());
        assert_eq!(decoded.entries(), ledger.entries());
        assert_eq!(decoded.audit().events(), ledger.audit().events());
        assert!(decoded.verify_chain().is_ok());
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_rejected() {
        let ledger = sample();
        let bytes = ledger.to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut fuzzed = bytes.clone();
                fuzzed[i] ^= 1 << bit;
                // Parsed: the decoded history must fail chain
                // verification — a single flipped bit can never yield a
                // different-but-valid chain.
                if let Ok(decoded) = Ledger::from_bytes(&fuzzed) {
                    assert!(
                        decoded.verify_chain().is_err(),
                        "bit {bit} of byte {i} flipped yet the chain verified"
                    );
                }
            }
        }
    }

    #[test]
    fn reduction_mirrors_device_map_semantics() {
        let mut ledger = Ledger::new();
        let at = Timestamp::from_millis(0);
        ledger.append(LedgerEntry::silent(
            at,
            Effect::DeviceInserted {
                path: "/dev/video0".into(),
                device: 3,
            },
        ));
        ledger.append(LedgerEntry::silent(
            at,
            Effect::DeviceRevoked {
                path: "/dev/video0".into(),
            },
        ));
        let cp = ledger.reduce(ControlPlane::default());
        assert!(cp.devices_by_path.is_empty());
        assert!(cp.quarantined.contains(&3));

        // Re-insert lifts quarantine; rename of unknown path is ignored.
        ledger.append(LedgerEntry::silent(
            at,
            Effect::DeviceInserted {
                path: "/dev/video1".into(),
                device: 3,
            },
        ));
        ledger.append(LedgerEntry::silent(
            at,
            Effect::DeviceRenamed {
                old: "/dev/ghost".into(),
                new: "/dev/real".into(),
            },
        ));
        let cp = ledger.reduce(ControlPlane::default());
        assert!(cp.quarantined.is_empty());
        assert_eq!(cp.devices_by_path.get("/dev/video1"), Some(&3));
        assert!(!cp.devices_by_path.contains_key("/dev/real"));
    }

    #[test]
    fn reduction_is_resumable_from_a_mid_history_seed() {
        let full = sample();
        let from_boot = full.reduce(ControlPlane::default());

        // Split the history: reduce a prefix, seed the suffix with it.
        let mut prefix = Ledger::new();
        let mut suffix = Ledger::new();
        for (i, sealed) in full.entries().iter().enumerate() {
            if i < 2 {
                prefix.append(sealed.entry.clone());
            } else {
                suffix.append(sealed.entry.clone());
            }
        }
        let resumed = suffix.reduce(prefix.reduce(ControlPlane::default()));
        assert_eq!(resumed, from_boot);
        assert_eq!(resumed.state_hash(), from_boot.state_hash());
    }
}
