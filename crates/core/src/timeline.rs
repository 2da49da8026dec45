//! Unified audit timeline.
//!
//! Both halves of the system keep their own ledger (the kernel's
//! permission monitor and the display manager's trusted paths). The §V-C
//! and §V-D analyses work by "inspecting the logs produced by our system";
//! [`merge`] interleaves the audited entries of the two ledgers into one
//! chronological view so a single pass answers questions like *which
//! interaction led to this grant* or *which component blocked this
//! attack*.

use std::borrow::Cow;
use std::fmt;

use overhaul_sim::{AuditCategory, Pid, Timestamp};

use crate::system::System;

/// Which component recorded an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// The kernel (permission monitor, propagation, ptrace).
    Kernel,
    /// The display manager (trusted input/output, display mediation).
    DisplayManager,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Source::Kernel => "kernel",
            Source::DisplayManager => "xserver",
        })
    }
}

/// One entry in the merged timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Virtual time of the event.
    pub at: Timestamp,
    /// Recording component.
    pub source: Source,
    /// Event category.
    pub category: AuditCategory,
    /// Process concerned, if identified.
    pub pid: Option<Pid>,
    /// Detail text.
    pub detail: Cow<'static, str>,
}

impl fmt::Display for TimelineEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:>7} {}", self.at, self.source, self.category)?;
        if let Some(pid) = self.pid {
            write!(f, " {pid}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Merges the audited entries of both ledgers into one chronological
/// timeline. Entries with equal timestamps keep kernel-before-display
/// order (notifications reach the monitor before the decision they
/// enable).
pub fn merge(system: &System) -> Vec<TimelineEntry> {
    let kernel = system
        .kernel_ledger()
        .audited()
        .map(|e| (Source::Kernel, e));
    let x = system
        .x_ledger()
        .audited()
        .map(|e| (Source::DisplayManager, e));
    let mut entries: Vec<TimelineEntry> = kernel
        .chain(x)
        .map(|(source, e)| TimelineEntry {
            at: e.at,
            source,
            category: e.category,
            pid: e.pid,
            detail: e.detail.clone(),
        })
        .collect();
    entries.sort_by_key(|e| (e.at, matches!(e.source, Source::DisplayManager)));
    entries
}

/// Renders a timeline, optionally filtered to one pid.
pub fn render(entries: &[TimelineEntry], only_pid: Option<Pid>) -> String {
    entries
        .iter()
        .filter(|e| only_pid.is_none() || e.pid == only_pid)
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_sim::SimDuration;
    use overhaul_xserver::geometry::Rect;

    #[test]
    fn merge_is_chronological_and_complete() {
        let mut system = System::protected();
        let app = system
            .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 100, 100))
            .unwrap();
        system.settle();
        system.click_window(app.window);
        system.advance(SimDuration::from_millis(100));
        let _ = system.open_device(app.pid, "/dev/snd/mic0");

        let timeline = merge(&system);
        assert_eq!(
            timeline.len(),
            system.kernel_audit().len() + system.x_audit().len()
        );
        for pair in timeline.windows(2) {
            assert!(pair[0].at <= pair[1].at, "out of order: {pair:?}");
        }
        // The story reads in causal order: notification before grant
        // before alert.
        let interaction = timeline
            .iter()
            .position(|e| e.category == AuditCategory::InteractionNotification)
            .expect("interaction present");
        let grant = timeline
            .iter()
            .position(|e| e.category == AuditCategory::PermissionGranted)
            .expect("grant present");
        let alert = timeline
            .iter()
            .position(|e| e.category == AuditCategory::AlertDisplayed)
            .expect("alert present");
        assert!(interaction < grant, "notification precedes the grant");
        assert!(grant < alert, "grant precedes the alert");
    }

    #[test]
    fn render_filters_by_pid() {
        let mut system = System::protected();
        let spy = system.spawn_process(None, "/usr/bin/.spy").unwrap();
        let other = system.spawn_process(None, "/usr/bin/other").unwrap();
        let _ = system.open_device(spy, "/dev/video0");
        let _ = system.open_device(other, "/dev/snd/mic0");
        let timeline = merge(&system);
        let spy_only = render(&timeline, Some(spy));
        assert!(spy_only.contains(&spy.to_string()));
        assert!(!spy_only.contains(&other.to_string()));
    }

    #[test]
    fn sources_are_labeled() {
        let mut system = System::protected();
        let spy = system.spawn_process(None, "/usr/bin/.spy").unwrap();
        let _ = system.open_device(spy, "/dev/video0");
        let rendered = render(&merge(&system), None);
        assert!(rendered.contains("kernel"));
        assert!(rendered.contains("xserver"));
    }
}
