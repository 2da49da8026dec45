//! The benchmark's metric catalogue, the single source of `BENCHMARK.json`.
//!
//! `perfbench --manifest` prints the file; every run checks that the
//! committed file still matches, so the metric names, units and bounds a
//! run reports can never drift from the ones the file declares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// A workload and why it was chosen.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads, in the order the file lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "table1_device",
        why: "Table I row 1, sys_open+sys_close of /dev/snd/mic0 against the stock stack; \
              syscall entry, vfs/devfs and one cached decide",
    },
    Workload {
        name: "table1_paste",
        why: "Table I row 2, a full ICCCM paste against the stock stack; X dispatch, the \
              selection state machine and the netlink permission query",
    },
    Workload {
        name: "table1_capture",
        why: "Table I row 3, a root-window GetImage against the stock stack; the X server's \
              capture path and its permission query",
    },
    Workload {
        name: "table1_shm",
        why: "Table I row 4, 8-byte shared-memory writes against the stock stack; the mm \
              fault path re-armed as virtual time passes the wait window",
    },
    Workload {
        name: "table1_fs",
        why: "Table I row 5, creat+close+stat+unlink against the stock stack; vfs create, \
              stat and unlink on the syscall path",
    },
    Workload {
        name: "ingest_hot",
        why: "256 tasks all within delta through Kernel::ingest_batch; nearly every request \
              hits the verdict cache, so slot lookup, probe, ledger seal and sketch are the cost",
    },
    Workload {
        name: "ingest_churn",
        why: "same API with time advancing, epoch-bumping interactions, stale denies and task \
              exit/re-fork; the snapshot+engine path does the work and the cache is bypassed",
    },
    Workload {
        name: "session_replay",
        why: "a recorded desktop session, mostly IngestBatch and kernel time: checkpoint, \
              restore, replay from boot and from a mid-run snapshot; the only user of replay code",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_pct",
        unit: "%",
        better: "higher",
        bound: 0.01,
    },
];

/// The per-layer metrics every workload reports with `--trace 1`, as
/// `(name, unit, better)`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Decide path (ingest workloads; decide_hit also on table1_device).
    ("process.slot_lookup_ns", "ns", "lower"),
    ("policy.cache_probe_ns", "ns", "lower"),
    ("policy.cache_hit_ratio", "ratio", "higher"),
    ("policy.snapshot_ns", "ns", "lower"),
    ("policy.engine_ns", "ns", "lower"),
    ("kernel.decide_hit_ns", "ns", "lower"),
    ("kernel.decide_miss_ns", "ns", "lower"),
    ("kernel.decide_hit_unattributed_ns", "ns", "lower"),
    ("kernel.decide_miss_unattributed_ns", "ns", "lower"),
    ("kernel.interaction_ns", "ns", "lower"),
    ("kernel.clear_history_ns", "ns", "lower"),
    ("ledger.append_ns", "ns", "lower"),
    ("audit.record_ns", "ns", "lower"),
    ("ledger.entries_per_decision", "count", "lower"),
    ("sketch.record_ns", "ns", "lower"),
    ("trace.span_ns", "ns", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("ingest.decisions_per_s", "1/s", "higher"),
    ("ingest.batch_p50_us", "us", "lower"),
    ("ingest.batch_p99_us", "us", "lower"),
    ("ingest.batch_samples", "count", "higher"),
    // Table I rows, Overhaul side, untraced.
    ("table1.device_open_us", "us", "lower"),
    ("table1.paste_us", "us", "lower"),
    ("table1.capture_ms", "ms", "lower"),
    ("table1.shm_write_ns", "ns", "lower"),
    ("table1.fs_cycle_us", "us", "lower"),
    ("table1.device_open_p99_us", "us", "lower"),
    ("table1.device_open_samples", "count", "higher"),
    ("table1.paste_p99_us", "us", "lower"),
    ("table1.paste_samples", "count", "higher"),
    ("table1.fs_cycle_p99_us", "us", "lower"),
    ("table1.fs_cycle_samples", "count", "higher"),
    // Table I layers.
    ("vfs.resolve_ns", "ns", "lower"),
    ("devfs.lookup_ns", "ns", "lower"),
    ("vfs.create_ns", "ns", "lower"),
    ("vfs.stat_ns", "ns", "lower"),
    ("vfs.unlink_ns", "ns", "lower"),
    ("mm.begin_access_ns", "ns", "lower"),
    ("mm.faults_per_kwrite", "count", "lower"),
    ("netlink.query_us", "us", "lower"),
    ("xserver.convert_selection_us", "us", "lower"),
    ("xserver.change_property_us", "us", "lower"),
    ("xserver.send_event_us", "us", "lower"),
    ("xserver.get_property_us", "us", "lower"),
    ("xserver.get_image_ms", "ms", "lower"),
    // The paper comparison: stock per-op time and what Overhaul adds.
    ("mediation.device_stock_ns", "ns", "lower"),
    ("mediation.device_added_ns", "ns", "lower"),
    ("mediation.device_overhead_pct", "%", "lower"),
    ("mediation.paste_stock_ns", "ns", "lower"),
    ("mediation.paste_added_ns", "ns", "lower"),
    ("mediation.paste_overhead_pct", "%", "lower"),
    ("mediation.capture_stock_ns", "ns", "lower"),
    ("mediation.capture_added_ns", "ns", "lower"),
    ("mediation.capture_overhead_pct", "%", "lower"),
    ("mediation.shm_stock_ns", "ns", "lower"),
    ("mediation.shm_added_ns", "ns", "lower"),
    ("mediation.shm_overhead_pct", "%", "lower"),
    ("mediation.fs_stock_ns", "ns", "lower"),
    ("mediation.fs_added_ns", "ns", "lower"),
    ("mediation.fs_overhead_pct", "%", "lower"),
    // Session replay.
    ("replay.events_per_s", "1/s", "higher"),
    ("replay.from_snapshot_events_per_s", "1/s", "higher"),
    ("replay.checkpoint_ms", "ms", "lower"),
    ("replay.restore_ms", "ms", "lower"),
    ("window.is_visible_ns", "ns", "lower"),
    ("system.state_hash_us", "us", "lower"),
    ("system.snapshot_us", "us", "lower"),
    ("snapshot.encode_us", "us", "lower"),
    ("snapshot.decode_us", "us", "lower"),
    ("system.from_snapshot_us", "us", "lower"),
    ("snapshot.state_bytes", "bytes", "lower"),
    ("replay.apply_launch_gui_app_us", "us", "lower"),
    ("replay.apply_click_window_us", "us", "lower"),
    ("replay.apply_key_us", "us", "lower"),
    ("replay.apply_x_request_us", "us", "lower"),
    ("replay.apply_open_device_us", "us", "lower"),
    ("replay.apply_sys_fork_us", "us", "lower"),
    ("replay.apply_sys_write_us", "us", "lower"),
    ("replay.apply_sys_read_us", "us", "lower"),
    ("replay.apply_sys_shm_write_us", "us", "lower"),
    ("replay.apply_ingest_batch_us", "us", "lower"),
    ("replay.apply_other_us", "us", "lower"),
    ("replay.unattributed_us", "us", "lower"),
];

/// The `BENCHMARK.json` text.
pub fn render() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ");
    out.push_str("\"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Metric values a workload measured, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records every value of `other` whose name has none here yet.
    pub fn fill_from(&mut self, other: Metrics) {
        for (name, value) in other.values {
            self.values.entry(name).or_insert(value);
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The metric object of the result line: every end-to-end metric
    /// (`traced == false`) or every per-layer one, with its unit.
    ///
    /// # Errors
    ///
    /// Names a metric the workload recorded that the catalogue does not
    /// declare, a declared metric it did not record, or a value that is
    /// not finite. A true 0 must be recorded as such.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let declared: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for name in self.values.keys() {
            let known_elsewhere = PER_LAYER.iter().any(|(n, _, _)| n == name)
                || END_TO_END.iter().any(|m| m.name == *name);
            if !known_elsewhere {
                return Err(format!("metric {name} is not in the catalogue"));
            }
        }
        let mut out = String::from("{");
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }
}
