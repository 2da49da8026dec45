//! Probes of the layers every mediated operation passes through, whatever
//! the workload: the ledger seal, the audit projection, the latency
//! sketch and the span tracer. Each probe times the layer's public
//! function on a structure of its own, shaped as the decide path uses it.

use std::hint::black_box;

use overhaul_sim::{
    AuditCategory, AuditLog, Effect, Ledger, LedgerEntry, Mechanism, Pid, RuleKind, Sketches,
    Timestamp, TraceValue, Tracer,
};

use crate::stats::{timed, Probes};

/// Calls per probe block (the fixture size of the ingest workloads).
const BLOCK: usize = 1024;

/// A verdict-shaped ledger entry, as the decide path appends one for a
/// grant whose audit detail is `detail`.
fn verdict_entry(at: Timestamp, pid: Pid, detail: &'static str) -> LedgerEntry {
    LedgerEntry::event(at, AuditCategory::PermissionGranted, Some(pid), detail).with_effect(
        Effect::Verdict {
            granted: true,
            op: 0,
            rule: RuleKind::WithinThreshold,
        },
    )
}

/// Adds the probes of `ledger.append_ns`, `audit.record_ns`,
/// `sketch.record_ns` and `trace.span_ns` to `probes`. `detail` is the
/// audit detail the workload's decisions carry.
pub fn add_common<S>(probes: &mut Probes<'_, S>, detail: &'static str) {
    let at = Timestamp::from_millis(1_000);
    let pid = Pid::from_raw(42);
    let mut ledger = Ledger::new();
    probes.add("ledger.append_ns", move |_, _| {
        ledger.clear();
        let took = timed(|| {
            for _ in 0..BLOCK {
                black_box(ledger.append(verdict_entry(at, pid, detail)));
            }
        });
        (took, BLOCK)
    });
    probes.add("audit.record_ns", move |_, _| {
        let mut log = AuditLog::new();
        let took = timed(|| {
            for _ in 0..BLOCK {
                log.record(at, AuditCategory::PermissionGranted, Some(pid), detail);
            }
        });
        black_box(&log);
        (took, BLOCK)
    });
    let sketches = Sketches::new();
    probes.add("sketch.record_ns", move |_, round| {
        let took = timed(|| {
            for i in 0..BLOCK {
                let seq = (round * BLOCK + i) as u64;
                sketches.record(Mechanism::DecideCached, 0, 150 + (seq & 127), 0, seq);
            }
        });
        (took, BLOCK)
    });
    probes.add("trace.span_ns", move |_, _| {
        let tracer = Tracer::enabled();
        let took = timed(|| {
            for _ in 0..BLOCK {
                black_box(tracer.record_span(
                    "kernel.decide",
                    at,
                    at,
                    &[
                        ("pid", TraceValue::U64(42)),
                        ("verdict", TraceValue::Static("grant")),
                    ],
                ));
            }
        });
        (took, BLOCK)
    });
}
