//! `ingest_hot` and `ingest_churn`: decide ingestion through
//! `Kernel::ingest_batch` at full fidelity (monitor counters, ledger seal,
//! explain state, head-sampled sketch).
//!
//! Both start from the spawn/fork-chain fixture: a booted kernel with an
//! authenticated display channel and [`TASKS`] tasks, every one holding an
//! interaction. A seeded stream of requests across all six operations is
//! fed in batches of [`BATCH`] events, and history is rotated after every
//! batch. The generator keeps its own copy of each task's interaction
//! time and checks every verdict against the δ rule.
//!
//! - **hot**: virtual time moves 1 ms a batch and a round-robin refresh
//!   keeps every task within δ; a refresh really bumps the task's epoch,
//!   so about one request in a hundred misses.
//! - **churn**: virtual time moves 50–150 ms a batch with events spread
//!   over it, a third of the events are interactions carrying their own
//!   time (each bumps an epoch), a fifth of the tasks never interact
//!   again and go stale (denied), and [`CHURN_PER_BATCH`] tasks exit and
//!   are re-forked each batch, so arena slots are reused.

use std::hint::black_box;
use std::time::{Duration, Instant};

use overhaul_kernel::monitor::ResourceOp;
use overhaul_kernel::policy::{IngestEvent, OpRequest, PolicyEngine, PolicySnapshot, VerdictCache};
use overhaul_kernel::{Kernel, KernelConfig, XORG_PATH};
use overhaul_sim::{Clock, Pid, SimDuration, SimRng, Timestamp};

use crate::spans::Spans;
use crate::stats::{fast, mean, median, quantile, timed, Probes};
use crate::{layers, waterfall, Outcome, RunConfig, MIN_ROUNDS};

/// Workload tasks in the fixture. With 1024 tasks the verdict cache and
/// task table fill about the 2 MB L2 of the reference host, and time per
/// decision swung 0.28–0.44 µs between back-to-back runs as other tenants
/// of the core came and went; at 256 it held within 0.23–0.27 µs.
pub const TASKS: usize = 256;
/// Events per ingested batch.
pub const BATCH: usize = 1024;
/// Batches per timed chunk.
pub const CHUNK_BATCHES: usize = 64;
/// Tasks that exit and are re-forked after each churn batch.
pub const CHURN_PER_BATCH: usize = 2;
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Which ingest workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hot,
    Churn,
}

const OPS: [ResourceOp; 6] = [
    ResourceOp::Mic,
    ResourceOp::Cam,
    ResourceOp::Sensor,
    ResourceOp::Screen,
    ResourceOp::Copy,
    ResourceOp::Paste,
];

/// The kernel under test plus the generator and its δ oracle.
struct Fixture {
    kernel: Kernel,
    clock: Clock,
    rng: SimRng,
    mode: Mode,
    /// Live workload tasks; churn replaces entries in place.
    pids: Vec<Pid>,
    /// Oracle: the latest interaction (ms) of the task at each index of
    /// `pids`.
    interaction: Vec<Option<u64>>,
    delta_ms: u64,
    now_ms: u64,
    /// Next task the hot workload refreshes.
    refresh: usize,
}

impl Fixture {
    fn new(seed: u64, mode: Mode) -> Fixture {
        let clock = Clock::new();
        let config = KernelConfig::default();
        let delta_ms = config.monitor.delta.as_millis();
        let mut kernel = Kernel::new(clock.clone(), config);
        let x = kernel
            .sys_spawn(Pid::INIT, XORG_PATH)
            .expect("spawn display manager");
        kernel.netlink_connect(x).expect("authenticate channel");
        kernel.set_channel_required(true);
        let mut pids: Vec<Pid> = Vec::with_capacity(TASKS);
        for i in 0..TASKS {
            let pid = match pids.last() {
                Some(&prev) if i % 8 != 0 => kernel.sys_fork(prev).expect("fork"),
                _ => kernel
                    .sys_spawn(Pid::INIT, &format!("/usr/bin/app{i}"))
                    .expect("spawn"),
            };
            pids.push(pid);
        }
        let start_ms = 10_000;
        clock.advance(SimDuration::from_millis(start_ms));
        let mut fixture = Fixture {
            kernel,
            clock,
            rng: SimRng::seeded(seed),
            mode,
            pids,
            interaction: vec![None; TASKS],
            delta_ms,
            now_ms: start_ms,
            refresh: 0,
        };
        for task in 0..TASKS {
            let at = start_ms - fixture.rng.range(0, delta_ms / 4);
            fixture
                .kernel
                .record_interaction_direct(fixture.pids[task], Timestamp::from_millis(at))
                .expect("record interaction");
            fixture.note_interaction(task, at);
        }
        fixture
    }

    fn note_interaction(&mut self, task: usize, at: u64) {
        let slot = &mut self.interaction[task];
        *slot = Some(slot.map_or(at, |t| t.max(at)));
    }

    /// The δ rule: granted iff the task interacted less than δ before `at`.
    fn expect_grant(&self, task: usize, at: u64) -> bool {
        self.interaction[task].is_some_and(|t| at.saturating_sub(t) < self.delta_ms)
    }

    /// Generates the next batch and, aligned with it, the verdict the
    /// oracle expects for each request (`None` for interactions).
    fn next_batch(&mut self) -> (Vec<IngestEvent>, Vec<Option<bool>>) {
        let step = match self.mode {
            Mode::Hot => 1,
            Mode::Churn => self.rng.range(50, 150),
        };
        let start = self.now_ms;
        self.now_ms += step;
        self.clock.advance(SimDuration::from_millis(step));
        let n = self.pids.len() as u64;
        let mut events = Vec::with_capacity(BATCH);
        let mut expected = Vec::with_capacity(BATCH);
        for i in 0..BATCH {
            // Hot events all arrive at the batch's end; churn events are
            // spread over the step, so a task's second interaction in a
            // batch is usually newer than its first and bumps again.
            let now = match self.mode {
                Mode::Hot => self.now_ms,
                Mode::Churn => start + 1 + (i as u64 * step) / BATCH as u64,
            };
            let at = Timestamp::from_millis(now);
            let interaction = match self.mode {
                // 2 refreshes a batch revisit each task every 128 ms.
                Mode::Hot => (i % (BATCH / 2) == BATCH / 2 - 1).then(|| {
                    self.refresh = (self.refresh + 1) % TASKS;
                    self.refresh
                }),
                // Only the first four fifths of the tasks interact.
                Mode::Churn => {
                    (self.rng.range(0, 3) == 0).then(|| self.rng.range(0, n * 4 / 5) as usize)
                }
            };
            if let Some(task) = interaction {
                self.note_interaction(task, now);
                let pid = self.pids[task];
                events.push(IngestEvent::Interaction { pid, at });
                expected.push(None);
            } else {
                let task = self.rng.range(0, n) as usize;
                let op = OPS[self.rng.range(0, OPS.len() as u64) as usize];
                expected.push(Some(self.expect_grant(task, now)));
                let pid = self.pids[task];
                events.push(IngestEvent::Request(OpRequest { pid, op, at }));
            }
        }
        (events, expected)
    }

    /// Exits and reaps [`CHURN_PER_BATCH`] tasks and forks a replacement
    /// for each from another live task (which the child inherits its
    /// interaction from, P1).
    fn churn_tasks(&mut self, out: &mut Outcome) {
        let n = self.pids.len() as u64;
        for _ in 0..CHURN_PER_BATCH {
            let idx = self.rng.range(0, n) as usize;
            let victim = self.pids[idx];
            let exited = self.kernel.sys_exit(victim, 0).is_ok();
            let parent = self.kernel.tasks().get(victim).ok().and_then(|t| t.ppid());
            let reaped = parent.is_some_and(|p| self.kernel.sys_waitpid(p, victim).is_ok());
            let from = (idx + 1 + self.rng.range(0, n - 1) as usize) % n as usize;
            match self.kernel.sys_fork(self.pids[from]) {
                Ok(child) => {
                    self.interaction[idx] = self.interaction[from];
                    self.pids[idx] = child;
                    out.check(exited && reaped);
                }
                Err(_) => out.check(false),
            }
        }
    }
}

/// Checks a batch's outcomes against the oracle; returns the requests.
fn verify(
    expected: &[Option<bool>],
    got: &[Option<overhaul_kernel::policy::DecisionOutcome>],
    out: &mut Outcome,
) -> u64 {
    if got.len() != expected.len() {
        out.check(false);
        return 0;
    }
    let mut requests = 0;
    for (want, outcome) in expected.iter().zip(got) {
        match (want, outcome) {
            (None, None) => {}
            (Some(grant), Some(o)) => {
                requests += 1;
                out.check(o.decision.verdict.is_grant() == *grant);
            }
            _ => out.check(false),
        }
    }
    requests
}

/// One timed chunk: [`CHUNK_BATCHES`] batches, each followed by a history
/// rotation. Rotating every batch keeps the retained ledger within the
/// core's own cache, for the reason given at [`TASKS`]. Returns the timed
/// duration and the requests decided.
fn chunk(fx: &mut Fixture, spans: &mut Spans, out: &mut Outcome) -> (Duration, u64) {
    let mut took = Duration::ZERO;
    let mut requests = 0;
    for _ in 0..CHUNK_BATCHES {
        let (events, expected) = fx.next_batch();
        spans.next_request();
        let open = spans.enter("ingest.batch");
        let start = Instant::now();
        let got = fx.kernel.ingest_batch(&events);
        took += start.elapsed();
        spans.exit(open);
        requests += verify(&expected, &got, out);
        if fx.mode == Mode::Churn {
            fx.churn_tasks(out);
        }
        let open = spans.enter("kernel.clear_history");
        let start = Instant::now();
        fx.kernel.clear_history();
        took += start.elapsed();
        spans.exit(open);
    }
    (took, requests)
}

/// Runs an ingest workload.
pub fn run(config: &RunConfig, mode: Mode, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        drop(fixture.take());
        let start = Instant::now();
        let mut fx = Fixture::new(config.seed, mode);
        setups.push(start.elapsed().as_secs_f64());
        // Warm the verdict cache and the kernel's side tables with one
        // chunk, as the timed loop will run it. It is a chunk of the
        // measured work, so it stays out of `setup_s`.
        chunk(&mut fx, &mut Spans::off(), &mut out);
        fixture = Some(fx);
    }
    let mut fx = fixture.expect("at least one setup");
    out.metrics.set("setup_s", median(&setups));

    let cache0 = fx.kernel.verdict_cache_stats();
    let seq0 = fx.kernel.ledger().next_seq();
    let mut plain_us = Vec::new();
    let mut traced_us = Vec::new();
    let (mut plain_time, mut plain_requests) = (Duration::ZERO, 0u64);
    let mut total_requests = 0u64;
    let mut off = Spans::off();
    let start = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS || start.elapsed() < config.budget {
        // The traced run alternates traced and untraced chunks, so both
        // see the same host conditions.
        let traced = config.traced && round % 2 == 1;
        let recorder = if traced { &mut *spans } else { &mut off };
        let (took, requests) = chunk(&mut fx, recorder, &mut out);
        let per_decision_us = took.as_secs_f64() * 1e6 / requests.max(1) as f64;
        if traced {
            traced_us.push(per_decision_us);
        } else {
            plain_us.push(per_decision_us);
            plain_time += took;
            plain_requests += requests;
        }
        total_requests += requests;
        round += 1;
    }
    let cache1 = fx.kernel.verdict_cache_stats();
    let seq1 = fx.kernel.ledger().next_seq();
    let hits = (cache1.hits - cache0.hits) as f64;
    let misses = (cache1.misses - cache0.misses) as f64;
    let hit_ratio = hits / (hits + misses).max(1.0);
    eprintln!(
        "{mode:?}: {total_requests} requests in {round} chunks, cache hit ratio {hit_ratio:.4}; \
         us per decision: mean {:.4}, chunks p10 {:.4} p50 {:.4} p90 {:.4}",
        mean(&plain_us),
        quantile(&plain_us, 0.1),
        quantile(&plain_us, 0.5),
        quantile(&plain_us, 0.9),
    );
    match mode {
        Mode::Hot => out.require(hit_ratio >= 0.95, || {
            format!("ingest_hot cache hit ratio {hit_ratio:.4} is below 0.95: not a hot workload")
        }),
        Mode::Churn => out.require(hit_ratio <= 0.5, || {
            format!("ingest_churn cache hit ratio {hit_ratio:.4} is above 0.5: the cache is not bypassed")
        }),
    }
    let op_us = fast(&plain_us);
    out.metrics.set("op_us", op_us);
    if !config.traced {
        return out;
    }

    let m = &mut out.metrics;
    m.set("policy.cache_hit_ratio", hit_ratio);
    m.set(
        "ledger.entries_per_decision",
        (seq1 - seq0) as f64 / total_requests.max(1) as f64,
    );
    m.set(
        "ingest.decisions_per_s",
        plain_requests as f64 / plain_time.as_secs_f64(),
    );
    m.set(
        "trace.overhead_pct",
        (fast(&traced_us) / op_us - 1.0) * 100.0,
    );
    if let Some(batch) = spans.stats("ingest.batch") {
        m.set("ingest.batch_p50_us", quantile(&batch.samples, 0.5) / 1e3);
        m.set("ingest.batch_p99_us", quantile(&batch.samples, 0.99) / 1e3);
        m.set("ingest.batch_samples", batch.samples.len() as f64);
    }
    probe_decide(&mut fx, &mut out);
    decide_waterfalls(&mut out);
    out
}

/// The probes' view of the fixture the loop left behind.
struct ProbeState<'f> {
    fx: &'f mut Fixture,
    pids: Vec<Pid>,
    /// Operation time of the probes; the miss and interaction probes move
    /// it forward so their interactions are always newer.
    at_ms: u64,
    /// A verdict cache of the probe's own, filled with the fixture's
    /// verdicts at `cache_at`, and the keys that hit in it.
    cache: VerdictCache,
    cache_at: Timestamp,
    keys: Vec<(overhaul_sim::SlotId, u64)>,
    global_epoch: u64,
    /// Prebuilt snapshots and requests for the engine probe.
    snapshots: Vec<(PolicySnapshot, OpRequest)>,
    /// Probes whose self-check failed.
    faults: Vec<&'static str>,
}

/// The operation every decide probe asks about.
const PROBE_OP: ResourceOp = ResourceOp::Mic;

/// Probes the decide path's layers on the fixture the loop left behind.
fn probe_decide(fx: &mut Fixture, out: &mut Outcome) {
    let pids = fx.pids.clone();
    let at_ms = fx.now_ms + 1;
    let at = Timestamp::from_millis(at_ms);
    let mut cache = VerdictCache::new();
    let global_epoch = fx.kernel.policy_epoch();
    let mut keys = Vec::with_capacity(pids.len());
    let mut snapshots = Vec::with_capacity(pids.len());
    for &pid in &pids {
        let (id, task) = fx.kernel.tasks().slot_entry(pid).expect("live task");
        let epoch = task.interaction_epoch();
        let snapshot = fx.kernel.policy_snapshot(pid, false);
        let request = OpRequest {
            pid,
            op: PROBE_OP,
            at,
        };
        let outcome = PolicyEngine::decide(&snapshot, &request);
        cache.store(
            id,
            PROBE_OP,
            false,
            epoch,
            global_epoch,
            snapshot.delta,
            &outcome,
        );
        keys.push((id, epoch));
        snapshots.push((snapshot, request));
    }
    // The audit detail the decide path seals for this grant.
    fx.kernel.decide_direct(pids[0], at, PROBE_OP);
    let detail = fx
        .kernel
        .explain_last(pids[0], PROBE_OP)
        .map_or("op=mic granted", |o| o.trace.audit_detail(PROBE_OP));
    let mut state = ProbeState {
        fx,
        pids,
        at_ms,
        cache,
        cache_at: at,
        keys,
        global_epoch,
        snapshots,
        faults: Vec::new(),
    };

    let mut probes = Probes::new();
    probes.add("process.slot_lookup_ns", |s: &mut ProbeState, _| {
        let tasks = s.fx.kernel.tasks();
        for &pid in &s.pids {
            black_box(tasks.slot_entry(pid));
        }
        let took = timed(|| {
            for &pid in &s.pids {
                black_box(tasks.slot_entry(black_box(pid)));
            }
        });
        (took, s.pids.len())
    });
    probes.add("policy.cache_probe_ns", |s: &mut ProbeState, _| {
        let at = s.cache_at;
        let misses = s.cache.stats().misses;
        let (cache, keys, global) = (&mut s.cache, &s.keys, s.global_epoch);
        for &(id, epoch) in keys {
            black_box(cache.lookup(id, PROBE_OP, false, at, epoch, global));
        }
        let took = timed(|| {
            for &(id, epoch) in keys {
                black_box(cache.lookup(id, PROBE_OP, false, at, epoch, global));
            }
        });
        if s.cache.stats().misses != misses {
            s.faults.push("policy.cache_probe_ns missed its cache");
        }
        (took, s.keys.len())
    });
    probes.add("policy.snapshot_ns", |s: &mut ProbeState, _| {
        let kernel = &s.fx.kernel;
        for &pid in &s.pids {
            black_box(kernel.policy_snapshot(pid, false));
        }
        let took = timed(|| {
            for &pid in &s.pids {
                black_box(kernel.policy_snapshot(black_box(pid), false));
            }
        });
        (took, s.pids.len())
    });
    probes.add("policy.engine_ns", |s: &mut ProbeState, _| {
        for (snapshot, request) in &s.snapshots {
            black_box(PolicyEngine::decide(snapshot, request));
        }
        let took = timed(|| {
            for (snapshot, request) in &s.snapshots {
                black_box(PolicyEngine::decide(black_box(snapshot), request));
            }
        });
        (took, s.snapshots.len())
    });
    // Hits: an untimed warming pass, then every timed call is cached.
    probes.add("kernel.decide_hit_ns", |s: &mut ProbeState, _| {
        let at = Timestamp::from_millis(s.at_ms);
        s.fx.kernel.clear_history();
        for &pid in &s.pids {
            s.fx.kernel.decide_direct(pid, at, PROBE_OP);
        }
        let misses = s.fx.kernel.verdict_cache_stats().misses;
        let kernel = &mut s.fx.kernel;
        let took = timed(|| {
            for &pid in &s.pids {
                black_box(kernel.decide_direct(pid, at, PROBE_OP));
            }
        });
        if s.fx.kernel.verdict_cache_stats().misses != misses {
            s.faults
                .push("kernel.decide_hit_ns missed the verdict cache");
        }
        (took, s.pids.len())
    });
    // Misses: a newer interaction bumps each task's epoch before the
    // timed pass, so every timed call runs the snapshot and the engine.
    probes.add("kernel.decide_miss_ns", |s: &mut ProbeState, _| {
        s.at_ms += 1;
        let at = Timestamp::from_millis(s.at_ms);
        s.fx.kernel.clear_history();
        for &pid in &s.pids {
            let _ = s.fx.kernel.record_interaction_direct(pid, at);
        }
        let hits = s.fx.kernel.verdict_cache_stats().hits;
        let kernel = &mut s.fx.kernel;
        let took = timed(|| {
            for &pid in &s.pids {
                black_box(kernel.decide_direct(pid, at, PROBE_OP));
            }
        });
        if s.fx.kernel.verdict_cache_stats().hits != hits {
            s.faults.push("kernel.decide_miss_ns hit the verdict cache");
        }
        (took, s.pids.len())
    });
    probes.add("kernel.interaction_ns", |s: &mut ProbeState, _| {
        s.at_ms += 1;
        let at = Timestamp::from_millis(s.at_ms);
        s.fx.kernel.clear_history();
        let kernel = &mut s.fx.kernel;
        let took = timed(|| {
            for &pid in &s.pids {
                black_box(kernel.record_interaction_direct(pid, at).ok());
            }
        });
        (took, s.pids.len())
    });
    // One batch's worth of verdict entries, then the rotation.
    probes.add("kernel.clear_history_ns", |s: &mut ProbeState, _| {
        let at = Timestamp::from_millis(s.at_ms);
        for i in 0..BATCH {
            s.fx.kernel
                .decide_direct(s.pids[i % s.pids.len()], at, PROBE_OP);
        }
        (timed(|| s.fx.kernel.clear_history()), 1)
    });
    layers::add_common(&mut probes, detail);
    probes.run(&mut state, &mut out.metrics);
    for fault in state.faults {
        out.require(false, || fault.to_string());
    }
}

/// The decide waterfalls: the probed layers of a hit and of a miss must
/// not sum past the probed decide itself.
fn decide_waterfalls(out: &mut Outcome) {
    let get = |out: &Outcome, name: &str| out.metrics.get(name).unwrap_or(0.0);
    let hit = get(out, "kernel.decide_hit_ns");
    let hit_layers = [
        ("process.slot_lookup_ns", get(out, "process.slot_lookup_ns")),
        ("policy.cache_probe_ns", get(out, "policy.cache_probe_ns")),
        ("ledger.append_ns", get(out, "ledger.append_ns")),
    ];
    let rest = waterfall(out, "kernel.decide_hit_ns", hit, "ns", &hit_layers);
    out.metrics.set("kernel.decide_hit_unattributed_ns", rest);

    let miss = get(out, "kernel.decide_miss_ns");
    let miss_layers = [
        ("process.slot_lookup_ns", get(out, "process.slot_lookup_ns")),
        ("policy.cache_probe_ns", get(out, "policy.cache_probe_ns")),
        ("policy.snapshot_ns", get(out, "policy.snapshot_ns")),
        ("policy.engine_ns", get(out, "policy.engine_ns")),
        ("ledger.append_ns", get(out, "ledger.append_ns")),
    ];
    let rest = waterfall(out, "kernel.decide_miss_ns", miss, "ns", &miss_layers);
    out.metrics.set("kernel.decide_miss_unattributed_ns", rest);
}
