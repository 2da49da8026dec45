//! `session_replay`: a seeded desktop session recorded through
//! `Recorder`, then checkpointed, restored, replayed from boot and
//! replayed from a mid-run snapshot, over and over.
//!
//! The session launches GUI apps, clicks, types, copies and pastes over
//! the ICCCM protocol, opens devices, and runs fork, pty and shared-memory
//! syscalls, but most of its events are kernel syscalls and
//! `IngestBatch` events, so replay time is not mostly calibrated X spin.
//! Every restore and replay must land on the recorded `state_hash` and
//! ledger head, and `verify_ledgers` must pass on every machine.

use std::hint::black_box;
use std::time::{Duration, Instant};

use overhaul_core::{
    apply_event, replay, replay_from, Event, EventLog, Gui, OverhaulConfig, Recorder, System,
};
use overhaul_kernel::ipc::shm::PAGE_SIZE;
use overhaul_kernel::mm::VmaId;
use overhaul_kernel::monitor::ResourceOp;
use overhaul_kernel::policy::{IngestEvent, OpRequest};
use overhaul_sim::snapshot::Snapshot;
use overhaul_sim::{Fd, Pid, SimDuration, SimRng};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, Request, XEvent};

use crate::spans::Spans;
use crate::stats::{fast, geomean, mean, median, timed, Probes};
use crate::{layers, waterfall, Outcome, RunConfig, MIN_ROUNDS};

/// GUI apps in the session.
const APPS: usize = 6;
/// Scripted steps after the apps are up (a step is one or more events).
const STEPS: usize = 500;
/// Events per recorded `IngestBatch`.
const INGEST_BATCH: usize = 384;
/// Shared-memory pages per app.
const SHM_PAGES: usize = 4;
/// Checkpoints and restores timed per cycle; their mean is the cycle's
/// sample.
const CHECKPOINTS_PER_CYCLE: usize = 8;
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

const OPS: [ResourceOp; 6] = [
    ResourceOp::Mic,
    ResourceOp::Cam,
    ResourceOp::Sensor,
    ResourceOp::Screen,
    ResourceOp::Copy,
    ResourceOp::Paste,
];

/// One app's handles in the session.
struct App {
    gui: Gui,
    pty: (Fd, Fd),
    vma: VmaId,
}

/// The recorded session: the populated machine, its log, and a snapshot
/// taken half way with the event count it was taken at.
struct Session {
    system: System,
    log: EventLog,
    mid: Snapshot,
    mid_at: usize,
    windows: Vec<overhaul_xserver::window::WindowId>,
}

/// Records the seeded session.
fn record(seed: u64) -> Session {
    let mut rng = SimRng::seeded(seed);
    let mut config = OverhaulConfig::protected();
    // Alerts render asynchronously on the real system; here each would
    // spin a calibrated 1.5 ms inside the replayed open, as the Table I
    // rows note.
    config.kernel.device_alerts = false;
    let mut rec = Recorder::new(config);
    let mut apps = Vec::with_capacity(APPS);
    for i in 0..APPS {
        let gui = rec
            .apply(Event::LaunchGuiApp {
                exe: format!("/usr/bin/app{i}"),
                rect: Rect::new(i as i32 * 150, 40, 140, 120),
            })
            .gui()
            .expect("launch");
        let pty = rec
            .apply(Event::SysOpenPty { pid: gui.pid })
            .fds()
            .expect("openpty");
        let shm = rec
            .apply(Event::SysShmGet {
                pid: gui.pid,
                key: 0x100 + i as i32,
                pages: SHM_PAGES,
            })
            .shm()
            .expect("shmget");
        let vma = rec
            .apply(Event::SysShmAt { pid: gui.pid, shm })
            .vma()
            .expect("shmat");
        apps.push(App { gui, pty, vma });
    }
    rec.apply(Event::Settle);
    let mut pids: Vec<Pid> = apps.iter().map(|a| a.gui.pid).collect();
    // A fixed mix of step kinds in seeded order, each half shuffled on its
    // own, so every seed records a session of the same shape and the
    // suffix after the mid-run snapshot has the same mix as the whole.
    let half = STEPS / 2;
    let mut steps: Vec<u64> = (0..STEPS).map(|i| (i % half * 100 / half) as u64).collect();
    for part in steps.chunks_mut(half) {
        for i in (1..part.len()).rev() {
            part.swap(i, rng.range(0, i as u64 + 1) as usize);
        }
    }
    let mut mid = None;
    for (i, step) in steps.into_iter().enumerate() {
        if i == STEPS / 2 {
            mid = Some((rec.snapshot(), rec.events_recorded()));
        }
        let app = &apps[rng.range(0, APPS as u64) as usize];
        match step {
            0..=49 => {
                let now_ms = rec.system().now().as_millis();
                let events = (0..INGEST_BATCH)
                    .map(|i| {
                        let pid = pids[rng.range(0, pids.len() as u64) as usize];
                        let at = overhaul_sim::Timestamp::from_millis(now_ms + i as u64 / 64);
                        if rng.range(0, 8) == 0 {
                            IngestEvent::Interaction { pid, at }
                        } else {
                            let op = OPS[rng.range(0, OPS.len() as u64) as usize];
                            IngestEvent::Request(OpRequest { pid, op, at })
                        }
                    })
                    .collect();
                rec.apply(Event::IngestBatch { events });
            }
            50..=58 => {
                let len = rng.range(1, 64) as usize;
                let data = (0..len).map(|_| rng.range(0, 256) as u8).collect();
                rec.apply(Event::SysWrite {
                    pid: app.gui.pid,
                    fd: app.pty.0,
                    data,
                });
            }
            59..=65 => {
                rec.apply(Event::SysRead {
                    pid: app.gui.pid,
                    fd: app.pty.1,
                    max: 64,
                });
            }
            66..=74 => {
                let len = rng.range(1, 32) as usize;
                let offset = rng.range(0, (SHM_PAGES * PAGE_SIZE - len) as u64) as usize;
                let data = (0..len).map(|_| rng.range(0, 256) as u8).collect();
                rec.apply(Event::SysShmWrite {
                    pid: app.gui.pid,
                    vma: app.vma,
                    offset,
                    data,
                });
            }
            75..=79 => {
                if let Ok(child) = rec.apply(Event::SysFork { pid: app.gui.pid }).pid() {
                    if pids.len() < 64 {
                        pids.push(child);
                    }
                }
            }
            80..=82 => {
                rec.apply(Event::ClickWindow {
                    window: app.gui.window,
                });
            }
            83..=87 => {
                rec.apply(Event::Key {
                    ch: char::from(b'a' + rng.range(0, 26) as u8),
                });
            }
            88..=89 => {
                // Clicked first, so the open is granted.
                rec.apply(Event::ClickWindow {
                    window: app.gui.window,
                });
                let path = if rng.range(0, 2) == 0 {
                    "/dev/snd/mic0"
                } else {
                    "/dev/video0"
                };
                let opened = rec.apply(Event::OpenDevice {
                    pid: app.gui.pid,
                    path: path.into(),
                });
                if let Ok(fd) = opened.fd() {
                    rec.apply(Event::SysClose {
                        pid: app.gui.pid,
                        fd,
                    });
                }
            }
            90 => {
                let target = &apps[rng.range(0, APPS as u64) as usize];
                copy_paste(&mut rec, app, target, &mut rng);
            }
            91..=95 => {
                rec.apply(Event::DrainEvents {
                    client: app.gui.client,
                });
            }
            _ => {
                rec.apply(Event::Advance(SimDuration::from_millis(
                    rng.range(10, 3_000),
                )));
            }
        }
    }
    let windows = apps.iter().map(|a| a.gui.window).collect();
    let (mid, mid_at) = mid.expect("mid-run snapshot taken");
    let (system, log) = rec.finish();
    Session {
        system,
        log,
        mid,
        mid_at,
        windows,
    }
}

/// A copy in `source` and a paste into `target` over the ICCCM protocol,
/// each preceded by the click that authorizes it.
fn copy_paste(rec: &mut Recorder, source: &App, target: &App, rng: &mut SimRng) {
    rec.apply(Event::ClickWindow {
        window: source.gui.window,
    });
    let _ = rec.apply(Event::XRequest {
        client: source.gui.client,
        request: Request::SetSelectionOwner {
            selection: Atom::clipboard(),
            window: source.gui.window,
        },
    });
    rec.apply(Event::ClickWindow {
        window: target.gui.window,
    });
    let property = Atom::new("XSEL_DATA");
    let _ = rec.apply(Event::XRequest {
        client: target.gui.client,
        request: Request::ConvertSelection {
            selection: Atom::clipboard(),
            requestor: target.gui.window,
            property: property.clone(),
        },
    });
    let Ok(events) = rec
        .apply(Event::DrainEvents {
            client: source.gui.client,
        })
        .events()
    else {
        return;
    };
    for event in events {
        if let XEvent::SelectionRequest {
            selection,
            requestor,
            property: requested,
        } = event
        {
            let len = rng.range(4, 48) as usize;
            let data = (0..len).map(|_| rng.range(0, 256) as u8).collect();
            let _ = rec.apply(Event::XRequest {
                client: source.gui.client,
                request: Request::ChangeProperty {
                    window: requestor,
                    property: requested.clone(),
                    data,
                },
            });
            let _ = rec.apply(Event::XRequest {
                client: source.gui.client,
                request: Request::SendEvent {
                    target: requestor,
                    event: Box::new(XEvent::SelectionNotify {
                        selection,
                        property: requested,
                    }),
                },
            });
        }
    }
    rec.apply(Event::DrainEvents {
        client: target.gui.client,
    });
    let _ = rec.apply(Event::XRequest {
        client: target.gui.client,
        request: Request::GetProperty {
            window: target.gui.window,
            property,
            delete: true,
        },
    });
}

/// Each replayed event kind's span and the metric that reports it.
const KINDS: [(&str, &str); 11] = [
    (
        "replay.apply_launch_gui_app",
        "replay.apply_launch_gui_app_us",
    ),
    ("replay.apply_click_window", "replay.apply_click_window_us"),
    ("replay.apply_key", "replay.apply_key_us"),
    ("replay.apply_x_request", "replay.apply_x_request_us"),
    ("replay.apply_open_device", "replay.apply_open_device_us"),
    ("replay.apply_sys_fork", "replay.apply_sys_fork_us"),
    ("replay.apply_sys_write", "replay.apply_sys_write_us"),
    ("replay.apply_sys_read", "replay.apply_sys_read_us"),
    (
        "replay.apply_sys_shm_write",
        "replay.apply_sys_shm_write_us",
    ),
    ("replay.apply_ingest_batch", "replay.apply_ingest_batch_us"),
    ("replay.apply_other", "replay.apply_other_us"),
];

/// The span an event's replay is recorded under.
fn kind(event: &Event) -> &'static str {
    let i = match event {
        Event::LaunchGuiApp { .. } => 0,
        Event::ClickWindow { .. } => 1,
        Event::Key { .. } => 2,
        Event::XRequest { .. } => 3,
        Event::OpenDevice { .. } => 4,
        Event::SysFork { .. } => 5,
        Event::SysWrite { .. } => 6,
        Event::SysRead { .. } => 7,
        Event::SysShmWrite { .. } => 8,
        Event::IngestBatch { .. } => 9,
        _ => 10,
    };
    KINDS[i].0
}

/// Whether `system` is the session's recorded end state.
fn lands(system: &System, log: &EventLog) -> bool {
    Some(system.state_hash()) == log.final_state_hash
        && Some(system.ledger_head()) == log.final_ledger_head
        && system.verify_ledgers().is_ok()
}

/// Per-cycle samples.
#[derive(Default)]
struct Samples {
    checkpoint_us: Vec<f64>,
    restore_us: Vec<f64>,
    replay_us: Vec<f64>,
    replay_from_us: Vec<f64>,
}

impl Samples {
    /// Geometric mean of the kinds' fast-cycle times.
    fn op_us(&self) -> f64 {
        geomean(&[
            fast(&self.checkpoint_us),
            fast(&self.restore_us),
            fast(&self.replay_us),
            fast(&self.replay_from_us),
        ])
    }
}

/// One cycle: checkpoints and restores of the populated machine, a replay
/// from boot and a replay from the mid-run snapshot, every result checked.
fn cycle(s: &mut Session, spans: &mut Spans, samples: &mut Samples, out: &mut Outcome) {
    let live_hash = s.system.state_hash();
    let live_head = s.system.ledger_head();
    let mut bytes = Vec::new();
    let mut took = Duration::ZERO;
    for _ in 0..CHECKPOINTS_PER_CYCLE {
        spans.next_request();
        let open = spans.enter("session.checkpoint");
        let start = Instant::now();
        let snapshot = spans.span("system.snapshot", || s.system.snapshot());
        bytes = spans.span("snapshot.encode", || snapshot.to_bytes());
        took += start.elapsed();
        spans.exit(open);
    }
    samples
        .checkpoint_us
        .push(took.as_secs_f64() * 1e6 / CHECKPOINTS_PER_CYCLE as f64);

    let mut took = Duration::ZERO;
    for _ in 0..CHECKPOINTS_PER_CYCLE {
        spans.next_request();
        let open = spans.enter("session.restore");
        let start = Instant::now();
        let restored = spans
            .span("snapshot.decode", || Snapshot::from_bytes(&bytes))
            .and_then(|snap| spans.span("system.from_snapshot", || System::from_snapshot(&snap)));
        took += start.elapsed();
        spans.exit(open);
        out.check(restored.is_ok_and(|r| {
            r.state_hash() == live_hash
                && r.ledger_head() == live_head
                && r.verify_ledgers().is_ok()
        }));
    }
    samples
        .restore_us
        .push(took.as_secs_f64() * 1e6 / CHECKPOINTS_PER_CYCLE as f64);

    // Replay from boot; the traced run applies event by event so each
    // kind gets its own span, then computes what `replay` compares with
    // the log (the state hash and ledger head), as `replay` does.
    spans.next_request();
    let open = spans.enter("session.replay");
    let start = Instant::now();
    let replayed = if spans.enabled() {
        System::try_new(s.log.config.clone()).map(|mut system| {
            for event in &s.log.events {
                let open = spans.enter(kind(event));
                black_box(apply_event(&mut system, event));
                spans.exit(open);
            }
            black_box((system.state_hash(), system.ledger_head()));
            system
        })
    } else {
        replay(&s.log)
    };
    let took = start.elapsed();
    spans.exit(open);
    samples
        .replay_us
        .push(took.as_secs_f64() * 1e6 / s.log.events.len() as f64);
    out.check(replayed.is_ok_and(|r| lands(&r, &s.log)));

    spans.next_request();
    let open = spans.enter("session.replay_from");
    let start = Instant::now();
    let suffix = s.log.suffix(s.mid_at);
    let resumed = replay_from(&s.mid, suffix, s.log.final_state_hash);
    let took = start.elapsed();
    spans.exit(open);
    samples
        .replay_from_us
        .push(took.as_secs_f64() * 1e6 / suffix.len() as f64);
    out.check(resumed.is_ok_and(|r| lands(&r, &s.log)));
}

/// Runs the session-replay workload.
pub fn run(config: &RunConfig, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        drop(session.take());
        let start = Instant::now();
        let s = record(config.seed);
        setups.push(start.elapsed().as_secs_f64());
        out.check(s.system.verify_ledgers().is_ok());
        session = Some(s);
    }
    let mut s = session.expect("at least one setup");
    out.metrics.set("setup_s", median(&setups));
    // One untimed cycle warms every path.
    cycle(&mut s, &mut Spans::off(), &mut Samples::default(), &mut out);

    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut off = Spans::off();
    let start = Instant::now();
    let mut cycles = 0usize;
    while cycles < MIN_ROUNDS || start.elapsed() < config.budget {
        if config.traced && cycles % 2 == 1 {
            cycle(&mut s, spans, &mut traced, &mut out);
        } else {
            cycle(&mut s, &mut off, &mut plain, &mut out);
        }
        cycles += 1;
    }
    let op_us = plain.op_us();
    eprintln!(
        "session_replay: {} events ({} after the mid-run snapshot), {cycles} cycles; \
         us, mean/fast: checkpoint {:.1}/{:.1}, restore {:.1}/{:.1}, \
         replay {:.2}/{:.2} per event, replay_from {:.2}/{:.2} per event",
        s.log.events.len(),
        s.log.events.len() - s.mid_at,
        mean(&plain.checkpoint_us),
        fast(&plain.checkpoint_us),
        mean(&plain.restore_us),
        fast(&plain.restore_us),
        mean(&plain.replay_us),
        fast(&plain.replay_us),
        mean(&plain.replay_from_us),
        fast(&plain.replay_from_us),
    );
    out.metrics.set("op_us", op_us);
    if !config.traced {
        return out;
    }

    let replay_us = mean(&plain.replay_us);
    let checkpoint_us = mean(&plain.checkpoint_us);
    let restore_us = mean(&plain.restore_us);
    let m = &mut out.metrics;
    m.set("trace.overhead_pct", (traced.op_us() / op_us - 1.0) * 100.0);
    m.set("replay.events_per_s", 1e6 / replay_us);
    m.set(
        "replay.from_snapshot_events_per_s",
        1e6 / mean(&plain.replay_from_us),
    );
    m.set("replay.checkpoint_ms", checkpoint_us / 1e3);
    m.set("replay.restore_ms", restore_us / 1e3);
    // Each kind's share of a replayed event: the kinds sum to the traced
    // per-event replay time, less boot and the final checks. A kind the
    // log holds no event of costs a true 0; one it holds must be timed.
    let replays = spans.stats("session.replay").map_or(0, |r| r.count) as f64;
    let events = s.log.events.len() as f64;
    let mut kinds = Vec::with_capacity(KINDS.len());
    for (span, metric) in KINDS {
        let recorded = s.log.events.iter().filter(|e| kind(e) == span).count();
        let us = match spans.stats(span) {
            Some(k) if replays > 0.0 => k.total_ns as f64 / 1e3 / replays / events,
            _ => {
                out.require(recorded == 0, || {
                    format!("{recorded} {span} events were replayed but never timed")
                });
                0.0
            }
        };
        out.metrics.set(metric, us);
        kinds.push((metric, us));
    }
    let rest = waterfall(&mut out, "replay (us per event)", replay_us, "us", &kinds);
    out.metrics.set("replay.unattributed_us", rest);

    probe(&mut s, &mut out);
    out
}

/// What the snapshot probes work on. Each probe makes one untimed call
/// before its timed block, as the loop's back-to-back calls warm theirs,
/// and drops what it made after the block, as the loop does.
struct ProbeState<'s> {
    session: &'s mut Session,
    snapshot: Snapshot,
    bytes: Vec<u8>,
}

/// Calls per snapshot-probe block.
const SNAP_BLOCK: usize = 4;
/// Calls per visibility-probe block.
const VISIBLE_BLOCK: usize = 1024;

fn probe(session: &mut Session, out: &mut Outcome) {
    // Restores start from parsed bytes, as the loop's do.
    let bytes = session.system.snapshot().to_bytes();
    let snapshot = Snapshot::from_bytes(&bytes).expect("snapshot parses");
    out.metrics.set("snapshot.state_bytes", bytes.len() as f64);
    let mut state = ProbeState {
        session,
        snapshot,
        bytes,
    };
    let mut probes = Probes::new();
    probes.add("window.is_visible_ns", |p: &mut ProbeState, _| {
        let windows = p.session.system.xserver().windows();
        let ids = &p.session.windows;
        let took = timed(|| {
            for i in 0..VISIBLE_BLOCK {
                black_box(windows.is_visible(black_box(ids[i % ids.len()])));
            }
        });
        (took, VISIBLE_BLOCK)
    });
    probes.add("system.state_hash_us", |p: &mut ProbeState, _| {
        let system = &p.session.system;
        black_box(system.state_hash());
        let took = timed(|| {
            for _ in 0..SNAP_BLOCK {
                black_box(system.state_hash());
            }
        });
        (took, SNAP_BLOCK)
    });
    probes.add("system.snapshot_us", |p: &mut ProbeState, _| {
        let system = &mut p.session.system;
        black_box(system.snapshot());
        let mut kept = Vec::with_capacity(SNAP_BLOCK);
        let took = timed(|| {
            for _ in 0..SNAP_BLOCK {
                kept.push(black_box(system.snapshot()));
            }
        });
        drop(kept);
        (took, SNAP_BLOCK)
    });
    probes.add("snapshot.encode_us", |p: &mut ProbeState, _| {
        let snapshot = &p.snapshot;
        black_box(snapshot.to_bytes());
        let mut kept = Vec::with_capacity(SNAP_BLOCK);
        let took = timed(|| {
            for _ in 0..SNAP_BLOCK {
                kept.push(black_box(snapshot.to_bytes()));
            }
        });
        drop(kept);
        (took, SNAP_BLOCK)
    });
    probes.add("snapshot.decode_us", |p: &mut ProbeState, _| {
        let bytes = &p.bytes;
        black_box(Snapshot::from_bytes(bytes).ok());
        let mut kept = Vec::with_capacity(SNAP_BLOCK);
        let took = timed(|| {
            for _ in 0..SNAP_BLOCK {
                kept.push(black_box(Snapshot::from_bytes(bytes).ok()));
            }
        });
        drop(kept);
        (took, SNAP_BLOCK)
    });
    probes.add("system.from_snapshot_us", |p: &mut ProbeState, _| {
        let snapshot = &p.snapshot;
        black_box(System::from_snapshot(snapshot).ok());
        let mut kept = Vec::with_capacity(SNAP_BLOCK);
        let took = timed(|| {
            for _ in 0..SNAP_BLOCK {
                kept.push(black_box(System::from_snapshot(snapshot).ok()));
            }
        });
        drop(kept);
        (took, SNAP_BLOCK)
    });
    // The whole checkpoint and restore, paired with their layers, for the
    // waterfalls.
    probes.add("checkpoint_us", |p: &mut ProbeState, _| {
        let system = &mut p.session.system;
        let mut kept = Vec::with_capacity(SNAP_BLOCK);
        let took = timed(|| {
            for _ in 0..SNAP_BLOCK {
                kept.push(black_box(system.snapshot().to_bytes()));
            }
        });
        drop(kept);
        (took, SNAP_BLOCK)
    });
    probes.add("restore_us", |p: &mut ProbeState, _| {
        let bytes = &p.bytes;
        let mut kept = Vec::with_capacity(SNAP_BLOCK);
        let took = timed(|| {
            for _ in 0..SNAP_BLOCK {
                let snapshot = Snapshot::from_bytes(bytes).ok();
                kept.push(black_box(
                    snapshot.and_then(|s| System::from_snapshot(&s).ok()),
                ));
            }
        });
        drop(kept);
        (took, SNAP_BLOCK)
    });
    layers::add_common(&mut probes, "op=mic granted");
    let medians = probes.medians(&mut state);
    let value = |name: &str| {
        medians
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let checkpoint = [
        ("system.snapshot_us", value("system.snapshot_us")),
        ("snapshot.encode_us", value("snapshot.encode_us")),
    ];
    waterfall(
        out,
        "checkpoint (us)",
        value("checkpoint_us"),
        "us",
        &checkpoint,
    );
    let restore = [
        ("snapshot.decode_us", value("snapshot.decode_us")),
        ("system.from_snapshot_us", value("system.from_snapshot_us")),
    ];
    waterfall(out, "restore (us)", value("restore_us"), "us", &restore);
    for (metric, v) in medians {
        if !matches!(metric, "checkpoint_us" | "restore_us") {
            out.metrics.set(metric, v);
        }
    }
}
