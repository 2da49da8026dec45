//! The paper's Table I operations, one workload per row, each timed on
//! the Overhaul side (grant-all monitor, device alerts off, as the paper
//! configures it) in alternating chunks with the stock stack.
//!
//! | workload         | one operation                                      |
//! |------------------|----------------------------------------------------|
//! | `table1_device`  | `sys_open` + `sys_close` of `/dev/snd/mic0`        |
//! | `table1_paste`   | a full ICCCM paste, steps 6–13 of Fig. 6           |
//! | `table1_capture` | a root-window `GetImage`                           |
//! | `table1_shm`     | an 8-byte `sys_shm_write`; fault re-arm per chunk  |
//! | `table1_fs`      | `creat` + `close` + `stat` + `unlink` of one file  |
//!
//! Each round times one chunk on both stacks, the stack that goes first
//! alternating between rounds, so slow drift of the host reaches both
//! alike. The seed draws the paste payloads, the shm offsets and payloads
//! and the file names; both stacks get the same inputs.

use std::hint::black_box;
use std::time::Instant;

use overhaul_core::{Gui, OverhaulConfig, System};
use overhaul_kernel::ipc::shm::{ShmId, PAGE_SIZE};
use overhaul_kernel::mm::{AccessKind, MemoryManager, VmaId};
use overhaul_kernel::monitor::ResourceOp;
use overhaul_kernel::netlink::{NetlinkMessage, NetlinkReply};
use overhaul_kernel::vfs::Vfs;
use overhaul_kernel::OpenMode;
use overhaul_sim::{Pid, SimDuration, SimRng, Timestamp, Uid};
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, Reply, Request, XEvent};

use crate::manifest::Metrics;
use crate::spans::Spans;
use crate::stats::{fast, mean, median, quantile, timed, Probes};
use crate::{layers, waterfall, Outcome, RunConfig, MIN_ROUNDS};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Shared-memory writes between re-arms: virtual time then moves past
/// the wait window, as it would under a real clock.
const SHM_REARM_EVERY: usize = 4096;
/// Pages in the shared-memory segment.
const SHM_PAGES: usize = 64;
/// The device node the device row opens.
const MIC: &str = "/dev/snd/mic0";

/// The machine configuration of one stack.
fn config(overhaul: bool) -> OverhaulConfig {
    let mut config = if overhaul {
        OverhaulConfig::grant_all()
    } else {
        OverhaulConfig::baseline()
    };
    // Alerts render asynchronously on the real system and are not part of
    // the open(2) path the paper times.
    config.kernel.device_alerts = false;
    config
}

/// One Table I row on one stack.
trait Row {
    /// Runs `n` operations, checking each into `out`.
    fn run(&mut self, n: usize, spans: &mut Spans, out: &mut Outcome);
    /// The machine under test.
    fn system(&self) -> &System;
}

struct Device {
    system: System,
    pid: Pid,
}

impl Device {
    fn new(overhaul: bool) -> Device {
        let mut system = System::new(config(overhaul));
        let pid = system.spawn_process(None, "/usr/bin/bench").expect("spawn");
        Device { system, pid }
    }
}

impl Row for Device {
    fn run(&mut self, n: usize, spans: &mut Spans, out: &mut Outcome) {
        let grants = self.system.kernel().monitor_stats().grants;
        let mut opened = 0;
        for _ in 0..n {
            spans.next_request();
            let open = spans.enter("table1.device_open");
            let kernel = self.system.kernel_mut();
            let ok = match kernel.sys_open(self.pid, MIC, OpenMode::ReadOnly) {
                Ok(fd) => {
                    opened += 1;
                    kernel.sys_close(self.pid, fd).is_ok()
                }
                Err(_) => false,
            };
            spans.exit(open);
            out.check(ok);
        }
        // Each chunk ends with a history rotation, so every chunk does the
        // same work.
        self.system.kernel_mut().clear_history();
        // Every Overhaul-side open is a monitor grant; the stock stack
        // never reaches the monitor.
        let granted = self.system.kernel().monitor_stats().grants - grants;
        let expected = if self.system.config().overhaul_enabled() {
            opened
        } else {
            0
        };
        out.check(granted == expected);
    }

    fn system(&self) -> &System {
        &self.system
    }
}

struct Paste {
    system: System,
    source: Gui,
    target: Gui,
    payloads: Vec<Vec<u8>>,
    ops: u64,
}

impl Paste {
    fn new(overhaul: bool, rng: &mut SimRng) -> Paste {
        let mut system = System::new(config(overhaul));
        let source = system
            .launch_gui_app("/usr/bin/source", Rect::new(0, 0, 50, 50))
            .expect("launch source");
        let target = system
            .launch_gui_app("/usr/bin/target", Rect::new(60, 0, 50, 50))
            .expect("launch target");
        system.settle();
        system.click_window(source.window);
        system
            .x_request(
                source.client,
                Request::SetSelectionOwner {
                    selection: Atom::clipboard(),
                    window: source.window,
                },
            )
            .expect("copy");
        // Drop the click's events so each paste sees only its protocol.
        let _ = system.xserver_mut().drain_events(source.client);
        let _ = system.xserver_mut().drain_events(target.client);
        let payloads = (0..64)
            .map(|_| {
                let len = rng.range(8, 65) as usize;
                (0..len).map(|_| rng.range(0, 256) as u8).collect()
            })
            .collect();
        Paste {
            system,
            source,
            target,
            payloads,
            ops: 0,
        }
    }

    /// One paste; true when the target received the payload intact.
    fn paste(&mut self, spans: &mut Spans) -> bool {
        let payload = &self.payloads[self.ops as usize % self.payloads.len()];
        let property = Atom::new("XSEL_DATA");
        let system = &mut self.system;
        let converted = spans.span("xserver.convert_selection", || {
            system.x_request(
                self.target.client,
                Request::ConvertSelection {
                    selection: Atom::clipboard(),
                    requestor: self.target.window,
                    property: property.clone(),
                },
            )
        });
        if converted.is_err() {
            return false;
        }
        let Ok(Some(XEvent::SelectionRequest {
            selection,
            requestor,
            property: requested,
        })) = system.xserver_mut().next_event(self.source.client)
        else {
            return false;
        };
        let stored = spans.span("xserver.change_property", || {
            system.x_request(
                self.source.client,
                Request::ChangeProperty {
                    window: requestor,
                    property: requested.clone(),
                    data: payload.clone(),
                },
            )
        });
        let notified = spans.span("xserver.send_event", || {
            system.x_request(
                self.source.client,
                Request::SendEvent {
                    target: requestor,
                    event: Box::new(XEvent::SelectionNotify {
                        selection,
                        property: requested,
                    }),
                },
            )
        });
        let notice = system.xserver_mut().next_event(self.target.client);
        let fetched = spans.span("xserver.get_property", || {
            system.x_request(
                self.target.client,
                Request::GetProperty {
                    window: self.target.window,
                    property,
                    delete: true,
                },
            )
        });
        stored.is_ok()
            && notified.is_ok()
            && matches!(notice, Ok(Some(XEvent::SelectionNotify { .. })))
            && matches!(fetched, Ok(Reply::Property(Some(ref data))) if data == payload)
    }
}

impl Row for Paste {
    fn run(&mut self, n: usize, spans: &mut Spans, out: &mut Outcome) {
        for _ in 0..n {
            spans.next_request();
            let open = spans.enter("table1.paste");
            let ok = self.paste(spans);
            spans.exit(open);
            out.check(ok);
            self.ops += 1;
        }
        // Each chunk ends with a history rotation, so every chunk does the
        // same work.
        self.system.kernel_mut().clear_history();
        self.system.xserver_mut().clear_history();
    }

    fn system(&self) -> &System {
        &self.system
    }
}

struct Capture {
    system: System,
    gui: Gui,
}

impl Capture {
    fn new(overhaul: bool) -> Capture {
        let mut system = System::new(config(overhaul));
        let gui = system
            .launch_gui_app("/usr/bin/imlib2-grab", Rect::new(0, 0, 100, 100))
            .expect("launch");
        system.settle();
        Capture { system, gui }
    }
}

impl Row for Capture {
    fn run(&mut self, n: usize, spans: &mut Spans, out: &mut Outcome) {
        for _ in 0..n {
            spans.next_request();
            let system = &mut self.system;
            let client = self.gui.client;
            let reply = spans.span("xserver.get_image", || {
                system.x_request(client, Request::GetImage { window: None })
            });
            out.check(matches!(reply, Ok(Reply::Image(ref pixels)) if !pixels.is_empty()));
        }
    }

    fn system(&self) -> &System {
        &self.system
    }
}

struct Shm {
    system: System,
    pid: Pid,
    vma: VmaId,
    /// Seeded (offset, payload) pairs, cycled.
    writes: Vec<(usize, [u8; 8])>,
    /// Writes made so far.
    next: usize,
}

impl Shm {
    fn new(overhaul: bool, rng: &mut SimRng) -> Shm {
        let mut system = System::new(config(overhaul));
        let pid = system
            .spawn_process(None, "/usr/bin/shm-bench")
            .expect("spawn");
        let shm = system
            .kernel_mut()
            .sys_shmget(pid, 0x5eed, SHM_PAGES)
            .expect("shmget");
        let vma = system.kernel_mut().sys_shmat(pid, shm).expect("shmat");
        let writes = (0..4096)
            .map(|_| {
                let offset = rng.range(0, (SHM_PAGES * PAGE_SIZE - 8) as u64) as usize;
                (offset, rng.next_u64().to_le_bytes())
            })
            .collect();
        Shm {
            system,
            pid,
            vma,
            writes,
            next: 0,
        }
    }
}

impl Row for Shm {
    /// `n` writes; after every [`SHM_REARM_EVERY`] of them virtual time
    /// moves past the wait window, so the next write faults again.
    fn run(&mut self, n: usize, spans: &mut Spans, out: &mut Outcome) {
        spans.next_request();
        let open = spans.enter("table1.shm_chunk");
        let mut ok = 0;
        for _ in 0..n {
            let (offset, data) = &self.writes[self.next % self.writes.len()];
            self.next += 1;
            let kernel = self.system.kernel_mut();
            ok += usize::from(
                kernel
                    .sys_shm_write(self.pid, self.vma, *offset, data)
                    .is_ok(),
            );
            if self.next.is_multiple_of(SHM_REARM_EVERY) {
                self.system.advance(SimDuration::from_millis(600));
            }
        }
        spans.exit(open);
        for i in 0..n {
            out.check(i < ok);
        }
    }

    fn system(&self) -> &System {
        &self.system
    }
}

struct Fs {
    system: System,
    pid: Pid,
    names: Vec<String>,
    next: usize,
}

impl Fs {
    fn new(overhaul: bool, rng: &mut SimRng) -> Fs {
        let mut system = System::new(config(overhaul));
        let pid = system
            .spawn_process(None, "/usr/bin/bonnie")
            .expect("spawn");
        system
            .kernel_mut()
            .sys_mkdir(pid, "/tmp/bonnie", 0o755)
            .expect("mkdir");
        let names = (0..4096)
            .map(|i| format!("/tmp/bonnie/{:08x}{i}", rng.next_u64() as u32))
            .collect();
        Fs {
            system,
            pid,
            names,
            next: 0,
        }
    }
}

impl Row for Fs {
    fn run(&mut self, n: usize, spans: &mut Spans, out: &mut Outcome) {
        for _ in 0..n {
            let path = &self.names[self.next % self.names.len()];
            self.next += 1;
            spans.next_request();
            let open = spans.enter("table1.fs_cycle");
            let kernel = self.system.kernel_mut();
            let ok = kernel
                .sys_creat(self.pid, path, 0o644)
                .and_then(|fd| kernel.sys_close(self.pid, fd))
                .and_then(|()| kernel.sys_stat(self.pid, path).map(|_| ()))
                .and_then(|()| kernel.sys_unlink(self.pid, path))
                .is_ok();
            spans.exit(open);
            out.check(ok);
        }
    }

    fn system(&self) -> &System {
        &self.system
    }
}

/// One row on both stacks, with its per-chunk samples.
struct Pair<R> {
    /// `[stock, overhaul]`.
    sides: [R; 2],
    /// Operations per timed chunk.
    chunk: usize,
    /// Per-op nanoseconds of each chunk.
    stock_ns: Vec<f64>,
    overhaul_ns: Vec<f64>,
    traced_ns: Vec<f64>,
    /// Overhaul minus stock per-op nanoseconds of each paired chunk.
    added_ns: Vec<f64>,
}

/// A chunk of one round.
#[derive(Clone, Copy)]
enum Chunk {
    Stock,
    Overhaul,
    Traced,
}

impl<R: Row> Pair<R> {
    fn new(make: impl Fn(bool) -> R, chunk: usize) -> Pair<R> {
        Pair {
            sides: [make(false), make(true)],
            chunk,
            stock_ns: Vec::new(),
            overhaul_ns: Vec::new(),
            traced_ns: Vec::new(),
            added_ns: Vec::new(),
        }
    }

    fn time(&mut self, side: usize, spans: &mut Spans, out: &mut Outcome) -> f64 {
        let start = Instant::now();
        self.sides[side].run(self.chunk, spans, out);
        start.elapsed().as_nanos() as f64 / self.chunk as f64
    }

    /// Round `r`: a chunk on each stack and, in traced runs, a traced
    /// Overhaul chunk. Which stack goes first alternates between rounds,
    /// and the traced chunk's position cycles through all three, so slow
    /// drift of the host reaches every kind of chunk alike.
    fn round(&mut self, r: usize, spans: &mut Spans, out: &mut Outcome) {
        let stacks = if r.is_multiple_of(2) {
            [Chunk::Stock, Chunk::Overhaul]
        } else {
            [Chunk::Overhaul, Chunk::Stock]
        };
        let traced_at = if spans.enabled() { r / 2 % 3 } else { 3 };
        let order = (0..3).flat_map(|slot| {
            let traced = (slot == traced_at).then_some(Chunk::Traced);
            traced.into_iter().chain(stacks.get(slot).copied())
        });
        let mut off = Spans::off();
        let (mut stock, mut overhaul) = (0.0, 0.0);
        for chunk in order {
            match chunk {
                Chunk::Stock => stock = self.time(0, &mut off, out),
                Chunk::Overhaul => overhaul = self.time(1, &mut off, out),
                Chunk::Traced => {
                    let traced = self.time(1, spans, out);
                    self.traced_ns.push(traced);
                }
            }
        }
        self.stock_ns.push(stock);
        self.overhaul_ns.push(overhaul);
        self.added_ns.push(overhaul - stock);
    }

    /// One untimed chunk on each stack.
    fn warm(&mut self, out: &mut Outcome) {
        for side in &mut self.sides {
            side.run(self.chunk, &mut Spans::off(), out);
        }
    }
}

/// A Table I row, each the workload `table1_<row>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    Device,
    Paste,
    Capture,
    Shm,
    Fs,
}

impl RowKind {
    /// Every row, in the paper's order.
    pub const ALL: [RowKind; 5] = [
        RowKind::Device,
        RowKind::Paste,
        RowKind::Capture,
        RowKind::Shm,
        RowKind::Fs,
    ];

    /// The workload that times this row.
    pub fn workload(self) -> &'static str {
        match self {
            RowKind::Device => "table1_device",
            RowKind::Paste => "table1_paste",
            RowKind::Capture => "table1_capture",
            RowKind::Shm => "table1_shm",
            RowKind::Fs => "table1_fs",
        }
    }

    /// The row a workload name times, if it is a Table I row.
    pub fn from_workload(name: &str) -> Option<RowKind> {
        RowKind::ALL.into_iter().find(|row| row.workload() == name)
    }
}

/// The per-layer metrics that report a row's Overhaul-side per-op time
/// (and how many nanoseconds its unit is) and its comparison with the
/// stock stack.
struct RowMetrics {
    per_op: (&'static str, f64),
    mediation: [&'static str; 3],
}

/// Runs the workload of Table I row `row`.
pub fn run(config: &RunConfig, row: RowKind, spans: &mut Spans) -> Outcome {
    // Each row draws its inputs from a stream of its own, the same for
    // both stacks.
    let rng = |stream: u64| SimRng::seeded(SimRng::stream_seed(config.seed, stream));
    // Chunks of 5 to 15 ms, except one 70 ms capture.
    match row {
        RowKind::Device => measure(
            config,
            spans,
            || Pair::new(Device::new, 2000),
            RowMetrics {
                per_op: ("table1.device_open_us", 1e3),
                mediation: [
                    "mediation.device_stock_ns",
                    "mediation.device_added_ns",
                    "mediation.device_overhead_pct",
                ],
            },
            device_layers,
        ),
        RowKind::Paste => measure(
            config,
            spans,
            || Pair::new(|o| Paste::new(o, &mut rng(1)), 12),
            RowMetrics {
                per_op: ("table1.paste_us", 1e3),
                mediation: [
                    "mediation.paste_stock_ns",
                    "mediation.paste_added_ns",
                    "mediation.paste_overhead_pct",
                ],
            },
            paste_layers,
        ),
        RowKind::Capture => measure(
            config,
            spans,
            || Pair::new(Capture::new, 1),
            RowMetrics {
                per_op: ("table1.capture_ms", 1e6),
                mediation: [
                    "mediation.capture_stock_ns",
                    "mediation.capture_added_ns",
                    "mediation.capture_overhead_pct",
                ],
            },
            capture_layers,
        ),
        RowKind::Shm => measure(
            config,
            spans,
            || Pair::new(|o| Shm::new(o, &mut rng(2)), 16 * SHM_REARM_EVERY),
            RowMetrics {
                per_op: ("table1.shm_write_ns", 1.0),
                mediation: [
                    "mediation.shm_stock_ns",
                    "mediation.shm_added_ns",
                    "mediation.shm_overhead_pct",
                ],
            },
            shm_layers,
        ),
        RowKind::Fs => measure(
            config,
            spans,
            || Pair::new(|o| Fs::new(o, &mut rng(3)), 400),
            RowMetrics {
                per_op: ("table1.fs_cycle_us", 1e3),
                mediation: [
                    "mediation.fs_stock_ns",
                    "mediation.fs_added_ns",
                    "mediation.fs_overhead_pct",
                ],
            },
            fs_layers,
        ),
    }
}

/// Sets the row up [`SETUP_REPS`] times, times rounds until the budget is
/// spent, and reports `op_us`, the Overhaul-side per-op time of the fast
/// chunks. The traced run adds the row's per-layer metrics: that time in
/// the row's unit, the stock comparison (means), the tracing overhead,
/// and what `layers` probes.
fn measure<R: Row>(
    config: &RunConfig,
    spans: &mut Spans,
    make: impl Fn() -> Pair<R>,
    names: RowMetrics,
    layers: fn(&mut Pair<R>, &Spans, &mut Outcome),
) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut pair = None;
    for _ in 0..SETUP_REPS {
        drop(pair.take());
        let start = Instant::now();
        let mut p = make();
        p.warm(&mut out);
        setups.push(start.elapsed().as_secs_f64());
        pair = Some(p);
    }
    let mut pair = pair.expect("at least one setup");
    out.metrics.set("setup_s", median(&setups));

    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < config.budget {
        pair.round(rounds, spans, &mut out);
        rounds += 1;
    }
    // The stock stack never reaches the permission monitor.
    out.check(pair.sides[0].system().kernel().monitor_stats().grants == 0);
    let per_op_ns = fast(&pair.overhaul_ns);
    eprintln!(
        "{}: {rounds} rounds; overhaul per-op ns: mean {:.1}, chunks p10 {:.1} p50 {:.1} p90 {:.1}",
        names.per_op.0,
        mean(&pair.overhaul_ns),
        quantile(&pair.overhaul_ns, 0.1),
        quantile(&pair.overhaul_ns, 0.5),
        quantile(&pair.overhaul_ns, 0.9),
    );
    out.metrics.set("op_us", per_op_ns / 1e3);
    if !config.traced {
        return out;
    }

    let m = &mut out.metrics;
    m.set(names.per_op.0, per_op_ns / names.per_op.1);
    let traced_ns = fast(&pair.traced_ns);
    m.set("trace.overhead_pct", (traced_ns / per_op_ns - 1.0) * 100.0);
    let [stock_ns, added_ns, pct] = names.mediation;
    let stock = mean(&pair.stock_ns);
    let added = mean(&pair.added_ns);
    m.set(stock_ns, stock);
    m.set(added_ns, added);
    m.set(pct, added / stock * 100.0);
    layers(&mut pair, spans, &mut out);
    out
}

/// Records the tail of the per-op spans named `span`: the p99 in µs
/// under `p99` and the sample count under `samples`.
fn tail(spans: &Spans, span: &str, p99: &'static str, samples: &'static str, m: &mut Metrics) {
    if let Some(s) = spans.stats(span) {
        m.set(p99, quantile(&s.samples, 0.99) / 1e3);
        m.set(samples, s.samples.len() as f64);
    }
}

/// Records the median of the spans named `span` under `metric`, in the
/// unit `scale` nanoseconds make.
fn span_median(spans: &Spans, span: &str, metric: &'static str, scale: f64, m: &mut Metrics) {
    if let Some(s) = spans.stats(span) {
        m.set(metric, median(&s.samples) / scale);
    }
}

/// A metric the row has recorded (0 when it has not; the result line then
/// refuses the run).
fn get(out: &Outcome, name: &str) -> f64 {
    out.metrics.get(name).unwrap_or(0.0)
}

/// Calls per probe block.
const BLOCK: usize = 1024;
/// Files per vfs probe block (each create spins the calibrated disk cost).
const FILE_BLOCK: usize = 64;
/// Permission queries per netlink probe block.
const QUERY_BLOCK: usize = 16;

/// The audit detail of the decision `system` last made for `pid` on `op`,
/// after making one.
fn grant_detail(system: &mut System, pid: Pid, op: ResourceOp) -> &'static str {
    let now = system.now();
    system.kernel_mut().decide_direct(pid, now, op);
    system
        .kernel()
        .explain_last(pid, op)
        .map_or("op=mic granted", |o| o.trace.audit_detail(op))
}

/// Device open: path resolution, the devfs lookup and the cached decide,
/// probed on the Overhaul-side machine.
fn device_layers(pair: &mut Pair<Device>, spans: &Spans, out: &mut Outcome) {
    tail(
        spans,
        "table1.device_open",
        "table1.device_open_p99_us",
        "table1.device_open_samples",
        &mut out.metrics,
    );
    let device = &mut pair.sides[1];
    let detail = grant_detail(&mut device.system, device.pid, ResourceOp::Mic);
    let now = device.system.now();
    let mut probes = Probes::new();
    probes.add("vfs.resolve_ns", |d: &mut Device, _| {
        let vfs = d.system.kernel().vfs();
        black_box(vfs.resolve(MIC).ok());
        let took = timed(|| {
            for _ in 0..BLOCK {
                black_box(vfs.resolve(black_box(MIC)).ok());
            }
        });
        (took, BLOCK)
    });
    probes.add("devfs.lookup_ns", |d: &mut Device, _| {
        let map = d.system.kernel().device_map();
        black_box(map.lookup(MIC));
        let took = timed(|| {
            for _ in 0..BLOCK {
                black_box(map.lookup(black_box(MIC)));
            }
        });
        (took, BLOCK)
    });
    probes.add("process.slot_lookup_ns", |d: &mut Device, _| {
        let tasks = d.system.kernel().tasks();
        let pid = d.pid;
        black_box(tasks.slot_entry(pid));
        let took = timed(|| {
            for _ in 0..BLOCK {
                black_box(tasks.slot_entry(black_box(pid)));
            }
        });
        (took, BLOCK)
    });
    probes.add("kernel.decide_hit_ns", move |d: &mut Device, _| {
        let pid = d.pid;
        let kernel = d.system.kernel_mut();
        kernel.clear_history();
        kernel.decide_direct(pid, now, ResourceOp::Mic);
        let took = timed(|| {
            for _ in 0..BLOCK {
                black_box(kernel.decide_direct(pid, now, ResourceOp::Mic));
            }
        });
        (took, BLOCK)
    });
    layers::add_common(&mut probes, detail);
    probes.run(device, &mut out.metrics);

    let layers = [
        ("vfs.resolve_ns", get(out, "vfs.resolve_ns")),
        ("devfs.lookup_ns", get(out, "devfs.lookup_ns")),
        ("kernel.decide_hit_ns", get(out, "kernel.decide_hit_ns")),
    ];
    let e2e = get(out, "table1.device_open_us") * 1e3;
    waterfall(out, "table1.device_open (ns)", e2e, "ns", &layers);
}

/// Paste: each X request of the paste, timed in place, and the netlink
/// permission query the X server makes, probed.
fn paste_layers(pair: &mut Pair<Paste>, spans: &Spans, out: &mut Outcome) {
    let m = &mut out.metrics;
    tail(
        spans,
        "table1.paste",
        "table1.paste_p99_us",
        "table1.paste_samples",
        m,
    );
    for (span, metric) in [
        ("xserver.convert_selection", "xserver.convert_selection_us"),
        ("xserver.change_property", "xserver.change_property_us"),
        ("xserver.send_event", "xserver.send_event_us"),
        ("xserver.get_property", "xserver.get_property_us"),
    ] {
        span_median(spans, span, metric, 1e3, m);
    }
    let paste = &mut pair.sides[1];
    let detail = grant_detail(&mut paste.system, paste.target.pid, ResourceOp::Paste);
    let mut probes = Probes::new();
    probes.add("netlink.query_us", |p: &mut Paste, _| {
        let pid = p.target.pid;
        let conn = p.system.x_conn().expect("display manager connected");
        let at = p.system.now();
        let kernel = p.system.kernel_mut();
        kernel.clear_history();
        let took = timed(|| {
            for _ in 0..QUERY_BLOCK {
                let reply = kernel.netlink_send(
                    conn,
                    NetlinkMessage::PermissionQuery {
                        pid,
                        op: ResourceOp::Paste,
                        at,
                    },
                );
                let granted =
                    matches!(reply, Ok(NetlinkReply::QueryResponse(d)) if d.verdict.is_grant());
                black_box(granted);
            }
        });
        (took, QUERY_BLOCK)
    });
    layers::add_common(&mut probes, detail);
    probes.run(paste, &mut out.metrics);

    let layers = [
        (
            "xserver.convert_selection_us",
            get(out, "xserver.convert_selection_us"),
        ),
        (
            "xserver.change_property_us",
            get(out, "xserver.change_property_us"),
        ),
        ("xserver.send_event_us", get(out, "xserver.send_event_us")),
        (
            "xserver.get_property_us",
            get(out, "xserver.get_property_us"),
        ),
    ];
    let e2e = get(out, "table1.paste_us");
    waterfall(out, "table1.paste_us", e2e, "us", &layers);
}

/// Capture: the `GetImage` request, timed in place.
fn capture_layers(pair: &mut Pair<Capture>, spans: &Spans, out: &mut Outcome) {
    span_median(
        spans,
        "xserver.get_image",
        "xserver.get_image_ms",
        1e6,
        &mut out.metrics,
    );
    let mut probes = Probes::new();
    layers::add_common(&mut probes, "op=screen granted");
    probes.run(&mut pair.sides[1], &mut out.metrics);
    let layers = [("xserver.get_image_ms", get(out, "xserver.get_image_ms"))];
    let e2e = get(out, "table1.capture_ms");
    waterfall(out, "table1.capture_ms", e2e, "ms", &layers);
}

/// Shared-memory write: the faults the Overhaul side took per 1000
/// writes, and the fault path's `begin_access`, probed on a memory
/// manager of the probe's own with the row's access pattern.
fn shm_layers(pair: &mut Pair<Shm>, _spans: &Spans, out: &mut Outcome) {
    let shm = &pair.sides[1];
    let faults = shm.system.kernel().mm_stats().faults as f64;
    out.metrics
        .set("mm.faults_per_kwrite", faults / shm.next as f64 * 1e3);
    let mut mm = MemoryManager::new(true, SimDuration::from_millis(500));
    let pid = Pid::from_raw(1);
    let vma = mm.map_shared(pid, ShmId::from_raw(1));
    let mut now = Timestamp::from_millis(1_000);
    let mut probes = Probes::new();
    // A burst of writes in one wait window, then virtual time moves past it.
    probes.add("mm.begin_access_ns", |mm: &mut MemoryManager, _| {
        let took = timed(|| {
            for _ in 0..SHM_REARM_EVERY {
                black_box(mm.begin_access(vma, pid, AccessKind::Write, now).ok());
            }
        });
        now = now.saturating_add(SimDuration::from_millis(600));
        (took, SHM_REARM_EVERY)
    });
    layers::add_common(&mut probes, "op=mic granted");
    probes.run(&mut mm, &mut out.metrics);
    let layers = [("mm.begin_access_ns", get(out, "mm.begin_access_ns"))];
    let e2e = get(out, "table1.shm_write_ns");
    waterfall(out, "table1.shm_write_ns", e2e, "ns", &layers);
}

/// File-system cycle: create, stat and unlink, probed on a `Vfs` of the
/// probe's own.
fn fs_layers(_pair: &mut Pair<Fs>, spans: &Spans, out: &mut Outcome) {
    tail(
        spans,
        "table1.fs_cycle",
        "table1.fs_cycle_p99_us",
        "table1.fs_cycle_samples",
        &mut out.metrics,
    );
    struct Files {
        vfs: Vfs,
        paths: Vec<String>,
    }
    let mut files = Files {
        vfs: Vfs::new(),
        paths: Vec::new(),
    };
    let mut probes = Probes::new();
    probes.add("vfs.create_ns", |f: &mut Files, round| {
        f.paths = (0..FILE_BLOCK)
            .map(|i| format!("/tmp/probe{round}-{i}"))
            .collect();
        let (vfs, paths) = (&mut f.vfs, &f.paths);
        let took = timed(|| {
            for path in paths {
                black_box(vfs.create_file(path, Uid::ROOT, 0o644).ok());
            }
        });
        (took, FILE_BLOCK)
    });
    probes.add("vfs.stat_ns", |f: &mut Files, _| {
        let (vfs, paths) = (&f.vfs, &f.paths);
        let took = timed(|| {
            for path in paths {
                black_box(vfs.stat(path).ok());
            }
        });
        (took, FILE_BLOCK)
    });
    probes.add("vfs.unlink_ns", |f: &mut Files, _| {
        let (vfs, paths) = (&mut f.vfs, &f.paths);
        let took = timed(|| {
            for path in paths {
                black_box(vfs.unlink(path).ok());
            }
        });
        (took, FILE_BLOCK)
    });
    layers::add_common(&mut probes, "op=mic granted");
    probes.run(&mut files, &mut out.metrics);
    let layers = [
        ("vfs.create_ns", get(out, "vfs.create_ns")),
        ("vfs.stat_ns", get(out, "vfs.stat_ns")),
        ("vfs.unlink_ns", get(out, "vfs.unlink_ns")),
    ];
    let e2e = get(out, "table1.fs_cycle_us") * 1e3;
    waterfall(out, "table1.fs_cycle (ns)", e2e, "ns", &layers);
}
