//! End-to-end smoke tests over every experiment harness: each paper claim
//! is regenerated at reduced scale and its headline direction asserted.

use overhaul_apps::campaign::{outcome_granted, CampaignDriver, CampaignKind};
use overhaul_apps::workload::{run_empirical_experiment, WorkloadConfig};
use overhaul_bench::ablation::{sweep_delta, sweep_propagation, sweep_shm_wait, sweep_visibility};
use overhaul_bench::applicability;
use overhaul_bench::table1::{self, Scale};
use overhaul_bench::usability::{self, StudyConfig};
use overhaul_core::{
    replay, replay_from, timeline, Event, EventLog, OverhaulConfig, Recorder, System,
};
use overhaul_kernel::device::DeviceClass;
use overhaul_sim::snapshot::fnv1a64;
use overhaul_sim::SimDuration;
use overhaul_xserver::geometry::Rect;
use overhaul_xserver::protocol::{Atom, Reply, Request, XEvent};

fn small_screen(mut config: OverhaulConfig) -> OverhaulConfig {
    config.x.screen = Rect::new(0, 0, 160, 100);
    config
}

#[test]
fn table1_smoke_all_rows_measurable() {
    let rows = table1::run_all(Scale {
        device_opens: 500,
        pastes: 30,
        captures: 3,
        shm_writes: 5_000,
        files: 200,
    });
    assert_eq!(rows.len(), 5);
    for row in &rows {
        assert!(row.baseline.as_nanos() > 0);
        // At tiny scales jitter dominates; the assertion is only that the
        // measurement machinery produces finite overheads.
        assert!(row.overhead_pct().is_finite(), "{}", row.name);
    }
}

#[test]
fn usability_smoke_transparency_and_blocking() {
    let report = usability::run_study(StudyConfig {
        participants: 8,
        ..StudyConfig::default()
    });
    assert_eq!(report.calls_succeeded, 8);
    assert_eq!(report.probes_blocked, 8);
    assert_eq!(report.likert[0], 8, "task 1: everyone rates it identical");
}

#[test]
fn applicability_smoke_no_false_positives() {
    // A slice of each corpus keeps the smoke test fast; the full corpora
    // run in the bench-crate unit tests and the binary.
    let device_pool = overhaul_apps::corpus::device_corpus();
    let (report, _) =
        applicability::run_corpus("device-slice", &device_pool[..12], System::protected);
    assert_eq!(
        report.false_positives, 0,
        "broken: {:?}",
        report.broken_apps
    );
    let clip_pool = overhaul_apps::corpus::clipboard_corpus();
    let (report, _) = applicability::run_corpus("clip-slice", &clip_pool[..10], System::protected);
    assert_eq!(report.false_positives, 0);
}

#[test]
fn empirical_smoke_protected_vs_baseline() {
    let config = WorkloadConfig {
        days: 1,
        actions_per_day: 30,
        spy_interval: SimDuration::from_secs(1200),
        seed: 99,
    };
    let mut protected = System::new(small_screen(OverhaulConfig::protected()));
    let p = run_empirical_experiment(&mut protected, config);
    assert_eq!(p.items_stolen, 0);
    assert_eq!(p.legit_denied, 0);

    let mut baseline = System::new(small_screen(OverhaulConfig::baseline()));
    let b = run_empirical_experiment(&mut baseline, config);
    assert!(b.items_stolen > 0, "{b:?}");
}

// ------------------------------------------------------------------
// Record/replay goldens: each example program's workload, scripted
// through the Recorder, must replay to a byte-identical state hash —
// including from the serialized event log.
// ------------------------------------------------------------------

/// Replays a sealed recording twice — from the in-memory log and from its
/// serialized bytes — and asserts both land on the recorded hash.
fn assert_replay_golden(recorded: &System, log: &EventLog) {
    let recorded_hash = recorded.state_hash();
    assert_eq!(log.final_state_hash, Some(recorded_hash));
    let replayed = replay(log).expect("replay boots");
    assert_eq!(replayed.state_hash(), recorded_hash, "replay diverged");
    assert_eq!(replayed.kernel().snapshot_stats().replay_divergence, 0);

    let decoded = EventLog::from_bytes(&log.to_bytes()).expect("log round-trip");
    let replayed = replay(&decoded).expect("replay boots");
    assert_eq!(
        replayed.state_hash(),
        recorded_hash,
        "replay from serialized log diverged"
    );
}

fn launch(rec: &mut Recorder, exe: &str, rect: Rect) -> overhaul_core::Gui {
    rec.apply(Event::LaunchGuiApp {
        exe: exe.into(),
        rect,
    })
    .gui()
    .expect("launch")
}

fn open(
    rec: &mut Recorder,
    pid: overhaul_sim::Pid,
    path: &str,
) -> overhaul_core::replay::ApplyOutcome {
    rec.apply(Event::OpenDevice {
        pid,
        path: path.into(),
    })
}

#[test]
fn replay_golden_quickstart() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let app = launch(&mut rec, "/usr/bin/recorder", Rect::new(0, 0, 640, 480));
    rec.apply(Event::Settle);
    assert!(open(&mut rec, app.pid, "/dev/snd/mic0").fd().is_err());
    rec.apply(Event::ClickWindow { window: app.window });
    rec.apply(Event::Advance(SimDuration::from_millis(300)));
    let fd = open(&mut rec, app.pid, "/dev/snd/mic0").fd().expect("open");
    rec.apply(Event::SysRead {
        pid: app.pid,
        fd,
        max: 64,
    });
    rec.apply(Event::Advance(SimDuration::from_secs(3)));
    assert!(open(&mut rec, app.pid, "/dev/snd/mic0").fd().is_err());
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_audit_timeline() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let app = launch(&mut rec, "/usr/bin/recorder", Rect::new(0, 0, 300, 200));
    rec.apply(Event::Settle);
    rec.apply(Event::ClickWindow { window: app.window });
    rec.apply(Event::Advance(SimDuration::from_millis(120)));
    let fd = open(&mut rec, app.pid, "/dev/snd/mic0").fd().expect("open");
    rec.apply(Event::SysClose { pid: app.pid, fd });
    rec.apply(Event::XRequest {
        client: app.client,
        request: Request::SetSelectionOwner {
            selection: Atom::clipboard(),
            window: app.window,
        },
    });
    rec.apply(Event::Advance(SimDuration::from_secs(30)));
    let spy = rec
        .apply(Event::SpawnProcess {
            parent: None,
            exe: "/usr/bin/.spy".into(),
        })
        .pid()
        .expect("spawn");
    assert!(open(&mut rec, spy, "/dev/video0").fd().is_err());
    let spy_client = rec.apply(Event::ConnectX { pid: spy }).client();
    rec.apply(Event::XRequest {
        client: spy_client,
        request: Request::GetImage { window: None },
    });
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

/// Pins the `audit_timeline` example's outputs to absolute constants.
/// The replay goldens compare a replay only with its own recording, so a
/// rendering change that shifts both sides alike passes them; this does
/// not.
#[test]
fn audit_timeline_outputs_are_pinned() {
    let mut machine = System::new(OverhaulConfig::protected().with_tracing());
    let recorder = machine
        .launch_gui_app("/usr/bin/recorder", Rect::new(0, 0, 300, 200))
        .expect("launch");
    machine.settle();
    machine.click_window(recorder.window);
    machine.advance(SimDuration::from_millis(120));
    let fd = machine
        .open_device(recorder.pid, "/dev/snd/mic0")
        .expect("open");
    machine
        .kernel_mut()
        .sys_close(recorder.pid, fd)
        .expect("close");
    machine
        .x_request(
            recorder.client,
            Request::SetSelectionOwner {
                selection: Atom::clipboard(),
                window: recorder.window,
            },
        )
        .ok();
    machine.advance(SimDuration::from_secs(30));
    let spy = machine.spawn_process(None, "/usr/bin/.spy").expect("spawn");
    let _ = machine.open_device(spy, "/dev/video0");
    let spy_client = machine.connect_x(spy);
    let _ = machine.x_request(spy_client, Request::GetImage { window: None });

    let rendered = timeline::render(&timeline::merge(&machine), None);
    let pinned = (
        fnv1a64(rendered.as_bytes()),
        machine.kernel_ledger().head(),
        machine.x_ledger().head(),
        machine.state_hash(),
        fnv1a64(machine.trace_dump().as_bytes()),
    );
    assert_eq!(
        pinned,
        (
            0x1035_4c52_5317_1dc9,
            0xee1e_9b86_f982_489e,
            0xc387_33fe_851e_94e5,
            0xbb8e_82b1_4f64_b123,
            0xfa73_44c0_c048_d673,
        ),
        "rendered timeline:\n{rendered}"
    );
}

#[test]
fn replay_golden_malware_blocked() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let mail = launch(&mut rec, "/usr/bin/thunderbird", Rect::new(0, 0, 320, 200));
    rec.apply(Event::Settle);
    let spy = rec
        .apply(Event::SpawnProcess {
            parent: None,
            exe: "/usr/bin/.spy".into(),
        })
        .pid()
        .expect("spawn");
    let spy_client = rec.apply(Event::ConnectX { pid: spy }).client();
    for _ in 0..3 {
        rec.apply(Event::Advance(SimDuration::from_secs(60)));
        assert!(open(&mut rec, spy, "/dev/snd/mic0").fd().is_err());
        assert!(open(&mut rec, spy, "/dev/video0").fd().is_err());
        assert!(rec
            .apply(Event::XRequest {
                client: spy_client,
                request: Request::GetImage { window: None },
            })
            .x()
            .is_err());
    }
    // The user's own app still works right after a click.
    rec.apply(Event::ClickWindow {
        window: mail.window,
    });
    assert!(open(&mut rec, mail.pid, "/dev/snd/mic0").fd().is_ok());
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_multiprocess_browser() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let browser = launch(&mut rec, "/usr/bin/chromium", Rect::new(0, 0, 1024, 700));
    let shm = rec
        .apply(Event::SysShmGet {
            pid: browser.pid,
            key: 0xbeef,
            pages: 16,
        })
        .shm()
        .expect("shmget");
    let main_vma = rec
        .apply(Event::SysShmAt {
            pid: browser.pid,
            shm,
        })
        .vma()
        .expect("shmat");
    let tab = rec
        .apply(Event::SysFork { pid: browser.pid })
        .pid()
        .expect("fork");
    rec.apply(Event::SysExecve {
        pid: tab,
        exe: "/usr/bin/chromium-tab".into(),
    });
    let tab_vma = rec
        .apply(Event::SysShmAt { pid: tab, shm })
        .vma()
        .expect("shmat");
    rec.apply(Event::Advance(SimDuration::from_secs(30)));
    rec.apply(Event::Settle);
    assert!(open(&mut rec, tab, "/dev/video0").fd().is_err());
    rec.apply(Event::ClickWindow {
        window: browser.window,
    });
    rec.apply(Event::SysShmWrite {
        pid: browser.pid,
        vma: main_vma,
        offset: 0,
        data: b"start-video".to_vec(),
    });
    rec.apply(Event::SysShmRead {
        pid: tab,
        vma: tab_vma,
        offset: 0,
        len: 11,
    });
    let fd = open(&mut rec, tab, "/dev/video0").fd().expect("P2 carries");
    rec.apply(Event::SysRead {
        pid: tab,
        fd,
        max: 64,
    });
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_sensor_gps() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    rec.apply(Event::AttachDevice {
        class: DeviceClass::Sensor,
        label: "usb gps".into(),
        path: "/dev/gps0".into(),
    });
    let tracker = rec
        .apply(Event::SpawnProcess {
            parent: None,
            exe: "/usr/bin/.tracker".into(),
        })
        .pid()
        .expect("spawn");
    for _ in 0..3 {
        rec.apply(Event::Advance(SimDuration::from_secs(60)));
        assert!(open(&mut rec, tracker, "/dev/gps0").fd().is_err());
    }
    let maps = launch(&mut rec, "/usr/bin/maps", Rect::new(0, 0, 800, 600));
    rec.apply(Event::Settle);
    rec.apply(Event::ClickWindow {
        window: maps.window,
    });
    rec.apply(Event::Advance(SimDuration::from_millis(150)));
    let fd = open(&mut rec, maps.pid, "/dev/gps0").fd().expect("open");
    rec.apply(Event::SysRead {
        pid: maps.pid,
        fd,
        max: 64,
    });
    rec.apply(Event::UdevRename {
        old: "/dev/gps0".into(),
        new: "/dev/gps1".into(),
    });
    rec.apply(Event::Advance(SimDuration::from_secs(5)));
    assert!(open(&mut rec, tracker, "/dev/gps1").fd().is_err());
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_terminal_workflow() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let xterm = launch(&mut rec, "/usr/bin/xterm", Rect::new(0, 0, 640, 400));
    let (master, slave) = rec
        .apply(Event::SysOpenPty { pid: xterm.pid })
        .fds()
        .expect("openpty");
    let bash = rec
        .apply(Event::SysFork { pid: xterm.pid })
        .pid()
        .expect("fork");
    rec.apply(Event::SysExecve {
        pid: bash,
        exe: "/bin/bash".into(),
    });
    rec.apply(Event::Advance(SimDuration::from_secs(20)));
    rec.apply(Event::Settle);
    let stale = rec
        .apply(Event::SysSpawn {
            parent: bash,
            exe: "/usr/bin/scrot".into(),
        })
        .pid()
        .expect("spawn");
    let stale_client = rec.apply(Event::ConnectX { pid: stale }).client();
    assert!(rec
        .apply(Event::XRequest {
            client: stale_client,
            request: Request::GetImage { window: None },
        })
        .x()
        .is_err());
    rec.apply(Event::ClickWindow {
        window: xterm.window,
    });
    rec.apply(Event::SysWrite {
        pid: xterm.pid,
        fd: master,
        data: b"scrot\n".to_vec(),
    });
    rec.apply(Event::SysRead {
        pid: bash,
        fd: slave,
        max: 64,
    });
    let scrot = rec
        .apply(Event::SysSpawn {
            parent: bash,
            exe: "/usr/bin/scrot".into(),
        })
        .pid()
        .expect("spawn");
    let scrot_client = rec.apply(Event::ConnectX { pid: scrot }).client();
    assert!(matches!(
        rec.apply(Event::XRequest {
            client: scrot_client,
            request: Request::GetImage { window: None },
        })
        .x(),
        Ok(Reply::Image(_))
    ));
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_video_conference() {
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let skype = launch(&mut rec, "/usr/bin/skype", Rect::new(100, 100, 800, 600));
    assert!(open(&mut rec, skype.pid, "/dev/video0").fd().is_err());
    rec.apply(Event::Settle);
    rec.apply(Event::ClickWindow {
        window: skype.window,
    });
    rec.apply(Event::Advance(SimDuration::from_millis(400)));
    let cam = open(&mut rec, skype.pid, "/dev/video0").fd().expect("cam");
    let mic = open(&mut rec, skype.pid, "/dev/snd/mic0")
        .fd()
        .expect("mic");
    for _ in 0..3 {
        rec.apply(Event::SysRead {
            pid: skype.pid,
            fd: cam,
            max: 64,
        });
        rec.apply(Event::SysRead {
            pid: skype.pid,
            fd: mic,
            max: 64,
        });
        rec.apply(Event::Advance(SimDuration::from_millis(33)));
    }
    rec.apply(Event::Advance(SimDuration::from_secs(60)));
    rec.apply(Event::SysRead {
        pid: skype.pid,
        fd: cam,
        max: 64,
    });
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

#[test]
fn replay_golden_clipboard_protection() {
    const SECRET: &[u8] = b"correct-horse-battery-staple";
    let mut rec = Recorder::new(OverhaulConfig::protected());
    let manager = launch(&mut rec, "/usr/bin/keepassx", Rect::new(0, 0, 300, 200));
    let browser = launch(&mut rec, "/usr/bin/firefox", Rect::new(400, 0, 600, 400));
    rec.apply(Event::Settle);

    // Copy after a real click...
    rec.apply(Event::ClickWindow {
        window: manager.window,
    });
    rec.apply(Event::XRequest {
        client: manager.client,
        request: Request::SetSelectionOwner {
            selection: Atom::clipboard(),
            window: manager.window,
        },
    });
    // ...then paste into the browser, running the full selection protocol
    // (owner answers the SelectionRequest, browser fetches the property).
    rec.apply(Event::Advance(SimDuration::from_millis(500)));
    rec.apply(Event::ClickWindow {
        window: browser.window,
    });
    rec.apply(Event::XRequest {
        client: browser.client,
        request: Request::ConvertSelection {
            selection: Atom::clipboard(),
            requestor: browser.window,
            property: Atom::new("XSEL_DATA"),
        },
    })
    .x()
    .expect("paste allowed after click");
    let requests = rec
        .apply(Event::DrainEvents {
            client: manager.client,
        })
        .events()
        .expect("owner queue");
    for event in requests {
        if let XEvent::SelectionRequest {
            selection,
            requestor,
            property,
        } = event
        {
            rec.apply(Event::XRequest {
                client: manager.client,
                request: Request::ChangeProperty {
                    window: requestor,
                    property: property.clone(),
                    data: SECRET.to_vec(),
                },
            });
            rec.apply(Event::XRequest {
                client: manager.client,
                request: Request::SendEvent {
                    target: requestor,
                    event: Box::new(XEvent::SelectionNotify {
                        selection,
                        property,
                    }),
                },
            });
        }
    }
    let notify = rec
        .apply(Event::DrainEvents {
            client: browser.client,
        })
        .events()
        .expect("browser queue")
        .into_iter()
        .find_map(|e| match e {
            XEvent::SelectionNotify { property, .. } => Some(property),
            _ => None,
        })
        .expect("notify delivered");
    let pasted = rec
        .apply(Event::XRequest {
            client: browser.client,
            request: Request::GetProperty {
                window: browser.window,
                property: notify,
                delete: true,
            },
        })
        .x()
        .expect("fetch");
    assert!(matches!(pasted, Reply::Property(Some(ref d)) if d == SECRET));

    // A fresh copy, then the background sniffer strikes — and is blocked.
    rec.apply(Event::ClickWindow {
        window: manager.window,
    });
    rec.apply(Event::XRequest {
        client: manager.client,
        request: Request::SetSelectionOwner {
            selection: Atom::clipboard(),
            window: manager.window,
        },
    });
    rec.apply(Event::Advance(SimDuration::from_secs(30)));
    let sniffer = rec
        .apply(Event::SpawnProcess {
            parent: None,
            exe: "/usr/bin/.sniffer".into(),
        })
        .pid()
        .expect("spawn");
    let sniffer_client = rec.apply(Event::ConnectX { pid: sniffer }).client();
    let sniffer_window = match rec
        .apply(Event::XRequest {
            client: sniffer_client,
            request: Request::CreateWindow {
                rect: Rect::new(0, 0, 1, 1),
            },
        })
        .x()
        .expect("create")
    {
        Reply::Window(w) => w,
        other => panic!("expected a window, got {other:?}"),
    };
    assert!(rec
        .apply(Event::XRequest {
            client: sniffer_client,
            request: Request::ConvertSelection {
                selection: Atom::clipboard(),
                requestor: sniffer_window,
                property: Atom::new("LOOT"),
            },
        })
        .x()
        .is_err());
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);
}

// ------------------------------------------------------------------
// Campaign goldens: the multi-stage attack-campaign scripts must replay
// to byte-identical state hashes, trace dumps, and ledger heads — from
// boot AND from a snapshot taken mid-campaign, with the driver's actor
// handles re-derived purely from the replayed outcomes.
// ------------------------------------------------------------------

/// Drives one catalog campaign stage by stage over a tracing recorder,
/// checkpointing halfway, then asserts all three replay paths (boot,
/// serialized bytes, mid-campaign snapshot) land on the recorded
/// `state_hash`, `trace_dump`, and ledger head. Returns each stage's
/// observed grant/deny for the caller's semantic assertions.
fn assert_campaign_golden(kind: CampaignKind) -> Vec<(&'static str, Option<bool>)> {
    let campaign = kind.build();
    let mut rec = Recorder::new(OverhaulConfig::protected().with_tracing());
    let mut driver = CampaignDriver::new();
    let mid = campaign.stages.len() / 2;
    let mut checkpoint = None;
    let mut outcomes = Vec::new();
    for (i, stage) in campaign.stages.iter().enumerate() {
        if i == mid {
            checkpoint = Some((rec.snapshot(), rec.events_recorded()));
        }
        let event = driver.resolve(rec.system(), &stage.action);
        let outcome = rec.apply(event.clone());
        driver.absorb(&stage.action, &outcome);
        outcomes.push((stage.label, outcome_granted(&event, &outcome)));
    }
    let (recorded, log) = rec.finish();
    assert_replay_golden(&recorded, &log);

    let from_boot = replay(&log).expect("replay boots");
    assert_eq!(
        from_boot.trace_dump(),
        recorded.trace_dump(),
        "trace dump diverged on boot replay"
    );
    assert_eq!(from_boot.ledger_head(), recorded.ledger_head());

    let (snapshot, at) = checkpoint.expect("campaign has stages");
    let restored =
        replay_from(&snapshot, log.suffix(at), log.final_state_hash).expect("snapshot replay");
    assert_eq!(
        restored.state_hash(),
        recorded.state_hash(),
        "state hash diverged from the mid-campaign snapshot"
    );
    assert_eq!(
        restored.trace_dump(),
        recorded.trace_dump(),
        "trace dump diverged from the mid-campaign snapshot"
    );
    assert_eq!(restored.ledger_head(), recorded.ledger_head());
    outcomes
}

#[test]
fn replay_golden_hover_theft_campaign() {
    let outcomes = assert_campaign_golden(CampaignKind::HoverTheft);
    let granted = |label: &str| outcomes.iter().find(|(l, _)| *l == label).expect(label).1;
    assert_eq!(granted("mic after suppressed click"), Some(false));
    assert_eq!(granted("cam after forged input"), Some(false));
    assert_eq!(granted("mic within delta of the stolen click"), Some(true));
}

#[test]
fn replay_golden_delegation_abuse_campaign() {
    let outcomes = assert_campaign_golden(CampaignKind::DelegationAbuse);
    let granted = |label: &str| outcomes.iter().find(|(l, _)| *l == label).expect(label).1;
    assert_eq!(granted("cam before any hop"), Some(false));
    assert_eq!(granted("cam via fresh delegation hop"), Some(true));
    assert_eq!(granted("cam via stale hop"), Some(false));
}

#[test]
fn ablation_smoke_directions_hold() {
    let delta = sweep_delta(&[500, 2000], 20, 5);
    assert!(delta[0].false_deny_rate >= delta[1].false_deny_rate);

    let shm = sweep_shm_wait(&[100, 1000], 10, 5);
    assert!(shm[0].faults_per_10k >= shm[1].faults_per_10k);

    let vis = sweep_visibility(&[0, 500], 20, 5);
    assert!(vis[0].popup_attack_succeeds);
    assert!(!vis[1].popup_attack_succeeds);

    let prop = sweep_propagation();
    assert_eq!(prop.functional_without_p2, 0);
}
