//! Repository benchmark for the Overhaul reproduction.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_paste --seed 1 --seconds 12 --trace 0
//! ```
//!
//! One process, one thread, one caller in a closed loop: each call into
//! the system starts after the previous one returned. Only the public API
//! of `overhaul-core`, `overhaul-kernel`, `overhaul-xserver` and
//! `overhaul-sim` is called. Inputs come from `--seed`, and every output
//! is checked. `--trace 0` measures the end-to-end metrics with tracing
//! off; `--trace 1` is the traced run that reports the per-layer metrics
//! (see `perfbench/README.md`).
//!
//! The last line of standard output is the result object; the line before
//! it records provenance. A run whose checks fail exits non-zero.

mod ingest;
mod layers;
mod manifest;
mod provenance;
mod session;
mod spans;
mod stats;
mod table1;

use std::process::ExitCode;
use std::time::Duration;

use manifest::Metrics;

/// What a workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Time the measured phase runs for.
    pub budget: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Workload-level checks that failed (shape guards, waterfall).
    pub violations: Vec<String>,
    /// Measured values.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one checked operation, and a failure when `ok` is false.
    #[inline]
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Takes in a brief run of workload `other`: its checks, and the
    /// metrics this outcome has not measured itself.
    pub fn absorb(&mut self, other: &str, extra: Outcome) {
        self.attempted += extra.attempted;
        self.failed += extra.failed;
        self.violations.extend(
            extra
                .violations
                .into_iter()
                .map(|v| format!("[{other}] {v}")),
        );
        self.metrics.fill_from(extra.metrics);
    }

    /// Records a workload-level check.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Rounds every measured loop makes however short its budget, so a
/// traced run always has both a traced and an untraced one.
pub const MIN_ROUNDS: usize = 2;

/// Tolerance of the waterfall check: the probed layers of an operation
/// may sum to at most this share above its end-to-end per-op time.
pub const WATERFALL_TOLERANCE: f64 = 0.25;

/// Prints one waterfall to standard error and records a violation when
/// the probed layers sum past the end-to-end time by more than
/// [`WATERFALL_TOLERANCE`]. Returns the unattributed remainder.
pub fn waterfall(
    out: &mut Outcome,
    what: &str,
    e2e: f64,
    unit: &str,
    layers: &[(&str, f64)],
) -> f64 {
    let probed: f64 = layers.iter().map(|(_, v)| v).sum();
    let rest = e2e - probed;
    eprintln!("waterfall {what}: end-to-end {e2e:.3} {unit}");
    for (name, v) in layers {
        eprintln!("  {name:<34} {v:>12.3} {unit}");
    }
    eprintln!("  {:<34} {rest:>12.3} {unit}", "(unattributed)");
    out.require(probed <= e2e * (1.0 + WATERFALL_TOLERANCE), || {
        format!(
            "waterfall {what}: probed layers sum to {probed:.3} {unit}, more than the \
             end-to-end {e2e:.3} {unit} plus {:.0}%",
            WATERFALL_TOLERANCE * 100.0
        )
    });
    rest
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = manifest::RUN_SECONDS as f64;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

/// The committed `BENCHMARK.json` must be the one this program declares.
fn check_manifest() -> Result<(), String> {
    let committed = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    if committed != manifest::render() {
        return Err("BENCHMARK.json differs from `perfbench --manifest`; regenerate it".into());
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Measured time of the brief runs that complete a traced run's layers.
const COMPLEMENT_BUDGET: Duration = Duration::from_millis(500);

/// The workloads that share a fixture and so exercise the same layers.
fn family(workload: &str) -> &str {
    workload
        .strip_prefix("ingest_")
        .map_or(workload, |_| "ingest")
}

/// One workload of each family: between them they exercise every layer.
const FAMILIES: [&str; 7] = [
    "table1_device",
    "table1_paste",
    "table1_capture",
    "table1_shm",
    "table1_fs",
    "ingest_hot",
    "session_replay",
];

fn run_workload(
    workload: &str,
    config: &RunConfig,
    spans: &mut spans::Spans,
) -> Result<Outcome, String> {
    if let Some(row) = table1::RowKind::from_workload(workload) {
        return Ok(table1::run(config, row, spans));
    }
    Ok(match workload {
        "ingest_hot" => ingest::run(config, ingest::Mode::Hot, spans),
        "ingest_churn" => ingest::run(config, ingest::Mode::Churn, spans),
        "session_replay" => session::run(config, spans),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn run(args: &Args) -> Result<(Outcome, f64), String> {
    check_manifest()?;
    let config = RunConfig {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        traced: args.traced,
    };
    let mut spans = if args.traced {
        spans::Spans::on()
    } else {
        spans::Spans::off()
    };
    let mut outcome = run_workload(&args.workload, &config, &mut spans)?;
    if args.traced {
        // Every per-layer metric is reported on every workload. Layers the
        // workload does not exercise are measured by a brief traced run of
        // the workload family that does, with its own fixture and checks.
        for other in FAMILIES {
            if family(other) == family(&args.workload) {
                continue;
            }
            let brief = RunConfig {
                budget: COMPLEMENT_BUDGET,
                ..config
            };
            let began = std::time::Instant::now();
            let extra = run_workload(other, &brief, &mut spans::Spans::on())?;
            eprintln!(
                "brief traced run of {other}: {:.2} s",
                began.elapsed().as_secs_f64()
            );
            outcome.absorb(other, extra);
        }
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench-traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        spans
            .write_json(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok((outcome, peak_rss_mb()?))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--manifest") {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut outcome, rss) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.traced {
        outcome.metrics.set("peak_rss_mb", rss);
        let pass = 100.0 * (outcome.attempted - outcome.failed) as f64 / outcome.attempted as f64;
        outcome.metrics.set("pass_pct", pass);
    }
    let metrics = match outcome.metrics.to_json(args.traced) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for v in &outcome.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    let correct = outcome.failed == 0 && outcome.violations.is_empty() && outcome.attempted > 0;
    println!(
        "{}",
        provenance::line(&args.workload, args.seed, args.traced)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
