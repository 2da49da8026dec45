//! Provenance printed with every result: what ran, on what, built by what.

use std::path::Path;
use std::process::Command;

/// FNV-1a over the bytes of every Rust source and manifest the benchmark
/// builds from, in path order: identifies the code even in a checkout
/// that is not a git repository.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.push("perfbench/Cargo.toml".into());
    files.push("perfbench/Cargo.lock".into());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The provenance line printed before the result.
pub fn line(workload: &str, seed: u64, traced: bool) -> String {
    let commit = first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unavailable".into());
    let rustc = first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \
         \"commit\": \"{}\", \"source_fnv64\": \"{:016x}\", \"nproc\": {nproc}, \
         \"cpu_model\": \"{}\", \"rustc\": \"{}\"}}}}",
        escape(workload),
        u8::from(traced),
        escape(&commit),
        source_digest(),
        escape(&cpu_model()),
        escape(&rustc),
    )
}
