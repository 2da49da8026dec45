//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files around the calls it makes
//! into each layer's public functions; nothing inside the program under
//! test is instrumented. A span has a name, a start and end in
//! nanoseconds since the recorder was created, the span that caused it
//! (its parent), and the request it belongs to. Spans stay in memory and
//! are written out once, when the run ends.
//!
//! A disabled recorder (the end-to-end runs) does nothing but test one
//! flag per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept in full for the written trace; later spans still count in
/// the per-name durations.
const KEEP_SPANS: usize = 20_000;

/// Per-name duration samples kept for quantiles.
const KEEP_SAMPLES: usize = 200_000;

/// No parent.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Durations and child time recorded under one span name.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus time covered by children).
    pub self_ns: u64,
    /// The first [`KEEP_SAMPLES`] durations, for quantiles.
    pub samples: Vec<f64>,
}

/// A handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: u32,
    start_ns: u64,
}

/// An open span with the time its children have covered so far.
#[derive(Debug)]
struct Frame {
    open: Open,
    name: &'static str,
    child_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    request: u64,
    /// Open spans, innermost last.
    stack: Vec<Frame>,
    kept: Vec<Span>,
    dropped: u64,
    by_name: BTreeMap<&'static str, NameStats>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            request: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            by_name: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new request: spans opened from now on share its id.
    #[inline]
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().map_or(ROOT, |f| f.open.index);
        let index = if self.kept.len() < KEEP_SPANS {
            self.kept.push(Span {
                name,
                parent,
                request: self.request,
                start_ns,
                end_ns: start_ns,
            });
            (self.kept.len() - 1) as u32
        } else {
            self.dropped += 1;
            ROOT
        };
        let open = Open { index, start_ns };
        self.stack.push(Frame {
            open,
            name,
            child_ns: 0,
        });
        Some(open)
    }

    /// Closes the innermost open span (`open` must be it).
    #[inline]
    pub fn exit(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end_ns = self.now_ns();
        let frame = self.stack.pop().expect("exit matches an enter");
        debug_assert_eq!(
            frame.open.start_ns, open.start_ns,
            "spans close innermost first"
        );
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(span) = self.kept.get_mut(open.index as usize) {
            span.end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        let stats = self.by_name.entry(frame.name).or_default();
        stats.count += 1;
        stats.total_ns += duration;
        stats.self_ns += duration.saturating_sub(frame.child_ns);
        if stats.samples.len() < KEEP_SAMPLES {
            stats.samples.push(duration as f64);
        }
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// What was recorded under `name`, if anything.
    pub fn stats(&self, name: &str) -> Option<&NameStats> {
        self.by_name.get(name).filter(|s| s.count > 0)
    }

    /// Writes the kept spans and per-name totals as JSON to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        out.push_str("{\"names\": {");
        for (i, (name, s)) in self.by_name.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                s.count, s.total_ns, s.self_ns
            );
        }
        let _ = write!(out, "}}, \"dropped\": {}, \"spans\": [", self.dropped);
        for (i, s) in self.kept.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"request\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
