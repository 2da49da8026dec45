//! Order statistics and the probe timer every workload shares.

use std::time::{Duration, Instant};

use crate::manifest::Metrics;

/// Median of `values` (the mean of the middle pair for even lengths).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for an empty slice). Over equal-sized chunks it is
/// total time over total work.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The per-chunk quantile `op_us` reports.
pub const FAST_QUANTILE: f64 = 0.1;

/// The time of a run's fast chunks: the [`FAST_QUANTILE`] of its
/// per-chunk times. Every chunk of a workload does the same work, so the
/// fast ones are the chunks the host's other tenants left alone; the mean
/// and the median move with the share of the run they did not, which on
/// a shared host swings from run to run.
pub fn fast(values: &[f64]) -> f64 {
    quantile(values, FAST_QUANTILE)
}

/// Geometric mean of strictly positive values (0 if any is not).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Rounds every probe set runs.
pub const PROBE_ROUNDS: usize = 15;

/// One probe: given the shared state and the round number, it makes
/// whatever untimed preparation the round needs, times its block with
/// [`timed`], and returns the block's duration and the calls it made.
type Probe<'a, S> = Box<dyn FnMut(&mut S, usize) -> (Duration, usize) + 'a>;

/// Paired probes of the layers under one fixture. Each round runs every
/// probe once, in order, so slow drift of the host reaches all of them
/// alike; a probe's value is the median over [`PROBE_ROUNDS`] rounds of
/// its per-call time.
pub struct Probes<'a, S> {
    list: Vec<(&'static str, Probe<'a, S>)>,
}

impl<'a, S> Probes<'a, S> {
    pub fn new() -> Self {
        Probes { list: Vec::new() }
    }

    /// Adds a probe named after the metric it measures.
    pub fn add(
        &mut self,
        metric: &'static str,
        probe: impl FnMut(&mut S, usize) -> (Duration, usize) + 'a,
    ) -> &mut Self {
        self.list.push((metric, Box::new(probe)));
        self
    }

    /// Runs every probe for [`PROBE_ROUNDS`] rounds against `state` and
    /// records the medians in `metrics`.
    pub fn run(self, state: &mut S, metrics: &mut Metrics) {
        for (metric, value) in self.medians(state) {
            metrics.set(metric, value);
        }
    }

    /// Runs every probe for [`PROBE_ROUNDS`] rounds against `state` and
    /// returns each probe's median, scaled to the unit its name ends in
    /// (`_ns`, `_us` or `_ms`).
    pub fn medians(mut self, state: &mut S) -> Vec<(&'static str, f64)> {
        let mut per_call = vec![Vec::with_capacity(PROBE_ROUNDS); self.list.len()];
        for round in 0..PROBE_ROUNDS {
            for (i, (_, probe)) in self.list.iter_mut().enumerate() {
                let (took, calls) = probe(state, round);
                per_call[i].push(took.as_nanos() as f64 / calls.max(1) as f64);
            }
        }
        self.list
            .iter()
            .zip(&per_call)
            .map(|((metric, _), samples)| {
                let scale = if metric.ends_with("_us") {
                    1e3
                } else if metric.ends_with("_ms") {
                    1e6
                } else {
                    1.0
                };
                (*metric, median(samples) / scale)
            })
            .collect()
    }
}

/// Wall time of one call of `f`.
pub fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
