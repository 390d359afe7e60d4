//! Pass statistics shared by the workloads and the leaf benchmarks.
//!
//! On the machine this benchmark was tuned on, one pass can take up to
//! twice as long as the next with identical work: speed drifts in
//! phases of seconds, and every pass lands its allocations differently.
//! A run therefore times many passes and reports the median pass rate,
//! with the fastest quarter's rate beside it for reference.

use crate::metrics::Outcome;
use std::time::Instant;

/// One timed pass: `work` units done in `secs` wall seconds.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Work units the pass completed (steps, schedules, reports, ops).
    pub work: f64,
    /// Wall seconds the timed part of the pass took.
    pub secs: f64,
}

impl Pass {
    fn rate(&self) -> f64 {
        self.work / self.secs
    }
}

/// Σ work ÷ Σ secs over the fastest quarter of `passes` (at least one).
///
/// # Panics
/// Panics on an empty slice.
pub fn fast_rate(passes: &[Pass]) -> f64 {
    assert!(!passes.is_empty(), "no passes to rate");
    let mut sorted = passes.to_vec();
    sorted.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    let fast = &sorted[..passes.len().div_ceil(4)];
    fast.iter().map(|p| p.work).sum::<f64>() / fast.iter().map(|p| p.secs).sum::<f64>()
}

/// Median per-pass rate.
pub fn median_rate(passes: &[Pass]) -> f64 {
    median(passes.iter().map(Pass::rate).collect())
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty vector.
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Passes whose set-up time `setup_s` leaves out: set-up gets cheaper
/// over a run's first passes as the heap warms.
pub const WARM_PASSES: usize = 3;

/// Sets the end-to-end timing metrics of an untraced run: `work_per_s`
/// is the median pass rate and `setup_s` the median set-up time of the
/// passes after the first [`WARM_PASSES`]. Returns `(median rate,
/// fastest-quartile rate)`; sets nothing when no pass completed.
pub fn set_timing(out: &mut Outcome, passes: &[Pass], setups: &[f64]) -> (f64, f64) {
    if passes.is_empty() {
        return (0.0, 0.0);
    }
    let rate = median_rate(passes);
    out.metrics.set("work_per_s", rate);
    let warm = if setups.len() > WARM_PASSES { &setups[WARM_PASSES..] } else { setups };
    out.metrics.set("setup_s", median(warm.to_vec()));
    (rate, fast_rate(passes))
}

/// A wall-clock budget for a loop of passes.
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    seconds: f64,
    durations: Vec<f64>,
}

impl Budget {
    /// A budget of `seconds`, starting now.
    pub fn new(seconds: f64) -> Self {
        Self { start: Instant::now(), seconds, durations: Vec::new() }
    }

    /// Whether to start another pass: always while fewer than `min`
    /// passes ran, then only if a pass of the median length so far still
    /// ends inside the budget.
    pub fn more(&self, min: usize) -> bool {
        if self.durations.len() < min {
            return true;
        }
        let typical = median(self.durations.clone());
        self.start.elapsed().as_secs_f64() + typical <= self.seconds
    }

    /// Records the whole wall duration of a finished pass.
    pub fn record(&mut self, secs: f64) {
        self.durations.push(secs);
    }

    /// Passes recorded so far.
    pub fn passes(&self) -> usize {
        self.durations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_rate_takes_the_fastest_quarter() {
        let passes: Vec<Pass> =
            [1.0, 2.0, 4.0, 8.0, 8.0].iter().map(|&secs| Pass { work: 8.0, secs }).collect();
        // ⌈5/4⌉ = 2 fastest passes: 16 units in 3 s.
        assert!((fast_rate(&passes) - 16.0 / 3.0).abs() < 1e-12);
        assert_eq!(median_rate(&passes), 2.0);
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
