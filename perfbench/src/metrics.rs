//! Metric names, units and the result line.
//!
//! Every workload reports every end-to-end metric in an untraced run
//! and every per-layer metric in a traced run. A per-layer metric whose
//! layer the workload never calls reads 0.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics, reported with tracing off.
///
/// `work_per_s` counts each workload's own unit of work: granted process
/// steps (tight-fair, loose-random), schedules executed under the safety
/// audit (schedule-search), or regenerated reports (report-quick).
pub const END_TO_END: &[Def] =
    &[def("work_per_s", "work/s"), def("setup_s", "s"), def("peak_rss_mb", "MiB")];

/// Per-layer metrics, reported by a traced run. Counts and busy times
/// cover one unit set of the workload: its seed set (tight-fair,
/// loose-random), one search pass (schedule-search) or one report
/// (report-quick).
pub const PER_LAYER: &[Def] = &[
    def("shmem.rng.ns_per_coin", "ns"),
    def("shmem.rng.ns_per_index", "ns"),
    def("process.rng_words", "count"),
    def("shmem.tas.ns_per_op", "ns"),
    def("steps.tas", "count"),
    def("tau.ns_per_request", "ns"),
    def("steps.tau_request", "count"),
    def("steps.read", "count"),
    def("steps.local", "count"),
    def("process.steps_per_name", "ratio"),
    def("bits.ns_per_next_runnable", "ns"),
    def("bits.ns_per_select", "ns"),
    def("adversary.busy_s", "s"),
    def("adversary.calls", "count"),
    def("adversary.decisions_per_call", "ratio"),
    def("adversary.ns_per_decision", "ns"),
    def("arena.busy_s", "s"),
    def("arena.ns_per_step", "ns"),
    def("arena.noop_ns_per_step", "ns"),
    def("factory.busy_s", "s"),
    def("factory.us_per_call", "us"),
    def("verify.busy_s", "s"),
    def("explore.schedules", "count"),
    def("explore.restarts", "count"),
    def("explore.busy_s", "s"),
    def("explore.fuzz.novel_share", "ratio"),
    def("runner.overhead_share", "ratio"),
    def("scenario.busy_s", "s"),
    def("scenario.records", "count"),
    def("report.claims_s", "s"),
    def("report.render_s", "s"),
    def("analysis.fit_s", "s"),
    def("ledger.residual_share", "ratio"),
    def("trace.overhead_share", "ratio"),
];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    ///
    /// # Panics
    /// Panics if `name` is in neither table (a typo in this benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric `{name}`"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(definition, value)` for every metric of `table`; unset ones
    /// read 0.
    pub fn rows<'a>(&'a self, table: &'a [Def]) -> impl Iterator<Item = (Def, f64)> + 'a {
        table.iter().map(|d| (*d, self.get(d.name).unwrap_or(0.0)))
    }
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs, schedules, claims and comparisons checked.
    pub attempted: u64,
    /// How many of those failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Measured values.
    pub metrics: Metrics,
    /// Extra human-readable lines (the workload's own metric names).
    pub notes: Vec<String>,
    /// Spans and counters of the traced passes, written out at exit.
    pub tracers: Vec<Tracer>,
}

impl Outcome {
    /// Counts one check, recording `err` as a failure.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// Counts one check of `got == want`.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got:?}, expected {want:?}"))
        });
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The final stdout line: one JSON object with the metrics of
    /// `table`.
    pub fn json_line(&self, table: &[Def]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (d, v)) in self.metrics.rows(table).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { v } else { 0.0 };
            write!(out, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit)
                .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn json_line_lists_every_metric_with_its_unit() {
        let mut out = Outcome::default();
        out.check(Ok(()));
        out.metrics.set("setup_s", 0.25);
        let line = out.json_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"work_per_s\": {\"value\": 0.0, \"unit\": \"work/s\"}"));
    }
}
