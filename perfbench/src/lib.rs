//! # rr-perfbench — the renaming simulator's benchmark
//!
//! Four workloads, each timed from outside the program: the benchmark
//! calls the crates' public functions and times and counts its own
//! calls. Everything on the timed path runs on one thread. See
//! `README.md` next to this crate for the workloads, the metrics and
//! the noise rules.

#![forbid(unsafe_code)]

pub mod leaf;
pub mod metrics;
pub mod passes;
pub mod report_quick;
pub mod search;
pub mod sim;
pub mod trace;

use metrics::{peak_rss_mb, Outcome};
use std::path::Path;

/// Seconds a traced run gives each leaf microbenchmark.
const LEAF_SECONDS: f64 = 0.3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `tight-tau:c=4` under `fair` at n = 2^20.
    TightFair,
    /// `cor9:l=1` under `random` at n = 2^14.
    LooseRandom,
    /// Exhaustive and fuzzed schedule search.
    ScheduleSearch,
    /// The quick claim tiers and `REPRODUCTION.md`.
    ReportQuick,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::TightFair,
        Workload::LooseRandom,
        Workload::ScheduleSearch,
        Workload::ReportQuick,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TightFair => "tight-fair",
            Workload::LooseRandom => "loose-random",
            Workload::ScheduleSearch => "schedule-search",
            Workload::ReportQuick => "report-quick",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Runs `workload` with inputs drawn from `seed` for about `seconds`,
/// reading the committed files under `root`. Untraced runs set the
/// end-to-end metrics, traced runs the per-layer ones.
///
/// # Errors
/// Returns a message when a committed input file is missing or
/// malformed.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    root: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let start = std::time::Instant::now();
    let leaves = traced.then(|| leaf::measure(LEAF_SECONDS));
    let left = (seconds - start.elapsed().as_secs_f64()).max(0.0);
    if let Some(l) = &leaves {
        l.set_metrics(&mut out);
    }
    match workload {
        Workload::TightFair | Workload::LooseRandom => {
            let sim = if workload == Workload::TightFair {
                sim::tight_fair(seed)
            } else {
                sim::loose_random(seed)
            };
            match &leaves {
                None => sim.run(left, &mut out),
                Some(l) => sim.run_traced(left, l, &mut out),
            }
        }
        Workload::ScheduleSearch => {
            let path = root.join("BENCH_explore.json");
            let body = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rows =
                rr_report::parse_records(&body).map_err(|e| format!("{}: {e}", path.display()))?;
            let search = search::Search::new(&rows, seed)?;
            if traced {
                search.run_traced(left, &mut out);
            } else {
                search.run(left, &mut out);
            }
        }
        Workload::ReportQuick => {
            let report = report_quick::ReportQuick::new(root)?;
            if traced {
                report.run_traced(left, &mut out);
            } else {
                report.run(left, &mut out);
            }
        }
    }
    if !traced {
        out.metrics.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    }
    Ok(out)
}
