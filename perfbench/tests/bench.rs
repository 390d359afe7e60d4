//! The benchmark's own tests: counts repeat exactly, traced runs take
//! the untraced runs' steps, and every metric is printed with its unit
//! and listed in `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use rr_perfbench::leaf::LeafCosts;
use rr_perfbench::metrics::{Outcome, END_TO_END, PER_LAYER};
use rr_perfbench::search::Search;
use rr_perfbench::sim::SimWorkload;
use std::path::{Path, PathBuf};

/// Metrics whose values are counts of work, which must repeat exactly.
const COUNTS: &[&str] = &[
    "process.rng_words",
    "steps.tas",
    "steps.tau_request",
    "steps.read",
    "steps.local",
    "process.steps_per_name",
    "adversary.calls",
    "adversary.decisions_per_call",
    "explore.schedules",
    "explore.restarts",
    "explore.fuzz.novel_share",
];

/// The per-layer metric names the benchmark was specified with.
const SPECIFIED: &[&str] = &[
    "shmem.rng.ns_per_coin",
    "shmem.rng.ns_per_index",
    "process.rng_words",
    "shmem.tas.ns_per_op",
    "steps.tas",
    "tau.ns_per_request",
    "steps.tau_request",
    "steps.read",
    "steps.local",
    "process.steps_per_name",
    "bits.ns_per_next_runnable",
    "bits.ns_per_select",
    "adversary.busy_s",
    "adversary.calls",
    "adversary.decisions_per_call",
    "adversary.ns_per_decision",
    "arena.busy_s",
    "arena.ns_per_step",
    "arena.noop_ns_per_step",
    "factory.busy_s",
    "factory.us_per_call",
    "verify.busy_s",
    "explore.schedules",
    "explore.restarts",
    "explore.busy_s",
    "explore.fuzz.novel_share",
    "runner.overhead_share",
    "scenario.busy_s",
    "scenario.records",
    "report.claims_s",
    "report.render_s",
    "analysis.fit_s",
    "ledger.residual_share",
    "trace.overhead_share",
];

const LEAVES: LeafCosts = LeafCosts {
    coin: 5.0,
    index: 12.0,
    tas: 9.0,
    tau_request: 17.0,
    next_runnable: 3.0,
    select: 60.0,
    noop_step: 14.0,
};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn small(algorithm: &'static str, adversary: &'static str, n: usize) -> SimWorkload {
    SimWorkload {
        algorithm,
        adversary,
        n,
        seeds: vec![5, 6, 7],
        seeds_per_pass: 2,
        pinned_steps: None,
        min_passes: 2,
    }
}

fn traced_sim(w: &SimWorkload) -> Outcome {
    let mut out = Outcome::default();
    w.run_traced(0.0, &LEAVES, &mut out);
    out
}

fn assert_counts_equal(a: &Outcome, b: &Outcome) {
    for name in COUNTS {
        assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name} differs between two runs");
    }
}

fn assert_clean(out: &Outcome) {
    assert!(out.attempted > 0, "no checks ran");
    assert_eq!(out.failed, 0, "failures: {:?}", out.failures);
}

#[test]
fn simulation_counts_repeat_exactly() {
    for w in [small("tight-tau:c=4", "fair", 1 << 10), small("cor9:l=1", "random", 1 << 9)] {
        let (a, b) = (traced_sim(&w), traced_sim(&w));
        assert_clean(&a);
        assert_clean(&b);
        assert_counts_equal(&a, &b);
        let steps: f64 = ["steps.tas", "steps.tau_request", "steps.read", "steps.local"]
            .iter()
            .map(|m| a.metrics.get(m).expect("step kinds are set"))
            .sum();
        assert!(steps > 0.0);
        let calls = a.metrics.get("adversary.calls").expect("calls are set");
        let per_call = a.metrics.get("adversary.decisions_per_call").expect("set");
        assert_eq!(steps, (calls * per_call).round(), "every decision is a granted step");
    }
}

#[test]
fn batching_shows_in_decisions_per_call() {
    let fair = traced_sim(&small("tight-tau:c=4", "fair", 1 << 10));
    let random = traced_sim(&small("cor9:l=1", "random", 1 << 9));
    assert!(fair.metrics.get("adversary.decisions_per_call").expect("set") > 8.0);
    assert_eq!(random.metrics.get("adversary.decisions_per_call"), Some(1.0));
    assert_eq!(
        random.metrics.get("steps.tau_request"),
        Some(0.0),
        "loose renaming makes no τ-requests"
    );
}

#[test]
fn traced_run_takes_the_untraced_steps() {
    // The untraced run checks the committed step total; the traced run
    // checks each traced pass's steps, names and RNG words against an
    // untraced pass of the same seeds, and its counting adversary must
    // see exactly the committed total.
    let mut w = rr_perfbench::sim::loose_random(0);
    w.min_passes = 1;
    let mut untraced = Outcome::default();
    w.run(0.0, &mut untraced);
    assert_clean(&untraced);
    let traced = traced_sim(&w);
    assert_clean(&traced);
    let traced_steps: f64 = ["steps.tas", "steps.tau_request", "steps.read", "steps.local"]
        .iter()
        .map(|m| traced.metrics.get(m).expect("set"))
        .sum();
    assert_eq!(traced_steps, rr_perfbench::sim::LOOSE_RANDOM_STEPS as f64);
}

#[test]
fn schedule_search_counts_repeat_and_match_the_committed_rows() {
    let body =
        std::fs::read_to_string(repo_root().join("BENCH_explore.json")).expect("committed file");
    let rows = rr_report::parse_records(&body).expect("committed rows parse");
    let search = Search::new(&rows, 0).expect("rows are complete");
    let run = || {
        let mut out = Outcome::default();
        search.run_traced(0.0, &mut out);
        out
    };
    let (a, b) = (run(), run());
    assert_clean(&a);
    assert_clean(&b);
    assert_counts_equal(&a, &b);
    assert!(a.metrics.get("explore.schedules").expect("set") > 10_000.0);
}

#[test]
fn every_specified_metric_is_defined_once_with_a_unit() {
    let names: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names, SPECIFIED);
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(e2e, ["work_per_s", "setup_s", "peak_rss_mb"]);
}

#[test]
fn every_metric_appears_in_the_result_line_with_its_unit() {
    let out = traced_sim(&small("cor9:l=1", "random", 1 << 8));
    let line = out.json_line(PER_LAYER);
    for d in PER_LAYER {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)), "{} missing", d.name);
        assert!(line.contains(&format!("\"unit\": \"{}\"", d.unit)));
    }
    let mut untraced = Outcome::default();
    small("cor9:l=1", "random", 1 << 8).run(0.0, &mut untraced);
    untraced.metrics.set("peak_rss_mb", 1.0);
    let line = untraced.json_line(END_TO_END);
    for d in END_TO_END {
        let at = line.find(&format!("\"{}\": {{\"value\": ", d.name)).expect("metric present");
        assert!(
            !line[at..].starts_with(&format!("\"{}\": {{\"value\": 0.0,", d.name)),
            "{} is 0",
            d.name
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let listed = json.matches("\"unit\": ").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
