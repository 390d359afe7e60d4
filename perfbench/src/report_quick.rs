//! The `report-quick` workload: rerun the quick claim tiers through the
//! scenario engine on one runner thread and the dense backend, rerun
//! the quick explore tier (every committed `BENCH_explore.json` cell,
//! which the report's schedule-space cross-check reads), evaluate the
//! claims and render `REPRODUCTION.md`, which must match the committed
//! copy apart from its `Inputs:` line.

use crate::metrics::Outcome;
use crate::passes::{set_timing, Budget, Pass};
use crate::search::{set_layer_metrics, Found, PassTotals, Search};
use crate::trace::{AdversaryCounts, Tracer};
use rr_analysis::fit::{fit_form, fit_power, ScalingForm};
use rr_bench::runner::{BatchRun, ExecBackend, RunConfig};
use rr_bench::scenario::{
    registry, run_spec, specs, ReportSink, ScenarioSpec, Section, Sink, TableSink,
};
use rr_report::{Rec, Verdict};
use rr_sched::registry::standard;
use rr_sched::shard::Arena;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Committed record files the report merges, as `exp_report --from`.
const FROM: [&str; 3] = ["BENCH_scenarios.json", "BENCH_explore.json", "BENCH_route.json"];
/// Passes an untraced run makes at least (more than `WARM_PASSES`).
const MIN_PASSES: usize = 5;
/// The committed report.
const REPORT: &str = "REPRODUCTION.md";
const FORMS: [ScalingForm; 5] = [
    ScalingForm::Const,
    ScalingForm::LogN,
    ScalingForm::LogLogN,
    ScalingForm::LogLogSq,
    ScalingForm::Linear,
];

/// The claim tiers' configuration: quick sizes, one runner thread,
/// the dense backend.
fn config() -> RunConfig {
    let args = ["--quick", "--backend", "dense"].map(String::from);
    RunConfig::from_args(args, Some("1".into()))
}

/// The quick-tier specs that carry paper claims (E1–E7).
fn claim_specs(cfg: &RunConfig) -> Vec<ScenarioSpec> {
    specs::catalogue(cfg).into_iter().filter(|s| !s.reproduces.is_empty()).collect()
}

/// Everything a pass needs before its first simulated step.
struct Inputs {
    specs: Vec<ScenarioSpec>,
    committed: Vec<Rec>,
    expected: String,
}

/// What one pass produced.
struct PassResult {
    markdown: String,
    verdicts: Vec<(String, Verdict)>,
    records: usize,
    fresh: Vec<Rec>,
    explore: PassTotals,
}

/// Tracing state of a traced pass.
type Trace<'a> = Option<(&'a mut Tracer, &'a mut AdversaryCounts)>;

/// The workload, rooted at the checkout holding the committed files.
#[derive(Debug)]
pub struct ReportQuick {
    root: PathBuf,
    cfg: RunConfig,
    explore: Search,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn without_inputs_line(markdown: &str) -> Vec<&str> {
    markdown.lines().filter(|l| !l.starts_with("Inputs:")).collect()
}

impl ReportQuick {
    /// The workload over the committed files under `root`.
    ///
    /// # Errors
    /// Returns a message when a committed file is missing or its
    /// explorer rows are malformed.
    pub fn new(root: &Path) -> Result<Self, String> {
        for f in FROM.iter().chain([&REPORT]) {
            read(&root.join(f))?;
        }
        let rows = rr_report::parse_records(&read(&root.join("BENCH_explore.json"))?)
            .map_err(|e| format!("BENCH_explore.json: {e}"))?;
        Ok(Self { root: root.to_path_buf(), cfg: config(), explore: Search::committed(&rows)? })
    }

    fn setup(&self) -> Inputs {
        let mut committed = Vec::new();
        for f in FROM {
            let body = read(&self.root.join(f)).expect("checked in ReportQuick::new");
            committed
                .extend(rr_report::parse_records(&body).unwrap_or_else(|e| panic!("{f}: {e}")));
        }
        let expected = read(&self.root.join(REPORT)).expect("checked in ReportQuick::new");
        Inputs { specs: claim_specs(&self.cfg), committed, expected }
    }

    fn pass(&self, inputs: Inputs, arena: &mut Arena, mut trace: Trace<'_>) -> PassResult {
        let span = trace.as_mut().map(|(t, _)| t.open("pass"));
        let mut sink = ReportSink::new();
        {
            let mut sinks: Vec<Box<dyn Sink + '_>> =
                vec![Box::new(TableSink::new(std::io::sink())), Box::new(&mut sink)];
            for spec in inputs.specs {
                let start = Instant::now();
                run_spec(spec, &self.cfg, &mut sinks);
                if let Some((t, _)) = trace.as_mut() {
                    t.record("scenario.run_spec", start, Instant::now());
                }
            }
        }
        let explore = self.explore.pass(arena, trace.as_mut().map(|(t, c)| (&mut **t, &mut **c)));
        let fresh: Vec<Rec> = sink.records().iter().map(|r| r.to_report_rec()).collect();
        let records = fresh.len();
        let mut recs = fresh.clone();
        recs.extend(inputs.committed);
        let names =
            std::iter::once("live run (quick tier)").chain(FROM).map(String::from).collect();
        let t0 = Instant::now();
        let report = rr_report::generate(&recs, names);
        let t1 = Instant::now();
        let markdown = report.to_markdown();
        if let (Some((t, _)), Some(id)) = (trace, span) {
            t.record("report.generate", t0, t1);
            t.record("report.render", t1, Instant::now());
            t.close(id);
        }
        let mut verdicts: Vec<(String, Verdict)> =
            report.claims.iter().map(|c| (c.id.to_string(), c.verdict)).collect();
        verdicts
            .extend(report.cross.iter().map(|c| (format!("cross-check {}", c.heading), c.verdict)));
        PassResult { markdown, verdicts, records, fresh, explore }
    }

    fn check(
        &self,
        expected: &str,
        result: &PassResult,
        first: &mut Option<Vec<Found>>,
        out: &mut Outcome,
    ) {
        for (id, verdict) in &result.verdicts {
            out.check(if *verdict == Verdict::Fail {
                Err(format!("claim {id} FAILED"))
            } else {
                Ok(())
            });
        }
        let same = without_inputs_line(&result.markdown) == without_inputs_line(expected);
        out.check(if same {
            Ok(())
        } else {
            Err(format!("rendered report differs from {REPORT}"))
        });
        self.explore.check(&result.explore.found, first, out);
    }

    /// The untraced run: passes for `seconds` (at least
    /// [`MIN_PASSES`]); the report time is the median pass's.
    pub fn run(&self, seconds: f64, out: &mut Outcome) {
        let mut budget = Budget::new(seconds);
        let mut arena = Arena::new();
        let mut first = None;
        let (mut passes, mut setups) = (Vec::new(), Vec::new());
        while budget.more(MIN_PASSES) {
            let t0 = Instant::now();
            let inputs = self.setup();
            let expected = inputs.expected.clone();
            let t1 = Instant::now();
            let result = self.pass(inputs, &mut arena, None);
            let t2 = Instant::now();
            budget.record((t2 - t0).as_secs_f64());
            setups.push((t1 - t0).as_secs_f64() + result.explore.setup);
            passes.push(Pass { work: 1.0, secs: (t2 - t1).as_secs_f64() });
            self.check(&expected, &result, &mut first, out);
        }
        let (rate, fast) = set_timing(out, &passes, &setups);
        out.notes.push(format!(
            "report_s = {:.6} s (median of {} passes; fastest quarter {:.6})",
            1.0 / rate,
            passes.len(),
            1.0 / fast
        ));
    }

    /// The traced run: untraced and traced passes alternate for
    /// `seconds` (at least one pair), then the runner's overhead is
    /// measured on the claim tiers' batch rows.
    pub fn run_traced(&self, seconds: f64, out: &mut Outcome) {
        let mut budget = Budget::new(seconds);
        let mut arena = Arena::new();
        let mut first = None;
        let (mut plain_secs, mut traced_secs) = (0.0, 0.0);
        let mut unit: Option<(Tracer, AdversaryCounts, PassResult)> = None;
        while budget.more(1) {
            let start = Instant::now();
            let inputs = self.setup();
            let expected = inputs.expected.clone();
            let t0 = Instant::now();
            let plain = self.pass(inputs, &mut arena, None);
            let t1 = Instant::now();
            let inputs = self.setup();
            let (mut tracer, mut counts) = (Tracer::new(), AdversaryCounts::default());
            let t2 = Instant::now();
            let traced = self.pass(inputs, &mut arena, Some((&mut tracer, &mut counts)));
            let t3 = Instant::now();
            plain_secs += (t1 - t0).as_secs_f64();
            traced_secs += (t3 - t2).as_secs_f64();
            budget.record((t3 - start).as_secs_f64());
            self.check(&expected, &plain, &mut first, out);
            out.check_eq("traced report", &traced.markdown, &plain.markdown);
            out.check_eq("traced explore reports", &traced.explore.found, &plain.explore.found);
            if unit.is_none() {
                unit = Some((tracer, counts, traced));
            }
        }
        let (mut tracer, counts, result) = unit.expect("at least one traced pass");
        set_layer_metrics(out, &result.explore, &tracer, &counts);
        let fit_s = fit_series(&result.fresh);
        let overhead = self.runner_overhead(&mut tracer);
        let m = &mut out.metrics;
        m.set("trace.overhead_share", traced_secs / plain_secs - 1.0);
        m.set("scenario.busy_s", tracer.busy("scenario.run_spec"));
        m.set("scenario.records", result.records as f64);
        m.set("report.claims_s", tracer.busy("report.generate"));
        m.set("report.render_s", tracer.busy("report.render"));
        m.set("analysis.fit_s", fit_s);
        m.set("runner.overhead_share", overhead);
        out.tracers.push(tracer);
    }

    /// 1 − Σ `Arena::run` time ÷ Σ `BatchRun::run` time over every batch
    /// row of the claim tiers: the share of the runner's time spent
    /// outside the execution core (set-up, audits, aggregation).
    fn runner_overhead(&self, tracer: &mut Tracer) -> f64 {
        let reg = registry();
        let mut arena = Arena::new();
        let (mut batch_secs, mut arena_secs) = (0.0, 0.0);
        for spec in claim_specs(&self.cfg) {
            for section in spec.sections {
                let Section::Batch(batch) = section else { continue };
                for row in batch.rows {
                    let algo =
                        reg.build(&row.algorithm).expect("claim rows name registered algorithms");
                    let start = Instant::now();
                    BatchRun::new(&*algo, row.n)
                        .seeds(row.seeds)
                        .adversary(row.adversary.clone())
                        .backend(ExecBackend::Dense)
                        .workers(1)
                        .run()
                        .expect("claim rows name registered adversaries");
                    let end = Instant::now();
                    tracer.record("runner.batch_run", start, end);
                    batch_secs += (end - start).as_secs_f64();
                    let builder = standard().prepare(&row.adversary).expect("checked by BatchRun");
                    for seed in 0..row.seeds {
                        let mut procs = algo.instantiate(row.n, seed).processes;
                        let mut adversary = builder(row.n, seed);
                        let t = Instant::now();
                        arena
                            .run(&mut procs, &mut adversary, algo.step_budget(row.n))
                            .expect("BatchRun ran this row without error");
                        arena_secs += t.elapsed().as_secs_f64();
                    }
                }
            }
        }
        1.0 - arena_secs / batch_secs
    }
}

/// Fits every scaling form, and a power law, to each claim series
/// (scenario, algorithm) of `(n, steps_max)` points in `recs`; returns
/// the seconds spent inside `rr-analysis`.
fn fit_series(recs: &[Rec]) -> f64 {
    let mut series: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    for r in recs {
        if let (Some(algo), Some(n), Some(steps)) =
            (r.str("algorithm"), r.f64("n"), r.f64("steps_max"))
        {
            series
                .entry((r.scenario().to_string(), algo.to_string()))
                .or_default()
                .push((n, steps));
        }
    }
    let start = Instant::now();
    for pts in series.values().filter(|p| p.len() >= 2) {
        for form in FORMS {
            std::hint::black_box(fit_form(pts, form));
        }
        std::hint::black_box(fit_power(pts));
    }
    start.elapsed().as_secs_f64()
}
