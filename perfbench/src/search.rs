//! The `schedule-search` workload: bounded exhaustive DFS and
//! coverage-guided fuzzing, hundreds of thousands of tiny audited runs
//! per pass. Per-run reset, set-up and tape costs dominate here, where
//! the simulation workloads amortize them away.

use crate::metrics::Outcome;
use crate::passes::{set_timing, Budget, Pass};
use crate::sim::set_adversary_metrics;
use crate::trace::{AdversaryCounts, CountingAdversary, Tracer};
use rr_bench::scenario::registry;
use rr_renaming::BoxedAlgorithm;
use rr_report::Rec;
use rr_sched::adversary::Adversary;
use rr_sched::explore::{ExhaustiveExplorer, FuzzExplorer};
use rr_sched::shard::Arena;
use rr_sched::virtual_exec::RunOutcome;
use std::time::Instant;

/// Passes an untraced run makes at least (more than `WARM_PASSES`).
const MIN_PASSES: usize = 5;
/// Schedule cap per exhaustive cell (the committed explorer's limit).
const LIMIT: u64 = 200_000;
/// Fuzz corpus capacity (the committed explorer's).
const CORPUS: usize = 256;
/// Fuzzer seed salt, XORed with the strength (the committed explorer's).
const FUZZ_SALT: u64 = 0xF00D;
/// The paper's protocols, searched exhaustively at [`WIDE_N`] with
/// instance seed 0 whatever the run's seed: a tree's size depends on
/// the instance's coins, and the schedules per pass must not vary with
/// the seed. The run's seed drives the fuzz cells.
const PAPER: &[&str] = &[
    "tight-tau:c=4",
    "tight-tau-paper:c=4",
    "loose-l6:l=1",
    "loose-l8:l=1",
    "cor7:l=1",
    "cor9:l=1",
    "aagw",
    "adaptive",
];
/// Processes of the wide exhaustive cells.
const WIDE_N: usize = 5;
/// Branching depth of the wide exhaustive cells.
const WIDE_DEPTH: usize = 6;
/// Algorithm, size and rounds per strength of the wide fuzz cells.
const FUZZ_ALGO: &str = "tight-tau:c=4";
const FUZZ_N: usize = 256;
const FUZZ_ROUNDS: u64 = 80;
const STRENGTHS: &[u32] = &[0, 100, 300, 600, 1000];

/// What a cell must report, from a committed `BENCH_explore.json` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expect {
    schedules: u64,
    exhausted: bool,
    worst_steps: u64,
    novel: u64,
    corpus: u64,
}

#[derive(Debug, Clone)]
enum Kind {
    Exhaustive { depth: usize, crashes: usize },
    Fuzz { strength: u32, rounds: u64 },
}

/// One search: an algorithm at a size, with the seed its runs use.
#[derive(Debug, Clone)]
struct Cell {
    algorithm: String,
    n: usize,
    seed: u64,
    kind: Kind,
    expect: Option<Expect>,
}

/// What a cell's search reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Found {
    schedules: u64,
    exhausted: bool,
    worst_steps: u64,
    novel: u64,
    corpus: u64,
    restarts: u64,
    violation: bool,
}

impl Found {
    fn expect(&self) -> Expect {
        let Found { schedules, exhausted, worst_steps, novel, corpus, .. } = *self;
        Expect { schedules, exhausted, worst_steps, novel, corpus }
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub(crate) struct PassTotals {
    pub(crate) found: Vec<Found>,
    pub(crate) steps: u64,
    named: u64,
    rng_words: u64,
    pub(crate) setup: f64,
    fuzz_rounds: u64,
    fuzz_novel: u64,
}

/// The committed rows plus the wide cells seeded by the run's seed.
#[derive(Debug)]
pub struct Search {
    cells: Vec<Cell>,
}

fn field(rec: &Rec, name: &str) -> Result<u64, String> {
    rec.u64(name).ok_or_else(|| format!("BENCH_explore.json row lacks `{name}`"))
}

impl Search {
    /// The committed explorer rows plus the wide cells, which `seed`
    /// drives.
    ///
    /// # Errors
    /// Returns a message when a row lacks a field or names no algorithm.
    pub fn new(committed: &[Rec], seed: u64) -> Result<Self, String> {
        let mut search = Self::committed(committed)?;
        for algorithm in PAPER {
            let kind = Kind::Exhaustive { depth: WIDE_DEPTH, crashes: 0 };
            search.cells.push(Cell {
                algorithm: algorithm.to_string(),
                n: WIDE_N,
                seed: 0,
                kind,
                expect: None,
            });
        }
        for &strength in STRENGTHS {
            let kind = Kind::Fuzz { strength, rounds: FUZZ_ROUNDS };
            search.cells.push(Cell {
                algorithm: FUZZ_ALGO.into(),
                n: FUZZ_N,
                seed,
                kind,
                expect: None,
            });
        }
        let reg = registry();
        for c in &search.cells {
            reg.build(&c.algorithm)?;
        }
        Ok(search)
    }

    /// Only the committed explorer rows (the quick explore tier), each of
    /// which a pass must reproduce exactly.
    ///
    /// # Errors
    /// Returns a message when a row lacks a field or names no algorithm.
    pub fn committed(committed: &[Rec]) -> Result<Self, String> {
        let mut cells = Vec::new();
        for rec in committed.iter().filter(|r| r.scenario() == "EXPLORE" && !r.is_wall_clock()) {
            if rec.str("kind").is_some() {
                continue;
            }
            let algorithm =
                rec.str("algorithm").ok_or("BENCH_explore.json row lacks `algorithm`")?;
            let n = field(rec, "n")? as usize;
            let worst_steps = field(rec, "worst_steps")?;
            let (kind, expect) = match rec.str("section") {
                Some("exhaustive") => (
                    Kind::Exhaustive {
                        depth: field(rec, "depth")? as usize,
                        crashes: field(rec, "crashes")? as usize,
                    },
                    Expect {
                        schedules: field(rec, "schedules")?,
                        exhausted: field(rec, "exhausted")? == 1,
                        worst_steps,
                        novel: 0,
                        corpus: 0,
                    },
                ),
                Some("fuzz") => (
                    Kind::Fuzz {
                        strength: field(rec, "strength")? as u32,
                        rounds: field(rec, "rounds")?,
                    },
                    Expect {
                        schedules: field(rec, "rounds")?,
                        exhausted: false,
                        worst_steps,
                        novel: field(rec, "novel")?,
                        corpus: field(rec, "corpus")?,
                    },
                ),
                other => return Err(format!("BENCH_explore.json: unknown section {other:?}")),
            };
            cells.push(Cell {
                algorithm: algorithm.to_string(),
                n,
                seed: 0,
                kind,
                expect: Some(expect),
            });
        }
        if cells.is_empty() {
            return Err("BENCH_explore.json holds no explorer rows".into());
        }
        let reg = registry();
        for c in &cells {
            reg.build(&c.algorithm)?;
        }
        Ok(Self { cells })
    }

    /// Runs every cell once.
    pub(crate) fn pass(
        &self,
        arena: &mut Arena,
        mut trace: Option<(&mut Tracer, &mut AdversaryCounts)>,
    ) -> PassTotals {
        let mut totals = PassTotals::default();
        let t = Instant::now();
        let reg = registry();
        let algos: Vec<BoxedAlgorithm> = self
            .cells
            .iter()
            .map(|c| reg.build(&c.algorithm).expect("checked in Search::new"))
            .collect();
        totals.setup += t.elapsed().as_secs_f64();
        let span = trace.as_mut().map(|(tracer, _)| tracer.open("explore"));
        for (cell, algo) in self.cells.iter().zip(&algos) {
            let found = match trace.as_mut() {
                None => cell.search(algo, arena, &mut totals, None),
                Some((tracer, counts)) => {
                    let id = tracer.open(match cell.kind {
                        Kind::Exhaustive { .. } => "explore.exhaustive",
                        Kind::Fuzz { .. } => "explore.fuzz",
                    });
                    let found =
                        cell.search(algo, arena, &mut totals, Some((&mut **tracer, &mut **counts)));
                    tracer.close(id);
                    found
                }
            };
            totals.found.push(found);
        }
        if let (Some((tracer, _)), Some(id)) = (trace, span) {
            tracer.close(id);
        }
        totals
    }

    /// The untraced run: passes for `seconds` (at least
    /// [`MIN_PASSES`]), reporting the median pass's audited schedules per
    /// second.
    pub fn run(&self, seconds: f64, out: &mut Outcome) {
        let mut budget = Budget::new(seconds);
        let mut arena = Arena::new();
        let (mut passes, mut setups) = (Vec::new(), Vec::new());
        let mut first: Option<Vec<Found>> = None;
        let mut steps = 0;
        while budget.more(MIN_PASSES) {
            let start = Instant::now();
            let totals = self.pass(&mut arena, None);
            let secs = start.elapsed().as_secs_f64();
            budget.record(secs);
            passes.push(Pass {
                work: totals.found.iter().map(|f| f.schedules).sum::<u64>() as f64,
                secs,
            });
            setups.push(totals.setup);
            steps += totals.steps;
            self.check(&totals.found, &mut first, out);
        }
        let (rate, fast) = set_timing(out, &passes, &setups);
        let secs: f64 = passes.iter().map(|p| p.secs).sum();
        out.notes.push(format!(
            "schedules_per_s = {rate:.1} schedules/s (median of {} passes; fastest quarter {fast:.1})",
            passes.len()
        ));
        out.notes.push(format!("steps_per_s = {:.1} steps/s (all passes)", steps as f64 / secs));
    }

    /// The traced run: untraced and traced passes alternate for
    /// `seconds` (at least one pair); layer numbers come from the first
    /// traced pass.
    pub fn run_traced(&self, seconds: f64, out: &mut Outcome) {
        let mut budget = Budget::new(seconds);
        let mut arena = Arena::new();
        let mut first: Option<Vec<Found>> = None;
        let (mut plain_secs, mut traced_secs) = (0.0, 0.0);
        let mut unit: Option<(PassTotals, Tracer, AdversaryCounts)> = None;
        while budget.more(1) {
            let start = Instant::now();
            let plain = self.pass(&mut arena, None);
            let mid = Instant::now();
            let mut tracer = Tracer::new();
            let mut counts = AdversaryCounts::default();
            let traced = self.pass(&mut arena, Some((&mut tracer, &mut counts)));
            let end = Instant::now();
            plain_secs += (mid - start).as_secs_f64();
            traced_secs += (end - mid).as_secs_f64();
            budget.record((end - start).as_secs_f64());
            self.check(&plain.found, &mut first, out);
            out.check_eq("traced search's reports", &traced.found, &plain.found);
            out.check_eq("traced search's steps", traced.steps, plain.steps);
            if unit.is_none() {
                unit = Some((traced, tracer, counts));
            }
        }
        let (totals, tracer, counts) = unit.expect("at least one traced pass");
        out.metrics.set("trace.overhead_share", traced_secs / plain_secs - 1.0);
        set_layer_metrics(out, &totals, &tracer, &counts);
        out.tracers.push(tracer);
    }

    /// Checks one pass's reports: committed rows exactly, the rest
    /// against the first pass, and no violation anywhere.
    pub(crate) fn check(&self, found: &[Found], first: &mut Option<Vec<Found>>, out: &mut Outcome) {
        for (i, (cell, f)) in self.cells.iter().zip(found).enumerate() {
            let what = format!("{} at n={} ({:?})", cell.algorithm, cell.n, cell.kind);
            out.check(if f.violation { Err(format!("{what}: safety violation")) } else { Ok(()) });
            if let Some(want) = cell.expect {
                out.check_eq(&format!("{what} vs BENCH_explore.json"), f.expect(), want);
            } else if let (Kind::Exhaustive { .. }, false) = (&cell.kind, f.exhausted) {
                out.check(Err(format!("{what}: search not exhausted")));
            }
            if let Some(prev) = first.as_ref() {
                out.check_eq(&format!("{what} repeated"), *f, prev[i]);
            }
        }
        if first.is_none() {
            *first = Some(found.to_vec());
        }
    }
}

/// Sets the explorer, arena, factory and adversary metrics from one
/// traced pass.
pub(crate) fn set_layer_metrics(
    out: &mut Outcome,
    totals: &PassTotals,
    tracer: &Tracer,
    counts: &AdversaryCounts,
) {
    set_adversary_metrics(out, counts);
    let schedules: u64 = totals.found.iter().map(|f| f.schedules).sum();
    let m = &mut out.metrics;
    m.set("explore.schedules", schedules as f64);
    m.set("explore.restarts", totals.found.iter().map(|f| f.restarts).sum::<u64>() as f64);
    m.set("explore.busy_s", tracer.busy("explore.exhaustive") + tracer.busy("explore.fuzz"));
    m.set("explore.fuzz.novel_share", totals.fuzz_novel as f64 / totals.fuzz_rounds.max(1) as f64);
    m.set("process.rng_words", totals.rng_words as f64);
    m.set("process.steps_per_name", totals.steps as f64 / totals.named.max(1) as f64);
    let arena_busy = tracer.busy("arena.run");
    m.set("arena.busy_s", arena_busy);
    m.set("arena.ns_per_step", (arena_busy - counts.busy) * 1e9 / totals.steps.max(1) as f64);
    m.set("factory.busy_s", tracer.busy("instantiate"));
    m.set(
        "factory.us_per_call",
        tracer.busy("instantiate") * 1e6 / tracer.calls("instantiate").max(1) as f64,
    );
    m.set("verify.busy_s", tracer.busy("verify"));
}

impl Cell {
    /// Runs this cell's search; every run is audited for renaming
    /// safety inside the explorer's callback.
    fn search(
        &self,
        algo: &BoxedAlgorithm,
        arena: &mut Arena,
        totals: &mut PassTotals,
        mut trace: Option<(&mut Tracer, &mut AdversaryCounts)>,
    ) -> Found {
        let (n, seed) = (self.n, self.seed);
        let budget = algo.step_budget(n);
        let mut run_one = |adv: &mut dyn Adversary| -> Result<RunOutcome, String> {
            let t0 = Instant::now();
            let inst = algo.instantiate(n, seed);
            let t1 = Instant::now();
            totals.setup += (t1 - t0).as_secs_f64();
            let mut procs = inst.processes;
            let out = match trace.as_mut() {
                None => arena.run(&mut procs, adv, budget),
                Some((tracer, counts)) => {
                    let mut counting = CountingAdversary::new(adv, counts);
                    let ran = arena.run(&mut procs, &mut counting, budget);
                    let t2 = Instant::now();
                    tracer.count_interval("instantiate", t0, t1);
                    tracer.count_interval("arena.run", t1, t2);
                    totals.rng_words += procs.iter().filter_map(|p| p.rng_words()).sum::<u64>();
                    ran
                }
            }
            .map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            let verified = out.verify_renaming(inst.m);
            if let Some((tracer, _)) = trace.as_mut() {
                tracer.count_interval("verify", t3, Instant::now());
            }
            verified.map_err(|v| format!("renaming violation: {v}"))?;
            totals.steps += out.total_steps();
            totals.named += out.named_count() as u64;
            Ok(out)
        };
        match self.kind {
            Kind::Exhaustive { depth, crashes } => {
                let mut explorer = ExhaustiveExplorer::new(depth, crashes);
                let report = explorer.explore(LIMIT, &mut run_one);
                Found {
                    schedules: report.schedules,
                    exhausted: report.exhausted,
                    worst_steps: report.worst_steps,
                    novel: 0,
                    corpus: 0,
                    restarts: explorer.restarts(),
                    violation: report.counterexample.is_some(),
                }
            }
            Kind::Fuzz { strength, rounds } => {
                let mut fuzzer = FuzzExplorer::new(
                    FUZZ_SALT ^ u64::from(strength) ^ self.seed,
                    strength,
                    CORPUS,
                );
                let report = fuzzer.fuzz(n, rounds, &mut run_one);
                totals.fuzz_rounds += report.rounds;
                totals.fuzz_novel += report.novel;
                Found {
                    schedules: report.rounds,
                    exhausted: false,
                    worst_steps: report.worst_steps,
                    novel: report.novel,
                    corpus: report.corpus_len as u64,
                    restarts: 0,
                    violation: report.counterexample.is_some(),
                }
            }
        }
    }
}
