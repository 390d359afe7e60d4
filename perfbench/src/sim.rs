//! The simulation workloads: one algorithm under one adversary at one
//! size, seed after seed, each run built by `RenamingAlgorithm::instantiate`
//! and stepped by `Arena::run` on one thread.

use crate::leaf::LeafCosts;
use crate::metrics::Outcome;
use crate::passes::{set_timing, Budget, Pass, WARM_PASSES};
use crate::trace::{AdversaryCounts, CountingAdversary, Tracer};
use rr_bench::scenario::registry;
use rr_renaming::BoxedAlgorithm;
use rr_sched::registry::{standard, AdversaryBuilder};
use rr_sched::shard::Arena;
use std::collections::BTreeMap;
use std::time::Instant;

/// `steps_total` of `tight-tau:c=4` under `fair` at n = 2^20 over
/// seeds 0–2, the literal the repository's CI pins.
pub const TIGHT_FAIR_STEPS: u64 = 83_359_512;

/// Total steps of `cor9:l=1` under `random` at n = 2^14 over seeds
/// 0–7.
pub const LOOSE_RANDOM_STEPS: u64 = 1_180_407;

/// Seeds `loose-random` runs per pass.
const LOOSE_SEEDS: u64 = 8;

/// One simulated workload.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// Algorithm registry key.
    pub algorithm: &'static str,
    /// Adversary registry key.
    pub adversary: &'static str,
    /// Number of processes.
    pub n: usize,
    /// The unit set: every seed the workload runs.
    pub seeds: Vec<u64>,
    /// Seeds per timed pass; passes cycle through the unit set.
    pub seeds_per_pass: usize,
    /// Total steps over `seeds`, where committed.
    pub pinned_steps: Option<u64>,
    /// Passes an untraced run makes at least (more than
    /// [`WARM_PASSES`], so that `setup_s` has a warm pass to use).
    pub min_passes: usize,
}

/// `tight-tau:c=4` under `fair` at n = 2^20, seeds `3s..3s+3`, one seed
/// per pass.
pub fn tight_fair(seed: u64) -> SimWorkload {
    SimWorkload {
        algorithm: "tight-tau:c=4",
        adversary: "fair",
        n: 1 << 20,
        seeds: (3 * seed..3 * seed + 3).collect(),
        seeds_per_pass: 1,
        pinned_steps: (seed == 0).then_some(TIGHT_FAIR_STEPS),
        min_passes: WARM_PASSES + 1,
    }
}

/// `cor9:l=1` under `random` at n = 2^14, eight seeds per pass.
pub fn loose_random(seed: u64) -> SimWorkload {
    SimWorkload {
        algorithm: "cor9:l=1",
        adversary: "random",
        n: 1 << 14,
        seeds: (LOOSE_SEEDS * seed..LOOSE_SEEDS * (seed + 1)).collect(),
        seeds_per_pass: LOOSE_SEEDS as usize,
        pinned_steps: (seed == 0).then_some(LOOSE_RANDOM_STEPS),
        min_passes: 2 * WARM_PASSES,
    }
}

/// What one run produced: the values a repeat, traced or not, must
/// reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Granted steps.
    pub steps: u64,
    /// Processes that ended holding a name.
    pub named: usize,
    /// Raw RNG words the processes drew.
    pub rng_words: u64,
    /// FNV-1a hash of every process's name.
    pub names_hash: u64,
}

/// Wall seconds of one run's parts.
#[derive(Debug, Clone, Copy, Default)]
struct RunTimes {
    setup: f64,
    arena: f64,
}

/// Tracing state of a traced pass.
#[derive(Debug, Default)]
pub struct Traced {
    /// Spans around instantiate, `Arena::run` and `verify_renaming`.
    pub tracer: Tracer,
    /// What the counting adversary saw.
    pub adversary: AdversaryCounts,
}

fn names_hash(names: impl Iterator<Item = Option<usize>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for name in names {
        h ^= name.map_or(u64::MAX, |v| v as u64);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A pass's resolved inputs.
struct Resolved {
    algo: BoxedAlgorithm,
    builder: AdversaryBuilder,
}

impl SimWorkload {
    fn resolve(&self) -> Resolved {
        let algo = registry().build(self.algorithm).expect("workload names a registered algorithm");
        let builder =
            standard().prepare(self.adversary).expect("workload names a registered adversary");
        Resolved { algo, builder }
    }

    /// Runs one seed, checking that every process ends with a distinct
    /// name below `m`.
    fn run_seed(
        &self,
        r: &Resolved,
        seed: u64,
        arena: &mut Arena,
        mut traced: Option<&mut Traced>,
    ) -> (Result<RunSummary, String>, RunTimes) {
        let t0 = Instant::now();
        let inst = r.algo.instantiate(self.n, seed);
        let mut adversary = (r.builder)(self.n, seed);
        let t1 = Instant::now();
        let mut procs = inst.processes;
        let budget = r.algo.step_budget(self.n);
        let ran = match traced.as_deref_mut() {
            None => arena.run(&mut procs, &mut adversary, budget),
            Some(tr) => {
                let mut counting = CountingAdversary::new(&mut *adversary, &mut tr.adversary);
                arena.run(&mut procs, &mut counting, budget)
            }
        };
        let t2 = Instant::now();
        let times = RunTimes { setup: (t1 - t0).as_secs_f64(), arena: (t2 - t1).as_secs_f64() };
        let what =
            format!("{} under {} at n={}, seed {seed}", self.algorithm, self.adversary, self.n);
        let out = match ran {
            Ok(out) => out,
            Err(e) => return (Err(format!("{what}: {e}")), times),
        };
        let verified = out.verify_renaming(inst.m);
        let t3 = Instant::now();
        if let Some(tr) = traced {
            tr.tracer.record("instantiate", t0, t1);
            tr.tracer.record("arena.run", t1, t2);
            tr.tracer.record("verify", t2, t3);
        }
        let summary = RunSummary {
            steps: out.total_steps(),
            named: out.named_count(),
            rng_words: procs.iter().filter_map(|p| p.rng_words()).sum(),
            names_hash: names_hash(out.names.iter().copied()),
        };
        let result = match verified {
            Err(v) => Err(format!("{what}: renaming violated: {v}")),
            Ok(()) if summary.named != self.n => {
                Err(format!("{what}: only {} of {} processes named", summary.named, self.n))
            }
            Ok(()) => Ok(summary),
        };
        (result, times)
    }

    fn chunks(&self) -> Vec<&[u64]> {
        self.seeds.chunks(self.seeds_per_pass).collect()
    }

    /// Runs one pass over `seeds`: `(summaries, timed pass, set-up
    /// seconds)`. Failed runs are checked into `out` and left out of
    /// the summaries.
    fn pass(
        &self,
        seeds: &[u64],
        arena: &mut Arena,
        mut traced: Option<&mut Traced>,
        out: &mut Outcome,
    ) -> (Vec<(u64, RunSummary)>, Pass, f64) {
        let t = Instant::now();
        let r = self.resolve();
        let mut setup = t.elapsed().as_secs_f64();
        let mut pass = Pass { work: 0.0, secs: 0.0 };
        let mut summaries = Vec::new();
        let span = traced.as_deref_mut().map(|tr| tr.tracer.open("pass"));
        for &seed in seeds {
            if let Some(tr) = traced.as_deref_mut() {
                tr.tracer.next_run();
            }
            let (result, times) = self.run_seed(&r, seed, arena, traced.as_deref_mut());
            setup += times.setup;
            pass.secs += times.arena;
            match result {
                Ok(s) => {
                    pass.work += s.steps as f64;
                    summaries.push((seed, s));
                }
                Err(e) => out.check(Err(e)),
            }
        }
        if let (Some(tr), Some(id)) = (traced, span) {
            tr.tracer.close(id);
        }
        (summaries, pass, setup)
    }

    /// Checks each summary against the first one seen for its seed.
    fn check_repeats(
        seen: &mut BTreeMap<u64, RunSummary>,
        summaries: &[(u64, RunSummary)],
        out: &mut Outcome,
    ) {
        for &(seed, s) in summaries {
            match seen.get(&seed) {
                None => {
                    seen.insert(seed, s);
                    out.check(Ok(()));
                }
                Some(first) => out.check_eq(&format!("repeat of seed {seed}"), s, *first),
            }
        }
    }

    fn check_pinned(&self, seen: &BTreeMap<u64, RunSummary>, out: &mut Outcome) {
        if let Some(want) = self.pinned_steps {
            if self.seeds.iter().all(|s| seen.contains_key(s)) {
                let total: u64 = self.seeds.iter().map(|s| seen[s].steps).sum();
                out.check_eq("steps_total over the committed seeds", total, want);
            }
        }
    }

    /// The untraced run: passes for `seconds` (at least `min_passes`),
    /// reporting the median pass's step rate.
    pub fn run(&self, seconds: f64, out: &mut Outcome) {
        let chunks = self.chunks();
        let mut budget = Budget::new(seconds);
        let mut arena = Arena::new();
        let mut seen = BTreeMap::new();
        let (mut passes, mut setups) = (Vec::new(), Vec::new());
        while budget.more(self.min_passes) {
            let start = Instant::now();
            let seeds = chunks[budget.passes() % chunks.len()];
            let (summaries, pass, setup) = self.pass(seeds, &mut arena, None, out);
            Self::check_repeats(&mut seen, &summaries, out);
            if pass.work > 0.0 {
                passes.push(pass);
            }
            setups.push(setup);
            budget.record(start.elapsed().as_secs_f64());
        }
        self.check_pinned(&seen, out);
        let (rate, fast) = set_timing(out, &passes, &setups);
        out.notes.push(format!(
            "steps_per_s = {rate:.1} steps/s (median of {} passes; fastest quarter {fast:.1})",
            passes.len()
        ));
    }

    /// The traced run: each pass of a cycle over the unit set runs
    /// untraced, then traced with the same seeds, for `seconds` (at least
    /// one cycle). Layer counts and busy times come from the first
    /// traced cycle; tracing overhead from every pair.
    pub fn run_traced(&self, seconds: f64, leaves: &LeafCosts, out: &mut Outcome) {
        let chunks = self.chunks();
        let mut budget = Budget::new(seconds);
        let mut arena = Arena::new();
        let mut first = Traced::default();
        let mut seen = BTreeMap::new();
        let (mut plain_secs, mut traced_secs, mut first_plain_secs) = (0.0, 0.0, 0.0);
        while budget.more(chunks.len()) {
            let start = Instant::now();
            let cycle = budget.passes() / chunks.len();
            let seeds = chunks[budget.passes() % chunks.len()];
            let (plain, plain_pass, _) = self.pass(seeds, &mut arena, None, out);
            let mut later = Traced::default();
            let tr = if cycle == 0 { &mut first } else { &mut later };
            let (traced, traced_pass, _) = self.pass(seeds, &mut arena, Some(tr), out);
            Self::check_repeats(&mut seen, &plain, out);
            out.check_eq("traced run's summaries", &traced, &plain);
            plain_secs += plain_pass.secs;
            traced_secs += traced_pass.secs;
            if cycle == 0 {
                first_plain_secs += plain_pass.secs;
            }
            budget.record(start.elapsed().as_secs_f64());
        }
        self.check_pinned(&seen, out);
        let unit: Vec<RunSummary> =
            self.seeds.iter().filter_map(|s| seen.get(s).copied()).collect();
        let steps: u64 = unit.iter().map(|s| s.steps).sum();
        let named: usize = unit.iter().map(|s| s.named).sum();
        let rng_words: u64 = unit.iter().map(|s| s.rng_words).sum();
        let m = &mut out.metrics;
        m.set("process.rng_words", rng_words as f64);
        m.set("process.steps_per_name", steps as f64 / named.max(1) as f64);
        m.set("trace.overhead_share", traced_secs / plain_secs - 1.0);
        set_adversary_metrics(out, &first.adversary);
        let t = &first.tracer;
        let m = &mut out.metrics;
        let arena_busy = t.busy("arena.run");
        m.set("arena.busy_s", arena_busy);
        m.set("arena.ns_per_step", (arena_busy - first.adversary.busy) * 1e9 / steps.max(1) as f64);
        m.set("factory.busy_s", t.busy("instantiate"));
        m.set(
            "factory.us_per_call",
            t.busy("instantiate") * 1e6 / t.calls("instantiate").max(1) as f64,
        );
        m.set("verify.busy_s", t.busy("verify"));
        let a = &first.adversary;
        let predicted_ns = a.tas as f64 * leaves.tas
            + a.tau_request as f64 * leaves.tau_request
            + rng_words as f64 * leaves.coin
            + a.steps() as f64 * leaves.noop_step;
        m.set("ledger.residual_share", 1.0 - predicted_ns / (first_plain_secs * 1e9));
        out.tracers.push(std::mem::take(&mut first.tracer));
    }
}

/// Sets the step-kind and adversary metrics from `a`.
pub fn set_adversary_metrics(out: &mut Outcome, a: &AdversaryCounts) {
    let m = &mut out.metrics;
    m.set("steps.tas", a.tas as f64);
    m.set("steps.tau_request", a.tau_request as f64);
    m.set("steps.read", a.read as f64);
    m.set("steps.local", a.local as f64);
    m.set("adversary.busy_s", a.busy);
    m.set("adversary.calls", a.calls as f64);
    m.set("adversary.decisions_per_call", a.decisions as f64 / a.calls.max(1) as f64);
    m.set("adversary.ns_per_decision", a.busy * 1e9 / a.decisions.max(1) as f64);
}
