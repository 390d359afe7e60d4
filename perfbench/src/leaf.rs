//! Leaf microbenchmarks: the cost of one call into each bottom layer,
//! timed with the same pass statistics as the workloads. They price the
//! ledger that checks how much of `Arena::run`'s time the step counts
//! explain.

use crate::passes::{fast_rate, Budget, Pass};
use rr_sched::adversary::FairAdversary;
use rr_sched::bits::{SlotSnapshot, Status, StatusBitmap};
use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome};
use rr_sched::shard::Arena;
use rr_shmem::rng::ProcessRng;
use rr_shmem::{Access, AtomicTasArray, TasMemory};
use rr_tau::ConcurrentTauRegister;
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed pass of a leaf.
const OPS: u64 = 1 << 16;
/// Bits of the TAS array and processes of the status bitmap: the
/// `tight-fair` population.
const BIG_N: usize = 1 << 20;
/// Processes of the no-op arena run.
const NOOP_N: usize = 1 << 14;
/// Local steps each no-op process takes before it names itself.
const NOOP_STEPS: usize = 8;

/// Nanoseconds per call of each leaf.
#[derive(Debug, Clone, Copy)]
pub struct LeafCosts {
    /// `ProcessRng::coin` (one 32-bit ChaCha8 word).
    pub coin: f64,
    /// `ProcessRng::index` over 2^14.
    pub index: f64,
    /// `AtomicTasArray` test-and-set at scattered indices of 2^20 bits.
    pub tas: f64,
    /// `ConcurrentTauRegister::request_bit` on 2^20-population registers.
    pub tau_request: f64,
    /// `StatusBitmap::next_runnable` over 2^20 pids, half runnable.
    pub next_runnable: f64,
    /// `SlotSnapshot::select` on the same bitmap's roster.
    pub select: f64,
    /// One step of `Arena::run` over a process that only takes local
    /// steps, under `fair`.
    pub noop_step: f64,
}

/// SplitMix64's finalizer: a well-spread function of `z`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scattered indices below `bound` (a power of two), one per call.
fn scattered(bound: usize) -> Vec<usize> {
    (0..OPS).map(|i| (mix(i) as usize) & (bound - 1)).collect()
}

/// Times `op` over passes of [`OPS`] calls for `seconds` (at least five
/// passes), on a state `prepare` builds afresh, untimed, before each
/// pass; returns nanoseconds per call from the fastest quarter. `op`
/// receives the call's index within the pass.
fn leaf<S>(seconds: f64, mut prepare: impl FnMut() -> S, mut op: impl FnMut(&S, u64)) -> f64 {
    let mut budget = Budget::new(seconds);
    let mut passes = Vec::new();
    while budget.more(5) {
        let state = prepare();
        let t = Instant::now();
        for i in 0..OPS {
            op(&state, i);
        }
        let secs = t.elapsed().as_secs_f64();
        budget.record(secs);
        passes.push(Pass { work: OPS as f64, secs });
    }
    1e9 / fast_rate(&passes)
}

struct Noop {
    pid: usize,
    left: usize,
}

impl Process for Noop {
    fn announce(&mut self) -> Access {
        Access::Local
    }

    fn step(&mut self) -> StepOutcome {
        if self.left == 0 {
            StepOutcome::Done(self.pid)
        } else {
            self.left -= 1;
            StepOutcome::Continue
        }
    }

    fn pid(&self) -> Pid {
        Pid::new(self.pid)
    }
}

fn noop_ns_per_step(seconds: f64) -> f64 {
    let mut budget = Budget::new(seconds);
    let mut arena = Arena::new();
    let mut passes = Vec::new();
    while budget.more(5) {
        let mut procs: Vec<Noop> = (0..NOOP_N).map(|pid| Noop { pid, left: NOOP_STEPS }).collect();
        let t = Instant::now();
        let out = arena
            .run(&mut procs, &mut FairAdversary::default(), u64::MAX)
            .expect("no-op processes always finish");
        let secs = t.elapsed().as_secs_f64();
        budget.record(secs);
        passes.push(Pass { work: out.total_steps() as f64, secs });
    }
    1e9 / fast_rate(&passes)
}

/// Measures every leaf, `seconds` each.
pub fn measure(seconds: f64) -> LeafCosts {
    let mut rng = ProcessRng::new(7, 0);
    let coin = leaf(
        seconds,
        || (),
        |_, _| {
            black_box(rng.coin());
        },
    );
    let index = leaf(
        seconds,
        || (),
        |_, _| {
            black_box(rng.index(black_box(1 << 14)));
        },
    );

    let at = scattered(BIG_N);
    let tas = leaf(
        seconds,
        || AtomicTasArray::new(BIG_N),
        |arr, i| {
            black_box(arr.tas(at[i as usize]));
        },
    );

    let probe = ConcurrentTauRegister::log_register(BIG_N, 0);
    let (width, tau) = (probe.width() as usize, probe.tau() as usize);
    let registers = 1 << 12;
    let tau_request = leaf(
        seconds,
        || -> Vec<ConcurrentTauRegister> {
            (0..registers).map(|r| ConcurrentTauRegister::log_register(BIG_N, r * tau)).collect()
        },
        |regs, i| {
            let x = at[i as usize];
            black_box(regs[x % registers].request_bit((x / registers) % width));
        },
    );

    let mut status = StatusBitmap::new();
    status.reset(BIG_N);
    for i in 0..BIG_N / 2 {
        status.set(Pid::new((mix(i as u64 ^ 0xB175) as usize) & (BIG_N - 1)), Status::Named);
    }
    let next_runnable = leaf(
        seconds,
        || (),
        |_, i| {
            black_box(status.next_runnable(at[i as usize]));
        },
    );
    let mut slots = SlotSnapshot::new();
    slots.capture(&status);
    let live = slots.len();
    let select = leaf(
        seconds,
        || (),
        |_, i| {
            black_box(slots.select(at[i as usize] % live));
        },
    );

    LeafCosts {
        coin,
        index,
        tas,
        tau_request,
        next_runnable,
        select,
        noop_step: noop_ns_per_step(seconds),
    }
}

impl LeafCosts {
    /// Sets the leaf metrics.
    pub fn set_metrics(&self, out: &mut crate::metrics::Outcome) {
        let m = &mut out.metrics;
        m.set("shmem.rng.ns_per_coin", self.coin);
        m.set("shmem.rng.ns_per_index", self.index);
        m.set("shmem.tas.ns_per_op", self.tas);
        m.set("tau.ns_per_request", self.tau_request);
        m.set("bits.ns_per_next_runnable", self.next_runnable);
        m.set("bits.ns_per_select", self.select);
        m.set("arena.noop_ns_per_step", self.noop_step);
    }
}
