//! `rr-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the root of a checkout: the workloads read the committed
//! `BENCH_explore.json`, `BENCH_scenarios.json`, `BENCH_route.json` and
//! `REPRODUCTION.md` there. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and the metrics.
//! A traced run also writes its spans next to the executable.

use rr_perfbench::metrics::{END_TO_END, PER_LAYER};
use rr_perfbench::{run, Workload};
use std::path::Path;
use std::process::{exit, Command};

const USAGE: &str =
    "usage: rr-perfbench --workload <tight-fair|loose-random|schedule-search|report-quick|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn die(msg: &str) -> ! {
    eprintln!("rr-perfbench: {msg}\n{USAGE}");
    exit(2);
}

fn bad<T>(flag: &str, value: &str) -> T {
    die(&format!("bad value `{value}` for {flag}"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Args {
    let mut parsed = Args { workload: String::new(), seed: 0, seconds: 20.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().unwrap_or_else(|_| bad(flag, value)),
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| bad(flag, value))
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                }
            }
            _ => die(&format!("unknown argument `{flag}`")),
        }
    }
    parsed
}

/// Runs every workload, each in a process of its own so that each
/// reports its own peak memory; exits non-zero if any did.
fn run_all(args: &[String]) -> ! {
    let exe =
        std::env::current_exe().unwrap_or_else(|e| die(&format!("cannot locate myself: {e}")));
    let mut worst = 0;
    for w in Workload::ALL {
        let mut child_args: Vec<String> = args.to_vec();
        let at = child_args.iter().position(|a| a == "--workload").expect("parsed --workload");
        child_args[at + 1] = w.name().to_string();
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .unwrap_or_else(|e| die(&format!("cannot run {}: {e}", w.name())));
        worst = worst.max(status.code().unwrap_or(1));
    }
    exit(worst);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = parse(&args);
    if a.workload == "all" {
        run_all(&args);
    }
    let workload = Workload::parse(&a.workload)
        .unwrap_or_else(|| die(&format!("unknown workload `{}`", a.workload)));
    let out = run(workload, a.seed, a.seconds, a.trace, Path::new(".")).unwrap_or_else(|e| die(&e));
    let table = if a.trace { PER_LAYER } else { END_TO_END };
    println!(
        "== {} seed {} ({}) ==",
        workload.name(),
        a.seed,
        if a.trace { "traced" } else { "untraced" }
    );
    for note in &out.notes {
        println!("{note}");
    }
    for (d, v) in out.metrics.rows(table) {
        println!("{} = {v} {}", d.name, d.unit);
    }
    println!(
        "failed_share = {} ratio ({} of {} checks failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    if a.trace {
        if let Some(dir) =
            std::env::current_exe().ok().and_then(|p| p.parent().map(Path::to_path_buf))
        {
            let path = dir.join(format!("trace-{}-seed{}.jsonl", workload.name(), a.seed));
            let written = std::fs::File::create(&path)
                .and_then(|mut f| out.tracers.iter().try_for_each(|t| t.write_to(&mut f)));
            match written {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => eprintln!("rr-perfbench: cannot write {}: {e}", path.display()),
            }
        }
    }
    println!("{}", out.json_line(table));
    if !out.correct() {
        exit(1);
    }
}
