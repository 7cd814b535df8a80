//! The repository benchmark: one closed-loop workload per run, its
//! outputs checked, and one JSON result line at the end.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--shrink <n>] [--out <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced variant and prints the per-layer metrics, writing its spans to
//! `<dir>/trace-<workload>-seed<n>.tsv`. `perfbench/run.py` builds this
//! binary and is the entry point named in `BENCHMARK.json`.

#![forbid(unsafe_code)]

mod backend;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

use workloads::{Metric, Plan, Tally, Workload, BUSY_THREADS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    shrink: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut shrink = 1;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--shrink" => {
                shrink = value()?
                    .parse::<usize>()
                    .map_err(|e| format!("--shrink: {e}"))?;
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        shrink,
        out,
    })
}

fn result_json(metrics: &[Metric], tally: &Tally) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    )
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // The simulated path runs its local passes on one host thread.
    std::env::set_var("MLSTAR_HOST_THREADS", "1");
    let plan = Plan::new(args.workload, args.seed, args.shrink);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if BUSY_THREADS > nproc {
        return Err(format!(
            "{} keeps {BUSY_THREADS} threads busy but only {nproc} are available",
            args.workload.name()
        ));
    }
    println!(
        "# env: workload={} seed={} seconds={} trace={} shrink={} available_parallelism={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.shrink
    );
    let mut tally = Tally::default();
    let mut details = Vec::new();
    let mut metrics = if args.trace {
        let (metrics, spans) = layers::run_traced(&plan, args.seconds, &mut tally, &mut details)?;
        for (name, (count, total, own)) in trace::summary(&spans) {
            details.push(format!(
                "span {name}: count {count}, total {total:.6} s, self {own:.6} s"
            ));
        }
        std::fs::create_dir_all(&args.out)
            .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
        let path = args.out.join(format!(
            "trace-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&path, trace::to_tsv(&spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        details.push(format!("spans written to {}", path.display()));
        metrics
    } else {
        workloads::run_end_to_end(&plan, args.seconds, &mut tally, &mut details)?
    };
    for (name, value, _) in &mut metrics {
        // JSON has no NaN or infinity: a metric that could not be
        // measured is a failed operation.
        tally.check(value.is_finite(), || format!("metric {name} is {value}"));
        if !value.is_finite() {
            *value = 0.0;
        }
    }
    if !args.trace {
        let ok = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
        metrics.push(("success_rate", 100.0 * ok, "%"));
    }
    for d in &details {
        println!("# {d}");
    }
    for note in &tally.notes {
        println!("# FAILED: {note}");
    }
    println!("{}", result_json(&metrics, &tally));
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
