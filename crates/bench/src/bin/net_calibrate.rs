//! Calibrates the simulator's cost model against a *real* training run:
//! trains one system on the `mlstar-net` thread backend (in-process
//! channels or loopback TCP), fits the linear cost-model rates
//! (GFLOP/s, bytes/s, per-message latency) from the measured per-worker
//! round timings by least squares, re-simulates the identical training
//! under the fitted cluster, and reports measured vs. simulated makespan.
//!
//! The run doubles as a live determinism check: the net-backed weights
//! must be bit-identical to the re-simulated weights (the calibrated
//! cluster changes only the simulated clock, never the math).

use mlstar_bench::report::{self, Table};
use mlstar_core::{AngelConfig, PsSystemConfig, System, TrainConfig};
use mlstar_data::SyntheticConfig;
use mlstar_net::{train_net, NetConfig, NetTrainOutput, TransportKind};
use mlstar_sim::{fit_rates, ClusterSpec, FittedRates, NetworkSpec, NodeSpec, RateSample};

fn usage(code: i32) -> ! {
    println!("net_calibrate: fit simulator cost-model rates from a real net-backend run");
    println!();
    println!("USAGE:");
    println!("    cargo run --release -p mlstar-bench --bin net_calibrate -- [OPTIONS]");
    println!();
    println!("OPTIONS:");
    println!("    --system <name>      mllib, ma, star (default), lbfgs, petuum,");
    println!("                         petuum-star, angel");
    println!("    --transport <kind>   channel (default) or tcp (loopback)");
    println!("    --workers <k>        worker threads (default 4)");
    println!("    --rounds <n>         communication rounds (default 8)");
    println!("    --smoke              tiny CI configuration (4 rounds, small data)");
    println!("    --json               also mirror the JSON report to stdout");
    println!("    -h, --help           this message");
    println!();
    println!("Always writes bench_results/net_calibrate.json (override dir with");
    println!("MLSTAR_OUT) containing the fitted rates and the makespan error.");
    std::process::exit(code);
}

struct Args {
    system: System,
    transport: TransportKind,
    workers: usize,
    rounds: u64,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        system: System::MllibStar,
        transport: TransportKind::Channel,
        workers: 4,
        rounds: 8,
        smoke: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |args: &[String], i: usize, what: &str| -> String {
        args.get(i).cloned().unwrap_or_else(|| {
            eprintln!("net_calibrate: {what} needs a value");
            std::process::exit(2);
        })
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => usage(0),
            "--json" => report::set_json_mode(true),
            "--smoke" => out.smoke = true,
            "--system" => {
                i += 1;
                out.system = value(&args, i, "--system").parse().unwrap_or_else(|e| {
                    eprintln!("net_calibrate: {e} (see --help)");
                    std::process::exit(2);
                });
            }
            "--transport" => {
                i += 1;
                out.transport = match value(&args, i, "--transport").as_str() {
                    "channel" => TransportKind::Channel,
                    "tcp" => TransportKind::Tcp,
                    other => {
                        eprintln!("net_calibrate: unknown transport {other:?} (see --help)");
                        std::process::exit(2);
                    }
                };
            }
            "--workers" => {
                i += 1;
                out.workers = value(&args, i, "--workers").parse().unwrap_or_else(|_| {
                    eprintln!("net_calibrate: --workers needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--rounds" => {
                i += 1;
                out.rounds = value(&args, i, "--rounds").parse().unwrap_or_else(|_| {
                    eprintln!("net_calibrate: --rounds needs a positive integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("net_calibrate: unexpected argument {other:?} (see --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if out.smoke {
        out.rounds = 4;
    }
    out
}

/// Flattens the per-batch, per-worker measurements into regression
/// samples for [`fit_rates`].
fn samples(run: &NetTrainOutput) -> Vec<RateSample> {
    run.batches
        .iter()
        .flat_map(|b| b.workers.iter())
        .map(|w| RateSample {
            flops: w.flops,
            bytes: (w.bytes_out + w.bytes_in) as f64,
            messages: w.messages as f64,
            seconds: w.turnaround_s,
        })
        .collect()
}

fn transport_name(t: TransportKind) -> &'static str {
    match t {
        TransportKind::Channel => "channel",
        TransportKind::Tcp => "tcp",
    }
}

fn json_report(
    args: &Args,
    run: &NetTrainOutput,
    rates: &FittedRates,
    measured_s: f64,
    simulated_s: f64,
    error_pct: f64,
) -> String {
    format!(
        concat!(
            "{{\"report\":\"net_calibrate\",\"system\":\"{}\",\"transport\":\"{}\",",
            "\"workers\":{},\"rounds\":{},\"dispatch_batches\":{},",
            "\"rates\":{{\"gflops\":{},\"bandwidth_bps\":{},\"latency_s\":{}}},",
            "\"makespan\":{{\"measured_s\":{},\"simulated_s\":{},\"error_pct\":{}}},",
            "\"wall_s\":{},\"batches_per_sec\":{}}}\n"
        ),
        args.system.name(),
        transport_name(args.transport),
        args.workers,
        run.output.rounds_run,
        run.batches.len(),
        rates.gflops,
        rates.bandwidth_bps,
        rates.latency_s,
        measured_s,
        simulated_s,
        error_pct,
        run.wall_s,
        run.batches_per_sec(),
    )
}

fn main() {
    let args = parse_args();
    let (rows, feats) = if args.smoke { (180, 24) } else { (600, 48) };
    let ds = SyntheticConfig::small("net-calibrate", rows, feats).generate();
    let cluster = ClusterSpec::uniform(args.workers, NodeSpec::standard(), NetworkSpec::gbps1());
    let cfg = TrainConfig {
        max_rounds: args.rounds,
        ..TrainConfig::default()
    };
    let ps = PsSystemConfig::default();
    let angel = AngelConfig::default();
    report::banner(&format!(
        "net_calibrate — {} on {} transport: {} examples × {} features, {} workers × {} rounds",
        args.system.name(),
        transport_name(args.transport),
        ds.len(),
        ds.num_features(),
        args.workers,
        args.rounds,
    ));

    // The measured run on real threads, plus two smaller probe runs.
    // Within one balanced run every worker ships the same bytes per
    // round, which leaves the regression rank-deficient; varying the
    // dataset size varies the bytes column so all three rates are
    // identifiable.
    let net_cfg = NetConfig {
        transport: args.transport,
        ..NetConfig::default()
    };
    let mut runs: Vec<NetTrainOutput> = Vec::new();
    for (i, probe_rows) in [rows, rows * 2 / 3, rows / 3].into_iter().enumerate() {
        let probe_ds = if i == 0 {
            ds.clone()
        } else {
            SyntheticConfig::small("net-calibrate", probe_rows, feats).generate()
        };
        match train_net(
            args.system,
            &probe_ds,
            &cluster,
            &cfg,
            &ps,
            &angel,
            &net_cfg,
        ) {
            Ok(run) => runs.push(run),
            Err(e) => {
                eprintln!("net_calibrate: net-backend run failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let run = &runs[0];
    let measured_s: f64 = run.batches.iter().map(|b| b.wall_s).sum();
    println!(
        "measured: {} dispatch batches in {:.3}s wall ({:.1} batches/s), {:.4}s inside rounds",
        run.batches.len(),
        run.wall_s,
        run.batches_per_sec(),
        measured_s,
    );

    // Fit the cost model from the per-worker round timings of all runs.
    let samples: Vec<RateSample> = runs.iter().flat_map(samples).collect();
    let Some(rates) = fit_rates(&samples) else {
        eprintln!(
            "net_calibrate: rate fit is rank-deficient ({} samples) — need more \
             workers or rounds",
            samples.len()
        );
        std::process::exit(1);
    };

    // Re-simulate the identical training under the fitted cluster and
    // compare makespans. Only the simulated clock may differ: the weights
    // must stay bit-identical to the net-backed run.
    let fitted_cluster = rates.cluster(args.workers);
    let resim = args.system.train(&ds, &fitted_cluster, &cfg, &ps, &angel);
    assert_eq!(
        run.output.model.weights().as_slice(),
        resim.model.weights().as_slice(),
        "weights must be bit-identical between the net run and the re-simulation"
    );
    let simulated_s: f64 = resim.round_stats.iter().map(|r| r.elapsed_s).sum();
    let error_pct = if measured_s > 0.0 {
        (simulated_s - measured_s).abs() / measured_s * 100.0
    } else {
        f64::INFINITY
    };

    let mut table = Table::new(&["quantity", "value"]);
    table.row(&["fitted GFLOP/s".into(), format!("{:.3}", rates.gflops)]);
    table.row(&[
        "fitted bandwidth".into(),
        format!("{:.1} MB/s", rates.bandwidth_bps / 1e6),
    ]);
    table.row(&[
        "fitted latency".into(),
        format!("{:.1} µs", rates.latency_s * 1e6),
    ]);
    table.row(&["measured makespan".into(), format!("{measured_s:.4}s")]);
    table.row(&["simulated makespan".into(), format!("{simulated_s:.4}s")]);
    table.row(&["makespan error".into(), format!("{error_pct:.1}%")]);
    table.print();
    println!("\nweights are bit-identical between net run and re-simulation ✔");

    let json = json_report(&args, run, &rates, measured_s, simulated_s, error_pct);
    let path = report::write_artifact("net_calibrate.json", &json);
    println!("wrote {}", path.display());
    if report::json_mode() {
        print!("{json}");
    }
}
