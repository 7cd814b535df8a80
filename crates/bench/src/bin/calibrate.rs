//! Hyperparameter calibration utility: sweeps learning rates for one
//! system on one preset and prints time/steps to the reference target.
//!
//! Usage: `cargo run --release -p mlstar-bench --bin calibrate [preset] [system]`
//! where preset ∈ {avazu, url, kddb, kdd12, wx} and system is any name
//! `System::from_str` accepts (mllib, ma, star, petuum, petuum-star,
//! angel, lbfgs). Defaults: kdd12, mllib. An unknown system exits 2.

use mlstar_core::{reference_optimum, System, TrainConfig};
use mlstar_data::catalog;
use mlstar_glm::{LearningRate, Loss, Regularizer};
use mlstar_sim::ClusterSpec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().skip(1).any(|a| a == "-h" || a == "--help") {
        println!("calibrate: sweeps learning rates for one system on one preset");
        println!();
        println!("USAGE:");
        println!("    cargo run --release -p mlstar-bench --bin calibrate [preset] [system] [reg]");
        println!();
        println!("    preset ∈ {{avazu, url, kddb, kdd12, wx}}   (default kdd12)");
        println!(
            "    system ∈ {{mllib, ma, star, petuum, petuum-star, angel, lbfgs}}   (default mllib)"
        );
        println!("    reg    ∈ {{none, l2}}   (default none)");
        return;
    }
    let preset_name = args.get(1).map(String::as_str).unwrap_or("kdd12");
    let system_name = args.get(2).map(String::as_str).unwrap_or("mllib");
    let reg = match args.get(3).map(String::as_str) {
        Some("l2") => Regularizer::L2 { lambda: 0.1 },
        _ => Regularizer::None,
    };
    let preset = match preset_name {
        "avazu" => catalog::avazu_like(),
        "url" => catalog::url_like(),
        "kddb" => catalog::kddb_like(),
        "wx" => catalog::wx_like(),
        _ => catalog::kdd12_like(),
    };
    let system: System = system_name.parse().unwrap_or_else(|e| {
        eprintln!("calibrate: {e}");
        std::process::exit(2);
    });
    let ds = preset.generate();
    let opt = reference_optimum(&ds, Loss::Hinge, reg, 25, 42);
    println!(
        "preset {} | system {} | {} | reference optimum {opt:.4}",
        preset.name,
        system.name(),
        reg.label()
    );
    let cluster = ClusterSpec::cluster1();
    let (rounds, eval_every, batch_frac) = match system {
        System::Mllib => (6000, 50, 0.01),
        System::MllibMa | System::MllibStar => (40, 1, 1.0),
        System::Petuum | System::PetuumStar => (1200, 20, 0.05),
        System::Angel => (120, 1, 0.01),
        System::SparkMl => (30, 1, 1.0),
    };
    for eta in [0.003, 0.01, 0.03, 0.1, 0.3, 1.0] {
        let cfg = TrainConfig {
            loss: Loss::Hinge,
            reg,
            lr: LearningRate::Constant(eta),
            batch_frac,
            max_rounds: rounds,
            eval_every,
            target_objective: None,
            tree_fanin: 3,
            seed: 42,
            ..TrainConfig::default()
        };
        let out = system.train_default(&ds, &cluster, &cfg);
        let best = out.trace.best_objective().unwrap_or(f64::NAN);
        let target = opt.min(best) + 0.01;
        println!(
            "eta {eta:>6}: best {best:.4} | to {target:.3}: steps {:?} time {:?}",
            out.trace.steps_to_reach(opt + 0.01),
            out.trace
                .time_to_reach(opt + 0.01)
                .map(|t| format!("{t:.1}s")),
        );
    }
}
