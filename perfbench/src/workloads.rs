//! The two workloads, their set-up, the end-to-end run and its output
//! checks.
//!
//! Every workload is a closed loop: one caller issues one call at a time
//! and waits for it. Each workload trains a model and serves predictions
//! from it, so every run reports all end-to-end metrics; training gets
//! three quarters of the measured time and serving the rest. Why each
//! workload exists is in `perfbench/README.md`.

use std::rc::Rc;

use mlstar_core::{AngelConfig, PsSystemConfig, System, TrainConfig, TrainOutput};
use mlstar_data::catalog::{kdd12_like, kddb_like};
use mlstar_data::{SparseDataset, SyntheticConfig};
use mlstar_glm::{objective_value, LearningRate, Regularizer};
use mlstar_net::{train_net, NetConfig, NetTrainOutput};
use mlstar_serve::{BatchPolicy, Prediction, QueryWorkload, ScoreRequest, ScoringEngine};
use mlstar_sim::{ClusterSpec, NetworkSpec, NodeSpec};

use crate::stats::{median, SharedLoop, Stopwatch, Timing};
use crate::trace::span;

/// Worker shards of the scoring engine.
pub const SERVE_SHARDS: usize = 2;
/// The most threads any run keeps busy at once: the two net workers, the
/// two serving shards, or the two ends of a ping-pong. The simulated path
/// runs on one host thread (`MLSTAR_HOST_THREADS=1`).
pub const BUSY_THREADS: usize = 2;
/// Set-up repeats at least this often and for at least `SETUP_MIN_S`
/// seconds per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 3.0;
/// Share of the measured time given to training; serving gets the rest.
const TRAIN_SHARE: f64 = 0.75;
/// Timed calls per phase even when the time budget runs out first.
const MIN_CALLS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StarNetKdd12,
    MllibSimKddb,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::StarNetKdd12, Workload::MllibSimKddb];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StarNetKdd12 => "star-net-kdd12",
            Workload::MllibSimKddb => "mllib-sim-kddb",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything fixed about one run: data, trainer and request stream.
pub struct Plan {
    pub workload: Workload,
    pub data: SyntheticConfig,
    pub system: System,
    pub cluster: ClusterSpec,
    /// The training call.
    pub cfg: TrainConfig,
    /// Train on the real-thread `net` backend instead of the simulator.
    pub on_net: bool,
    pub query: QueryWorkload,
}

/// The 2-executor cluster of the net workloads and of the net-backend
/// probe on the simulated-path workloads.
pub fn two_executors() -> ClusterSpec {
    ClusterSpec::uniform(2, NodeSpec::standard(), NetworkSpec::gbps1())
}

impl Plan {
    /// The workload at its benchmark size; `shrink > 1` divides data,
    /// rounds and requests for the benchmark's own tests.
    pub fn new(workload: Workload, seed: u64, shrink: usize) -> Plan {
        let star_l2 = TrainConfig {
            reg: Regularizer::L2 { lambda: 0.1 },
            lr: LearningRate::Constant(0.1),
            max_rounds: 20,
            eval_every: 1,
            seed,
            ..TrainConfig::default()
        };
        let (data, system, cluster, cfg, on_net, requests) = match workload {
            Workload::StarNetKdd12 => (
                kdd12_like(),
                System::MllibStar,
                two_executors(),
                star_l2,
                true,
                200_000,
            ),
            Workload::MllibSimKddb => (
                kddb_like(),
                System::Mllib,
                ClusterSpec::cluster1(),
                TrainConfig {
                    lr: LearningRate::Constant(1.0),
                    batch_frac: 0.01,
                    max_rounds: 1_000,
                    // 40 evaluations per call keep glm.objective a
                    // minority of the call.
                    eval_every: 25,
                    seed,
                    ..TrainConfig::default()
                },
                false,
                50_000,
            ),
        };
        let shrink = shrink.max(1);
        let mut cfg = cfg;
        cfg.max_rounds = (cfg.max_rounds / shrink as u64).max(2);
        Plan {
            workload,
            data: data.with_seed(seed).scaled_down(shrink),
            system,
            cluster,
            cfg,
            on_net,
            query: QueryWorkload {
                num_requests: (requests / shrink).max(64),
                seed,
                ..QueryWorkload::default()
            },
        }
    }

    /// The training call on the simulated path.
    pub fn train_sim(&self, ds: &SparseDataset) -> TrainOutput {
        self.system.train(
            ds,
            &self.cluster,
            &self.cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
        )
    }

    /// The training call on the real-thread backend, on `cluster`.
    pub fn train_on_net(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
    ) -> Result<NetTrainOutput, String> {
        train_net(
            self.system,
            ds,
            cluster,
            cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
            &NetConfig::default(),
        )
        .map_err(|e| format!("net training failed: {e}"))
    }

    /// The workload's training call.
    fn train(&self, ds: &SparseDataset) -> Result<TrainOutput, String> {
        if self.on_net {
            self.train_on_net(ds, &self.cluster, &self.cfg)
                .map(|o| o.output)
        } else {
            Ok(self.train_sim(ds))
        }
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub ds: Rc<SparseDataset>,
    pub parts: Vec<Vec<usize>>,
    pub requests: Vec<ScoreRequest>,
}

/// Set-up: dataset generation, partitioning and request generation.
/// Returns the inputs and the generation time alone.
pub fn setup(plan: &Plan) -> Result<(Inputs, f64), String> {
    span("setup", || {
        let t = Stopwatch::start();
        let ds = Rc::new(span("data.generate", || plan.data.generate()));
        let generate_s = t.secs();
        let parts = span("data.partition", || {
            mlstar_core::system_partitions(plan.system, &ds, &plan.cluster, &plan.cfg)
        });
        let requests = span("serve.requests", || plan.query.generate(&ds));
        Ok((
            Inputs {
                ds,
                parts,
                requests,
            },
            generate_s,
        ))
    })
}

/// Repeats set-up `SETUP_REPS` times and for `SETUP_MIN_S` seconds,
/// keeping the last inputs. Returns the inputs, the set-up times and the
/// generation times.
pub fn setup_reps(plan: &Plan) -> Result<(Inputs, Timing, Timing), String> {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut kept = None;
    let start = Stopwatch::start();
    while setup_s.len() < SETUP_REPS || start.secs() < SETUP_MIN_S {
        drop(kept.take());
        let t = Stopwatch::start();
        let (inputs, gen) = setup(plan)?;
        setup_s.push(t.secs());
        generate_s.push(gen);
        kept = Some(inputs);
    }
    let inputs = kept.ok_or("no set-up ran")?;
    Ok((
        inputs,
        Timing { samples: setup_s },
        Timing {
            samples: generate_s,
        },
    ))
}

/// Operations attempted and failed; every output check is an operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Counts a call: a failed call is a failed operation.
    pub fn call<T>(&mut self, res: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.notes.push(e);
                None
            }
        }
    }
}

/// Bit-for-bit equality of two weight vectors.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One prediction per request, in id order, bit-equal to `reference`.
pub fn same_predictions(got: &[Prediction], reference: &[Prediction], requests: usize) -> bool {
    got.len() == requests
        && reference.len() == requests
        && got.iter().zip(reference).enumerate().all(|(i, (a, b))| {
            a.id == i as u64
                && a.id == b.id
                && a.margin.to_bits() == b.margin.to_bits()
                && a.probability.to_bits() == b.probability.to_bits()
                && a.label.to_bits() == b.label.to_bits()
        })
}

/// The objective at the end of a training call.
pub fn final_objective(out: &TrainOutput) -> f64 {
    out.trace.points.last().map_or(f64::NAN, |p| p.objective)
}

/// Checks one training call: its weights must be bit-identical to
/// `reference` (the first call's when none is given beforehand), and its
/// final objective finite and bit-equal to `objective_value` of those
/// weights over the whole set, so a change to how the trainer evaluates
/// or reports the objective shows. Keeps the last output.
struct TrainCheck {
    reference: Option<Vec<f64>>,
    last: Option<TrainOutput>,
}

impl TrainCheck {
    fn accept(
        &mut self,
        res: Result<TrainOutput, String>,
        plan: &Plan,
        ds: &SparseDataset,
        tally: &mut Tally,
    ) {
        let name = plan.workload.name();
        if let Some(out) = tally.call(res) {
            let w = out.model.weights();
            let expect = self.reference.get_or_insert_with(|| w.as_slice().to_vec());
            tally.check(same_bits(w.as_slice(), expect), || {
                format!("{name}: weights differ from the reference run")
            });
            let objective = final_objective(&out);
            tally.check(objective.is_finite(), || {
                format!("{name}: final objective {objective} is not finite")
            });
            let recomputed =
                objective_value(plan.cfg.loss, plan.cfg.reg, w, ds.rows(), ds.labels());
            tally.check(recomputed.to_bits() == objective.to_bits(), || {
                format!("{name}: final objective {objective} but the weights give {recomputed}")
            });
            self.last = Some(out);
        }
    }
}

/// Checks one scoring run: one prediction per request, in id order,
/// bit-equal to the 1-shard engine's.
fn check_scoring(
    res: Result<mlstar_serve::ServeRun, mlstar_serve::ServeError>,
    reference: &[Prediction],
    n: usize,
    tally: &mut Tally,
) {
    let res = res.map_err(|e| format!("scoring failed: {e}"));
    if let Some(run) = tally.call(res) {
        tally.check(same_predictions(&run.predictions, reference, n), || {
            format!(
                "{} predictions for {n} requests, or not bit-equal to the reference engine",
                run.predictions.len()
            )
        });
    }
}

/// One end-to-end metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The untraced run: every end-to-end metric but `success_rate`, which
/// the caller adds once every check has been counted.
pub fn run_end_to_end(
    plan: &Plan,
    seconds: f64,
    tally: &mut Tally,
    details: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let (inputs, setup, _) = setup_reps(plan)?;
    let name = plan.workload.name();

    // The reference each training call must reproduce bit for bit: the
    // simulated run of the same config for the net backend, else the
    // first call.
    let reference = plan.on_net.then(|| {
        plan.train_sim(&inputs.ds)
            .model
            .weights()
            .as_slice()
            .to_vec()
    });
    let mut train_check = TrainCheck {
        reference,
        last: None,
    };
    // Warm-up calls, checked but not timed. The training warm-up's model
    // is the one served.
    train_check.accept(plan.train(&inputs.ds), plan, &inputs.ds, tally);
    let model = match &train_check.last {
        Some(out) => out.model.clone(),
        None => return Err(format!("{name}: the warm-up training call failed")),
    };
    // Both workloads time the sharded engine; the 1-shard engine's output
    // is the reference.
    let (timed_shards, reference_shards) = (SERVE_SHARDS, 1);
    let requests = &inputs.requests;
    let n = requests.len();
    let reference = ScoringEngine::new(model.clone(), BatchPolicy::default(), reference_shards)
        .run(requests)
        .map(|r| r.predictions)
        .map_err(|e| format!("{reference_shards}-shard scoring failed: {e}"));
    let reference = tally.call(reference).unwrap_or_default();
    let engine = ScoringEngine::new(model, BatchPolicy::default(), timed_shards);
    check_scoring(engine.run(requests), &reference, n, tally);

    let mut timed = SharedLoop::new(seconds, TRAIN_SHARE, MIN_CALLS);
    while let Some(kind) = timed.next_kind() {
        let t = Stopwatch::start();
        if kind == 0 {
            let res = plan.train(&inputs.ds);
            timed.record(kind, t.secs());
            train_check.accept(res, plan, &inputs.ds, tally);
        } else {
            let res = engine.run(requests);
            timed.record(kind, t.secs());
            check_scoring(res, &reference, n, tally);
        }
    }
    let [train, serve] = timed.finish();
    let last = train_check.last.ok_or("every training call failed")?;

    let preds_per_s: Vec<f64> = serve.samples.iter().map(|s| n as f64 / s).collect();
    details.push(format!("train_s: {}", train.describe()));
    details.push(format!(
        "serve run_s ({n} requests, {timed_shards} shard(s)): {}",
        serve.describe()
    ));
    details.push(format!("setup_s: {}", setup.describe()));
    let rss = peak_rss_mib()?;
    Ok(vec![
        ("train_s", train.median(), "s"),
        ("final_objective", final_objective(&last), "objective"),
        ("sim_s", last.gantt.makespan().as_secs_f64(), "sim-s"),
        ("preds_per_s", median(&preds_per_s), "1/s"),
        ("setup_s", setup.median(), "s"),
        ("peak_rss_mib", rss, "MiB"),
    ])
}

/// The process's resident-memory high-water mark (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
