//! The MLlib family as one BSP round: the paper's update pattern (**B1**)
//! × communication pattern (**B2**) split, made the code's split.
//!
//! **B1 — update pattern.** What each executor computes and sends per
//! communication step:
//!
//! * *SendGradient* (Figure 2a): sample a batch from the partition and
//!   compute its average loss gradient; the model takes **one** update per
//!   step, `w ← w − η·(g + ∇Ω(w))`.
//! * *SendModel* (`UpdateModel` in Algorithm 3): a **full local SGD pass**
//!   over the partition (per-example updates, lazy regularization); the
//!   new global model is the average of the local models, optionally
//!   reweighted by partition size (Zhang & Jordan).
//!
//! **B2 — communication pattern.** How the per-executor vectors become the
//! next global model:
//!
//! * *DriverTree* (Figures 3a, 3b): the driver broadcasts the model, the
//!   vectors are summed up to the driver by hierarchical `treeAggregate`,
//!   and the driver averages them (and, for SendGradient, takes the
//!   gradient step). Every payload serializes through the driver NIC.
//! * *AllReduce* (Figures 2b, 3c; Algorithm 3): Reduce-Scatter, where each
//!   executor averages the model slice it owns, then AllGather, where
//!   every executor reassembles the full average. Same `≈ 2km` traffic
//!   but no driver on the critical path. Compression and error feedback
//!   (`mlstar_collectives::compressed_all_reduce_average`) exist on this
//!   axis only.
//!
//! MLlib is SendGradient × DriverTree, MLlib+MA SendModel × DriverTree,
//! and MLlib\* SendModel × AllReduce (see `cell`). The fourth cell,
//! SendGradient × AllReduce, is not a preset and cannot be built.

use mlstar_codec::{CodecError, Reader, Writer};
use mlstar_data::{BatchSampler, EpochOrder, SparseDataset};
use mlstar_glm::batch_gradient_into;
use mlstar_linalg::DenseVector;
use mlstar_sim::{dense_op_flops, pass_flops, Activity, ClusterSpec, NodeId, SeedStream};

use crate::checkpoint::{put_vector, read_rng_state, read_vector};
use crate::common::BspHarness;
use crate::engine::{run_rounds, BspRound, RoundStrategy, StepCtx};
use crate::exec::{backend_active, dispatch, expect_grad, to_wire_indices, WorkerOp};
use crate::local_pass::local_sgd_passes;
use crate::{MaWeighting, System, TrainConfig, TrainOutput};

/// B1: what executors send.
#[derive(Clone, Copy)]
enum B1 {
    SendGradient,
    SendModel,
}

/// B2: how the sent vectors are combined.
#[derive(Clone, Copy)]
enum B2 {
    DriverTree,
    AllReduce,
}

/// The B1 × B2 cell of each MLlib-family preset; `None` for every other
/// system.
fn cell(system: System) -> Option<(B1, B2)> {
    match system {
        System::Mllib => Some((B1::SendGradient, B2::DriverTree)),
        System::MllibMa => Some((B1::SendModel, B2::DriverTree)),
        System::MllibStar => Some((B1::SendModel, B2::AllReduce)),
        System::Petuum | System::PetuumStar | System::Angel | System::SparkMl => None,
    }
}

/// The hot-worker skew `system` partitions under: only SendModel presets
/// honour [`TrainConfig::partition_skew`] (the weighted-averaging
/// ablation); every other trainer shuffles uniformly.
pub(crate) fn partition_skew(system: System, cfg: &TrainConfig) -> Option<f64> {
    match cell(system) {
        Some((B1::SendModel, _)) => cfg.partition_skew,
        _ => None,
    }
}

/// Per-worker state of the update pattern.
enum Update {
    SendGradient {
        samplers: Vec<BatchSampler>,
        /// Per-worker gradient buffers, reused across rounds.
        grads: Vec<DenseVector>,
    },
    SendModel {
        orders: Vec<EpochOrder>,
        /// Lazy-regularization update counters (the learning-rate clock).
        update_counters: Vec<u64>,
        /// Per-worker local-model buffers, reused across rounds.
        locals: Vec<DenseVector>,
    },
}

/// State of the communication pattern.
enum Comm {
    DriverTree,
    AllReduce {
        /// Per-worker error-feedback accumulators for the compressed
        /// collective — part of the training state, so checkpointed.
        residuals: Vec<DenseVector>,
    },
}

/// One BSP round of an MLlib-family preset.
pub(crate) struct BspStrategy {
    system: System,
    h: BspHarness,
    /// The global model. Under AllReduce every executor holds an identical
    /// copy; one is tracked (they are bit-identical by construction).
    w: DenseVector,
    update: Update,
    comm: Comm,
}

impl BspStrategy {
    /// Builds the round for `system`.
    ///
    /// # Panics
    ///
    /// Panics if `system` is not `Mllib`, `MllibMa` or `MllibStar`.
    pub(crate) fn new(
        system: System,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
    ) -> Self {
        let Some((b1, b2)) = cell(system) else {
            panic!("{system} is not an MLlib-family BSP preset");
        };
        let h = BspHarness::new(system, ds, cluster, cfg);
        let k = h.k();
        let dim = ds.num_features();
        let seeds = SeedStream::new(cfg.seed);
        let buffers = || (0..k).map(|_| DenseVector::zeros(dim)).collect();
        let update = match b1 {
            B1::SendGradient => Update::SendGradient {
                samplers: (0..k)
                    .map(|r| BatchSampler::new(seeds.child("batch").child_idx(r as u64).seed()))
                    .collect(),
                grads: buffers(),
            },
            B1::SendModel => Update::SendModel {
                orders: (0..k)
                    .map(|r| EpochOrder::new(seeds.child("epoch").child_idx(r as u64).seed()))
                    .collect(),
                update_counters: vec![0u64; k],
                locals: buffers(),
            },
        };
        let comm = match b2 {
            B2::DriverTree => Comm::DriverTree,
            B2::AllReduce => Comm::AllReduce {
                residuals: Vec::new(),
            },
        };
        BspStrategy {
            system,
            h,
            w: DenseVector::zeros(dim),
            update,
            comm,
        }
    }
}

impl Update {
    /// Runs every executor's local work against `w`, filling the buffers
    /// that [`Update::sent`] returns and charging executor compute.
    /// Returns the number of model updates the step performs.
    fn local_work(
        &mut self,
        rd: &mut BspRound<'_, '_>,
        h: &BspHarness,
        ds: &SparseDataset,
        cfg: &TrainConfig,
        w: &DenseVector,
    ) -> u64 {
        let k = h.k();
        match self {
            Update::SendGradient { samplers, grads } => {
                // Batches are always sampled here (the RNG streams stay
                // with the round driver); with a backend installed the
                // gradient math runs remotely.
                let mut ops = Vec::new();
                let mut targets = Vec::new();
                for r in 0..k {
                    if h.parts[r].is_empty() {
                        grads[r].clear();
                        continue;
                    }
                    let batch_size = cfg.batch_size(h.parts[r].len());
                    let batch = samplers[r].sample(&h.parts[r], batch_size);
                    let batch_nnz: usize = batch.iter().map(|&i| ds.rows()[i].nnz()).sum();
                    if backend_active() {
                        let batch = to_wire_indices(&batch);
                        ops.push((
                            r,
                            WorkerOp::BatchGrad {
                                w: w.clone(),
                                batch,
                            },
                        ));
                        targets.push(r);
                    } else {
                        let (rows, labels) = (ds.rows(), ds.labels());
                        batch_gradient_into(cfg.loss, w, rows, labels, &batch, &mut grads[r]);
                    }
                    rd.executor_task(h, cfg.waves, r, pass_flops(batch_nnz));
                }
                if !ops.is_empty() {
                    for (r, res) in targets.into_iter().zip(dispatch(ops)) {
                        grads[r] = expect_grad(res);
                    }
                }
                1
            }
            Update::SendModel {
                orders,
                update_counters,
                locals,
            } => {
                // Math possibly on several host threads; simulated time is
                // recorded below, identically. The thread count was
                // captured once at harness build — see
                // `BspHarness::host_threads`.
                let updates = local_sgd_passes(
                    ds,
                    &h.parts,
                    cfg.loss,
                    cfg.reg,
                    cfg.lr,
                    w,
                    orders,
                    update_counters,
                    locals,
                    h.host_threads,
                );
                for r in 0..k {
                    if !h.parts[r].is_empty() {
                        rd.executor_task(h, cfg.waves, r, pass_flops(h.part_nnz[r]));
                    }
                }
                // Zhang & Jordan reweighting: scale each local model by
                // k·n_r/n so the uniform average becomes the
                // partition-size-weighted average.
                if cfg.ma_weighting == MaWeighting::PartitionSize {
                    for (local, part) in locals.iter_mut().zip(h.parts.iter()) {
                        local.scale(k as f64 * part.len() as f64 / ds.len() as f64);
                    }
                }
                updates
            }
        }
    }

    /// The per-worker vectors this pattern sends, and the Gantt activity
    /// of the send.
    fn sent(&self) -> (&[DenseVector], Activity) {
        match self {
            Update::SendGradient { grads, .. } => (grads, Activity::SendGradient),
            Update::SendModel { locals, .. } => (locals, Activity::SendModel),
        }
    }

    /// Flops lineage recovery re-runs when executor `r`'s task fails.
    fn task_flops(&self, h: &BspHarness, cfg: &TrainConfig, r: usize) -> f64 {
        match self {
            Update::SendGradient { .. } => pass_flops(h.part_nnz[r]) * cfg.batch_frac,
            Update::SendModel { .. } => pass_flops(h.part_nnz[r]),
        }
    }

    /// Driver flops under DriverTree: the average, plus the gradient step
    /// for SendGradient.
    fn driver_flops(&self, dim: usize) -> f64 {
        match self {
            Update::SendGradient { .. } => 2.0 * dense_op_flops(dim),
            Update::SendModel { .. } => dense_op_flops(dim),
        }
    }

    /// Folds the averaged vector `avg` into the global model.
    fn apply(&self, w: &mut DenseVector, mut avg: DenseVector, cfg: &TrainConfig, round: u64) {
        match self {
            Update::SendGradient { .. } => {
                cfg.reg.add_gradient(w, &mut avg);
                w.axpy(-cfg.lr.eta(round), &avg);
            }
            Update::SendModel { .. } => *w = avg,
        }
    }
}

impl RoundStrategy for BspStrategy {
    fn name(&self) -> &'static str {
        self.system.name()
    }

    fn weights(&self) -> &DenseVector {
        &self.w
    }

    fn into_weights(self) -> DenseVector {
        self.w
    }

    fn step(
        &mut self,
        ctx: &mut StepCtx,
        ds: &SparseDataset,
        cfg: &TrainConfig,
        round: u64,
    ) -> Option<u64> {
        let BspStrategy {
            h, w, update, comm, ..
        } = self;
        let k = h.k();
        let dim = ds.num_features();
        let nodes = match comm {
            Comm::DriverTree => &h.all_nodes,
            Comm::AllReduce { .. } => &h.exec_nodes,
        };
        let updates = ctx.round(nodes, |rd| {
            if let Comm::DriverTree = comm {
                rd.broadcast(&h.cost, dim);
            }
            let updates = update.local_work(rd, h, ds, cfg, w);
            rd.rb.barrier();
            rd.inject_failure(h, cfg, |r| update.task_flops(h, cfg, r));

            let avg = match comm {
                Comm::DriverTree => {
                    let (sent, activity) = update.sent();
                    let mut sum = rd.tree_aggregate(&h.cost, sent, cfg.tree_fanin, activity);
                    sum.scale(1.0 / k as f64);
                    let flops = update.driver_flops(dim);
                    rd.charge_flops(flops);
                    rd.rb.work(
                        NodeId::Driver,
                        Activity::DriverUpdate,
                        h.cost.driver_compute(flops),
                    );
                    sum
                }
                // With compression enabled, one all-to-all exchange of
                // sparse/quantized frames with error feedback; the dense
                // branch keeps the default bit-identical to the golden
                // traces.
                Comm::AllReduce { residuals } if cfg.compression.enabled() => rd
                    .compressed_all_reduce_average(
                        &h.cost,
                        update.sent().0,
                        &cfg.compression,
                        residuals,
                    ),
                Comm::AllReduce { .. } => rd.all_reduce_average(&h.cost, update.sent().0),
            };
            update.apply(w, avg, cfg, round);
            updates
        });
        Some(updates)
    }

    fn save_state(&self, w: &mut Writer) {
        // The gradient and local-model buffers are scratch: every round
        // clears or fully overwrites them before reading (local passes
        // seed them from the global model), so only the model, the
        // per-worker RNG streams and the lazy-reg counters carry across
        // rounds — plus, under AllReduce, the error-feedback residuals,
        // which hold un-shipped mass; a restore without them would change
        // the math.
        put_vector(w, &self.w);
        w.put_u64(self.h.k() as u64);
        match &self.update {
            Update::SendGradient { samplers, .. } => {
                for sampler in samplers {
                    w.put_bytes(&sampler.export_state());
                }
            }
            Update::SendModel {
                orders,
                update_counters,
                ..
            } => {
                for order in orders {
                    w.put_bytes(&order.export_state());
                }
                for &count in update_counters {
                    w.put_u64(count);
                }
            }
        }
        if let Comm::AllReduce { residuals } = &self.comm {
            w.put_u64(residuals.len() as u64);
            for res in residuals {
                put_vector(w, res);
            }
        }
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let k = self.h.k();
        self.w = read_vector(r, self.w.dim())?;
        let saved_k = r.u64()? as usize;
        if saved_k != k {
            return Err(CodecError::Corrupt(format!(
                "checkpoint has {saved_k} workers, run has {k}"
            )));
        }
        let corrupt = |what: &str| CodecError::Corrupt(format!("invalid {what} state"));
        match &mut self.update {
            Update::SendGradient { samplers, .. } => {
                for sampler in samplers {
                    *sampler = BatchSampler::restore_state(&read_rng_state(r)?)
                        .ok_or_else(|| corrupt("batch sampler"))?;
                }
            }
            Update::SendModel {
                orders,
                update_counters,
                ..
            } => {
                for order in orders {
                    *order = EpochOrder::restore_state(&read_rng_state(r)?)
                        .ok_or_else(|| corrupt("epoch order"))?;
                }
                for count in update_counters {
                    *count = r.u64()?;
                }
            }
        }
        if let Comm::AllReduce { residuals } = &mut self.comm {
            let count = r.u64()? as usize;
            if count != 0 && count != k {
                return Err(CodecError::Corrupt(format!(
                    "checkpoint has {count} error-feedback residuals, run has {k} workers"
                )));
            }
            *residuals = (0..count)
                .map(|_| read_vector(r, self.w.dim()))
                .collect::<Result<_, _>>()?;
        }
        Ok(())
    }

    fn host_threads(&self) -> usize {
        // Only SendModel's local passes run on host threads.
        match self.update {
            Update::SendGradient { .. } => 1,
            Update::SendModel { .. } => self.h.host_threads,
        }
    }
}

/// Trains preset `system`.
pub(crate) fn train(
    system: System,
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
) -> TrainOutput {
    assert!(!ds.is_empty(), "cannot train on an empty dataset");
    run_rounds(ds, cfg, BspStrategy::new(system, ds, cluster, cfg))
}

/// Trains with the MLlib baseline: SendGradient × DriverTree.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train_mllib(ds: &SparseDataset, cluster: &ClusterSpec, cfg: &TrainConfig) -> TrainOutput {
    train(System::Mllib, ds, cluster, cfg)
}

/// Trains with MLlib + model averaging: SendModel × DriverTree.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train_mllib_ma(ds: &SparseDataset, cluster: &ClusterSpec, cfg: &TrainConfig) -> TrainOutput {
    train(System::MllibMa, ds, cluster, cfg)
}

/// Trains with MLlib\*: SendModel × AllReduce.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train_mllib_star(
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
) -> TrainOutput {
    train(System::MllibStar, ds, cluster, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_collectives::{CompressionConfig, FrameSwitch, Sparsifier};
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::{LearningRate, Loss, Regularizer};

    fn tiny_ds() -> SparseDataset {
        let mut cfg = SyntheticConfig::small("bsp-test", 240, 30);
        cfg.margin_noise = 0.05;
        cfg.flip_prob = 0.0;
        cfg.generate()
    }

    /// Hinge loss, no regularizer; SendGradient gets a larger step and a
    /// longer budget than SendModel's full local passes.
    fn quick_cfg(system: System) -> TrainConfig {
        let base = TrainConfig {
            loss: Loss::Hinge,
            reg: Regularizer::None,
            ..TrainConfig::default()
        };
        match system {
            System::Mllib => TrainConfig {
                lr: LearningRate::Constant(0.5),
                batch_frac: 0.2,
                max_rounds: 60,
                ..base
            },
            _ => TrainConfig {
                lr: LearningRate::Constant(0.05),
                max_rounds: 15,
                ..base
            },
        }
    }

    fn run(system: System, cfg: &TrainConfig) -> TrainOutput {
        train(system, &tiny_ds(), &ClusterSpec::cluster1(), cfg)
    }

    fn rounds(system: System, max_rounds: u64) -> TrainConfig {
        TrainConfig {
            max_rounds,
            ..quick_cfg(system)
        }
    }

    fn residuals(strat: &BspStrategy) -> &[DenseVector] {
        match &strat.comm {
            Comm::AllReduce { residuals } => residuals,
            Comm::DriverTree => panic!("only AllReduce keeps residuals"),
        }
    }

    /// The adaptive dense/sparse frame switch under the given policy.
    fn compressed(
        sparsifier: Sparsifier,
        quantize: bool,
        error_feedback: bool,
    ) -> CompressionConfig {
        CompressionConfig {
            switch: FrameSwitch::Adaptive,
            sparsifier,
            quantize,
            error_feedback,
        }
    }

    #[test]
    fn every_preset_is_deterministic() {
        let threshold = TrainConfig {
            compression: compressed(Sparsifier::Threshold { tau: 1e-3 }, true, true),
            ..rounds(System::MllibStar, 5)
        };
        for (system, cfg) in [
            (System::Mllib, rounds(System::Mllib, 10)),
            (System::MllibMa, rounds(System::MllibMa, 5)),
            (System::MllibStar, rounds(System::MllibStar, 5)),
            (System::MllibStar, threshold),
        ] {
            let a = run(system, &cfg);
            let b = run(system, &cfg);
            assert_eq!(a.trace, b.trace, "{system}");
            let (wa, wb) = (a.model.weights(), b.model.weights());
            assert_eq!(wa.as_slice(), wb.as_slice(), "{system}");
        }
    }

    #[test]
    fn every_preset_reduces_the_objective() {
        // Lossy top-k with error feedback must preserve convergence.
        let top_k = TrainConfig {
            compression: compressed(Sparsifier::TopK { k: 8 }, true, true),
            ..quick_cfg(System::MllibStar)
        };
        for (system, cfg, factor) in [
            (System::Mllib, quick_cfg(System::Mllib), 0.7),
            (System::MllibMa, quick_cfg(System::MllibMa), 0.5),
            (System::MllibStar, quick_cfg(System::MllibStar), 0.5),
            (System::MllibStar, top_k, 0.6),
        ] {
            let out = run(system, &cfg);
            let first = out.trace.points.first().unwrap().objective;
            let best = out.trace.best_objective().unwrap();
            assert!(best < first * factor, "{system}: {first} → {best}");
        }
    }

    #[test]
    fn send_model_l2_runs_are_stable() {
        for system in [System::MllibMa, System::MllibStar] {
            let cfg = TrainConfig {
                reg: Regularizer::L2 { lambda: 0.1 },
                ..quick_cfg(system)
            };
            let f = run(system, &cfg).trace.final_objective().unwrap();
            assert!(f.is_finite() && f < 1.0, "{system}: objective {f}");
        }
    }

    #[test]
    fn gantt_and_round_stats_show_each_communication_pattern() {
        use Activity::*;
        type Acts = &'static [Activity];
        let n = tiny_ds().len() as u64;
        // (preset, rounds, updates per round, driver-centric, activities
        // present, activities absent). One update per SendGradient step,
        // one per local example per SendModel step; under DriverTree the
        // executors Wait while the driver works.
        let cases: [(System, u64, u64, bool, Acts, Acts); 3] = [
            (
                System::Mllib,
                4,
                1,
                true,
                &[Broadcast, SendGradient, TreeAggregate, DriverUpdate, Wait],
                &[ReduceScatter],
            ),
            (
                System::MllibMa,
                3,
                n,
                true,
                &[Broadcast, SendModel],
                &[SendGradient, ReduceScatter],
            ),
            (
                System::MllibStar,
                3,
                n,
                false,
                &[ReduceScatter, AllGather],
                &[Broadcast, TreeAggregate],
            ),
        ];
        for (system, max_rounds, updates, driver_tree, present, absent) in cases {
            let out = run(system, &rounds(system, max_rounds));
            let acts: Vec<Activity> = out.gantt.spans().iter().map(|s| s.activity).collect();
            for a in present {
                assert!(acts.contains(a), "{system} lacks {a:?}");
            }
            for a in absent {
                assert!(!acts.contains(a), "{system} has {a:?}");
            }
            let busy = out.gantt.busy_time(NodeId::Driver);
            assert_eq!(busy > 0.0, driver_tree, "{system}: driver busy {busy}");

            assert_eq!(out.round_stats.len() as u64, max_rounds, "{system}");
            assert_eq!(out.total_updates, updates * out.rounds_run, "{system}");
            for rs in &out.round_stats {
                let b = rs.bytes;
                assert_eq!(rs.updates, updates, "{system}");
                assert_eq!(b.broadcast > 0, driver_tree, "{system}: {rs:?}");
                assert_eq!(b.tree_aggregate > 0, driver_tree, "{system}: {rs:?}");
                assert_eq!(b.reduce_scatter > 0, !driver_tree, "{system}: {rs:?}");
                assert_eq!(b.all_gather > 0, !driver_tree, "{system}: {rs:?}");
                assert!(rs.flops > 0.0, "{system}");
                assert!(
                    (rs.phase_sum() - rs.elapsed_s).abs() < 1e-9,
                    "{system}: phases must tile the round: {rs:?}"
                );
            }
            // Rounds are laid end to end: per-round elapsed sums to the
            // final trace time.
            let total: f64 = out.round_stats.iter().map(|r| r.elapsed_s).sum();
            let end = out.trace.points.last().unwrap().time.as_secs_f64();
            assert!((total - end).abs() < 1e-6, "{system}: {total} vs {end}");
        }
    }

    #[test]
    fn only_send_model_reports_host_threads() {
        let ds = tiny_ds();
        for (system, reported) in [
            (System::Mllib, 1),
            (System::MllibMa, 4),
            (System::MllibStar, 4),
        ] {
            let mut strat =
                BspStrategy::new(system, &ds, &ClusterSpec::cluster1(), &quick_cfg(system));
            strat.h.host_threads = 4;
            assert_eq!(strat.host_threads(), reported, "{system}");
        }
    }

    #[test]
    fn mllib_target_stops_early() {
        let cfg = TrainConfig {
            target_objective: Some(0.9),
            max_rounds: 500,
            ..quick_cfg(System::Mllib)
        };
        let out = run(System::Mllib, &cfg);
        assert!(out.converged);
        assert!(out.rounds_run < 500);
        assert!(out.trace.final_objective().unwrap() <= 0.9);
    }

    #[test]
    fn mllib_eval_every_thins_the_trace() {
        let cfg = TrainConfig {
            eval_every: 5,
            ..rounds(System::Mllib, 10)
        };
        let out = run(System::Mllib, &cfg);
        // step 0, 5, 10.
        assert_eq!(out.trace.points.len(), 3);
        assert_eq!(out.trace.points[1].step, 5);
    }

    #[test]
    fn mllib_ma_converges_in_far_fewer_steps_than_mllib() {
        let target = 0.25;
        let ma_cfg = TrainConfig {
            target_objective: Some(target),
            max_rounds: 50,
            ..quick_cfg(System::MllibMa)
        };
        let ma = run(System::MllibMa, &ma_cfg);
        let gd_cfg = TrainConfig {
            lr: LearningRate::Constant(0.5),
            batch_frac: 0.1,
            target_objective: Some(target),
            max_rounds: 400,
            ..TrainConfig::default()
        };
        let gd = run(System::Mllib, &gd_cfg);
        let ma_steps = ma.trace.steps_to_reach(target).expect("MA reaches target");
        match gd.trace.steps_to_reach(target) {
            Some(gd_steps) => assert!(
                gd_steps > 3 * ma_steps,
                "SendModel should need far fewer steps: MA {ma_steps} vs MLlib {gd_steps}"
            ),
            None => { /* even stronger: MLlib never got there */ }
        }
    }

    #[test]
    fn mllib_star_same_step_curve_as_mllib_ma_but_faster_clock() {
        // AllReduce does not change the number of communication steps
        // (identical math/per-step updates to MLlib+MA given the same
        // seeds) but each step takes less simulated time. Few rounds and
        // a loose-ish tolerance: the two systems sum the same local models
        // in different orders (tree vs. slice-wise), and hinge SGD
        // amplifies ulp-level differences over long horizons.
        let cfg = rounds(System::MllibStar, 3);
        let star = run(System::MllibStar, &cfg);
        let ma = run(System::MllibMa, &cfg);
        for (a, b) in star.trace.points.iter().zip(ma.trace.points.iter()) {
            assert_eq!(a.step, b.step);
            assert!(
                (a.objective - b.objective).abs() < 1e-7,
                "step {}: {} vs {}",
                a.step,
                a.objective,
                b.objective
            );
        }
        let t_star = star.trace.points.last().unwrap().time.as_secs_f64();
        let t_ma = ma.trace.points.last().unwrap().time.as_secs_f64();
        assert!(t_star < t_ma, "MLlib* {t_star}s vs MLlib+MA {t_ma}s");
    }

    #[test]
    fn mllib_star_executors_stay_busy() {
        // The Figure 3c observation: utilization is high without driver
        // stalls.
        let out = run(System::MllibStar, &rounds(System::MllibStar, 5));
        for r in 0..8 {
            let u = out.gantt.utilization(NodeId::Executor(r));
            assert!(u > 0.5, "executor {r} utilization {u}");
        }
    }

    #[test]
    fn failure_injection_slows_the_clock_but_not_the_math() {
        let base = rounds(System::MllibStar, 6);
        let clean = run(System::MllibStar, &base);
        let faulty = run(
            System::MllibStar,
            &TrainConfig {
                failure_prob: 1.0,
                ..base
            },
        );
        // Lineage recovery re-executes work deterministically: identical
        // objective curves…
        for (a, b) in clean.trace.points.iter().zip(faulty.trace.points.iter()) {
            assert_eq!(a.objective, b.objective);
        }
        // …but the faulty run pays recompute time every round.
        let t_clean = clean.trace.points.last().unwrap().time;
        let t_faulty = faulty.trace.points.last().unwrap().time;
        assert!(t_faulty > t_clean, "{t_faulty} vs {t_clean}");
        // The extra time shows up as failure-recovery phase telemetry.
        assert!(clean.round_stats.iter().all(|r| r.recovery_s == 0.0));
        assert!(faulty.round_stats.iter().all(|r| r.recovery_s > 0.0));
    }

    fn lossless(base: TrainConfig) -> TrainConfig {
        TrainConfig {
            compression: compressed(Sparsifier::Exact, false, true),
            ..base
        }
    }

    #[test]
    fn lossless_compression_is_bit_identical_to_the_dense_path() {
        // With the Exact sparsifier and no quantization, the compressed
        // all-to-all folds the same values in the same worker order as
        // Reduce-Scatter + AllGather, so the entire run must match
        // bit-for-bit — only the byte accounting may differ.
        let cfg = TrainConfig {
            reg: Regularizer::L1 { lambda: 0.01 },
            ..rounds(System::MllibStar, 6)
        };
        let dense = run(System::MllibStar, &cfg);
        let compressed = run(System::MllibStar, &lossless(cfg));
        // Simulated *time* differs (one all-to-all phase instead of two
        // shuffle phases); every mathematical quantity must not.
        assert_eq!(dense.trace.points.len(), compressed.trace.points.len());
        for (a, b) in dense
            .trace
            .points
            .iter()
            .zip(compressed.trace.points.iter())
        {
            assert_eq!(a.step, b.step);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.total_updates, b.total_updates);
        }
        let bits = |out: &TrainOutput| -> Vec<u64> {
            let w = out.model.weights();
            w.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(
            bits(&dense),
            bits(&compressed),
            "model must be bit-identical under lossless compression"
        );
        assert_eq!(dense.total_updates, compressed.total_updates);
    }

    #[test]
    fn compression_books_actual_bytes_to_all_gather() {
        let out = run(System::MllibStar, &lossless(rounds(System::MllibStar, 3)));
        for rs in &out.round_stats {
            assert_eq!(
                rs.bytes.reduce_scatter, 0,
                "the compressed exchange has no Reduce-Scatter phase"
            );
            assert!(rs.bytes.all_gather > 0);
        }
    }

    #[test]
    fn checkpoint_roundtrips_error_feedback_residuals() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            compression: compressed(Sparsifier::TopK { k: 4 }, false, true),
            ..rounds(System::MllibStar, 4)
        };
        let strategy = || BspStrategy::new(System::MllibStar, &ds, &ClusterSpec::cluster1(), &cfg);
        let mut strat = strategy();
        let mut ctx = StepCtx::new(cfg.seed);
        strat.step(&mut ctx, &ds, &cfg, 0);
        strat.step(&mut ctx, &ds, &cfg, 1);
        assert!(
            residuals(&strat).iter().any(|r| r.norm1() > 0.0),
            "top-k should leave residual mass behind"
        );

        let mut w = Writer::new();
        strat.save_state(&mut w);
        let saved = w.into_payload();

        let mut fresh = strategy();
        let mut r = Reader::new(&saved);
        fresh.restore_state(&mut r).unwrap();
        assert_eq!(residuals(&fresh).len(), residuals(&strat).len());
        for (a, b) in residuals(&fresh).iter().zip(residuals(&strat)) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert_eq!(fresh.w.as_slice(), strat.w.as_slice());
    }

    #[test]
    fn weighted_averaging_equals_uniform_on_balanced_partitions() {
        let cfg = rounds(System::MllibStar, 3);
        let uniform = run(System::MllibStar, &cfg);
        let weighted = run(
            System::MllibStar,
            &TrainConfig {
                ma_weighting: MaWeighting::PartitionSize,
                ..cfg
            },
        );
        for (a, b) in uniform
            .trace
            .points
            .iter()
            .zip(weighted.trace.points.iter())
        {
            assert!(
                (a.objective - b.objective).abs() < 1e-9,
                "balanced partitions: weighting must be a no-op"
            );
        }
    }

    #[test]
    fn weighted_averaging_beats_uniform_on_skewed_partitions() {
        // With worker 0 owning 60% of the data, uniform averaging
        // over-weights the 7 small partitions' models; size-weighting
        // restores the correct estimator.
        let base = TrainConfig {
            partition_skew: Some(0.6),
            ..rounds(System::MllibStar, 10)
        };
        let uniform = run(System::MllibStar, &base);
        let weighted = run(
            System::MllibStar,
            &TrainConfig {
                ma_weighting: MaWeighting::PartitionSize,
                ..base
            },
        );
        let fu = uniform.trace.final_objective().unwrap();
        let fw = weighted.trace.final_objective().unwrap();
        assert!(
            fw <= fu + 1e-9,
            "weighting should not hurt on skewed partitions: uniform {fu} vs weighted {fw}"
        );
    }
}
