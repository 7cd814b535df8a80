//! Pluggable compute backends: route per-worker math to real executors.
//!
//! Every trainer's per-round worker computation funnels through a handful
//! of choke points (`local_sgd_passes`, the batch-gradient loops, the PS
//! `WorkerLogic::compute` bodies). By default those run inline on the
//! caller's thread — the simulated path. Installing a [`ComputeBackend`]
//! with [`with_backend`] reroutes exactly the worker-local math through
//! [`WorkerOp`] descriptions instead, leaving everything else (RNG
//! streams, simulated clock, Gantt recording, aggregation order)
//! untouched on the calling thread.
//!
//! The contract that makes backend runs bit-identical to inline runs:
//!
//! * all randomness (epoch orders, batch sampling, straggler draws) is
//!   drawn on the orchestrating thread and shipped as explicit index
//!   lists — a backend never owns an RNG;
//! * each op names the exact sequence of `mlstar-glm` calls the inline
//!   path performs, including the `ScaledVector` entry points
//!   ([`WorkerOp::SgdPass`] via `assign_dense` vs. [`WorkerOp::SgdBatch`]
//!   via `from_dense`), so the executed float operations are the same
//!   instructions in the same order;
//! * `f64` payloads round-trip exactly through little-endian bytes, so a
//!   wire hop cannot perturb a single bit.
//!
//! A backend that loses a worker returns `Err`; the dispatch point
//! converts that into an [`ExecAbort`] unwind so the trainer stops
//! mid-round without writing partial state. Hosts (e.g. `mlstar-net`)
//! catch the unwind at the training boundary and surface their own typed
//! error.

use std::cell::RefCell;

use mlstar_data::{Partitioner, SparseDataset};
use mlstar_linalg::DenseVector;
use mlstar_sim::{ClusterSpec, SeedStream};

use crate::{System, TrainConfig};

/// One unit of worker-local computation, self-contained up to the
/// worker's assigned partition (row indices are global dataset indices).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerOp {
    /// One local SGD pass (MLlib\*/MLlib+MA): `assign_dense(w)` →
    /// `sgd_epoch_lazy` over `order` → `copy_into`. Returns
    /// [`OpResult::Model`] with the advanced update counter.
    SgdPass {
        /// Model at the start of the pass.
        w: DenseVector,
        /// Epoch visit order (global row indices, pre-shuffled by the
        /// orchestrator's RNG stream).
        order: Vec<u32>,
        /// Update counter at the start of the pass (learning-rate clock).
        t0: u64,
    },
    /// Parallel SGD over one sampled batch (Petuum, `Ω = 0`):
    /// `ScaledVector::from_dense(w)` → `sgd_epoch_lazy` over `batch` →
    /// `into_dense`. Returns [`OpResult::Model`].
    SgdBatch {
        /// Model at the start of the batch.
        w: DenseVector,
        /// Sampled batch (global row indices, orchestrator-drawn).
        batch: Vec<u32>,
        /// Update counter at the start of the batch.
        t0: u64,
    },
    /// Average loss gradient over the worker's whole partition
    /// (spark.ml). Returns [`OpResult::Grad`] (unscaled; the caller
    /// applies the partition weight).
    PartitionGrad {
        /// Model to differentiate at.
        w: DenseVector,
    },
    /// Average loss gradient over a sampled batch (MLlib SendGradient).
    /// Returns [`OpResult::Grad`].
    BatchGrad {
        /// Model to differentiate at.
        w: DenseVector,
        /// Sampled batch (global row indices).
        batch: Vec<u32>,
    },
    /// One dense mini-batch GD step (Petuum, `Ω ≠ 0`): a single
    /// `mgd_step` at the given step size. Returns [`OpResult::Model`]
    /// (counter advanced by one).
    MgdStep {
        /// Model at the start of the step.
        w: DenseVector,
        /// The batch for this step (global row indices).
        batch: Vec<u32>,
        /// Step size `η` (the orchestrator evaluates the schedule).
        eta: f64,
    },
    /// One local epoch of per-batch GD steps (Angel): `mgd_step` per
    /// `batch_size` chunk of `order`, with `η = lr(t)` advancing per
    /// chunk. Returns [`OpResult::Model`] with the advanced counter.
    MgdEpoch {
        /// Model at the start of the epoch.
        w: DenseVector,
        /// Epoch visit order (global row indices).
        order: Vec<u32>,
        /// Rows per GD step.
        batch_size: u32,
        /// Update counter at the start of the epoch.
        t0: u64,
    },
    /// Loss-only objective over the worker's whole partition (spark.ml
    /// line search; no regularizer term). Returns [`OpResult::Value`].
    PartitionObjective {
        /// Model to evaluate at.
        w: DenseVector,
    },
}

/// The result of one [`WorkerOp`], in the same order as submitted.
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    /// A new local model plus the advanced update counter.
    Model {
        /// The worker-local model after the op.
        w: DenseVector,
        /// The update counter after the op.
        t: u64,
    },
    /// A gradient vector.
    Grad(DenseVector),
    /// A scalar (objective value).
    Value(f64),
}

/// Executes batches of worker ops, one entry per `(worker, op)` pair,
/// returning results in submission order.
///
/// `Err` means the batch could not complete (e.g. a worker died); the
/// dispatcher converts it into an [`ExecAbort`] unwind, so implementors
/// should record any richer error state on their own side before
/// returning.
pub trait ComputeBackend {
    /// Runs every op (possibly concurrently across workers) and returns
    /// one result per op, in the order given.
    fn run_ops(&mut self, ops: Vec<(usize, WorkerOp)>) -> Result<Vec<OpResult>, String>;
}

/// The unwind payload raised when a backend fails mid-round. Hosts catch
/// this at the training boundary (`std::panic::catch_unwind`) and map it
/// to their own typed error.
#[derive(Debug)]
pub struct ExecAbort(pub String);

thread_local! {
    static BACKEND: RefCell<Option<Box<dyn ComputeBackend>>> = const { RefCell::new(None) };
}

/// Runs `f` with `backend` installed as this thread's compute backend.
/// The backend is removed when `f` returns *or unwinds*, so a poisoned
/// backend can never leak into a later training run on the same thread.
///
/// # Panics
///
/// Panics if a backend is already installed on this thread (backends do
/// not nest).
pub fn with_backend<T>(backend: Box<dyn ComputeBackend>, f: impl FnOnce() -> T) -> T {
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            BACKEND.with(|b| *b.borrow_mut() = None);
        }
    }
    BACKEND.with(|b| {
        let mut slot = b.borrow_mut();
        assert!(
            slot.is_none(),
            "a compute backend is already installed on this thread"
        );
        *slot = Some(backend);
    });
    let _uninstall = Uninstall;
    f()
}

/// Whether a backend is installed on this thread (i.e. worker math must
/// be dispatched rather than run inline).
pub(crate) fn backend_active() -> bool {
    BACKEND.with(|b| b.borrow().is_some())
}

/// Sends one batch of ops to the installed backend.
///
/// # Panics
///
/// Raises [`ExecAbort`] (via `panic_any`) if the backend reports failure
/// — the one panic in this crate that is a control-flow signal, caught by
/// the backend host. Panics normally if no backend is installed.
pub(crate) fn dispatch(ops: Vec<(usize, WorkerOp)>) -> Vec<OpResult> {
    let outcome = BACKEND.with(|b| {
        let mut slot = b.borrow_mut();
        let backend = slot
            .as_mut()
            // lint:allow(panic_in_lib): dispatch without an installed
            // backend is an internal wiring bug, not a recoverable state.
            .expect("exec::dispatch called with no backend installed");
        backend.run_ops(ops)
    });
    match outcome {
        Ok(results) => results,
        // Deliberate typed unwind — the backend host catches ExecAbort
        // at the training boundary and converts it to a typed error.
        Err(why) => std::panic::panic_any(ExecAbort(why)),
    }
}

/// Pulls the single reply out of a one-op dispatch.
pub(crate) fn expect_single(res: Vec<OpResult>) -> OpResult {
    let mut it = res.into_iter();
    match (it.next(), it.next()) {
        (Some(r), None) => r,
        _ => panic!("backend contract: exactly one reply per submitted op"),
    }
}

/// Converts global row indices to the wire-width `u32` form ops carry.
pub(crate) fn to_wire_indices(idx: &[usize]) -> Vec<u32> {
    idx.iter()
        // lint:allow(panic_in_lib): dataset row counts are bounded far
        // below u32::MAX by construction; exceeding the wire width is a bug.
        .map(|&i| u32::try_from(i).expect("row index exceeds wire width"))
        .collect()
}

/// Unwraps an [`OpResult::Model`].
pub(crate) fn expect_model(res: OpResult) -> (DenseVector, u64) {
    match res {
        OpResult::Model { w, t } => (w, t),
        other => panic!("backend returned {other:?}, expected Model"),
    }
}

/// Unwraps an [`OpResult::Grad`].
pub(crate) fn expect_grad(res: OpResult) -> DenseVector {
    match res {
        OpResult::Grad(g) => g,
        other => panic!("backend returned {other:?}, expected Grad"),
    }
}

/// Unwraps an [`OpResult::Value`].
pub(crate) fn expect_value(res: OpResult) -> f64 {
    match res {
        OpResult::Value(v) => v,
        other => panic!("backend returned {other:?}, expected Value"),
    }
}

/// The exact row partition `system` assigns to each of the cluster's
/// executors — what a backend host must ship to worker `r` so that op row
/// indices resolve. Every trainer partitions through this one function.
/// Only the SendModel presets (MLlib+MA, MLlib\*) honour
/// [`TrainConfig::partition_skew`]; every other system shuffles uniformly.
pub fn system_partitions(
    system: System,
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
) -> Vec<Vec<usize>> {
    let seed = SeedStream::new(cfg.seed).child("partition").seed();
    let partitioner = match crate::bsp::partition_skew(system, cfg) {
        Some(hot_fraction) => Partitioner::SkewedShuffled { seed, hot_fraction },
        None => Partitioner::Shuffled { seed },
    };
    partitioner.partition(ds.len(), cluster.num_executors())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo backend: returns the model unchanged — enough to prove the
    /// install/uninstall lifecycle.
    struct Echo;
    impl ComputeBackend for Echo {
        fn run_ops(&mut self, ops: Vec<(usize, WorkerOp)>) -> Result<Vec<OpResult>, String> {
            Ok(ops
                .into_iter()
                .map(|(_, op)| match op {
                    WorkerOp::SgdPass { w, order, t0 } => OpResult::Model {
                        w,
                        t: t0 + order.len() as u64,
                    },
                    _ => OpResult::Value(0.0),
                })
                .collect())
        }
    }

    struct Failing;
    impl ComputeBackend for Failing {
        fn run_ops(&mut self, _ops: Vec<(usize, WorkerOp)>) -> Result<Vec<OpResult>, String> {
            Err("worker 1 lost".into())
        }
    }

    #[test]
    fn backend_installs_and_uninstalls() {
        assert!(!backend_active());
        with_backend(Box::new(Echo), || {
            assert!(backend_active());
        });
        assert!(!backend_active());
    }

    #[test]
    fn backend_uninstalls_on_unwind() {
        let caught = std::panic::catch_unwind(|| {
            with_backend(Box::new(Echo), || panic!("boom"));
        });
        assert!(caught.is_err());
        assert!(!backend_active());
    }

    #[test]
    fn failed_dispatch_raises_exec_abort() {
        let caught = std::panic::catch_unwind(|| {
            with_backend(Box::new(Failing), || {
                dispatch(vec![(
                    0,
                    WorkerOp::PartitionObjective {
                        w: DenseVector::zeros(2),
                    },
                )]);
            });
        });
        let payload = caught.expect_err("dispatch must unwind");
        let abort = payload
            .downcast::<ExecAbort>()
            .expect("payload must be ExecAbort");
        assert_eq!(abort.0, "worker 1 lost");
        assert!(!backend_active());
    }

    #[test]
    fn partitions_match_the_trainers() {
        use crate::common::BspHarness;
        use mlstar_data::SyntheticConfig;
        let ds = SyntheticConfig::small("exec-parts", 60, 8).generate();
        let cluster = ClusterSpec::cluster1();
        let cfg = TrainConfig {
            partition_skew: Some(0.6),
            ..TrainConfig::default()
        };
        let uniform = system_partitions(System::Mllib, &ds, &cluster, &TrainConfig::default());
        for system in System::ALL {
            let parts = system_partitions(system, &ds, &cluster, &cfg);
            assert_eq!(parts.len(), 8);
            let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..60).collect::<Vec<_>>(), "{system:?}");
            // Only the SendModel presets honour the hot-worker skew.
            let skewed = matches!(system, System::MllibMa | System::MllibStar);
            assert_eq!(parts != uniform, skewed, "{system:?}");
            if !system.is_parameter_server() {
                let h = BspHarness::new(system, &ds, &cluster, &cfg);
                assert_eq!(h.parts, parts, "{system:?}");
            }
        }
    }
}
