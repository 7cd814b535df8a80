//! A compute backend that runs each worker op inline, on the calling
//! thread, through the same public `mlstar-glm` calls the simulated path
//! makes, with a span around the op and around the glm call inside it.
//! Installed with `mlstar_core::with_backend`, it splits a training call
//! into op time (`core.exec.*`, `glm.*`) and orchestrator time (the
//! call's self time) without touching the program's own code.

use std::rc::Rc;

use mlstar_core::{ComputeBackend, OpResult, TrainConfig, WorkerOp};
use mlstar_data::SparseDataset;
use mlstar_glm::{batch_gradient_into, sgd_epoch_lazy};
use mlstar_linalg::{DenseVector, ScaledVector};

use crate::trace::span;

pub struct InlineBackend {
    ds: Rc<SparseDataset>,
    cfg: TrainConfig,
    /// One reused model buffer per worker, as each real worker keeps.
    scratch: Vec<ScaledVector>,
}

impl InlineBackend {
    pub fn new(ds: Rc<SparseDataset>, cfg: &TrainConfig) -> Self {
        InlineBackend {
            ds,
            cfg: cfg.clone(),
            scratch: Vec::new(),
        }
    }

    fn execute(&mut self, worker: usize, op: WorkerOp) -> Result<OpResult, String> {
        let dim = self.ds.num_features();
        let (rows, labels) = (self.ds.rows(), self.ds.labels());
        match op {
            WorkerOp::SgdPass { w, order, t0 } => span("core.exec.SgdPass", || {
                let order: Vec<usize> = order.iter().map(|&i| i as usize).collect();
                while self.scratch.len() <= worker {
                    self.scratch.push(ScaledVector::zeros(dim));
                }
                let scratch = &mut self.scratch[worker];
                scratch.assign_dense(&w);
                let t = span("glm.sgd_epoch_lazy", || {
                    sgd_epoch_lazy(
                        self.cfg.loss,
                        self.cfg.reg,
                        scratch,
                        rows,
                        labels,
                        &order,
                        self.cfg.lr,
                        t0,
                    )
                });
                let mut out = DenseVector::zeros(dim);
                scratch.copy_into(&mut out);
                Ok(OpResult::Model { w: out, t })
            }),
            WorkerOp::BatchGrad { w, batch } => span("core.exec.BatchGrad", || {
                let batch: Vec<usize> = batch.iter().map(|&i| i as usize).collect();
                let mut g = DenseVector::zeros(dim);
                span("glm.batch_gradient_into", || {
                    batch_gradient_into(self.cfg.loss, &w, rows, labels, &batch, &mut g)
                });
                Ok(OpResult::Grad(g))
            }),
            other => Err(format!(
                "op {other:?} is not used by any benchmark workload"
            )),
        }
    }
}

impl ComputeBackend for InlineBackend {
    fn run_ops(&mut self, ops: Vec<(usize, WorkerOp)>) -> Result<Vec<OpResult>, String> {
        ops.into_iter()
            .map(|(worker, op)| self.execute(worker, op))
            .collect()
    }
}
