//! Shared harness for the BSP (MLlib-family) trainers.

use mlstar_data::SparseDataset;
use mlstar_glm::{objective_value, Loss, Regularizer};
use mlstar_linalg::DenseVector;
use mlstar_sim::{ClusterSpec, CostModel, NodeId};

use crate::{system_partitions, System, TrainConfig};

/// Partitioned dataset + cost model + node lists for one BSP run.
pub(crate) struct BspHarness {
    /// The cost model over the cluster.
    pub cost: CostModel,
    /// Driver plus all executors (round participants for driver-centric
    /// patterns).
    pub all_nodes: Vec<NodeId>,
    /// Executors only (round participants for AllReduce).
    pub exec_nodes: Vec<NodeId>,
    /// Row indices owned by each executor.
    pub parts: Vec<Vec<usize>>,
    /// Total stored nonzeros per partition (drives compute cost).
    pub part_nnz: Vec<usize>,
    /// Host threads for local passes, read from `MLSTAR_HOST_THREADS`
    /// exactly once when the harness is built. Re-reading the environment
    /// every round would let a mid-run change of the variable silently
    /// alter the execution plan; capturing it here pins the whole run to
    /// one setting and lets provenance record it.
    pub host_threads: usize,
}

impl BspHarness {
    /// Builds the harness for `system`: rows are randomly shuffled across
    /// executors (the paper's footnote: data "need to be randomly shuffled
    /// and distributed across the workers") by [`system_partitions`],
    /// which also decides whether the hot-worker skew applies.
    pub fn new(
        system: System,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
    ) -> Self {
        let parts = system_partitions(system, ds, cluster, cfg);
        let part_nnz = parts
            .iter()
            .map(|p| p.iter().map(|&i| ds.rows()[i].nnz()).sum())
            .collect();
        let exec_nodes: Vec<NodeId> = (0..parts.len()).map(NodeId::Executor).collect();
        let mut all_nodes = vec![NodeId::Driver];
        all_nodes.extend(exec_nodes.iter().copied());
        BspHarness {
            cost: CostModel::new(cluster.clone()),
            all_nodes,
            exec_nodes,
            parts,
            part_nnz,
            host_threads: crate::local_pass::host_threads(),
        }
    }

    /// Number of executors.
    pub fn k(&self) -> usize {
        self.parts.len()
    }
}

/// Human-readable workload label for traces, e.g. `"n=74820 d=27343 L2=0.1"`
/// (comma-free so CSV rows stay parseable).
pub(crate) fn workload_label(ds: &SparseDataset, reg: Regularizer) -> String {
    format!("n={} d={} {}", ds.len(), ds.num_features(), reg.label())
}

/// Number of *distinct* feature coordinates appearing in each partition —
/// the volume of an Angel-style sparse pull.
pub(crate) fn partition_active_coords(ds: &SparseDataset, parts: &[Vec<usize>]) -> Vec<usize> {
    let mut seen = vec![false; ds.num_features()];
    let mut out = Vec::with_capacity(parts.len());
    for part in parts {
        let mut count = 0usize;
        for &row in part {
            for (j, _) in ds.rows()[row].iter() {
                if !seen[j] {
                    seen[j] = true;
                    count += 1;
                }
            }
        }
        out.push(count);
        // Clear only the marks we set (cheaper than refilling for sparse
        // partitions).
        for &row in part {
            for (j, _) in ds.rows()[row].iter() {
                seen[j] = false;
            }
        }
    }
    out
}

/// Objective on the full dataset (measurement only — never charged to
/// simulated time, matching the paper's offline evaluation of `f(w, X)`).
pub(crate) fn eval_objective(
    ds: &SparseDataset,
    loss: Loss,
    reg: Regularizer,
    w: &DenseVector,
) -> f64 {
    objective_value(loss, reg, w, ds.rows(), ds.labels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;

    /// The MLlib harness on the paper's 8-executor cluster.
    fn harness(ds: &SparseDataset, seed: u64) -> BspHarness {
        let cfg = TrainConfig {
            seed,
            ..TrainConfig::default()
        };
        BspHarness::new(System::Mllib, ds, &ClusterSpec::cluster1(), &cfg)
    }

    #[test]
    fn harness_partitions_every_row_once() {
        let ds = SyntheticConfig::small("h", 103, 20).generate();
        let h = harness(&ds, 5);
        assert_eq!(h.k(), 8);
        let mut all: Vec<usize> = h.parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        assert_eq!(h.all_nodes.len(), 9);
        assert_eq!(h.exec_nodes.len(), 8);
        let total_nnz: usize = h.part_nnz.iter().sum();
        assert_eq!(total_nnz, ds.total_nnz());
    }

    #[test]
    fn active_coords_counts_distinct_features() {
        use mlstar_linalg::SparseVector;
        let mut ds = SparseDataset::empty(6);
        ds.push(
            SparseVector::from_pairs(6, &[(0, 1.0), (2, 1.0)]).unwrap(),
            1.0,
        );
        ds.push(
            SparseVector::from_pairs(6, &[(2, 1.0), (3, 1.0)]).unwrap(),
            -1.0,
        );
        ds.push(SparseVector::from_pairs(6, &[(5, 1.0)]).unwrap(), 1.0);
        let parts = vec![vec![0, 1], vec![2], vec![]];
        let active = partition_active_coords(&ds, &parts);
        assert_eq!(active, vec![3, 1, 0]);
    }

    #[test]
    fn harness_is_seed_deterministic() {
        let ds = SyntheticConfig::small("h2", 50, 10).generate();
        let a = harness(&ds, 9);
        let b = harness(&ds, 9);
        assert_eq!(a.parts, b.parts);
        let c = harness(&ds, 10);
        assert_ne!(a.parts, c.parts);
    }
}
