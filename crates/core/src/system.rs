//! Unified dispatch over the six systems.

use std::path::Path;

use mlstar_codec::CodecError;
use mlstar_data::{DatasetFingerprint, SparseDataset};
use mlstar_sim::ClusterSpec;

use crate::angel::train_angel_ckpt;
use crate::bsp::BspStrategy;
use crate::checkpoint::{config_digest, CheckpointState, PsCkptRun, TrainCheckpoint};
use crate::engine::{run_rounds_ckpt, CheckpointRun};
use crate::petuum::train_petuum_ckpt;
use crate::sparkml::SparkMlStrategy;
use crate::{
    train_angel, train_petuum, train_petuum_star, train_sparkml_lbfgs, AngelConfig,
    CheckpointError, PsSystemConfig, SparkMlConfig, TrainConfig, TrainOutput,
};

/// The six distributed training systems compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Spark MLlib: SendGradient + driver + treeAggregate.
    Mllib,
    /// MLlib + model averaging (driver-centric SendModel) — the Figure 3b
    /// intermediate.
    MllibMa,
    /// MLlib\*: model averaging + AllReduce.
    MllibStar,
    /// Petuum: PS + per-batch SendModel with model summation.
    Petuum,
    /// Petuum\*: Petuum with model averaging.
    PetuumStar,
    /// Angel: PS + per-epoch SendModel.
    Angel,
    /// `spark.ml`-style distributed L-BFGS (the paper's future-work
    /// second-order comparator).
    SparkMl,
}

impl System {
    /// All systems, in the paper's comparison order (plus the future-work
    /// L-BFGS comparator last).
    pub const ALL: [System; 7] = [
        System::Mllib,
        System::MllibMa,
        System::MllibStar,
        System::Petuum,
        System::PetuumStar,
        System::Angel,
        System::SparkMl,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            System::Mllib => "MLlib",
            System::MllibMa => "MLlib+MA",
            System::MllibStar => "MLlib*",
            System::Petuum => "Petuum",
            System::PetuumStar => "Petuum*",
            System::Angel => "Angel",
            System::SparkMl => "spark.ml(L-BFGS)",
        }
    }

    /// True for parameter-server systems.
    pub fn is_parameter_server(&self) -> bool {
        matches!(self, System::Petuum | System::PetuumStar | System::Angel)
    }

    /// Trains this system with explicit PS/Angel configuration.
    pub fn train(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
    ) -> TrainOutput {
        match self {
            System::Mllib | System::MllibMa | System::MllibStar => {
                crate::bsp::train(*self, ds, cluster, cfg)
            }
            System::Petuum => train_petuum(ds, cluster, cfg, ps),
            System::PetuumStar => train_petuum_star(ds, cluster, cfg, ps),
            System::Angel => train_angel(ds, cluster, cfg, angel),
            System::SparkMl => train_sparkml_lbfgs(ds, cluster, cfg, &SparkMlConfig::default()),
        }
    }

    /// Trains with default PS/Angel configuration.
    pub fn train_default(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
    ) -> TrainOutput {
        self.train(
            ds,
            cluster,
            cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
        )
    }

    /// Like [`System::train`], writing a [`TrainCheckpoint`] into `dir`
    /// every [`TrainConfig::checkpoint_every`] communication steps (BSP
    /// rounds, or PS global clocks for the parameter-server systems).
    /// With `checkpoint_every == 0` this is plain training plus an error
    /// type.
    ///
    /// Checkpoint files are named
    /// `<system-slug>-round-<round>.ckpt` (see [`checkpoint_path`]); a
    /// run that stops (converged/diverged) at a cadence round does not
    /// write, so every file on disk resumes into a run that keeps going.
    ///
    /// [`checkpoint_path`]: crate::checkpoint_path
    pub fn train_checkpointed(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
        dir: &Path,
    ) -> Result<TrainOutput, CheckpointError> {
        self.run_ckpt(ds, cluster, cfg, ps, angel, dir, None)
    }

    /// Resumes a run from `ckpt`, continuing to checkpoint into `dir`.
    ///
    /// The checkpoint must match this system, the offered `cfg` (by
    /// digest, ignoring the checkpoint cadence), and the dataset's
    /// fingerprint — anything else is an error, not a silent wrong
    /// answer. BSP checkpoints resume in place at their saved round; PS
    /// anchors resume by deterministic replay from clock 0, verified
    /// bit-exactly against the anchor
    /// ([`CheckpointError::ReplayDiverged`] otherwise).
    ///
    /// The contract (enforced by the crash-and-restore tests): the
    /// resumed [`TrainOutput`] is bit-identical — trace, round stats,
    /// Gantt spans, and final model — to the run that never stopped.
    #[allow(clippy::too_many_arguments)]
    pub fn resume(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
        dir: &Path,
        ckpt: TrainCheckpoint,
    ) -> Result<TrainOutput, CheckpointError> {
        if ckpt.system != self.name() {
            return Err(CheckpointError::WrongSystem {
                found: ckpt.system,
                expected: self.name().to_string(),
            });
        }
        let expected = config_digest(cfg);
        if ckpt.config_digest != expected {
            return Err(CheckpointError::ConfigMismatch {
                found: ckpt.config_digest,
                expected,
            });
        }
        if ckpt.fingerprint != DatasetFingerprint::of(ds) {
            return Err(CheckpointError::DatasetMismatch);
        }
        self.run_ckpt(ds, cluster, cfg, ps, angel, dir, Some(ckpt.state))
    }

    /// Shared dispatch for checkpointed training and resume.
    #[allow(clippy::too_many_arguments)]
    fn run_ckpt(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
        dir: &Path,
        state: Option<CheckpointState>,
    ) -> Result<TrainOutput, CheckpointError> {
        if self.is_parameter_server() {
            let verify = match state {
                Some(CheckpointState::PsAnchor(anchor)) => Some(anchor),
                Some(CheckpointState::Bsp(_)) => {
                    return Err(CheckpointError::Codec(CodecError::Corrupt(
                        "BSP checkpoint state offered to a parameter-server system".into(),
                    )))
                }
                None => None,
            };
            let run = PsCkptRun {
                dir: Some(dir),
                system: *self,
                verify,
            };
            return match self {
                System::Petuum => train_petuum_ckpt(ds, cluster, cfg, ps, false, Some(run)),
                System::PetuumStar => train_petuum_ckpt(ds, cluster, cfg, ps, true, Some(run)),
                System::Angel => train_angel_ckpt(ds, cluster, cfg, angel, Some(run)),
                _ => unreachable!("is_parameter_server covers exactly these variants"),
            };
        }

        let resume = match state {
            Some(CheckpointState::Bsp(bsp)) => Some(bsp),
            Some(CheckpointState::PsAnchor(_)) => {
                return Err(CheckpointError::Codec(CodecError::Corrupt(
                    "parameter-server anchor offered to a BSP system".into(),
                )))
            }
            None => None,
        };
        let run = CheckpointRun {
            dir,
            system: *self,
            resume,
        };
        assert!(!ds.is_empty(), "cannot train on an empty dataset");
        match self {
            System::Mllib | System::MllibMa | System::MllibStar => run_rounds_ckpt(
                ds,
                cfg,
                BspStrategy::new(*self, ds, cluster, cfg),
                Some(run),
            ),
            System::SparkMl => run_rounds_ckpt(
                ds,
                cfg,
                SparkMlStrategy::new(ds, cluster, cfg, &SparkMlConfig::default()),
                Some(run),
            ),
            _ => unreachable!("BSP branch covers exactly these variants"),
        }
    }
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for System {
    type Err = String;

    /// Parses both the paper's display names (`MLlib*`, `Petuum*`,
    /// `spark.ml(L-BFGS)`) and CLI-friendly slugs (`mllib-star`, `ma`,
    /// `lbfgs`), case-insensitively and ignoring `-`/`_`/`.`/spaces.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .chars()
            .filter(|c| !matches!(c, '-' | '_' | '.' | ' ' | '(' | ')'))
            .flat_map(char::to_lowercase)
            .collect();
        match norm.as_str() {
            "mllib" => Ok(System::Mllib),
            "mllibma" | "mllib+ma" | "ma" => Ok(System::MllibMa),
            "mllibstar" | "mllib*" | "star" => Ok(System::MllibStar),
            "petuum" => Ok(System::Petuum),
            "petuumstar" | "petuum*" => Ok(System::PetuumStar),
            "angel" => Ok(System::Angel),
            "sparkml" | "sparkmllbfgs" | "lbfgs" => Ok(System::SparkMl),
            _ => Err(format!(
                "unknown system '{s}' (expected one of: mllib, ma, star, petuum, \
                 petuum-star, angel, lbfgs)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::LearningRate;

    #[test]
    fn names_match_paper() {
        assert_eq!(System::Mllib.name(), "MLlib");
        assert_eq!(System::MllibStar.name(), "MLlib*");
        assert_eq!(System::PetuumStar.to_string(), "Petuum*");
        assert_eq!(System::SparkMl.name(), "spark.ml(L-BFGS)");
        assert_eq!(System::ALL.len(), 7);
    }

    #[test]
    fn display_roundtrips_through_fromstr_for_all_systems() {
        // The serving artifact stores provenance by Display name, so the
        // `Display` → `FromStr` round trip must hold for all 7 variants.
        for system in System::ALL {
            let shown = system.to_string();
            assert_eq!(shown, system.name(), "Display matches name()");
            assert_eq!(shown.parse::<System>(), Ok(system), "{shown}");
        }
    }

    #[test]
    fn parses_paper_names_and_slugs() {
        // CLI slugs.
        assert_eq!("mllib-star".parse::<System>(), Ok(System::MllibStar));
        assert_eq!("star".parse::<System>(), Ok(System::MllibStar));
        assert_eq!("MA".parse::<System>(), Ok(System::MllibMa));
        assert_eq!("petuum_star".parse::<System>(), Ok(System::PetuumStar));
        assert_eq!("lbfgs".parse::<System>(), Ok(System::SparkMl));
        assert_eq!("spark.ml".parse::<System>(), Ok(System::SparkMl));
        assert!("spark".parse::<System>().is_err());
        assert!("".parse::<System>().is_err());
    }

    #[test]
    fn ps_classification() {
        assert!(!System::Mllib.is_parameter_server());
        assert!(!System::MllibStar.is_parameter_server());
        assert!(System::Petuum.is_parameter_server());
        assert!(System::Angel.is_parameter_server());
        assert!(!System::SparkMl.is_parameter_server());
    }

    #[test]
    fn every_system_trains_end_to_end() {
        let ds = SyntheticConfig::small("dispatch", 160, 20).generate();
        let cluster = ClusterSpec::uniform(
            4,
            mlstar_sim::NodeSpec::standard(),
            mlstar_sim::NetworkSpec::gbps1(),
        );
        let cfg = TrainConfig {
            lr: LearningRate::Constant(0.02),
            max_rounds: 3,
            ..TrainConfig::default()
        };
        for system in System::ALL {
            let out = system.train_default(&ds, &cluster, &cfg);
            assert_eq!(out.trace.system, system.name());
            assert!(out.trace.points.len() >= 2, "{system} produced no points");
            let f = out.trace.final_objective().unwrap();
            assert!(f.is_finite(), "{system} diverged: {f}");
            assert!(out.total_updates > 0, "{system} did no updates");
        }
    }
}
