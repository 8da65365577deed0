//! Parallel evaluation of configuration spaces.
//!
//! The paper's analysis evaluates every point of the configuration space —
//! 36,380 points for 10 ARM + 10 AMD nodes, millions for the 128-node
//! power-budget studies — and then derives the Pareto frontier. Each point
//! is independent (one mix-and-match solve plus the time/energy equations),
//! which is exactly the data-parallel shape rayon is built for.
//!
//! Two tiers of machinery live here and in [`crate::rate_table`]:
//!
//! * [`sweep_space`] / [`sweep_frontier`] — the *exhaustive reference
//!   path*: every point, legacy or DVFS-ladder, gets the full
//!   [`ClusterOutcome`] (shares, per-type breakdowns). Use it for reports,
//!   scatter plots, and validation.
//! * [`crate::rate_table::stream_frontier`] and
//!   [`crate::rate_table::stream_frontier_pruned`] — the *streaming
//!   production path*: per-type `(r, b)` rate tables are
//!   precomputed once, every configuration folds through a lean
//!   time/energy kernel, and only partial Pareto frontiers are ever held
//!   in memory. Equivalent to the reference path on the energy–deadline
//!   plane (property-tested to 1e-9), and orders of magnitude faster.

use rayon::prelude::*;

use crate::config::{ClusterPoint, ConfigSpace, SpaceIter};
use crate::error::Result;
use crate::mix_match::{evaluate, ClusterOutcome};
use crate::pareto::{ParetoFrontier, ParetoPoint};
use crate::profile::WorkloadModel;

/// One evaluated configuration: the point plus its outcome.
#[derive(Debug, Clone)]
pub struct EvaluatedConfig {
    /// The configuration.
    pub config: ClusterPoint,
    /// Its matched time/energy outcome.
    pub outcome: ClusterOutcome,
}

impl EvaluatedConfig {
    /// Project onto the energy–deadline plane.
    #[must_use]
    pub fn to_pareto_point(&self) -> ParetoPoint {
        ParetoPoint {
            time_s: self.outcome.time_s,
            energy_j: self.outcome.energy_j,
            config: self.config.clone(),
        }
    }
}

/// Evaluate every configuration of `space` for a job of `w_units`,
/// in parallel. The model bundles must be in the same type order as the
/// space; a type whose model carries a DVFS ladder sweeps its OPPs, and
/// the `k`-th point is flat index `k` of
/// [`crate::rate_table::RateTable::build`]. Each point goes through the
/// full [`evaluate`], not the rate-table kernel, so this stays an
/// independent reference for it. Individual evaluation errors abort the
/// sweep (they indicate a mis-built space, not a data condition).
pub fn sweep_space(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Result<Vec<EvaluatedConfig>> {
    crate::rate_table::check_space(space)?;
    crate::rate_table::validate_work(w_units)?;
    // Enumerate lazily but collect points first so rayon can split the
    // workload evenly; a ClusterPoint is a few dozen bytes.
    let points: Vec<ClusterPoint> = SpaceIter::new(space.model_options(models)?).collect();
    points
        .into_par_iter()
        .map(|config| {
            let outcome = evaluate(&config, models, w_units)?;
            Ok(EvaluatedConfig { config, outcome })
        })
        .collect()
}

/// Evaluate a space and derive its Pareto frontier in one step.
pub fn sweep_frontier(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Result<ParetoFrontier> {
    let evaluated = sweep_space(space, models, w_units)?;
    Ok(ParetoFrontier::from_points(
        evaluated
            .iter()
            .map(EvaluatedConfig::to_pareto_point)
            .collect(),
    ))
}

/// Restrict evaluated configurations to those using *only* the given type
/// index (the paper's "ARM-only" / "AMD-only" comparison curves), and
/// return their frontier.
#[must_use]
pub fn homogeneous_frontier(evaluated: &[EvaluatedConfig], type_idx: usize) -> ParetoFrontier {
    ParetoFrontier::from_points(
        evaluated
            .iter()
            .filter(|e| e.config.per_type[type_idx].is_some() && e.config.types_used() == 1)
            .map(EvaluatedConfig::to_pareto_point)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate_table::stream_frontier_pruned;
    use crate::types::Platform;

    fn setup() -> (ConfigSpace, Vec<WorkloadModel>) {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let space = ConfigSpace::two_type(arm.clone(), 3, amd.clone(), 2);
        let models = vec![
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
        ];
        (space, models)
    }

    #[test]
    fn sweep_covers_whole_space() {
        let (space, models) = setup();
        let evaluated = sweep_space(&space, &models, 1e6).unwrap();
        assert_eq!(evaluated.len() as u64, space.count());
        assert!(evaluated
            .iter()
            .all(|e| e.outcome.time_s > 0.0 && e.outcome.energy_j > 0.0));
    }

    #[test]
    fn frontier_is_subset_and_non_dominated() {
        let (space, models) = setup();
        let evaluated = sweep_space(&space, &models, 1e6).unwrap();
        let frontier = sweep_frontier(&space, &models, 1e6).unwrap();
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= evaluated.len());
        // No evaluated point strictly dominates a frontier point.
        for fp in &frontier.points {
            for e in &evaluated {
                let p = e.to_pareto_point();
                assert!(
                    !(p.time_s < fp.time_s && p.energy_j < fp.energy_j),
                    "frontier point dominated"
                );
            }
        }
    }

    #[test]
    fn homogeneous_frontier_filters_types() {
        let (space, models) = setup();
        let evaluated = sweep_space(&space, &models, 1e6).unwrap();
        let arm_only = homogeneous_frontier(&evaluated, 0);
        assert!(!arm_only.is_empty());
        assert!(arm_only
            .points
            .iter()
            .all(|p| p.config.per_type[0].is_some() && p.config.per_type[1].is_none()));
        let amd_only = homogeneous_frontier(&evaluated, 1);
        assert!(amd_only
            .points
            .iter()
            .all(|p| p.config.per_type[1].is_some() && p.config.per_type[0].is_none()));
    }

    #[test]
    fn full_frontier_never_worse_than_homogeneous() {
        // Heterogeneity can only help: for any deadline met by a
        // homogeneous config, the full frontier meets it with at most the
        // same energy.
        let (space, models) = setup();
        let evaluated = sweep_space(&space, &models, 1e6).unwrap();
        let full = ParetoFrontier::from_points(
            evaluated
                .iter()
                .map(EvaluatedConfig::to_pareto_point)
                .collect(),
        );
        for type_idx in [0, 1] {
            let homo = homogeneous_frontier(&evaluated, type_idx);
            for hp in &homo.points {
                let best = full.min_energy_for_deadline(hp.time_s).unwrap();
                assert!(best.energy_j <= hp.energy_j + 1e-9);
            }
        }
    }

    #[test]
    fn pruned_frontier_matches_exhaustive() {
        let (space, models) = setup();
        let full = sweep_frontier(&space, &models, 1e6).unwrap();
        let (pruned, stats) = stream_frontier_pruned(&space, &models, 1e6).unwrap();
        // Pruning must actually prune...
        assert!(stats.evaluated_configs < stats.full_space / 2, "{stats:?}");
        assert!(stats.kept_options < stats.total_options);
        // ...and preserve the frontier as an energy-per-deadline curve.
        for p in &full.points {
            let got = pruned
                .min_energy_for_deadline(p.time_s)
                .expect("deadline feasible");
            assert!(
                (got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j,
                "deadline {}: pruned {} vs full {}",
                p.time_s,
                got.energy_j,
                p.energy_j
            );
        }
        // And the reverse: the pruned frontier never invents better points.
        for p in &pruned.points {
            let got = full
                .min_energy_for_deadline(p.time_s)
                .expect("deadline feasible");
            assert!(got.energy_j <= p.energy_j + 1e-9 * p.energy_j);
        }
    }

    #[test]
    fn pruned_frontier_io_bound_and_three_types() {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        // I/O-bound workload with a third type (another ARM pool).
        let space = ConfigSpace::new(vec![
            crate::config::TypeBounds {
                platform: arm.clone(),
                max_nodes: 2,
            },
            crate::config::TypeBounds {
                platform: amd.clone(),
                max_nodes: 2,
            },
            crate::config::TypeBounds {
                platform: arm.clone(),
                max_nodes: 1,
            },
        ]);
        let models = vec![
            WorkloadModel::synthetic_io_bound(&arm, "kv", 1000.0, 512.0),
            WorkloadModel::synthetic_io_bound(&amd, "kv", 700.0, 512.0),
            WorkloadModel::synthetic_io_bound(&arm, "kv", 1000.0, 512.0),
        ];
        let full = sweep_frontier(&space, &models, 5e4).unwrap();
        let (pruned, stats) = stream_frontier_pruned(&space, &models, 5e4).unwrap();
        assert!(stats.evaluated_configs < stats.full_space);
        for p in &full.points {
            let got = pruned.min_energy_for_deadline(p.time_s).unwrap();
            assert!((got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j);
        }
    }

    #[test]
    fn empty_space_and_bad_work_are_rejected_like_the_streaming_path() {
        let (space, models) = setup();
        let empty = ConfigSpace::new(vec![]);
        assert!(sweep_space(&empty, &models, 1e6).is_err());
        assert!(sweep_frontier(&empty, &models, 1e6).is_err());
        assert!(sweep_space(&space, &models, 0.0).is_err());
        assert!(sweep_space(&space, &models, f64::NAN).is_err());
    }
}
