//! Cross-crate property tests: invariants of the model machinery under
//! randomized inputs.

use proptest::prelude::*;

use hecmix_core::config::{ClusterPoint, ConfigSpace, NodeConfig, TypeBounds};
use hecmix_core::mix_match::{evaluate, evaluate_split, mix_and_match};
use hecmix_core::pareto::{ParetoFrontier, ParetoPoint};
use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::Platform;

fn platforms() -> (Platform, Platform) {
    (Platform::reference_arm(), Platform::reference_amd())
}

fn models(i_ps_arm: f64, i_ps_amd: f64, io_bytes: f64) -> Vec<WorkloadModel> {
    let (arm, amd) = platforms();
    if io_bytes > 0.0 {
        vec![
            WorkloadModel::synthetic_io_bound(&arm, "w", i_ps_arm, io_bytes),
            WorkloadModel::synthetic_io_bound(&amd, "w", i_ps_amd, io_bytes),
        ]
    } else {
        vec![
            WorkloadModel::synthetic_cpu_bound(&arm, "w", i_ps_arm),
            WorkloadModel::synthetic_cpu_bound(&amd, "w", i_ps_amd),
        ]
    }
}

/// Strategy: a random valid two-type cluster point.
fn cluster_point() -> impl Strategy<Value = ClusterPoint> {
    let (arm, amd) = platforms();
    (
        proptest::option::of((1u32..=6, 1u32..=4, 0usize..5)),
        proptest::option::of((1u32..=4, 1u32..=6, 0usize..3)),
    )
        .prop_filter_map("at least one type used", move |(a, b)| {
            let arm_cfg = a.map(|(n, c, f)| NodeConfig::new(n, c, arm.freqs[f]));
            let amd_cfg = b.map(|(n, c, f)| NodeConfig::new(n, c, amd.freqs[f]));
            if arm_cfg.is_none() && amd_cfg.is_none() {
                None
            } else {
                Some(ClusterPoint::new(vec![arm_cfg, amd_cfg]))
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The matched split conserves work and equalizes the used types'
    /// finish times.
    #[test]
    fn mix_match_conserves_and_equalizes(
        point in cluster_point(),
        w in 1e3f64..1e9,
        i_arm in 10.0f64..500.0,
        i_amd in 10.0f64..500.0,
        io in prop_oneof![Just(0.0f64), 1.0f64..2000.0],
    ) {
        let models = models(i_arm, i_amd, io);
        let split = mix_and_match(&point, &models, w).unwrap();
        let total: f64 = split.shares.iter().sum();
        prop_assert!((total - w).abs() < 1e-6 * w);
        let times: Vec<f64> = split.per_type.iter().flatten().map(|t| t.total).collect();
        for t in &times {
            prop_assert!((t - split.time_s).abs() < 1e-9 * split.time_s.max(1e-12));
        }
        // Unused types get nothing.
        for (cfg, share) in point.per_type.iter().zip(&split.shares) {
            if cfg.is_none() {
                prop_assert_eq!(*share, 0.0);
            }
        }
    }

    /// No explicit split beats the matched one on time or energy.
    #[test]
    fn matching_is_optimal(
        point in cluster_point(),
        w in 1e4f64..1e8,
        frac in 0.0f64..=1.0,
    ) {
        prop_assume!(point.types_used() == 2);
        let models = models(120.0, 80.0, 0.0);
        let matched = evaluate(&point, &models, w).unwrap();
        let alt = evaluate_split(&point, &models, &[w * frac, w * (1.0 - frac)]).unwrap();
        prop_assert!(alt.time_s >= matched.time_s - 1e-9 * matched.time_s);
        prop_assert!(alt.energy_j >= matched.energy_j - 1e-6 * matched.energy_j);
    }

    /// Energy and time scale linearly with the job size.
    #[test]
    fn outcome_linear_in_work(
        point in cluster_point(),
        w in 1e4f64..1e7,
        k in 2.0f64..10.0,
    ) {
        let models = models(100.0, 60.0, 0.0);
        let one = evaluate(&point, &models, w).unwrap();
        let big = evaluate(&point, &models, w * k).unwrap();
        prop_assert!((big.time_s / one.time_s - k).abs() < 1e-6 * k);
        prop_assert!((big.energy_j / one.energy_j - k).abs() < 1e-6 * k);
    }

    /// Frontier invariants: sorted, strictly improving, subset-closed
    /// under merge, and idempotent.
    #[test]
    fn frontier_invariants(
        raw in proptest::collection::vec((1e-3f64..1e3, 1e-3f64..1e3), 1..200),
    ) {
        let (arm, _) = platforms();
        let pts: Vec<ParetoPoint> = raw
            .iter()
            .map(|&(t, e)| ParetoPoint {
                time_s: t,
                energy_j: e,
                config: ClusterPoint::new(vec![Some(NodeConfig::maxed(&arm, 1)), None]),
            })
            .collect();
        let frontier = ParetoFrontier::from_points(pts.clone());
        prop_assert!(!frontier.is_empty());
        // Sorted by time, strictly decreasing energy.
        for w in frontier.points.windows(2) {
            prop_assert!(w[0].time_s <= w[1].time_s);
            prop_assert!(w[0].energy_j > w[1].energy_j);
        }
        // No input point dominates a frontier point.
        for f in &frontier.points {
            for p in &pts {
                prop_assert!(!(p.time_s < f.time_s && p.energy_j < f.energy_j));
            }
        }
        // Idempotent.
        let again = ParetoFrontier::from_points(frontier.points.clone());
        prop_assert_eq!(&again, &frontier);
        // Merge with itself is itself.
        prop_assert_eq!(&frontier.merge(&frontier), &frontier);
    }

    /// Splitting a point set arbitrarily and merging per-part frontiers
    /// gives the frontier of the whole set (the divide-and-conquer the
    /// sweep relies on).
    #[test]
    fn frontier_merge_is_divide_and_conquer(
        raw in proptest::collection::vec((1e-3f64..1e3, 1e-3f64..1e3), 2..100),
        pivot in 1usize..99,
    ) {
        let (arm, _) = platforms();
        let mk = |slice: &[(f64, f64)]| {
            slice
                .iter()
                .map(|&(t, e)| ParetoPoint {
                    time_s: t,
                    energy_j: e,
                    config: ClusterPoint::new(vec![Some(NodeConfig::maxed(&arm, 1)), None]),
                })
                .collect::<Vec<_>>()
        };
        let cut = pivot.min(raw.len() - 1);
        let left = ParetoFrontier::from_points(mk(&raw[..cut]));
        let right = ParetoFrontier::from_points(mk(&raw[cut..]));
        let merged = left.merge(&right);
        let whole = ParetoFrontier::from_points(mk(&raw));
        prop_assert_eq!(merged, whole);
    }

    /// The dominance-pruned sweep reproduces the exhaustive frontier as an
    /// energy-per-deadline curve on random spaces and workloads.
    #[test]
    fn pruned_sweep_equals_exhaustive(
        max_arm in 1u32..4,
        max_amd in 1u32..3,
        i_arm in 20.0f64..400.0,
        i_amd in 20.0f64..400.0,
        io in prop_oneof![Just(0.0f64), 64.0f64..2048.0],
        w in 1e4f64..1e7,
    ) {
        use hecmix_core::rate_table::stream_frontier_pruned;
        use hecmix_core::sweep::sweep_frontier;
        let (arm, amd) = platforms();
        let space = ConfigSpace::new(vec![
            TypeBounds { platform: arm, max_nodes: max_arm },
            TypeBounds { platform: amd, max_nodes: max_amd },
        ]);
        let ms = models(i_arm, i_amd, io);
        let full = sweep_frontier(&space, &ms, w).unwrap();
        let (pruned, stats) = stream_frontier_pruned(&space, &ms, w).unwrap();
        prop_assert!(stats.evaluated_configs <= stats.full_space);
        for p in &full.points {
            let got = pruned.min_energy_for_deadline(p.time_s).unwrap();
            prop_assert!((got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j,
                "deadline {}: pruned {} vs full {}", p.time_s, got.energy_j, p.energy_j);
        }
        for p in &pruned.points {
            let got = full.min_energy_for_deadline(p.time_s).unwrap();
            prop_assert!(got.energy_j <= p.energy_j + 1e-9 * p.energy_j);
        }
    }

    /// Config-space size formula equals actual enumeration on random
    /// bounds.
    #[test]
    fn config_count_formula(max_arm in 1u32..5, max_amd in 1u32..4) {
        let (arm, amd) = platforms();
        let space = ConfigSpace::new(vec![
            TypeBounds { platform: arm, max_nodes: max_arm },
            TypeBounds { platform: amd, max_nodes: max_amd },
        ]);
        prop_assert_eq!(space.iter().count() as u64, space.count());
    }

    /// More nodes of a used type never slow the matched job down.
    #[test]
    fn more_nodes_never_slower(
        arm_nodes in 1u32..8,
        w in 1e5f64..1e8,
    ) {
        let (arm, _) = platforms();
        let models = models(100.0, 60.0, 0.0);
        let small = ClusterPoint::new(vec![Some(NodeConfig::maxed(&arm, arm_nodes)), None]);
        let big = ClusterPoint::new(vec![Some(NodeConfig::maxed(&arm, arm_nodes + 1)), None]);
        let t_small = evaluate(&small, &models, w).unwrap().time_s;
        let t_big = evaluate(&big, &models, w).unwrap().time_s;
        prop_assert!(t_big <= t_small * (1.0 + 1e-9));
    }
}
