//! Integration tests for the beyond-the-paper extensions: model
//! persistence, the pruned sweep at paper scale, and the three-type lab.

use hecmix_core::config::ConfigSpace;
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::persist;
use hecmix_core::rate_table::stream_frontier_pruned;
use hecmix_core::sweep::{sweep_space, EvaluatedConfig};
use hecmix_experiments::lab::Lab;
use hecmix_workloads::ep::Ep;
use hecmix_workloads::memcached::Memcached;
use hecmix_workloads::Workload;

/// Characterized bundles survive a disk round trip bit-exactly, and the
/// reloaded bundle drives the model to identical predictions.
#[test]
fn characterized_models_roundtrip_through_disk() {
    let lab = Lab::new();
    let dir = std::env::temp_dir().join("hecmix-ext-test-models");
    std::fs::create_dir_all(&dir).unwrap();
    for w in [
        &Ep::class_a() as &dyn Workload,
        &Memcached::default() as &dyn Workload,
    ] {
        let models = lab.models(w);
        for (i, m) in models.iter().enumerate() {
            let path = dir.join(format!("{}-{i}.model", w.name()));
            persist::save(m, &path).unwrap();
            let back = persist::load(&path).unwrap();
            assert_eq!(&back, m, "{} bundle {i} mutated on disk", w.name());

            // Identical predictions from the reloaded bundle.
            use hecmix_core::config::NodeConfig;
            use hecmix_core::exec_time::ExecTimeModel;
            let cfg = NodeConfig::maxed(&m.platform, 3);
            let a = ExecTimeModel::new(m).predict(&cfg, 1e6);
            let b = ExecTimeModel::new(&back).predict(&cfg, 1e6);
            assert_eq!(a.total, b.total);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pruned sweep reproduces the full paper-scale frontier (36,380
/// configurations) as an energy-per-deadline curve, for both a CPU-bound
/// and an I/O-bound workload with *measured* (not synthetic) inputs.
#[test]
fn pruned_sweep_at_paper_scale() {
    let lab = Lab::new();
    for w in [
        &Ep::class_c() as &dyn Workload,
        &Memcached::default() as &dyn Workload,
    ] {
        let models = lab.models(w);
        let space =
            ConfigSpace::two_type(lab.arm.platform.clone(), 10, lab.amd.platform.clone(), 10);
        let units = w.analysis_units() as f64;
        let evaluated = sweep_space(&space, &models, units).unwrap();
        let full = ParetoFrontier::from_points(
            evaluated
                .iter()
                .map(EvaluatedConfig::to_pareto_point)
                .collect(),
        );
        let (pruned, stats) = stream_frontier_pruned(&space, &models, units).unwrap();
        assert_eq!(stats.full_space, 36_380);
        assert!(
            stats.evaluated_configs < 40_000 / 10,
            "{}: pruning too weak ({} evals)",
            w.name(),
            stats.evaluated_configs
        );
        for p in &full.points {
            let got = pruned.min_energy_for_deadline(p.time_s).unwrap();
            assert!(
                (got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j,
                "{} deadline {}: pruned {} vs full {}",
                w.name(),
                p.time_s,
                got.energy_j,
                p.energy_j
            );
        }
    }
}

/// The three-type lab produces valid, distinct characterizations for all
/// three archetypes.
#[test]
fn three_type_characterization_is_coherent() {
    let lab = Lab::new();
    let models = lab.models3(&Ep::class_a());
    assert_eq!(models.len(), 3);
    assert_eq!(models[0].platform.name, "ARM Cortex-A9");
    assert_eq!(models[1].platform.name, "ARM Cortex-A15");
    assert_eq!(models[2].platform.name, "AMD K10");
    for m in &models {
        m.validate().unwrap();
    }
    // Architectural ordering: per-unit instruction counts reflect the
    // ISAs (both ARM cores expand more than x86; the A15 executes the
    // same ARMv7 instruction stream as the A9 for this scalar workload).
    assert!(models[0].profile.i_ps > models[2].profile.i_ps);
    assert!(models[1].profile.i_ps > models[2].profile.i_ps);
    // Single-node EP rate ordering: A15 faster than A9, AMD fastest.
    use hecmix_core::config::NodeConfig;
    use hecmix_core::exec_time::ExecTimeModel;
    let rate = |m: &hecmix_core::profile::WorkloadModel| {
        ExecTimeModel::new(m).rate_units_per_s(&NodeConfig::maxed(&m.platform, 1))
    };
    let (a9, a15, amd) = (rate(&models[0]), rate(&models[1]), rate(&models[2]));
    assert!(a9 < a15, "A15 ({a15:.3e}) should out-run A9 ({a9:.3e})");
    assert!(a15 < amd, "AMD ({amd:.3e}) should out-run A15 ({a15:.3e})");
}
