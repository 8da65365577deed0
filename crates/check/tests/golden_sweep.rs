//! Golden pins for the exhaustive reference sweep.
//!
//! Every pin is an FNV-1a digest over an ordered sweep output: each
//! point's `format!("{:?}", config)` followed by the little-endian bits of
//! its `time_s` and `energy_j`. A pin moves only if the enumeration order,
//! a configuration, or a single bit of an outcome changes.
//!
//! * `sweep_space` on the self-check reference scenario and on the
//!   paper's 10 + 10 EP space (36 380 points, §IV-B);
//! * the exhaustive frontier on eight seeded random DVFS ladders over a
//!   2 + 2 space, and on a big.LITTLE-shaped ladder.

use hecmix_core::config::ConfigSpace;
use hecmix_core::dvfs::{ActiveState, IdleState, NodeDvfs, OppLadder, PowerDomain};
use hecmix_core::pareto::{ParetoFrontier, ParetoPoint};
use hecmix_core::profile::WorkloadModel;
use hecmix_core::sweep::{sweep_frontier, sweep_space};
use hecmix_core::types::{Frequency, Platform};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a over `(config, time bits, energy bits)` of every point, in order.
fn digest(points: &[ParetoPoint]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in points {
        feed(format!("{:?}", p.config).as_bytes());
        feed(&p.time_s.to_bits().to_le_bytes());
        feed(&p.energy_j.to_bits().to_le_bytes());
    }
    h
}

fn space_digest(space: &ConfigSpace, models: &[WorkloadModel], w: f64) -> (usize, u64) {
    let points: Vec<ParetoPoint> = sweep_space(space, models, w)
        .expect("valid space")
        .iter()
        .map(|e| e.to_pareto_point())
        .collect();
    (points.len(), digest(&points))
}

fn frontier_digest(frontier: &ParetoFrontier) -> (usize, u64) {
    (frontier.points.len(), digest(&frontier.points))
}

#[test]
fn sweep_space_output_is_pinned() {
    let (space, models, w) = hecmix_check::reference_scenario();
    assert_eq!(
        space_digest(&space, &models, w),
        (2256, 0x3d55_6e15_143d_a264),
        "reference scenario"
    );

    let arm = Platform::reference_arm();
    let amd = Platform::reference_amd();
    let models = vec![
        WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
        WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
    ];
    let space = ConfigSpace::two_type(arm, 10, amd, 10);
    assert_eq!(
        space_digest(&space, &models, 5e7),
        (36_380, 0x030f_15c5_bdd5_5c46),
        "paper 10 + 10 EP space"
    );
}

/// `(seed, frontier points, digest)` of the exhaustive frontier over two
/// seeded random ladders on a 2 + 2 space.
const RANDOM_LADDER_PINS: [(u64, usize, u64); 8] = [
    (0, 4, 0x920d_f209_59cf_3039),
    (1, 3, 0x5b63_65a1_f009_7364),
    (2, 4, 0xa307_f026_4e1d_4f16),
    (3, 3, 0x0e79_305b_2242_84e4),
    (5, 6, 0x8132_0b4b_ba84_2374),
    (8, 3, 0x0d5a_004f_72c1_ae60),
    (13, 3, 0x4480_5e5d_33da_a946),
    (42, 3, 0x4f89_2c4c_106b_2206),
];

#[test]
fn exhaustive_frontier_on_random_ladders_is_pinned() {
    let arm = Platform::reference_arm();
    let amd = Platform::reference_amd();
    let space = ConfigSpace::two_type(arm.clone(), 2, amd.clone(), 2);
    let mut got = Vec::new();
    for &(seed, _, _) in &RANDOM_LADDER_PINS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let models = [
            WorkloadModel::synthetic_cpu_bound(&arm, "ladder-pin", 2.0e9)
                .with_dvfs(hecmix_check::oracles::random_node_dvfs(&mut rng)),
            WorkloadModel::synthetic_cpu_bound(&amd, "ladder-pin", 1.6e9)
                .with_dvfs(hecmix_check::oracles::random_node_dvfs(&mut rng)),
        ];
        let frontier = sweep_frontier(&space, &models, 1e6).expect("ladder sweep");
        let (len, h) = frontier_digest(&frontier);
        got.push((seed, len, h));
    }
    assert_eq!(got, RANDOM_LADDER_PINS.to_vec(), "{got:#x?}");
}

#[test]
fn exhaustive_frontier_on_big_little_ladder_is_pinned() {
    let ladder = OppLadder {
        states: vec![
            ActiveState {
                freq: Frequency::from_ghz(0.6),
                capacity: 178.0,
                power_w: 0.12,
                stall_w: 0.07,
            },
            ActiveState {
                freq: Frequency::from_ghz(1.0),
                capacity: 476.0,
                power_w: 0.33,
                stall_w: 0.2,
            },
            ActiveState {
                freq: Frequency::from_ghz(1.4),
                capacity: 1024.0,
                power_w: 0.8,
                stall_w: 0.48,
            },
        ],
        idle_states: vec![
            IdleState {
                name: "WFI".into(),
                power_w: 0.05,
                residency_s: 0.0,
            },
            IdleState {
                name: "core-sleep".into(),
                power_w: 0.01,
                residency_s: 2e-3,
            },
        ],
    };
    let domain = PowerDomain::cluster(
        "cluster0",
        1.0,
        0.2,
        0.05,
        vec![
            PowerDomain::leaf("core0", 0.5, 0.05, 1e-3),
            PowerDomain::leaf("core1", 0.5, 0.05, 1e-3),
        ],
    );
    let arm = Platform::reference_arm();
    let m =
        WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0).with_dvfs(NodeDvfs { ladder, domain });
    let models = [m.clone(), m];
    let space = ConfigSpace::two_type(arm.clone(), 2, arm, 2);
    let frontier = sweep_frontier(&space, &models, 1e6).expect("ladder sweep");
    assert_eq!(frontier_digest(&frontier), (1, 0xccc4_2e1e_1d79_619a));
}
