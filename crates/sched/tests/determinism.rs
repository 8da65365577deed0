//! Scheduler determinism: same seed + same trace ⇒ bit-identical
//! placement/migration telemetry, an empty fault schedule replays
//! bit-identically to the no-faults path, and both logs match golden
//! FNV-1a digests so a behaviour change across commits is caught too.
//!
//! The obs sink is process-global, so this file holds exactly **one**
//! test in its own integration-test binary. The replay loop itself holds
//! no `HashMap` (only vectors, two cursors and a heap, merged in one total
//! event order), so per-instance `RandomState` differences — fresh on
//! every `HashMap` this process creates — cannot perturb the log; running
//! the same scenario multiple times in one process exercises exactly that.

use std::sync::Arc;

use hecmix_core::persist::fnv1a;
use hecmix_core::profile::WorkloadModel;
use hecmix_core::types::Platform;
use hecmix_obs::JsonlSink;
use hecmix_queueing::dispatch::DiurnalProfile;
use hecmix_sched::job::{merge_streams, DiurnalTraceSpec};
use hecmix_sched::{synthesize_diurnal, JobSpec, Pool, SchedConfig, Scheduler};
use hecmix_sim::faults::FaultSchedule;

fn pool() -> Pool {
    let arm = Platform::reference_arm();
    let amd = Platform::reference_amd();
    let mk = |name: &str, i_arm: f64, i_amd: f64| {
        (
            name.to_owned(),
            vec![
                WorkloadModel::synthetic_cpu_bound(&arm, name, i_arm),
                WorkloadModel::synthetic_cpu_bound(&amd, name, i_amd),
            ],
        )
    };
    Pool::new(
        vec![mk("memcached", 60.0, 40.0), mk("julius", 30.0, 55.0)],
        vec![4, 3],
    )
    .unwrap()
}

fn trace(pool: &Pool, seed: u64) -> Vec<JobSpec> {
    let profile = DiurnalProfile {
        base_lambda: 0.08,
        amplitude: 0.7,
        slots: 24,
        slot_s: 30.0,
    };
    let streams: Vec<Vec<JobSpec>> = (0..pool.classes.len())
        .map(|w| {
            let peak = pool.classes[w].peak_rate();
            synthesize_diurnal(&DiurnalTraceSpec {
                workload: w,
                profile,
                days: 1,
                mean_size_units: 8.0 * peak,
                size_spread: 0.4,
                service_ref_s: 8.0,
                deadline_slack: (2.0, 6.0),
                seed: seed ^ (w as u64) << 32,
            })
            .unwrap()
        })
        .collect();
    merge_streams(&streams)
}

/// Run the scenario with a fresh JSONL sink and return the raw log bytes
/// plus the outcome.
fn logged_run(
    sched: &Scheduler,
    jobs: &[JobSpec],
    faults: Option<&FaultSchedule>,
    tag: &str,
) -> (Vec<u8>, hecmix_sched::SchedOutcome) {
    let dir = std::env::temp_dir().join(format!("hecmix-sched-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}.jsonl"));
    hecmix_obs::install(Arc::new(JsonlSink::create(&path).expect("sink")));
    let out = match faults {
        Some(f) => sched.run_faulted(jobs, f).expect("faulted run"),
        None => sched.run(jobs).expect("clean run"),
    };
    hecmix_obs::uninstall();
    let bytes = std::fs::read(&path).expect("log file");
    let _ = std::fs::remove_file(&path);
    (bytes, out)
}

#[test]
fn replay_is_bit_identical() {
    let pool = pool();
    let sched = Scheduler::new(
        pool.clone(),
        SchedConfig {
            alpha: 0.5,
            max_outstanding: 32,
            tick_s: 60.0,
            ..SchedConfig::default()
        },
    )
    .unwrap();
    let jobs = trace(&pool, 42);
    assert!(jobs.len() > 50, "trace too thin: {} jobs", jobs.len());
    let faults = FaultSchedule::random_crashes(7, &pool.counts, 2, 300.0)
        .straggler(0, 1, 120.0, 2.0)
        .power_cap(1, 0, 200.0, 1.0);

    // 1. Same seed + same trace + same faults ⇒ bit-identical JSONL log
    //    and outcome, across repeated in-process runs.
    let (log_a, out_a) = logged_run(&sched, &jobs, Some(&faults), "a");
    let (log_b, out_b) = logged_run(&sched, &jobs, Some(&faults), "b");
    assert!(!log_a.is_empty(), "telemetry must have been captured");
    assert_eq!(log_a, log_b, "faulted replay must be bit-identical");
    assert_eq!(out_a, out_b);
    assert!(out_a.migrations >= 1, "the fault schedule must bite");
    // Golden pins on both logs' bytes: a behaviour change across commits
    // shows here, not only a difference between runs.
    assert_eq!(
        (fnv1a(&log_a), log_a.len()),
        (0x356f_55cb_7d19_9162, 35_530),
        "faulted replay log drifted from its golden digest"
    );

    // 2. The fault push order is normalized: a permuted schedule vector
    //    replays the same log.
    let mut shuffled = faults.clone();
    shuffled.events.reverse();
    let (log_c, out_c) = logged_run(&sched, &jobs, Some(&shuffled), "c");
    assert_eq!(log_a, log_c, "schedule order must not matter");
    assert_eq!(out_a, out_c);

    // 3. Empty fault schedule ⇒ bit-identical to the no-faults path.
    let (log_plain, out_plain) = logged_run(&sched, &jobs, None, "plain");
    let empty = FaultSchedule::default();
    let (log_empty, out_empty) = logged_run(&sched, &jobs, Some(&empty), "empty");
    assert_eq!(
        log_plain, log_empty,
        "empty schedule must replay the no-faults path bit for bit"
    );
    assert_eq!(out_plain, out_empty);
    assert_eq!(out_plain.migrations, 0);
    assert_eq!(
        (fnv1a(&log_plain), log_plain.len()),
        (0x3bba_cf22_e7fe_89e7, 34_886),
        "clean replay log drifted from its golden digest"
    );

    // 4. Different seed ⇒ different stream ⇒ different log (sanity that
    //    the equality above is not vacuous).
    let other = trace(&pool, 43);
    let (log_d, _) = logged_run(&sched, &other, None, "d");
    assert_ne!(log_plain, log_d, "different traces must diverge");
}
