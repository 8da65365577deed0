//! Observability acceptance test (ISSUE 3): a faulted cluster run with the
//! JSONL sink installed must emit a crash/heartbeat/redistribution event
//! stream whose replayed work totals match the run's measurement exactly.
//!
//! The sink registry is process-global, so this binary holds exactly one
//! test: installing a sink from several `#[test]` functions in the same
//! process would race.

use std::sync::Arc;

use hecmix_obs::json::{self, Value};

use hecmix_sim::{
    reference_amd_arch, reference_arm_arch, run_cluster_faulted, ClusterSpec, FaultSchedule,
    RecoveryPolicy, TypeAssignment, UnitDemand, WorkloadTrace,
};

fn demand() -> UnitDemand {
    UnitDemand {
        int_ops: 50.0,
        fp_ops: 20.0,
        simd_ops: 0.0,
        wide_mul_ops: 0.0,
        mem_ops: 10.0,
        llc_miss_rate: 0.01,
        branch_ops: 5.0,
        branch_miss_rate: 0.02,
        io_bytes: 200.0,
    }
}

/// A small heterogeneous cluster: 2 ARM + 1 AMD, split 2:1.
fn small_cluster(units: u64, seed: u64) -> ClusterSpec {
    let arm = reference_arm_arch();
    let amd = reference_amd_arch();
    ClusterSpec {
        trace: WorkloadTrace::batch("faulty", demand()),
        assignments: vec![
            TypeAssignment {
                arch: arm.clone(),
                nodes: 2,
                cores: 4,
                freq: arm.platform.fmax(),
                units: units / 3 * 2,
            },
            TypeAssignment {
                arch: amd.clone(),
                nodes: 1,
                cores: 6,
                freq: amd.platform.fmax(),
                units: units - units / 3 * 2,
            },
        ],
        seed,
    }
}

fn num_field(record: &Value, field: &str) -> f64 {
    record
        .get(field)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("field {field:?} missing or not a number in {record:?}"))
}

fn u64_field(record: &Value, field: &str) -> u64 {
    record
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("field {field:?} missing or not a u64 in {record:?}"))
}

/// The record's `"kind"` tag, which the encoder writes as the first key.
fn kind_of(record: &Value) -> &str {
    match record {
        Value::Object(fields) => match fields.first() {
            Some((key, Value::Str(kind))) if key == "kind" => kind,
            _ => panic!("record does not start with a kind tag: {record:?}"),
        },
        _ => panic!("not a JSON object: {record:?}"),
    }
}

#[test]
fn jsonl_trace_of_faulted_run_replays_to_exact_totals() {
    let spec = small_cluster(24_000, 7);
    let total_units: u64 = spec.assignments.iter().map(|a| a.units).sum();
    // Two crashes: an ARM node mid-run and the lone AMD node later. The
    // second crash forces a redistribution onto a shrunken survivor set.
    let schedule = FaultSchedule::new().crash(0, 1, 0.010).crash(1, 0, 0.025);
    let policy = RecoveryPolicy::default();

    let trace_path =
        std::env::temp_dir().join(format!("hecmix-obs-events-{}.jsonl", std::process::id()));
    let sink = hecmix_obs::JsonlSink::create(&trace_path).expect("create JSONL sink");
    hecmix_obs::install(Arc::new(sink));
    let outcome = run_cluster_faulted(&spec, &schedule, &policy);
    // Dropping the installed sink flushes the writer.
    hecmix_obs::uninstall();

    let raw = std::fs::read_to_string(&trace_path).expect("read trace");
    std::fs::remove_file(&trace_path).ok();
    let records: Vec<Value> = raw
        .lines()
        .map(|line| {
            let record = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert!(
                matches!(record, Value::Object(_)),
                "not a JSON object line: {line}"
            );
            record
        })
        .collect();
    assert!(!records.is_empty(), "trace is empty");

    // Exactly one run-start and one run-end, in order, and they bracket
    // the fault lifecycle events.
    let starts: Vec<&Value> = records
        .iter()
        .filter(|l| kind_of(l) == "faulted_run_start")
        .collect();
    let ends: Vec<&Value> = records
        .iter()
        .filter(|l| kind_of(l) == "faulted_run_end")
        .collect();
    assert_eq!(starts.len(), 1, "want one faulted_run_start");
    assert_eq!(ends.len(), 1, "want one faulted_run_end");
    assert_eq!(u64_field(starts[0], "total_units"), total_units);
    assert_eq!(u64_field(starts[0], "crashes"), 2);

    // Per-crash lifecycle: each CrashRecord appears as a crash +
    // heartbeat_timeout + redistribution triple with matching identity and
    // conserved work: moved + abandoned == leftover.
    let crashes: Vec<&Value> = records.iter().filter(|l| kind_of(l) == "crash").collect();
    let detections: Vec<&Value> = records
        .iter()
        .filter(|l| kind_of(l) == "heartbeat_timeout")
        .collect();
    let redists: Vec<&Value> = records
        .iter()
        .filter(|l| kind_of(l) == "redistribution")
        .collect();
    assert_eq!(crashes.len(), outcome.crashes.len());
    assert_eq!(detections.len(), outcome.crashes.len());
    assert_eq!(redists.len(), outcome.crashes.len());
    for (i, rec) in outcome.crashes.iter().enumerate() {
        assert_eq!(u64_field(crashes[i], "type_idx") as usize, rec.type_idx);
        assert_eq!(u64_field(crashes[i], "node_idx"), u64::from(rec.node_idx));
        assert_eq!(u64_field(crashes[i], "leftover_units"), rec.leftover_units);
        assert_eq!(
            u64_field(crashes[i], "lost_in_flight_units"),
            rec.lost_in_flight_units
        );
        assert_eq!(
            u64_field(detections[i], "node_idx"),
            u64::from(rec.node_idx)
        );
        assert!(num_field(detections[i], "detected_s") >= num_field(crashes[i], "crash_s"));
        let moved = u64_field(redists[i], "moved_units");
        let abandoned = u64_field(redists[i], "abandoned_units");
        assert_eq!(moved, rec.receivers.iter().map(|r| r.2).sum::<u64>());
        assert_eq!(abandoned, rec.abandoned_units);
        assert_eq!(
            moved + abandoned,
            rec.leftover_units,
            "crash {i}: redistribution does not conserve the leftover work"
        );
    }

    // Per-receiver shares sum to the moved totals.
    let share_total: u64 = records
        .iter()
        .filter(|l| kind_of(l) == "redistribution_share")
        .map(|l| u64_field(l, "units"))
        .sum();
    let moved_total: u64 = redists.iter().map(|l| u64_field(l, "moved_units")).sum();
    assert_eq!(share_total, moved_total);

    // Replaying the trace reproduces the run's outcome exactly: completed
    // work is the initial total minus everything the trace abandoned.
    let abandoned_total: u64 = redists
        .iter()
        .map(|l| u64_field(l, "abandoned_units"))
        .sum();
    assert_eq!(abandoned_total, outcome.abandoned_units);
    let end = ends[0];
    assert_eq!(u64_field(end, "abandoned_units"), abandoned_total);
    assert_eq!(
        u64_field(end, "completed_units"),
        total_units - abandoned_total,
        "replayed completion does not match the conservation identity"
    );
    assert_eq!(
        u64_field(end, "completed_units") as f64,
        outcome.completed_units,
        "replayed completion does not match the measurement"
    );
    assert_eq!(
        num_field(end, "duration_s").to_bits(),
        outcome.duration_s.to_bits()
    );
}
