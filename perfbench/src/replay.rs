//! The `sched_replay` workload: `Scheduler::run_faulted` over a seeded
//! diurnal trace on the 6 ARM + 5 AMD pool, in process, with seeded
//! crashes so the migration path runs.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hecmix_experiments::lab::Lab;
use hecmix_experiments::scheduler::{scheduler_pool, scheduler_trace};
use hecmix_sched::{JobSpec, Pool, SchedConfig, SchedOutcome, Scheduler};
use hecmix_sim::FaultSchedule;
use hecmix_workloads::julius::Julius;
use hecmix_workloads::memcached::Memcached;

use crate::stats::{self, median, percentile};
use crate::trace::Tracer;
use crate::Outcome;

/// Trace length in days of the diurnal profile: about 6.7·10⁵ jobs, enough
/// deadline misses that their share is steady across seeds.
const DAYS: u32 = 1600;
/// Seconds per trace day (24 one-minute slots).
const DAY_S: f64 = 24.0 * 60.0;
/// Node crashes, drawn over the trace's last `CRASH_WINDOW_S` seconds:
/// late enough that the lost capacity touches a similar share of every
/// seed's trace, so schedule quality stays comparable across seeds.
const CRASHES: usize = 8;
const CRASH_WINDOW_S: f64 = DAY_S / 4.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Accepted trace sizes.
const MIN_JOBS: usize = 100_000;
const MAX_JOBS: usize = 1_000_000;

struct Setup {
    pool: Pool,
    jobs: Vec<JobSpec>,
    faults: FaultSchedule,
    setup_s: f64,
    pool_s: f64,
}

fn setup(seed: u64) -> Setup {
    let t0 = Instant::now();
    let pool = scheduler_pool(
        &Lab::new(),
        &[&Memcached::default(), &Julius::default()],
        vec![6, 5],
    );
    let pool_s = t0.elapsed().as_secs_f64();
    let jobs = scheduler_trace(&pool, 0, DAYS, seed);
    let mut faults =
        FaultSchedule::random_crashes(seed ^ 0xFA17, &pool.counts, CRASHES, CRASH_WINDOW_S);
    for e in &mut faults.events {
        e.fault.at_s += f64::from(DAYS) * DAY_S - CRASH_WINDOW_S;
    }
    Setup {
        pool,
        jobs,
        faults,
        setup_s: t0.elapsed().as_secs_f64(),
        pool_s,
    }
}

/// FNV-1a over everything a replay decides.
fn digest(o: &SchedOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for n in [
        o.submitted,
        o.admitted,
        o.rejected,
        o.completed,
        o.failed,
        o.misses,
        o.migrations,
    ] {
        eat(n as u64);
    }
    for x in [o.active_energy_j, o.idle_energy_j, o.makespan_s] {
        eat(x.to_bits());
    }
    for j in &o.jobs {
        eat(j.id);
        eat(u64::from(j.admitted) | u64::from(j.missed) << 1 | u64::from(j.migrations) << 2);
        eat(j.finish_s.map_or(u64::MAX, f64::to_bits));
    }
    h
}

fn trace_digest(jobs: &[JobSpec]) -> u64 {
    jobs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, j| {
        [
            j.workload as u64,
            j.size_units.to_bits(),
            j.arrival_s.to_bits(),
            j.deadline_s.to_bits(),
        ]
        .iter()
        .fold(h, |h, x| (h ^ x).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Invariants every replay must keep.
fn invariant_problems(o: &SchedOutcome) -> Vec<String> {
    let mut p = Vec::new();
    if o.admitted + o.rejected != o.submitted {
        p.push(format!(
            "admitted {} + rejected {} != submitted {}",
            o.admitted, o.rejected, o.submitted
        ));
    }
    if o.completed + o.failed != o.admitted {
        p.push(format!(
            "completed {} + failed {} != admitted {}",
            o.completed, o.failed, o.admitted
        ));
    }
    p
}

/// Replays until `seconds` have passed (at least one): per-replay wall
/// times, as measured and scaled by the share of CPU time the hypervisor
/// did not steal, and outcomes' digests.
struct Replays {
    wall_s: Vec<f64>,
    run_s: Vec<f64>,
    first: SchedOutcome,
    digests: Vec<u64>,
    problems: Vec<String>,
}

fn replays(
    sched: &Scheduler,
    s: &Setup,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Replays> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut wall_s = Vec::new();
    let mut run_s = Vec::new();
    let mut digests = Vec::new();
    let mut problems = Vec::new();
    let mut first = None;
    while first.is_none() || Instant::now() < deadline {
        let id = tracer
            .as_deref_mut()
            .map(|t| t.begin("sched.run", None, wall_s.len() as u64));
        let (t0, ticks) = (Instant::now(), stats::CpuTicks::now());
        let out = sched
            .run_faulted(&s.jobs, &s.faults)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let wall = t0.elapsed().as_secs_f64();
        wall_s.push(wall);
        run_s.push(wall * (1.0 - stats::CpuTicks::now().steal_share_since(ticks)));
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
            t.end(id);
        }
        digests.push(digest(&out));
        problems.extend(invariant_problems(&out));
        first.get_or_insert(out);
    }
    Ok(Replays {
        wall_s,
        run_s,
        first: first.expect("at least one replay"),
        digests,
        problems,
    })
}

/// Run `sched_replay`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut pool_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let s = setup(seed);
        setup_s.push(s.setup_s);
        pool_s.push(s.pool_s);
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");

    // Generator self-test: same seed, same jobs; another seed, other jobs.
    let d0 = trace_digest(&s.jobs);
    if trace_digest(&scheduler_trace(&s.pool, 0, DAYS, seed)) != d0 {
        out.problems
            .push("same seed gave a different job stream".to_owned());
    }
    if trace_digest(&scheduler_trace(&s.pool, 0, DAYS, seed.wrapping_add(1))) == d0 {
        out.problems
            .push("a different seed gave the same job stream".to_owned());
    }
    if !(MIN_JOBS..=MAX_JOBS).contains(&s.jobs.len()) {
        out.problems.push(format!(
            "trace has {} jobs, outside {MIN_JOBS}..={MAX_JOBS}",
            s.jobs.len()
        ));
    }

    let sched = Scheduler::new(s.pool.clone(), SchedConfig::default())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let stop = AtomicBool::new(false);
    let (r, threads_peak) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| stats::threads_peak(&stop, stats::SAMPLE_EVERY));
        let r = replays(&sched, &s, seconds, None);
        stop.store(true, Ordering::Relaxed);
        (r, sampler.join().expect("sampler thread panicked"))
    });
    let mut r = r?;
    out.problems.append(&mut r.problems);
    let o = &r.first;
    let n = r.wall_s.len() as u64;
    let mismatched = r.digests.iter().filter(|&&d| d != r.digests[0]).count() as u64;
    if mismatched > 0 {
        out.problems.push(format!(
            "{mismatched} of {n} replays gave a different outcome digest"
        ));
    }
    out.attempted = o.submitted as u64 * n;
    out.failed = (o.rejected + o.failed) as u64 * n + mismatched * o.submitted as u64;

    let rate = |run_s: &[f64]| {
        median(
            &mut run_s
                .iter()
                .map(|t| o.admitted as f64 / t)
                .collect::<Vec<_>>(),
        )
    };
    let mut turnaround_ms: Vec<f64> = o
        .jobs
        .iter()
        .zip(&s.jobs)
        .filter_map(|(res, spec)| res.finish_s.map(|f| (f - spec.arrival_s) * 1e3))
        .collect();
    let untraced_rate = rate(&r.run_s);
    let e2e = &mut out.e2e;
    e2e.insert("throughput_rps", untraced_rate);
    e2e.insert("latency_p50_ms", percentile(&mut turnaround_ms, 50.0));
    e2e.insert("latency_p99_ms", percentile(&mut turnaround_ms, 99.0));
    e2e.insert("ok_rate", 1.0 - out.failed as f64 / out.attempted as f64);
    e2e.insert("setup_s", median(&mut setup_s));
    e2e.insert("energy_j", o.energy_j());
    e2e.insert("miss_rate", o.miss_rate());

    let l = &mut out.layers;
    l.insert("sched.migrations", o.migrations as f64);
    l.insert("sched.rejected", o.rejected as f64);
    l.insert("sched.run_s", median(&mut r.run_s.clone()));
    l.insert("pool.build_s", median(&mut pool_s));
    l.insert("proc.threads_peak", threads_peak as f64);

    out.record.push(format!(
        "trace {} jobs over {DAYS} days, {CRASHES} seeded crashes in the last {CRASH_WINDOW_S} s; {n} replays, outcome digest {:016x}",
        s.jobs.len(),
        r.digests[0]
    ));
    out.record.push(format!(
        "jobs submitted {} admitted {} rejected {} completed {} failed {} missed {} migrations {} (per replay)",
        o.submitted, o.admitted, o.rejected, o.completed, o.failed, o.misses, o.migrations
    ));
    out.record.push(format!(
        "throughput is the median of {n} replay rates (steal-scaled); latency is simulated job turnaround over {} completed jobs",
        turnaround_ms.len()
    ));
    out.record.push(format!(
        "replay wall times (s): {:?}; scaled by the share of CPU time the hypervisor did not steal: {:?}",
        r.wall_s,
        r.run_s
    ));
    out.record.push(format!("set-up times (s): {setup_s:?}"));

    if traced {
        let mut tracer = Tracer::new();
        let t = replays(&sched, &s, seconds / 2.0, Some(&mut tracer))?;
        let traced_rate = rate(&t.run_s);
        out.layers.insert(
            "obs.overhead_pct",
            (untraced_rate - traced_rate) / untraced_rate * 100.0,
        );
        if t.digests.iter().any(|&d| d != r.digests[0]) {
            out.problems
                .push("a traced replay gave a different outcome digest".to_owned());
        }
        out.tracer = Some(tracer);
    }
    out.e2e.insert("peak_rss_mb", stats::peak_rss_mb());
    Ok(out)
}
