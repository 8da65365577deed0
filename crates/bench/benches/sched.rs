//! Scheduler replay scaling: `Scheduler::run` over the `scheduler_trace`
//! diurnal stream on the 6 ARM + 5 AMD `scheduler_pool`, at about 10³,
//! 10⁵ and 10⁶ jobs. Throughput is reported in jobs per second, so a flat
//! rate across sizes means the per-job cost does not grow with trace
//! length.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hecmix_experiments::lab::Lab;
use hecmix_experiments::scheduler::{scheduler_pool, scheduler_trace};
use hecmix_sched::{SchedConfig, Scheduler};
use hecmix_workloads::julius::Julius;
use hecmix_workloads::memcached::Memcached;

/// Trace lengths in days; the trace carries about 418 jobs per day.
const DAYS: [u32; 3] = [2, 240, 2400];

fn bench_replay(c: &mut Criterion) {
    let pool = scheduler_pool(
        &Lab::new(),
        &[&Memcached::default(), &Julius::default()],
        vec![6, 5],
    );
    let sched = Scheduler::new(pool, SchedConfig::default()).expect("default knobs are valid");
    let mut group = c.benchmark_group("sched/replay");
    group.sample_size(10);
    for days in DAYS {
        let jobs = scheduler_trace(sched.pool(), 0, days, 42);
        group.throughput(Throughput::Elements(jobs.len() as u64));
        group.bench_function(BenchmarkId::new("jobs", jobs.len()), |b| {
            b.iter(|| black_box(sched.run(black_box(&jobs)).expect("replay")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
