//! Queueing benchmarks — the Fig. 10 machinery.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hecmix_queueing::des::{self, CoreLayout, DesConfig, ServiceDist, UNBOUNDED};
use hecmix_queueing::{simulate_md1, window_energy, MD1};

fn bench_closed_forms(c: &mut Criterion) {
    c.bench_function("queueing/md1_response", |b| {
        b.iter(|| {
            let q = MD1::new(black_box(9.75), black_box(0.026)).unwrap();
            black_box(q.mean_response_s().unwrap())
        })
    });
    c.bench_function("queueing/fig10_window_energy", |b| {
        b.iter(|| {
            black_box(
                window_energy(
                    black_box(9.75),
                    20.0,
                    black_box(0.026),
                    black_box(14.5),
                    black_box(651.0),
                )
                .unwrap(),
            )
        })
    });
}

fn bench_des_crosscheck(c: &mut Criterion) {
    let mut g = c.benchmark_group("queueing");
    g.sample_size(20);
    g.throughput(criterion::Throughput::Elements(100_000));
    g.bench_function("md1_des_100k_jobs", |b| {
        b.iter(|| black_box(simulate_md1(black_box(50.0), 0.01, 100_000, 7).unwrap()))
    });
    g.finish();
}

/// The tail planner's DES confirmation at its coarse and exact sizes: the
/// full CDF build against the selected single quantile.
fn bench_des_tail(c: &mut Criterion) {
    let mut g = c.benchmark_group("queueing");
    g.sample_size(20);
    for n in [20_000u64, 200_000] {
        let cfg = DesConfig {
            pps: 24.0,
            n_requests: n,
            layout: CoreLayout::Combined { cores: 1 },
            service: ServiceDist::Constant(0.025),
            net_cost_s: 0.0,
            queue_cap: UNBOUNDED,
            flows: 1,
            seed: 42,
        };
        g.throughput(criterion::Throughput::Elements(n));
        g.bench_function(format!("des_p99_{}k_simulate", n / 1000), |b| {
            b.iter(|| black_box(des::simulate(black_box(&cfg)).unwrap().sojourn.p99()))
        });
        g.bench_function(format!("des_p99_{}k_select", n / 1000), |b| {
            b.iter(|| black_box(des::sojourn_quantile(black_box(&cfg), 0.99).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_closed_forms,
    bench_des_crosscheck,
    bench_des_tail
);
criterion_main!(benches);
