//! Request-level discrete-event serving simulator (ROADMAP item 1).
//!
//! The analytical queueing layer ([`crate::MD1`], [`crate::MG1`]) predicts
//! *mean* delay; interactive sizing is about tails. This module simulates a
//! serving configuration at the request level — open-loop Poisson arrivals
//! at a configurable packet rate, RSS-style flow→core indirection, per-core
//! bounded FIFO queues with drop accounting, dedicated network cores vs
//! combined layouts, and constant/exponential/bimodal service-time
//! distributions — and emits the full sojourn-time CDF
//! (p50/p95/p99/p999) per configuration.
//!
//! Runs are seeded and bit-replayable like `hecmix-sim`: the same
//! [`DesConfig`] (including `seed`) reproduces the exact per-request
//! latency samples, so CDFs compare bit-for-bit across machines.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use hecmix_core::{Error, Result};

/// Number of entries in the RSS-style flow→core indirection table.
///
/// Real NICs hash the flow tuple into a small indirection table (128
/// entries on many devices) whose slots name the receive core; we model
/// the same two-level mapping so flow skew and core imbalance are visible.
pub const RSS_TABLE_ENTRIES: usize = 128;

/// Per-request service-time distribution at the application stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceDist {
    /// Every request takes exactly this many seconds (M/D/c-style).
    Constant(f64),
    /// Exponentially distributed with this mean, seconds (M/M/c-style).
    Exponential(f64),
    /// Two-point mixture: most requests are `fast_s`, a `slow_weight`
    /// fraction take `slow_s` (models the GET/SET or hit/miss split of
    /// the interactive workloads).
    Bimodal {
        /// Service time of the fast class, seconds.
        fast_s: f64,
        /// Service time of the slow class, seconds.
        slow_s: f64,
        /// Probability a request is slow, in `[0, 1]`.
        slow_weight: f64,
    },
}

impl ServiceDist {
    /// Validate the distribution parameters.
    pub fn validate(&self) -> Result<()> {
        let bad = |what: &str, v: f64| {
            Err(Error::InvalidInput(format!(
                "ServiceDist needs positive finite times, got {what}={v}"
            )))
        };
        match *self {
            ServiceDist::Constant(s) | ServiceDist::Exponential(s) => {
                if !(s > 0.0) || !s.is_finite() {
                    return bad("service_s", s);
                }
            }
            ServiceDist::Bimodal {
                fast_s,
                slow_s,
                slow_weight,
            } => {
                if !(fast_s > 0.0) || !fast_s.is_finite() {
                    return bad("fast_s", fast_s);
                }
                if !(slow_s > 0.0) || !slow_s.is_finite() {
                    return bad("slow_s", slow_s);
                }
                if !(0.0..=1.0).contains(&slow_weight) || !slow_weight.is_finite() {
                    return Err(Error::InvalidInput(format!(
                        "ServiceDist bimodal slow_weight must lie in [0, 1], got {slow_weight}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Mean service time, seconds.
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        match *self {
            ServiceDist::Constant(s) | ServiceDist::Exponential(s) => s,
            ServiceDist::Bimodal {
                fast_s,
                slow_s,
                slow_weight,
            } => (1.0 - slow_weight) * fast_s + slow_weight * slow_s,
        }
    }

    /// Squared coefficient of variation (`Var[S]/E[S]²`) — plugs straight
    /// into the [`crate::MG1`] Pollaczek–Khinchine screen.
    #[must_use]
    pub fn scv(&self) -> f64 {
        match *self {
            ServiceDist::Constant(_) => 0.0,
            ServiceDist::Exponential(_) => 1.0,
            ServiceDist::Bimodal {
                fast_s,
                slow_s,
                slow_weight,
            } => {
                let mean = (1.0 - slow_weight) * fast_s + slow_weight * slow_s;
                let ex2 = (1.0 - slow_weight) * fast_s * fast_s + slow_weight * slow_s * slow_s;
                let var = (ex2 - mean * mean).max(0.0);
                if mean > 0.0 {
                    var / (mean * mean)
                } else {
                    0.0
                }
            }
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> f64 {
        match *self {
            ServiceDist::Constant(s) => s,
            ServiceDist::Exponential(mean) => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() * mean
            }
            ServiceDist::Bimodal {
                fast_s,
                slow_s,
                slow_weight,
            } => {
                if rng.gen_bool(slow_weight) {
                    slow_s
                } else {
                    fast_s
                }
            }
        }
    }
}

/// How cores are split between network and application processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreLayout {
    /// Every core does both network and application work for its flows;
    /// one queue per core.
    Combined {
        /// Number of cores.
        cores: u32,
    },
    /// Dedicated network cores strip protocol headers (cost
    /// [`DesConfig::net_cost_s`] each), then hand requests to application
    /// cores through a second flow-hashed stage; one bounded queue per
    /// core at each stage.
    Dedicated {
        /// Cores running network processing (stage 1).
        net_cores: u32,
        /// Cores running application processing (stage 2).
        app_cores: u32,
    },
}

impl CoreLayout {
    fn validate(&self) -> Result<()> {
        let ok = match *self {
            CoreLayout::Combined { cores } => cores >= 1,
            CoreLayout::Dedicated {
                net_cores,
                app_cores,
            } => net_cores >= 1 && app_cores >= 1,
        };
        if ok {
            Ok(())
        } else {
            Err(Error::InvalidInput(format!(
                "CoreLayout needs at least one core per stage, got {self:?}"
            )))
        }
    }
}

/// One request-level simulation scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesConfig {
    /// Open-loop Poisson arrival rate, requests (packets) per second.
    pub pps: f64,
    /// Number of arrivals to generate.
    pub n_requests: u64,
    /// Core layout (combined, or dedicated network vs application cores).
    pub layout: CoreLayout,
    /// Application-stage service-time distribution.
    pub service: ServiceDist,
    /// Per-request network-processing cost, seconds (stage-1 work in
    /// dedicated layouts; folded into the single stage when combined).
    pub net_cost_s: f64,
    /// Maximum requests in system *per core* (in service + queued);
    /// arrivals beyond it are dropped. Use [`UNBOUNDED`] for no cap.
    pub queue_cap: usize,
    /// Number of distinct flows; each request belongs to one flow and
    /// flows pin to cores through the RSS indirection table.
    pub flows: u32,
    /// RNG seed; same config + seed ⇒ bit-identical latency samples.
    pub seed: u64,
}

/// Sentinel for [`DesConfig::queue_cap`]: never drop.
pub const UNBOUNDED: usize = usize::MAX;

impl DesConfig {
    /// Validate every field (positive finite rate, at least one request,
    /// valid layout/distribution, non-negative finite net cost, at least
    /// one flow and a queue capacity of at least one).
    pub fn validate(&self) -> Result<()> {
        if !(self.pps > 0.0) || !self.pps.is_finite() {
            return Err(Error::InvalidInput(format!(
                "DesConfig needs a positive finite pps, got {}",
                self.pps
            )));
        }
        if self.n_requests == 0 {
            return Err(Error::InvalidInput(
                "DesConfig needs n_requests >= 1".into(),
            ));
        }
        self.layout.validate()?;
        self.service.validate()?;
        if !(self.net_cost_s >= 0.0) || !self.net_cost_s.is_finite() {
            return Err(Error::InvalidInput(format!(
                "DesConfig needs a non-negative finite net_cost_s, got {}",
                self.net_cost_s
            )));
        }
        if self.queue_cap == 0 {
            return Err(Error::InvalidInput(
                "DesConfig needs queue_cap >= 1 (use UNBOUNDED for no cap)".into(),
            ));
        }
        if self.flows == 0 {
            return Err(Error::InvalidInput("DesConfig needs flows >= 1".into()));
        }
        Ok(())
    }
}

/// An empirical latency distribution: the sorted per-request samples plus
/// exact order-statistic quantiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyCdf {
    samples: Vec<f64>,
}

impl LatencyCdf {
    fn from_samples(mut samples: Vec<f64>) -> Self {
        // Unstable is bit-identical here: `total_cmp` calls two samples
        // equal only when their bits are equal.
        samples.sort_unstable_by(f64::total_cmp);
        Self { samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no request completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sorted samples (the full empirical CDF).
    #[must_use]
    pub fn sorted(&self) -> &[f64] {
        &self.samples
    }

    /// Exact order-statistic quantile: the smallest sample `x` with at
    /// least `q·n` samples `≤ x`. Returns `None` on an empty CDF or
    /// `q` outside `(0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_index(q, self.samples.len()).map(|i| self.samples[i])
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Arithmetic mean of the samples.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

/// Zero-based position of the `q`-quantile among `n` ordered samples:
/// `rank = ⌈q·n⌉`, so the smallest sample with at least `q·n` samples
/// `≤` it. `None` when `n == 0` or `q` lies outside `(0, 1]`.
fn quantile_index(q: f64, n: usize) -> Option<usize> {
    if n == 0 || !(q > 0.0) || q > 1.0 {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// The `q`-quantile of unordered `samples` by linear-time selection
/// (reorders them). Bit-identical to [`LatencyCdf::quantile`] over the
/// same samples: `total_cmp` is a total order on bit patterns.
fn select_quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    let i = quantile_index(q, samples.len())?;
    Some(*samples.select_nth_unstable_by(i, f64::total_cmp).1)
}

/// Result of one request-level simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesOutcome {
    /// Requests generated.
    pub offered: u64,
    /// Requests that completed both stages.
    pub completed: u64,
    /// Requests dropped at a full per-core queue (either stage).
    pub dropped: u64,
    /// Sojourn time (arrival → final departure) of completed requests.
    pub sojourn: LatencyCdf,
    /// Queueing-only wait (sojourn minus all service) of completed
    /// requests.
    pub wait: LatencyCdf,
    /// Simulated horizon: the last departure time, seconds.
    pub duration_s: f64,
}

/// Per-core single-server FIFO with a bounded in-system count.
///
/// Requests are fed in non-decreasing arrival order, so the in-system
/// count at each arrival is exact: departures are popped from the front
/// of a deque of scheduled departure times.
struct CoreQueue {
    in_system: std::collections::VecDeque<f64>,
    cap: usize,
}

impl CoreQueue {
    fn new(cap: usize) -> Self {
        Self {
            in_system: std::collections::VecDeque::new(),
            cap,
        }
    }

    /// Offer an arrival at time `t` needing `service` seconds. Returns the
    /// departure time, or `None` if the core's queue is full.
    fn offer(&mut self, t: f64, service: f64) -> Option<f64> {
        while self.in_system.front().is_some_and(|&d| d <= t) {
            self.in_system.pop_front();
        }
        if self.in_system.len() >= self.cap {
            return None;
        }
        let start = self.in_system.back().map_or(t, |&d| d.max(t));
        let depart = start + service;
        self.in_system.push_back(depart);
        Some(depart)
    }
}

/// Map a flow id onto a core through the RSS indirection table (slots
/// assigned round-robin over the cores, flows hashed by id).
fn rss_core(flow: u32, cores: u32) -> usize {
    (flow as usize % RSS_TABLE_ENTRIES) % cores as usize
}

/// Each request's `(arrival time, flow, application service)`, drawn in
/// arrival order as the stages consume them. A request takes its three
/// draws before the next request's, so the seeded stream is the same
/// however the stages interleave.
fn arrivals(cfg: &DesConfig) -> impl Iterator<Item = (f64, u32, f64)> {
    let cfg = *cfg;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut clock = 0.0f64;
    (0..cfg.n_requests).map(move |_| {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        clock += -u.ln() / cfg.pps; // exponential inter-arrival
        let flow = rng.gen_range(0..cfg.flows);
        let app_service = cfg.service.sample(&mut rng);
        (clock, flow, app_service)
    })
}

/// Drop count and horizon of one run of [`run_stages`].
struct StageTally {
    dropped: u64,
    duration_s: f64,
}

/// The one stage runner behind [`simulate`] and [`sojourn_quantile`]:
/// streams the arrivals of a validated `cfg` through its layout and hands
/// each completed request's `(sojourn, wait)` to `done`.
///
/// Arrivals come in time order, so each stage is simulated with per-core
/// deques instead of a global event heap; stage-2 arrivals are re-sorted
/// per application core by `(time, sequence)` to keep the run
/// deterministic.
fn run_stages(cfg: &DesConfig, mut done: impl FnMut(f64, f64)) -> StageTally {
    let mut dropped = 0u64;
    let mut duration_s = 0.0f64;
    let mut complete = |depart: f64, sojourn: f64, wait: f64| {
        duration_s = duration_s.max(depart);
        done(sojourn, wait);
    };

    match cfg.layout {
        CoreLayout::Combined { cores } => {
            let mut queues: Vec<CoreQueue> =
                (0..cores).map(|_| CoreQueue::new(cfg.queue_cap)).collect();
            for (t, flow, app_service) in arrivals(cfg) {
                let service = cfg.net_cost_s + app_service;
                match queues[rss_core(flow, cores)].offer(t, service) {
                    None => dropped += 1,
                    Some(depart) => complete(depart, depart - t, depart - t - service),
                }
            }
        }
        CoreLayout::Dedicated {
            net_cores,
            app_cores,
        } => {
            // Stage 1: network cores, constant per-request cost.
            let mut net: Vec<CoreQueue> = (0..net_cores)
                .map(|_| CoreQueue::new(cfg.queue_cap))
                .collect();
            // (app arrival, sequence, original arrival, app service)
            let mut handoff: Vec<Vec<(f64, usize, f64, f64)>> =
                vec![Vec::new(); app_cores as usize];
            for (seq, (t, flow, app_service)) in arrivals(cfg).enumerate() {
                match net[rss_core(flow, net_cores)].offer(t, cfg.net_cost_s) {
                    None => dropped += 1,
                    Some(net_depart) => {
                        // Second flow-hashed stage: offset the table walk
                        // so net and app assignments decorrelate.
                        let app = (flow as usize / net_cores as usize + flow as usize)
                            % RSS_TABLE_ENTRIES
                            % app_cores as usize;
                        handoff[app].push((net_depart, seq, t, app_service));
                    }
                }
            }
            // Stage 2: application cores. Per-core arrivals are sorted by
            // (time, sequence) — stage-1 departures are not globally
            // ordered across net cores. The sequence is unique, so an
            // unstable sort gives the same order.
            let mut apps: Vec<CoreQueue> = (0..app_cores)
                .map(|_| CoreQueue::new(cfg.queue_cap))
                .collect();
            for (core, list) in handoff.iter_mut().enumerate() {
                list.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for &(at, _seq, t0, app_service) in list.iter() {
                    match apps[core].offer(at, app_service) {
                        None => dropped += 1,
                        Some(depart) => complete(
                            depart,
                            depart - t0,
                            depart - t0 - cfg.net_cost_s - app_service,
                        ),
                    }
                }
            }
        }
    }
    StageTally {
        dropped,
        duration_s,
    }
}

/// Emit the `des_run` event of one run. `quantile` reads the run's
/// sojourn quantiles and is only called while a sink is installed.
fn emit_des_run(
    cfg: &DesConfig,
    completed: u64,
    tally: &StageTally,
    mut quantile: impl FnMut(f64) -> Option<f64>,
) {
    hecmix_obs::emit(|| hecmix_obs::Event::DesRun {
        pps: cfg.pps,
        requests: cfg.n_requests,
        completed,
        dropped: tally.dropped,
        p50_s: quantile(0.50).unwrap_or(f64::NAN),
        p99_s: quantile(0.99).unwrap_or(f64::NAN),
        duration_s: tally.duration_s,
        seed: cfg.seed,
    });
}

/// Run the request-level simulation and build both latency CDFs.
///
/// Same `cfg` ⇒ bit-identical [`DesOutcome`].
///
/// # Errors
/// [`Error::InvalidInput`] when `cfg` fails [`DesConfig::validate`].
pub fn simulate(cfg: &DesConfig) -> Result<DesOutcome> {
    cfg.validate()?;
    let n = cfg.n_requests as usize;
    let mut sojourn = Vec::with_capacity(n);
    let mut wait = Vec::with_capacity(n);
    let tally = run_stages(cfg, |s, w| {
        sojourn.push(s);
        wait.push(w);
    });
    let out = DesOutcome {
        offered: cfg.n_requests,
        completed: sojourn.len() as u64,
        dropped: tally.dropped,
        sojourn: LatencyCdf::from_samples(sojourn),
        wait: LatencyCdf::from_samples(wait),
        duration_s: tally.duration_s,
    };
    emit_des_run(cfg, out.completed, &tally, |q| out.sojourn.quantile(q));
    Ok(out)
}

/// One sojourn-time quantile of the run `cfg` describes:
/// `simulate(cfg)?.sojourn.quantile(q)` bit for bit, with the same
/// `des_run` event, for callers that need a single order statistic.
///
/// Only the sojourn times are kept (no wait samples, no CDF), and the
/// order statistic is selected in linear time instead of sorting.
/// `Ok(None)` for `q` outside `(0, 1]`.
///
/// # Errors
/// [`Error::InvalidInput`] when `cfg` fails [`DesConfig::validate`].
pub fn sojourn_quantile(cfg: &DesConfig, q: f64) -> Result<Option<f64>> {
    cfg.validate()?;
    let mut sojourn = Vec::with_capacity(cfg.n_requests as usize);
    let tally = run_stages(cfg, |s, _| sojourn.push(s));
    emit_des_run(cfg, sojourn.len() as u64, &tally, |p| {
        select_quantile(&mut sojourn, p)
    });
    Ok(select_quantile(&mut sojourn, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MD1, MG1};

    fn single_server(pps: f64, service: ServiceDist, n: u64, seed: u64) -> DesConfig {
        DesConfig {
            pps,
            n_requests: n,
            layout: CoreLayout::Combined { cores: 1 },
            service,
            net_cost_s: 0.0,
            queue_cap: UNBOUNDED,
            flows: 1,
            seed,
        }
    }

    #[test]
    fn seeded_runs_are_bit_identical() {
        let cfg = DesConfig {
            pps: 5_000.0,
            n_requests: 50_000,
            layout: CoreLayout::Dedicated {
                net_cores: 2,
                app_cores: 4,
            },
            service: ServiceDist::Bimodal {
                fast_s: 50e-6,
                slow_s: 500e-6,
                slow_weight: 0.1,
            },
            net_cost_s: 5e-6,
            queue_cap: 64,
            flows: 256,
            seed: 99,
        };
        let a = simulate(&cfg).unwrap();
        let b = simulate(&cfg).unwrap();
        // Bit-identical, not approximately equal: full sample vectors.
        assert_eq!(a, b);
        let c = simulate(&DesConfig { seed: 100, ..cfg }).unwrap();
        assert_ne!(a.sojourn, c.sojourn, "different seed must differ");
    }

    #[test]
    fn percentiles_are_monotone_in_utilization() {
        let service = 100e-6;
        let mut prev = 0.0f64;
        for rho in [0.3, 0.5, 0.7, 0.85] {
            let cfg = single_server(
                rho / service,
                ServiceDist::Exponential(service),
                200_000,
                11,
            );
            let out = simulate(&cfg).unwrap();
            let p99 = out.sojourn.p99().unwrap();
            assert!(
                p99 > prev,
                "p99 must grow with ρ: {p99} at ρ={rho} vs {prev}"
            );
            prev = p99;
        }
    }

    #[test]
    fn deterministic_service_has_smaller_tail_than_exponential() {
        // At equal ρ the M/D/1 sojourn tail sits strictly below M/M/1 —
        // service variance is the whole difference.
        let service = 100e-6;
        let rho = 0.7;
        let md = simulate(&single_server(
            rho / service,
            ServiceDist::Constant(service),
            200_000,
            3,
        ))
        .unwrap();
        let mm = simulate(&single_server(
            rho / service,
            ServiceDist::Exponential(service),
            200_000,
            3,
        ))
        .unwrap();
        assert!(
            md.sojourn.p99().unwrap() < mm.sojourn.p99().unwrap(),
            "M/D/1 p99 {} must undercut M/M/1 p99 {}",
            md.sojourn.p99().unwrap(),
            mm.sojourn.p99().unwrap()
        );
    }

    #[test]
    fn mean_wait_matches_pollaczek_khinchine() {
        // Single combined core, no net cost, unbounded: textbook M/G/1.
        for (dist, name) in [
            (ServiceDist::Constant(100e-6), "M/D/1"),
            (ServiceDist::Exponential(100e-6), "M/M/1"),
            (
                ServiceDist::Bimodal {
                    fast_s: 50e-6,
                    slow_s: 500e-6,
                    slow_weight: 0.1,
                },
                "bimodal",
            ),
        ] {
            let rho = 0.6;
            let lambda = rho / dist.mean_s();
            let out = simulate(&single_server(lambda, dist, 400_000, 17)).unwrap();
            let pk = MG1::new(lambda, dist.mean_s(), dist.scv())
                .unwrap()
                .mean_wait_s()
                .unwrap();
            let sim = out.wait.mean().unwrap();
            let rel = (sim - pk).abs() / pk;
            assert!(rel < 0.05, "{name}: sim {sim} vs P-K {pk} (rel {rel})");
        }
    }

    #[test]
    fn wait_p99_matches_md1_distribution() {
        let service = 100e-6;
        let rho = 0.7;
        let lambda = rho / service;
        let out = simulate(&single_server(
            lambda,
            ServiceDist::Constant(service),
            400_000,
            23,
        ))
        .unwrap();
        let analytic = MD1::new(lambda, service)
            .unwrap()
            .wait_quantile(0.99)
            .unwrap();
        let sim = out.wait.p99().unwrap();
        let rel = (sim - analytic).abs() / analytic;
        assert!(
            rel < 0.10,
            "sim p99 {sim} vs analytic {analytic} (rel {rel})"
        );
    }

    #[test]
    fn bounded_queues_drop_and_unbounded_does_not() {
        let service = 100e-6;
        let saturated = DesConfig {
            queue_cap: 8,
            ..single_server(1.5 / service, ServiceDist::Constant(service), 50_000, 5)
        };
        let out = simulate(&saturated).unwrap();
        assert!(out.dropped > 0, "ρ=1.5 with cap 8 must drop");
        assert_eq!(out.offered, out.completed + out.dropped);
        // Every sojourn is bounded by cap × service (+ slack for the
        // in-service request).
        let worst = out.sojourn.sorted().last().copied().unwrap();
        assert!(worst <= 9.0 * service + 1e-12, "worst sojourn {worst}");

        let open = single_server(0.5 / service, ServiceDist::Constant(service), 50_000, 5);
        let out = simulate(&open).unwrap();
        assert_eq!(out.dropped, 0);
        assert_eq!(out.completed, out.offered);
    }

    #[test]
    fn dedicated_layout_spreads_flows_and_adds_net_cost() {
        let cfg = DesConfig {
            pps: 1_000.0,
            n_requests: 20_000,
            layout: CoreLayout::Dedicated {
                net_cores: 2,
                app_cores: 2,
            },
            service: ServiceDist::Constant(100e-6),
            net_cost_s: 20e-6,
            queue_cap: UNBOUNDED,
            flows: 512,
            seed: 8,
        };
        let out = simulate(&cfg).unwrap();
        assert_eq!(out.completed, cfg.n_requests);
        // Minimum sojourn is the full pipeline cost.
        let min = out.sojourn.sorted()[0];
        assert!(min >= 120e-6 - 1e-12, "min sojourn {min}");
        // Light load: sojourns should mostly be near the no-wait cost.
        assert!(out.sojourn.p50().unwrap() < 200e-6);
    }

    #[test]
    fn config_validation_rejects_bad_inputs() {
        let ok = single_server(100.0, ServiceDist::Constant(1e-3), 10, 1);
        assert!(simulate(&ok).is_ok());
        assert!(simulate(&DesConfig { pps: 0.0, ..ok }).is_err());
        assert!(simulate(&DesConfig {
            pps: f64::INFINITY,
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            n_requests: 0,
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            layout: CoreLayout::Combined { cores: 0 },
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            service: ServiceDist::Constant(-1.0),
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            service: ServiceDist::Bimodal {
                fast_s: 1e-3,
                slow_s: 1e-2,
                slow_weight: 1.5
            },
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig {
            net_cost_s: f64::NAN,
            ..ok
        })
        .is_err());
        assert!(simulate(&DesConfig { queue_cap: 0, ..ok }).is_err());
        assert!(simulate(&DesConfig { flows: 0, ..ok }).is_err());
    }

    /// `sojourn_quantile` is the sort-based quantile bit for bit, and its
    /// `des_run` event is the same line, over seeded random configs: both
    /// layouts, every service shape, bounded caps that drop (so `n` is
    /// not `n_requests`) and unbounded ones.
    #[test]
    fn sojourn_quantile_is_bit_identical_to_simulate() {
        use std::sync::Arc;

        let ring = Arc::new(hecmix_obs::RingSink::new(1 << 14));
        hecmix_obs::install(ring.clone());
        let mut gen = SmallRng::seed_from_u64(0x5e1e_c7ed);
        // Seeds far from every other test's, so the events of this test
        // can be told apart from those of tests running beside it.
        let base_seed = 0xde5_0000_0000u64;
        let mut dropping = 0;
        for case in 0..96u64 {
            let service = match case % 3 {
                0 => ServiceDist::Constant(gen.gen_range(20e-6..200e-6)),
                1 => ServiceDist::Exponential(gen.gen_range(20e-6..200e-6)),
                _ => ServiceDist::Bimodal {
                    fast_s: gen.gen_range(10e-6..60e-6),
                    slow_s: gen.gen_range(100e-6..600e-6),
                    slow_weight: gen.gen_range(0.0..0.3),
                },
            };
            let layout = if case % 2 == 0 {
                CoreLayout::Combined {
                    cores: gen.gen_range(1..5),
                }
            } else {
                CoreLayout::Dedicated {
                    net_cores: gen.gen_range(1..3),
                    app_cores: gen.gen_range(1..4),
                }
            };
            let cores = match layout {
                CoreLayout::Combined { cores } => cores,
                CoreLayout::Dedicated { app_cores, .. } => app_cores,
            };
            let cfg = DesConfig {
                // ρ from light load to overload, per core.
                pps: gen.gen_range(0.2..1.6) * f64::from(cores) / service.mean_s(),
                n_requests: gen.gen_range(1..3_000),
                layout,
                service,
                net_cost_s: if gen.gen_bool(0.5) { 0.0 } else { 5e-6 },
                queue_cap: if case % 4 < 2 {
                    gen.gen_range(1..12)
                } else {
                    UNBOUNDED
                },
                flows: gen.gen_range(1..300),
                seed: base_seed + case,
            };
            let reference = simulate(&cfg).unwrap();
            if reference.dropped > 0 {
                dropping += 1;
            }
            for q in [1e-6, 0.5, 0.99, 0.999, 1.0, 0.0, -0.5, 1.5, f64::NAN] {
                let want = reference.sojourn.quantile(q);
                let got = sojourn_quantile(&cfg, q).unwrap();
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "case {case} q {q}: {cfg:?}"
                );
                assert_eq!(got.is_none(), !(q > 0.0 && q <= 1.0), "q {q}");
            }
            let lines: Vec<String> = ring
                .events()
                .iter()
                .filter(
                    |e| matches!(e, hecmix_obs::Event::DesRun { seed, .. } if *seed == cfg.seed),
                )
                .map(hecmix_obs::Event::to_json)
                .collect();
            assert_eq!(
                lines.len(),
                10,
                "case {case}: one simulate + nine quantile runs"
            );
            assert!(
                lines.iter().all(|l| *l == lines[0]),
                "case {case}: des_run lines differ: {lines:?}"
            );
        }
        hecmix_obs::uninstall();
        assert!(dropping >= 10, "only {dropping} cases dropped requests");
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let cdf = LatencyCdf::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(0.99), Some(99.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(cdf.quantile(0.001), Some(1.0));
        assert_eq!(cdf.quantile(0.0), None);
        assert_eq!(cdf.quantile(1.1), None);
        assert_eq!(LatencyCdf::from_samples(vec![]).p99(), None);
        assert_eq!(cdf.mean(), Some(50.5));
    }
}
