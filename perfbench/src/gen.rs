//! Seeded request generators for the serving workloads.
//!
//! Every request is a [`Query`]: the benchmark renders it as the JSON body
//! the daemon receives, and derives from it the `ComputeSpec`/`RespCtx`
//! pair the answer check hands to the library directly. The daemon only
//! ever sees the rendered bodies.

use std::collections::HashSet;

use hecmix_serve::api::{ComputeSpec, RespCtx};

use crate::rng::{Rng, Zipf};

/// The six paper workloads, in the order the generators cycle them.
pub const WORKLOADS: [&str; 6] = [
    "ep",
    "memcached",
    "x264",
    "blackscholes",
    "julius",
    "rsa-2048",
];

/// The API's node-cap limit (`arm` and `amd` each in `0..=512`).
pub const NODE_CAP_LIMIT: u32 = 512;

/// Plan-cache capacity of the replica on the hot workloads (the CLI default).
pub const HOT_CACHE: usize = 256;
/// Plan-cache capacity of the replica on `direct_cold`.
pub const COLD_CACHE: usize = 128;

const HOT_FRONTIERS: usize = 36;
const HOT_WHATIFS: usize = 12;
const COLD_FRONTIERS: usize = 480;
const COLD_TAILS: usize = 96;
const COLD_WHATIFS: usize = 64;
const ZIPF_S: f64 = 1.0;
/// Frontier specs of the cold space the plan-quality probe covers.
const COLD_PROBE_SPECS: usize = 60;
/// Deadlines per spec in the plan-quality probe.
const PROBE_DEADLINES: u32 = 8;
/// Deadline range of `/plan` requests, ms.
const DEADLINE_MS: (f64, f64) = (1.0, 20_000.0);
/// Every `TAIL_EVERY`-th `/plan` of a cold stream carries `p99_s`.
const TAIL_EVERY: u64 = 4;
/// `window_s` the daemon defaults tail plans to.
const TAIL_WINDOW_S: f64 = 20.0;
/// `step_high` the daemon defaults `/whatif` to.
const STEP_HIGH: u32 = 2;

/// One request the benchmark can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `/plan` with a mean-time deadline.
    Plan {
        workload: &'static str,
        arm: u32,
        amd: u32,
        deadline_ms: f64,
    },
    /// `/plan` with a percentile deadline (DES tail planning).
    Tail {
        workload: &'static str,
        arm: u32,
        amd: u32,
        lambda: f64,
        p99_s: f64,
    },
    /// `/frontier`.
    Frontier {
        workload: &'static str,
        arm: u32,
        amd: u32,
    },
    /// `/whatif` with a deadline to rank the ladder by.
    Whatif {
        workload: &'static str,
        budget_w: f64,
        deadline_ms: f64,
    },
}

/// What a query computes, without the per-request format fields: two
/// queries with equal specs share one plan-cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecKey {
    /// A frontier sweep (shared by `/plan` and `/frontier`).
    Frontier(&'static str, u32, u32),
    /// A tail plan.
    Tail(&'static str, u32, u32, u64, u64),
    /// A substitution ladder.
    Whatif(&'static str, u64),
}

impl Query {
    /// Endpoint path.
    #[must_use]
    pub fn path(&self) -> &'static str {
        match self {
            Self::Plan { .. } | Self::Tail { .. } => "/plan",
            Self::Frontier { .. } => "/frontier",
            Self::Whatif { .. } => "/whatif",
        }
    }

    /// Workload name.
    #[must_use]
    pub fn workload(&self) -> &'static str {
        match self {
            Self::Plan { workload, .. }
            | Self::Tail { workload, .. }
            | Self::Frontier { workload, .. }
            | Self::Whatif { workload, .. } => workload,
        }
    }

    /// The JSON body sent to the daemon. Floats print in shortest
    /// round-trip form, so the daemon parses back exactly these values.
    #[must_use]
    pub fn body(&self) -> String {
        match self {
            Self::Plan {
                workload,
                arm,
                amd,
                deadline_ms,
            } => format!(
                r#"{{"workload":"{workload}","arm":{arm},"amd":{amd},"deadline_ms":{deadline_ms}}}"#
            ),
            Self::Tail {
                workload,
                arm,
                amd,
                lambda,
                p99_s,
            } => format!(
                r#"{{"workload":"{workload}","arm":{arm},"amd":{amd},"p99_s":{p99_s},"lambda":{lambda}}}"#
            ),
            Self::Frontier { workload, arm, amd } => {
                format!(r#"{{"workload":"{workload}","arm":{arm},"amd":{amd}}}"#)
            }
            Self::Whatif {
                workload,
                budget_w,
                deadline_ms,
            } => format!(
                r#"{{"workload":"{workload}","budget_w":{budget_w},"deadline_ms":{deadline_ms}}}"#
            ),
        }
    }

    /// The full HTTP/1.1 request, keep-alive.
    #[must_use]
    pub fn wire(&self) -> Vec<u8> {
        let body = self.body();
        format!(
            "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            self.path(),
            body.len()
        )
        .into_bytes()
    }

    /// The cache identity of this query.
    #[must_use]
    pub fn key(&self) -> SpecKey {
        match *self {
            Self::Plan {
                workload, arm, amd, ..
            }
            | Self::Frontier { workload, arm, amd } => SpecKey::Frontier(workload, arm, amd),
            Self::Tail {
                workload,
                arm,
                amd,
                lambda,
                p99_s,
            } => SpecKey::Tail(workload, arm, amd, lambda.to_bits(), p99_s.to_bits()),
            Self::Whatif {
                workload, budget_w, ..
            } => SpecKey::Whatif(workload, budget_w.to_bits()),
        }
    }

    /// The node caps, for queries that carry them.
    #[must_use]
    pub fn caps(&self) -> Option<(u32, u32)> {
        match *self {
            Self::Plan { arm, amd, .. }
            | Self::Tail { arm, amd, .. }
            | Self::Frontier { arm, amd, .. } => Some((arm, amd)),
            Self::Whatif { .. } => None,
        }
    }

    /// The library call this request stands for, given the workload's
    /// default work units (the daemon fills `units` in the same way).
    #[must_use]
    pub fn spec_ctx(&self, units: f64) -> (ComputeSpec, RespCtx) {
        let workload = self.workload().to_owned();
        match *self {
            Self::Plan {
                arm,
                amd,
                deadline_ms,
                ..
            } => (
                ComputeSpec::Frontier {
                    workload: workload.clone(),
                    arm,
                    amd,
                    units,
                },
                RespCtx::Plan {
                    workload,
                    arm,
                    amd,
                    units,
                    deadline_ms,
                },
            ),
            Self::Tail {
                arm,
                amd,
                lambda,
                p99_s,
                ..
            } => (
                ComputeSpec::TailPlan {
                    workload: workload.clone(),
                    arm,
                    amd,
                    units,
                    lambda,
                    p99_s,
                    window_s: TAIL_WINDOW_S,
                },
                RespCtx::TailPlan {
                    workload,
                    arm,
                    amd,
                    units,
                    lambda,
                    p99_s,
                    window_s: TAIL_WINDOW_S,
                },
            ),
            Self::Frontier { arm, amd, .. } => (
                ComputeSpec::Frontier {
                    workload: workload.clone(),
                    arm,
                    amd,
                    units,
                },
                RespCtx::Frontier {
                    workload,
                    arm,
                    amd,
                    units,
                    resilient_k: None,
                },
            ),
            Self::Whatif {
                budget_w,
                deadline_ms,
                ..
            } => (
                ComputeSpec::Whatif {
                    workload: workload.clone(),
                    budget_w,
                    units,
                    step_high: STEP_HIGH,
                },
                RespCtx::Whatif {
                    workload,
                    budget_w,
                    units,
                    step_high: STEP_HIGH,
                    deadline_ms: Some(deadline_ms),
                },
            ),
        }
    }
}

/// Which request population a serving workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// A small hot set that fits the plan cache.
    Hot,
    /// A Zipf-skewed space several times the plan cache.
    Cold,
}

impl Population {
    /// The replica plan-cache capacity this population is sized against.
    #[must_use]
    pub fn cache_capacity(self) -> usize {
        match self {
            Self::Hot => HOT_CACHE,
            Self::Cold => COLD_CACHE,
        }
    }
}

/// The per-seed set of specs a population draws from.
struct Space {
    frontiers: Vec<(&'static str, u32, u32)>,
    tails: Vec<(&'static str, u32, u32, f64, f64)>,
    whatifs: Vec<(&'static str, f64)>,
}

fn log_cap(rng: &mut Rng) -> u32 {
    rng.log_uniform(1.0, f64::from(NODE_CAP_LIMIT) + 1.0, 1.0)
        .min(f64::from(NODE_CAP_LIMIT)) as u32
}

/// Node caps of the `j`-th frontier spec of a workload. Both caps are
/// stratified over a workload's specs, Latin-square style (ARM stratum
/// `j`, AMD stratum `7j + j / strata`, modulo the strata), so every seed's
/// set spans small to large sweeps alike and seeds differ only within
/// strata.
fn stratified_caps(rng: &mut Rng, pop: Population, j: usize) -> (u32, u32) {
    let (strata, amd_max) = match pop {
        Population::Hot => (6, 8),
        Population::Cold => (10, 16),
    };
    let arm_f = ((j % strata) as f64 + rng.unit()) / strata as f64;
    let amd_f = (((7 * j + j / strata) % strata) as f64 + rng.unit()) / strata as f64;
    let arm = match pop {
        Population::Hot => 1.0 + (arm_f * 32.0).floor(),
        Population::Cold => (arm_f * (f64::from(NODE_CAP_LIMIT) + 1.0).ln())
            .exp()
            .floor(),
    };
    let amd = (amd_f * f64::from(amd_max + 1)).floor();
    (
        arm.clamp(1.0, f64::from(NODE_CAP_LIMIT)) as u32,
        (amd as u32).min(amd_max),
    )
}

fn space(pop: Population, seed: u64) -> Space {
    let mut rng = Rng::new(seed, 0x5BACE);
    let mut seen = HashSet::new();
    let mut frontiers = Vec::new();
    let (n_frontier, n_tail, n_whatif) = match pop {
        Population::Hot => (HOT_FRONTIERS, 0, HOT_WHATIFS),
        Population::Cold => (COLD_FRONTIERS, COLD_TAILS, COLD_WHATIFS),
    };
    let mut redraws = 0;
    while frontiers.len() < n_frontier {
        let i = frontiers.len();
        let w = WORKLOADS[i % WORKLOADS.len()];
        // A stratum too narrow to hold another distinct spec falls back to
        // unstratified caps.
        let (arm, amd) = if redraws < 64 {
            stratified_caps(&mut rng, pop, i / WORKLOADS.len())
        } else {
            (rng.range(1, 32), rng.range(0, 8))
        };
        if seen.insert((w, arm, amd)) {
            frontiers.push((w, arm, amd));
            redraws = 0;
        } else {
            redraws += 1;
        }
    }
    let tails = (0..n_tail)
        .map(|i| {
            let w = WORKLOADS[i % WORKLOADS.len()];
            let lambda = f64::from(rng.range(20, 100)) / 1000.0;
            (
                w,
                log_cap(&mut rng),
                rng.range(0, 16),
                lambda,
                rng.log_uniform(0.5, 60.0, 1000.0),
            )
        })
        .collect();
    let mut seen = HashSet::new();
    let mut whatifs = Vec::new();
    while whatifs.len() < n_whatif {
        let w = WORKLOADS[whatifs.len() % WORKLOADS.len()];
        let budget = match pop {
            Population::Hot => rng.range(100, 400),
            Population::Cold => rng.range(100, 1200),
        };
        if seen.insert((w, budget)) {
            whatifs.push((w, f64::from(budget)));
        }
    }
    Space {
        frontiers,
        tails,
        whatifs,
    }
}

fn deadline(rng: &mut Rng) -> f64 {
    rng.log_uniform(DEADLINE_MS.0, DEADLINE_MS.1, 1000.0)
}

/// The request stream of one client (`stream` 0, 1, …) or of the warm-up
/// and answer-check passes (their own stream labels): `len` requests in a
/// `/plan:/frontier:/whatif` 2:2:1 mix by ticket. On the cold population
/// every fourth `/plan` carries `p99_s`.
#[must_use]
pub fn stream(pop: Population, seed: u64, stream: u64, len: usize) -> Vec<Query> {
    let sp = space(pop, seed);
    let zf = Zipf::new(sp.frontiers.len(), ZIPF_S);
    let zw = Zipf::new(sp.whatifs.len(), ZIPF_S);
    let zt = (!sp.tails.is_empty()).then(|| Zipf::new(sp.tails.len(), ZIPF_S));
    let mut rng = Rng::new(seed, 0x57EA_0000 + stream);
    let mut plans = 0u64;
    (0..len as u64)
        .map(|ticket| {
            let pick = |rng: &mut Rng, n: usize, z: &Zipf| match pop {
                Population::Hot => rng.index(n),
                Population::Cold => z.sample(rng),
            };
            match ticket % 5 {
                0 | 1 => {
                    plans += 1;
                    if let (Some(zt), true) = (&zt, plans.is_multiple_of(TAIL_EVERY)) {
                        let (workload, arm, amd, lambda, p99_s) = sp.tails[zt.sample(&mut rng)];
                        Query::Tail {
                            workload,
                            arm,
                            amd,
                            lambda,
                            p99_s,
                        }
                    } else {
                        let (workload, arm, amd) =
                            sp.frontiers[pick(&mut rng, sp.frontiers.len(), &zf)];
                        Query::Plan {
                            workload,
                            arm,
                            amd,
                            deadline_ms: deadline(&mut rng),
                        }
                    }
                }
                2 | 3 => {
                    let (workload, arm, amd) =
                        sp.frontiers[pick(&mut rng, sp.frontiers.len(), &zf)];
                    Query::Frontier { workload, arm, amd }
                }
                _ => {
                    let (workload, budget_w) = sp.whatifs[pick(&mut rng, sp.whatifs.len(), &zw)];
                    Query::Whatif {
                        workload,
                        budget_w,
                        deadline_ms: deadline(&mut rng),
                    }
                }
            }
        })
        .collect()
}

/// One `/frontier` or `/whatif` per spec of the hot set: the warm-up that
/// fills the cache with exactly the hot set.
#[must_use]
pub fn hot_set(seed: u64) -> Vec<Query> {
    let sp = space(Population::Hot, seed);
    let f = sp
        .frontiers
        .iter()
        .map(|&(workload, arm, amd)| Query::Frontier { workload, arm, amd });
    let w = sp
        .whatifs
        .iter()
        .map(|&(workload, budget_w)| Query::Whatif {
            workload,
            budget_w,
            deadline_ms: 1000.0,
        });
    f.chain(w).collect()
}

/// The plan-quality probe: `/plan` on frontier specs of the population
/// (the whole hot set, or the first cold specs, which cycle the six
/// workloads) at deadlines spread evenly in log scale over the request
/// range, each jittered within its step.
#[must_use]
pub fn quality_probe(pop: Population, seed: u64) -> Vec<Query> {
    let sp = space(pop, seed);
    let mut rng = Rng::new(seed, 0x9A11);
    let (lo, hi) = (DEADLINE_MS.0.ln(), DEADLINE_MS.1.ln());
    let step = (hi - lo) / f64::from(PROBE_DEADLINES);
    let specs = match pop {
        Population::Hot => sp.frontiers.len(),
        Population::Cold => COLD_PROBE_SPECS,
    };
    sp.frontiers[..specs]
        .iter()
        .flat_map(|&(workload, arm, amd)| {
            (0..PROBE_DEADLINES)
                .map(|k| {
                    let x = (lo + step * (f64::from(k) + rng.unit())).exp();
                    Query::Plan {
                        workload,
                        arm,
                        amd,
                        deadline_ms: (x * 1000.0).round() / 1000.0,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Distinct cache entries a list of queries touches.
#[must_use]
pub fn distinct(queries: &[Query]) -> usize {
    queries.iter().map(Query::key).collect::<HashSet<_>>().len()
}

/// Generator self-test: determinism per seed, sensitivity to the seed,
/// working-set size against the cache, and API limits. Returns the
/// problems found.
#[must_use]
pub fn selftest(pop: Population, seed: u64, streams: &[Vec<Query>]) -> Vec<String> {
    let mut problems = Vec::new();
    let len = streams.first().map_or(0, Vec::len).min(4096);
    let again = stream(pop, seed, 0, len);
    if streams.first().map(|s| &s[..len]) != Some(&again[..]) {
        problems.push("same seed gave a different request stream".to_owned());
    }
    if stream(pop, seed.wrapping_add(1), 0, len) == again {
        problems.push("a different seed gave the same request stream".to_owned());
    }
    let all: Vec<Query> = streams.iter().flatten().cloned().collect();
    let keys = distinct(&all);
    let cap = pop.cache_capacity();
    match pop {
        Population::Hot if keys > cap => {
            problems.push(format!(
                "hot set of {keys} specs exceeds the cache capacity {cap}"
            ));
        }
        Population::Cold if keys <= cap => {
            problems.push(format!(
                "cold stream touches {keys} specs, not more than the cache capacity {cap}"
            ));
        }
        _ => {}
    }
    for q in &all {
        if let Some((arm, amd)) = q.caps() {
            if arm > NODE_CAP_LIMIT || amd > NODE_CAP_LIMIT || arm + amd == 0 {
                problems.push(format!("node caps out of the API range: {q:?}"));
                break;
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_pass_the_selftest() {
        for pop in [Population::Hot, Population::Cold] {
            for seed in [1, 2, 99] {
                let streams = vec![stream(pop, seed, 0, 6000), stream(pop, seed, 1, 6000)];
                assert_eq!(
                    selftest(pop, seed, &streams),
                    Vec::<String>::new(),
                    "{pop:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn mix_is_two_two_one_with_a_fixed_tail_share() {
        let s = stream(Population::Cold, 5, 0, 1000);
        let count = |f: fn(&Query) -> bool| s.iter().filter(|q| f(q)).count();
        assert_eq!(count(|q| matches!(q, Query::Frontier { .. })), 400);
        assert_eq!(count(|q| matches!(q, Query::Whatif { .. })), 200);
        assert_eq!(count(|q| matches!(q, Query::Tail { .. })), 100);
    }

    #[test]
    fn hot_stream_stays_inside_the_hot_set() {
        let set: HashSet<SpecKey> = hot_set(3).iter().map(Query::key).collect();
        assert!(stream(Population::Hot, 3, 1, 2000)
            .iter()
            .all(|q| set.contains(&q.key())));
    }
}
