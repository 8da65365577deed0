//! The serving workloads: `direct_hot`, `gateway_hot` and `direct_cold`.
//!
//! Each run builds its model store with `Lab`, starts fresh daemons in
//! this process through `hecmix_serve::start`, warms them with a fixed
//! request sequence, and drives them over loopback from one thread and one
//! keep-alive connection per client.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hecmix_core::config::ConfigSpace;
use hecmix_core::pareto::ParetoFrontier;
use hecmix_core::rate_table::RateTable;
use hecmix_core::types::Platform;
use hecmix_experiments::lab::Lab;
use hecmix_obs::json::{self, Value};
use hecmix_obs::{Event, RingSink};
use hecmix_queueing::dispatch::{best_choice_tail, ConfigChoice, TailDesConfig, TailTarget};
use hecmix_serve::api::{compute_plan, format_response, AppState, CachedPlan, ComputeSpec, Routed};
use hecmix_serve::fleet::{Fleet, FleetConfig};
use hecmix_serve::store::ModelEntry;
use hecmix_serve::{ModelStore, ServeConfig, ServerHandle};

use crate::client::{self, ClientStats, Conn};
use crate::gen::{self, Population, Query, SpecKey};
use crate::rng::Rng;
use crate::stats::{self, median, percentile, Histogram};
use crate::trace::{Span, Tracer};
use crate::{nproc, Outcome};

/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUPS: usize = 5;
/// Requests per client stream (hot streams cycle; cold ones are long
/// enough not to).
const HOT_LEN: usize = 4096;
const COLD_LEN: usize = 40_000;
/// Stream labels of the passes that are not timed clients.
const WARM_STREAM: u64 = 100;
/// Extra hot requests sent after the hot set during warm-up.
const HOT_WARM_EXTRA: usize = 100;
/// Requests in the cold warm-up.
const COLD_WARM: usize = 2 * gen::COLD_CACHE;
/// Answer-check sample sizes.
const HOT_CHECK: usize = 300;
const COLD_CHECK: usize = 150;
/// Requests replayed through the in-process layer calls in a traced run.
const HOT_LAYER_REQS: usize = 4000;
const GATEWAY_LAYER_REQS: usize = 300;
const COLD_LAYER_SPECS: usize = 60;
/// Length of the direct pass behind the gateway/direct ratio row on
/// `gateway_hot`, s.
const DIRECT_PASS_S: f64 = 2.0;
/// Length of the gateway pass of a traced `direct_hot` run, s: enough
/// answers for the fleet's upstream histogram and the ratio row.
const GATEWAY_PASS_S: f64 = 4.0;
/// Fields that legitimately differ between a served and a library answer.
const VOLATILE: [&str; 3] = ["cached", "coalesced", "compute_us"];

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Client → replica, hot set.
    DirectHot,
    /// Client → gateway → replica, hot set.
    GatewayHot,
    /// Client → replica, Zipf-skewed specs beyond the cache.
    DirectCold,
}

impl Kind {
    fn population(self) -> Population {
        match self {
            Self::DirectHot | Self::GatewayHot => Population::Hot,
            Self::DirectCold => Population::Cold,
        }
    }
}

/// The model store every daemon and the answer check use: all six paper
/// workloads, characterized by `lab`.
fn lab_store(lab: &Lab) -> ModelStore {
    let mut store = ModelStore::new();
    for w in hecmix_workloads::all_workloads() {
        store.insert(w.name(), lab.models(w.as_ref()).to_vec());
    }
    store
}

struct Gateway {
    handle: ServerHandle,
    fleet: Arc<Fleet>,
}

struct Daemons {
    replica: ServerHandle,
    replica_state: Arc<AppState>,
    gateway: Option<Gateway>,
}

impl Daemons {
    fn front(&self) -> SocketAddr {
        self.gateway
            .as_ref()
            .map_or_else(|| self.replica.addr(), |g| g.handle.addr())
    }

    fn stop(self) {
        if let Some(g) = self.gateway {
            g.stop();
        }
        self.replica.join();
    }
}

impl Gateway {
    /// A one-member fleet in front of `replica`, probing as `hecmix
    /// gateway` does, over a store built from the same `lab`.
    fn start(lab: &Lab, replica: SocketAddr) -> io::Result<Self> {
        let config = serve_config();
        let fleet = Arc::new(Fleet::new(FleetConfig {
            replicas: vec![replica.to_string()],
            ..FleetConfig::default()
        })?);
        fleet.start_probing();
        let state = Arc::new(AppState::new_gateway(
            lab_store(lab),
            config.io_threads,
            Arc::clone(&fleet),
        ));
        let handle = hecmix_serve::start(config, state)?;
        Ok(Self { handle, fleet })
    }

    fn stop(self) {
        self.handle.join();
        self.fleet.stop();
    }
}

struct Setup {
    daemons: Daemons,
    setup_s: f64,
    store_s: f64,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    }
}

/// Build the store, start the daemons, run the fixed warm-up.
fn setup(kind: Kind, warm: &[Vec<u8>]) -> io::Result<Setup> {
    let t0 = Instant::now();
    let lab = Lab::new();
    let store = lab_store(&lab);
    let store_s = t0.elapsed().as_secs_f64();
    let config = serve_config();
    let replica_state = Arc::new(AppState::new(
        store,
        config.io_threads,
        kind.population().cache_capacity(),
    ));
    let replica = hecmix_serve::start(config, Arc::clone(&replica_state))?;
    let gateway = match kind {
        Kind::GatewayHot => Some(Gateway::start(&lab, replica.addr())?),
        Kind::DirectHot | Kind::DirectCold => None,
    };
    let daemons = Daemons {
        replica,
        replica_state,
        gateway,
    };
    let mut conn = Conn::open(daemons.front())?;
    for wire in warm {
        let a = conn.exchange(wire)?;
        if !(200..300).contains(&a.status) {
            return Err(io::Error::other(format!("warm-up answered {}", a.status)));
        }
    }
    Ok(Setup {
        daemons,
        setup_s: t0.elapsed().as_secs_f64(),
        store_s,
    })
}

/// What the clients of one timed window saw.
struct Window {
    clients: Vec<ClientStats>,
    elapsed: Duration,
    threads_peak: u64,
    start: Instant,
    /// Share of the CPU time the hypervisor stole during the window.
    steal: f64,
}

impl Window {
    fn ok(&self) -> u64 {
        self.clients.iter().map(|c| c.lat_ns.count()).sum()
    }
    fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }
    fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }
    /// OK answers per second, as measured.
    fn throughput(&self) -> f64 {
        self.ok() as f64 / self.elapsed.as_secs_f64()
    }

    /// Client latency percentile `q`, ms, as measured.
    fn lat_ms(&self, q: f64) -> f64 {
        let mut all = Histogram::new();
        for c in &self.clients {
            all.merge(&c.lat_ns);
        }
        all.percentile(q) / 1e6
    }

    /// The factor that takes this window's wall-clock time to the time
    /// the VM actually ran: `1 − steal` where the clients keep both CPUs
    /// busy. Behind the gateway the CPUs mostly wait, so stolen time there
    /// is not lost work and the figures stay as measured.
    fn unstolen(&self, kind: Kind) -> f64 {
        match kind {
            Kind::GatewayHot => 1.0,
            Kind::DirectHot | Kind::DirectCold => 1.0 - self.steal,
        }
    }
}

/// One closed-loop window: a client thread per stream, plus a sampler of
/// the process's thread count.
fn timed(
    addr: SocketAddr,
    wires: &[Vec<Vec<u8>>],
    seconds: f64,
    traced: bool,
) -> io::Result<Window> {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| stats::threads_peak(&stop, stats::SAMPLE_EVERY));
        let ticks = stats::CpuTicks::now();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let handles: Vec<_> = wires
            .iter()
            .map(|w| s.spawn(move || client::closed_loop(addr, w, start, deadline, traced)))
            .collect();
        let results: Vec<io::Result<ClientStats>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let steal = stats::CpuTicks::now().steal_share_since(ticks);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let threads_peak = sampler.join().expect("sampler thread panicked");
        let clients = results.into_iter().collect::<io::Result<Vec<_>>>()?;
        let elapsed = clients.iter().map(|c| c.last_end).max().unwrap_or_default();
        Ok(Window {
            clients,
            elapsed,
            threads_peak,
            start,
            steal,
        })
    })
}

fn get_json(addr: SocketAddr, path: &str) -> io::Result<Value> {
    let mut conn = Conn::open(addr)?;
    let a = conn.exchange(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n").as_bytes(),
    )?;
    json::parse(&String::from_utf8_lossy(&a.body)).map_err(io::Error::other)
}

fn num(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for k in path {
        match cur.get(k) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// `after − before` of a `/statz` counter.
fn delta(before: &Value, after: &Value, path: &[&str]) -> f64 {
    num(after, path) - num(before, path)
}

/// Outcome of the answer check.
#[derive(Default)]
struct Check {
    checked: u64,
    failed: u64,
    problems: Vec<String>,
    /// Energy of every feasible `/plan` answer (deadline plans), by workload.
    plan_energy_j: BTreeMap<String, Vec<f64>>,
    plans: u64,
    infeasible: u64,
}

impl Check {
    /// Mean energy of the feasible plans: per workload, then across
    /// workloads, so the workload mix of the sample does not move it.
    fn energy_j(&self) -> f64 {
        let per: Vec<f64> = self
            .plan_energy_j
            .values()
            .map(|v| stats::mean(v))
            .collect();
        stats::mean(&per)
    }

    fn miss_rate(&self) -> f64 {
        self.infeasible as f64 / self.plans.max(1) as f64
    }
}

fn strip_volatile(v: Value) -> Value {
    match v {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
                .collect(),
        ),
        other => other,
    }
}

/// The library's answer to `q`: `compute_plan` plus `format_response` on
/// `store`, memoized per spec.
fn library_answer(
    q: &Query,
    store: &ModelStore,
    plans: &mut HashMap<SpecKey, Arc<CachedPlan>>,
) -> Result<(u16, String), String> {
    let units = store
        .get(q.workload())
        .ok_or("workload missing from the store")?
        .default_units;
    let (spec, ctx) = q.spec_ctx(units);
    let plan = match plans.get(&q.key()) {
        Some(p) => Arc::clone(p),
        None => {
            let (_, p) = compute_plan(&spec, store)
                .map_err(|r| format!("library refused {q:?}: {}", r.body))?;
            plans.insert(q.key(), Arc::clone(&p));
            p
        }
    };
    let resp = format_response(&ctx, store, &plan, false, false, 0);
    Ok((resp.status, resp.body))
}

/// Send `sample` and `probe` through `front` and compare each answer field
/// by field with the library's answer; the probe's `/plan` answers also
/// give the plan quality.
fn answer_check(
    front: SocketAddr,
    sample: &[Query],
    probe: &[Query],
    store: &ModelStore,
) -> io::Result<Check> {
    let mut conn = Conn::open(front)?;
    let mut plans = HashMap::new();
    let mut c = Check::default();
    for (i, q) in sample.iter().chain(probe).enumerate() {
        c.checked += 1;
        let got = conn.exchange(&q.wire())?;
        let expected = library_answer(q, store, &mut plans);
        let got_v = std::str::from_utf8(&got.body)
            .ok()
            .and_then(|t| json::parse(t).ok());
        let ok = match (&expected, &got_v) {
            (Ok((status, body)), Some(got_v))
                if (200..300).contains(&got.status) && *status == got.status =>
            {
                json::parse(body).ok().map(strip_volatile) == Some(strip_volatile(got_v.clone()))
            }
            _ => false,
        };
        if !ok {
            c.failed += 1;
            if c.problems.len() < 3 {
                c.problems.push(format!(
                    "answer mismatch on {} {}: served {} {}",
                    q.path(),
                    q.body(),
                    got.status,
                    String::from_utf8_lossy(&got.body)
                        .chars()
                        .take(200)
                        .collect::<String>()
                ));
            }
            continue;
        }
        if let (Query::Plan { workload, .. }, Some(v), true) = (q, got_v, i >= sample.len()) {
            c.plans += 1;
            match v.get("energy_j").and_then(Value::as_f64) {
                Some(e) if v.get("feasible").and_then(Value::as_bool) == Some(true) => {
                    c.plan_energy_j
                        .entry((*workload).to_owned())
                        .or_default()
                        .push(e);
                }
                _ => c.infeasible += 1,
            }
        }
    }
    Ok(c)
}

/// A seeded sample of the run's request streams.
fn check_sample(streams: &[Vec<Query>], seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 0xC4EC);
    (0..n)
        .map(|_| {
            let s = &streams[rng.index(streams.len())];
            s[rng.index(s.len())].clone()
        })
        .collect()
}

/// Run one serving workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> io::Result<Outcome> {
    let pop = kind.population();
    let clients = nproc().clamp(1, 2);
    let len = if pop == Population::Hot {
        HOT_LEN
    } else {
        COLD_LEN
    };
    let streams: Vec<Vec<Query>> = (0..clients as u64)
        .map(|c| gen::stream(pop, seed, c, len))
        .collect();
    let mut out = Outcome::default();
    out.problems.extend(gen::selftest(pop, seed, &streams));
    let wires: Vec<Vec<Vec<u8>>> = streams
        .iter()
        .map(|s| s.iter().map(Query::wire).collect())
        .collect();
    let warm: Vec<Vec<u8>> = match pop {
        Population::Hot => gen::hot_set(seed)
            .into_iter()
            .chain(gen::stream(pop, seed, WARM_STREAM, HOT_WARM_EXTRA))
            .map(|q| q.wire())
            .collect(),
        Population::Cold => gen::stream(pop, seed, WARM_STREAM, COLD_WARM)
            .iter()
            .map(Query::wire)
            .collect(),
    };

    let mut setup_s = Vec::new();
    let mut store_s = Vec::new();
    let mut daemons = None;
    for i in 0..SETUPS {
        let s = setup(kind, &warm)?;
        setup_s.push(s.setup_s);
        store_s.push(s.store_s);
        if i + 1 == SETUPS {
            daemons = Some(s.daemons);
        } else {
            s.daemons.stop();
        }
    }
    let daemons = daemons.expect("at least one set-up");
    let replica = daemons.replica.addr();
    let front = daemons.front();

    // Untraced timed window, with counters read around it.
    let before = get_json(replica, "/statz")?;
    let fleet_before = daemons
        .gateway
        .as_ref()
        .map_or((0, 0), |g| (g.fleet.retry_count(), g.fleet.hedge_count()));
    let gw_before = match &daemons.gateway {
        Some(g) => Some(get_json(g.handle.addr(), "/statz")?),
        None => None,
    };
    let win = timed(front, &wires, seconds, false)?;
    let after = get_json(replica, "/statz")?;
    let samples = win.ok();
    let unstolen = win.unstolen(kind);
    let (p50, p99) = (win.lat_ms(50.0) * unstolen, win.lat_ms(99.0) * unstolen);
    if samples < 1000 {
        out.problems.push(format!(
            "only {samples} latency samples; p99 needs at least 1000"
        ));
    }

    // Untimed tail: the answer check.
    let check_store = lab_store(&Lab::new());
    let sample = check_sample(
        &streams,
        seed,
        if pop == Population::Hot {
            HOT_CHECK
        } else {
            COLD_CHECK
        },
    );
    let check = answer_check(front, &sample, &gen::quality_probe(pop, seed), &check_store)?;
    out.problems.extend(check.problems.iter().cloned());
    out.attempted = win.attempted() + check.checked;
    out.failed = win.failed() + check.failed;

    let e2e = &mut out.e2e;
    e2e.insert("throughput_rps", win.throughput() / unstolen);
    e2e.insert("latency_p50_ms", p50);
    e2e.insert("latency_p99_ms", p99);
    e2e.insert("ok_rate", 1.0 - out.failed as f64 / out.attempted as f64);
    e2e.insert("setup_s", median(&mut setup_s.clone()));
    e2e.insert("energy_j", check.energy_j());
    e2e.insert("miss_rate", check.miss_rate());

    let l = &mut out.layers;
    let hits = delta(&before, &after, &["cache", "hits"]);
    let lookups = hits + delta(&before, &after, &["cache", "misses"]);
    l.insert("cache.lookups", lookups);
    l.insert(
        "cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    l.insert(
        "cache.evictions",
        delta(&before, &after, &["cache", "evictions"]),
    );
    l.insert(
        "singleflight.coalesced",
        delta(&before, &after, &["coalesced"]),
    );
    l.insert("server.computes", delta(&before, &after, &["computes"]));
    let mut compute_us: Vec<f64> = win
        .clients
        .iter()
        .flat_map(|c| c.compute_us.iter().map(|&u| u as f64))
        .collect();
    l.insert("server.compute_samples", compute_us.len() as f64);
    l.insert("server.compute_us_p50", percentile(&mut compute_us, 50.0));
    l.insert("server.compute_us_p99", percentile(&mut compute_us, 99.0));
    let mut rejected = delta(&before, &after, &["rejected"]);
    l.insert("proc.threads_peak", win.threads_peak as f64);
    l.insert("store.build_s", median(&mut store_s));

    out.record.push(format!(
        "clients {clients} (nproc {}), keep-alive connections {clients}, window {:.3} s, hypervisor steal {:.2} % of CPU time",
        nproc(),
        win.elapsed.as_secs_f64(),
        win.steal * 100.0
    ));
    out.record.push(format!(
        "as measured, before the steal scaling: {:.3} rps, p50 {:.6} ms, p99 {:.6} ms",
        win.throughput(),
        win.lat_ms(50.0),
        win.lat_ms(99.0)
    ));
    out.record.push(format!(
        "requests attempted {} ok {} failed {} (timed); answer check {} checked, {} mismatched",
        win.attempted(),
        win.ok(),
        win.failed(),
        check.checked,
        check.failed
    ));
    out.record.push(format!(
        "latency percentiles from {samples} samples ({} beyond p99)",
        samples / 100
    ));

    out.record.push(format!(
        "plan quality from {} probe /plan answers: {} infeasible, energy over {} feasible",
        check.plans,
        check.infeasible,
        check.plans - check.infeasible
    ));
    out.record.push(format!("set-up times (s): {setup_s:?}"));

    if let (Some(g), Some(gb)) = (&daemons.gateway, &gw_before) {
        rejected += fleet_counters(&mut out, g, gb, fleet_before)?;
        // The direct pass behind the gateway/direct ratio row.
        let direct = timed(replica, &wires, DIRECT_PASS_S, false)?;
        out.record.push(ratio_row(&win, &direct, "a direct pass"));
    }
    out.layers.insert("server.rejected", rejected);

    if traced {
        let mut tracer = Tracer::new();
        traced_window(&mut out, &mut tracer, kind, front, &wires, seconds, p50)?;
        match kind {
            Kind::DirectHot => {
                hot_layers(
                    &mut out,
                    &mut tracer,
                    &daemons.replica_state,
                    &streams[0],
                    &check_store,
                    p50,
                )?;
                // The fleet layers, behind a gateway started in front of
                // the same warm replica for the rest of the run.
                let g = Gateway::start(&Lab::new(), replica)?;
                let gb = get_json(g.handle.addr(), "/statz")?;
                let before = (g.fleet.retry_count(), g.fleet.hedge_count());
                let gwin = timed(g.handle.addr(), &wires, GATEWAY_PASS_S, false)?;
                fleet_counters(&mut out, &g, &gb, before)?;
                let peak = out.layers["proc.threads_peak"].max(gwin.threads_peak as f64);
                out.layers.insert("proc.threads_peak", peak);
                out.record
                    .push(ratio_row(&gwin, &win, "this run's timed window"));
                gateway_layers(
                    &mut out,
                    &mut tracer,
                    &g.fleet,
                    replica,
                    &streams[0],
                    &check_store,
                )?;
                g.stop();
            }
            Kind::GatewayHot => {
                let g = daemons
                    .gateway
                    .as_ref()
                    .expect("gateway workload has a gateway");
                gateway_layers(
                    &mut out,
                    &mut tracer,
                    &g.fleet,
                    replica,
                    &streams[0],
                    &check_store,
                )?;
            }
            Kind::DirectCold => cold_layers(&mut out, &mut tracer, &streams[0])?,
        }
        out.tracer = Some(tracer);
    }
    daemons.stop();
    out.e2e.insert("peak_rss_mb", stats::peak_rss_mb());
    Ok(out)
}

/// Fleet counters over a gateway window: retries, hedges, the upstream
/// p50, and the gateway's own rejections (returned).
fn fleet_counters(
    out: &mut Outcome,
    g: &Gateway,
    statz_before: &Value,
    (retries, hedges): (u64, u64),
) -> io::Result<f64> {
    let after = get_json(g.handle.addr(), "/statz")?;
    out.layers
        .insert("fleet.retries", (g.fleet.retry_count() - retries) as f64);
    out.layers
        .insert("fleet.hedges", (g.fleet.hedge_count() - hedges) as f64);
    out.layers.insert(
        "fleet.upstream_us_p50",
        num(&after, &["fleet", "upstream_us", "p50"]),
    );
    Ok(delta(statz_before, &after, &["rejected"]))
}

/// The gateway/direct throughput ratio, with its base, as measured.
fn ratio_row(gateway: &Window, direct: &Window, direct_is: &str) -> String {
    format!(
        "ratio gateway_hot/direct_hot throughput = {:.4} (gateway {:.1} rps over {:.2} s; base: {:.1} rps direct to the same replica with the same requests, {direct_is}, {:.2} s, {} ok)",
        gateway.throughput() / direct.throughput(),
        gateway.throughput(),
        gateway.elapsed.as_secs_f64(),
        direct.throughput(),
        direct.elapsed.as_secs_f64(),
        direct.ok()
    )
}

/// The traced client window: the same clients with a span kept per
/// request. Its p50 against the untraced p50 is the tracing overhead.
fn traced_window(
    out: &mut Outcome,
    tracer: &mut Tracer,
    kind: Kind,
    front: SocketAddr,
    wires: &[Vec<Vec<u8>>],
    seconds: f64,
    untraced_p50: f64,
) -> io::Result<()> {
    let win = timed(front, wires, seconds / 2.0, true)?;
    let base = win
        .start
        .saturating_duration_since(tracer.epoch())
        .as_nanos() as u64;
    let mut req = 0u64;
    for c in &win.clients {
        for &(a, b) in &c.spans {
            tracer.push(Span {
                name: "client.request",
                start_ns: base + a,
                end_ns: base + b,
                parent: None,
                req,
            });
            req += 1;
        }
    }
    let traced_p50 = win.lat_ms(50.0) * win.unstolen(kind);
    out.layers.insert(
        "obs.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
    out.record.push(format!(
        "traced window: p50 {traced_p50:.4} ms over {} samples against untraced {untraced_p50:.4} ms",
        win.ok()
    ));
    Ok(())
}

/// Median self time of the spans named `name`, µs; 0 when there are none.
fn median_self_us(self_us: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    median(&mut self_us.get(name).cloned().unwrap_or_default())
}

/// `direct_hot`: replay hot requests through the request path's public
/// functions in process, against the live replica's warm state.
fn hot_layers(
    out: &mut Outcome,
    tracer: &mut Tracer,
    state: &AppState,
    stream: &[Query],
    store: &ModelStore,
    client_p50_ms: f64,
) -> io::Result<()> {
    let mut plans = HashMap::new();
    for (i, q) in stream.iter().cycle().take(HOT_LAYER_REQS).enumerate() {
        let wire = q.wire();
        let units = store.get(q.workload()).map_or(1.0, |e| e.default_units);
        let (spec, ctx) = q.spec_ctx(units);
        let plan = match plans.get(&q.key()) {
            Some(p) => Arc::clone(p),
            None => {
                let (_, p) = compute_plan(&spec, store).map_err(|r| io::Error::other(r.body))?;
                plans.insert(q.key(), Arc::clone(&p));
                p
            }
        };
        let req_id = i as u64;
        let root = tracer.begin("request", None, req_id);
        let parsed = tracer.time("http.parse", Some(root), req_id, || {
            hecmix_serve::http::try_parse(&wire)
        });
        let Ok(Some((req, _))) = parsed else {
            return Err(io::Error::other("try_parse rejected a generated request"));
        };
        let routed = tracer.time("api.route", Some(root), req_id, || state.route(&req));
        let Routed::Ready { resp, cached: true } = routed else {
            return Err(io::Error::other(format!(
                "hot request missed the cache: {}",
                q.body()
            )));
        };
        tracer.time("api.format", Some(root), req_id, || {
            format_response(&ctx, store, &plan, true, false, 0)
        });
        tracer.time("http.write", Some(root), req_id, || resp.to_bytes());
        tracer.end(root);
    }
    let self_us = tracer.self_times_us();
    let (p, f, w) = (
        median_self_us(&self_us, "http.parse"),
        median_self_us(&self_us, "api.format"),
        median_self_us(&self_us, "http.write"),
    );
    // A hit formats inside `route`: take the separate format call of the
    // same request out of it.
    let mut route: Vec<f64> = self_us["api.route"]
        .iter()
        .zip(&self_us["api.format"])
        .map(|(r, f)| (r - f).max(0.0))
        .collect();
    let r = median(&mut route);
    let residual = client_p50_ms * 1e3 - (p + r + f + w);
    let l = &mut out.layers;
    l.insert("http.parse_us", p);
    l.insert("api.route_us", r);
    l.insert("api.format_us", f);
    l.insert("http.write_us", w);
    l.insert("event_loop.residual_us", residual);
    out.record.push(format!(
        "client p50 {:.3} us = http.parse {p:.3} + api.route {r:.3} + api.format {f:.3} + http.write {w:.3} + event_loop.residual {residual:.3} (median self times over {HOT_LAYER_REQS} in-process requests)",
        client_p50_ms * 1e3,
    ));
    Ok(())
}

/// `gateway_hot`: `Fleet::forward` against the live replica, beside a
/// direct keep-alive round trip to the same replica.
fn gateway_layers(
    out: &mut Outcome,
    tracer: &mut Tracer,
    fleet: &Arc<Fleet>,
    replica: SocketAddr,
    stream: &[Query],
    store: &ModelStore,
) -> io::Result<()> {
    let mut direct = Conn::open(replica)?;
    for (i, q) in stream.iter().cycle().take(GATEWAY_LAYER_REQS).enumerate() {
        let entry = store
            .get(q.workload())
            .ok_or_else(|| io::Error::other("workload missing"))?;
        let (spec, _) = q.spec_ctx(entry.default_units);
        let key = spec.key(entry.hash);
        let (body, wire) = (q.body(), q.wire());
        let req_id = i as u64;
        let root = tracer.begin("request", None, req_id);
        let resp = tracer.time("fleet.forward", Some(root), req_id, || {
            fleet.forward(key, q.path(), &body)
        });
        let answer = tracer.time("client.direct", Some(root), req_id, || {
            direct.exchange(&wire)
        })?;
        tracer.end(root);
        if resp.status != 200 || answer.status != 200 {
            out.problems.push(format!(
                "forward answered {}, direct {}",
                resp.status, answer.status
            ));
        }
    }
    let self_us = tracer.self_times_us();
    let f = median_self_us(&self_us, "fleet.forward");
    let d = median_self_us(&self_us, "client.direct");
    out.layers.insert("fleet.forward_us", f);
    out.layers.insert("fleet.hop_us", f - d);
    out.record.push(format!(
        "fleet.forward p50 {f:.1} us, direct round trip p50 {d:.1} us, hop {:.1} us ({GATEWAY_LAYER_REQS} requests)",
        f - d,
    ));
    Ok(())
}

/// Threads the sweeps since the last call spawned, read from `SweepStart`
/// events.
fn sweep_threads(ring: &RingSink) -> u64 {
    let n = ring
        .events()
        .iter()
        .map(|e| match e {
            Event::SweepStart { workers, .. } if *workers > 1 => *workers as u64,
            _ => 0,
        })
        .sum();
    ring.clear();
    n
}

/// The serving menu `best_choice_tail` scores for a frontier, built the
/// way the daemon builds it: one entry per frontier point, idle draw of
/// exactly the powered nodes.
fn tail_menu(
    frontier: &ParetoFrontier,
    entry: &ModelEntry,
    platforms: &[Platform; 2],
) -> Vec<ConfigChoice> {
    frontier
        .points
        .iter()
        .map(|p| ConfigChoice {
            label: p.config.label(platforms),
            service_s: p.time_s,
            job_energy_j: p.energy_j,
            idle_power_w: p
                .config
                .per_type
                .iter()
                .zip(entry.models.iter())
                .filter_map(|(c, m)| c.map(|c| f64::from(c.nodes) * m.power.idle_w))
                .sum(),
        })
        .collect()
}

/// `direct_cold`: the compute layers called in process on distinct cold
/// specs: `AppState::compute`, then the sweep and the DES it runs, each
/// called on its own.
fn cold_layers(out: &mut Outcome, tracer: &mut Tracer, stream: &[Query]) -> io::Result<()> {
    let state = AppState::new(lab_store(&Lab::new()), 1, 4096);
    let store = state.store();
    let mut seen = HashSet::new();
    let specs: Vec<&Query> = stream
        .iter()
        .filter(|q| seen.insert(q.key()))
        .take(COLD_LAYER_SPECS)
        .collect();
    let ring = Arc::new(RingSink::new(4096));
    let (mut points, mut threads, mut sweeps, mut des_runs) = (0u64, 0u64, 0u64, Vec::new());
    for (i, q) in specs.iter().enumerate() {
        let entry = store
            .get(q.workload())
            .ok_or_else(|| io::Error::other("workload missing"))?;
        let (spec, _) = q.spec_ctx(entry.default_units);
        let req_id = i as u64;
        let root = tracer.begin("request", None, req_id);
        let name = match spec {
            ComputeSpec::Whatif { .. } => "compute.whatif",
            ComputeSpec::TailPlan { .. } => "compute.tailplan",
            _ => "compute.frontier",
        };
        tracer
            .time(name, Some(root), req_id, || state.compute(&spec, &store))
            .map_err(|r| io::Error::other(format!("compute refused {}: {}", q.body(), r.body)))?;
        if let ComputeSpec::Frontier {
            arm, amd, units, ..
        }
        | ComputeSpec::TailPlan {
            arm, amd, units, ..
        } = spec
        {
            let platforms = [
                entry.models[0].platform.clone(),
                entry.models[1].platform.clone(),
            ];
            let space = ConfigSpace::two_type(platforms[0].clone(), arm, platforms[1].clone(), amd);
            let table = tracer
                .time("rate_table.build", Some(root), req_id, || {
                    RateTable::build_pruned(&space, &entry.models)
                })
                .map_err(|e| io::Error::other(e.to_string()))?;
            hecmix_obs::install(Arc::clone(&ring) as Arc<dyn hecmix_obs::Sink>);
            let frontier = tracer.time("rate_table.frontier", Some(root), req_id, || {
                table.frontier(units)
            });
            hecmix_obs::uninstall();
            let frontier = frontier.map_err(|e| io::Error::other(e.to_string()))?;
            points += table.count();
            threads += sweep_threads(&ring);
            sweeps += 1;
            if let ComputeSpec::TailPlan {
                lambda,
                p99_s,
                window_s,
                ..
            } = spec
            {
                let menu = tail_menu(&frontier, entry, &platforms);
                let target =
                    TailTarget::new(0.99, p99_s).map_err(|e| io::Error::other(e.to_string()))?;
                let tail = tracer.time("des.tail_plan", Some(root), req_id, || {
                    best_choice_tail(&menu, lambda, window_s, target, &TailDesConfig::default())
                });
                if let Ok(Some(o)) = tail {
                    des_runs.push(f64::from(o.des_runs));
                }
            }
        }
        tracer.end(root);
    }
    let self_us = tracer.self_times_us();
    let l = &mut out.layers;
    for (metric, span) in [
        ("compute.frontier_us", "compute.frontier"),
        ("compute.whatif_us", "compute.whatif"),
        ("compute.tailplan_us", "compute.tailplan"),
        ("rate_table.build_us", "rate_table.build"),
        ("rate_table.frontier_us", "rate_table.frontier"),
        ("des.tail_plan_us", "des.tail_plan"),
    ] {
        l.insert(metric, median_self_us(&self_us, span));
    }
    let frontier_s: f64 = self_us
        .get("rate_table.frontier")
        .map_or(0.0, |v| v.iter().sum::<f64>() / 1e6);
    l.insert(
        "rate_table.points_per_s",
        if frontier_s > 0.0 {
            points as f64 / frontier_s
        } else {
            0.0
        },
    );
    l.insert("rate_table.threads_spawned", threads as f64);
    l.insert("des.runs_per_plan", stats::mean(&des_runs));
    out.record.push(format!(
        "compute layers over {} distinct cold specs: {sweeps} sweeps of {points} points spawned {threads} threads; {} tail plans",
        specs.len(),
        des_runs.len()
    ));
    Ok(())
}
