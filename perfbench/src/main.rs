//! hecmix benchmark: four workloads from client → gateway → replica down to
//! the scheduler replay.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload direct_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a run record, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for what each workload and metric means.

mod client;
mod gen;
mod replay;
mod rng;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use serving::Kind;
use trace::Tracer;

/// End-to-end metrics and their units, as `BENCHMARK.json` names them.
const END_TO_END: [(&str, &str); 8] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("energy_j", "J"),
    ("miss_rate", "ratio"),
];

/// Per-layer metrics and their units. A workload that does not exercise a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 35] = [
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("cache.evictions", "count"),
    ("singleflight.coalesced", "count"),
    ("server.computes", "count"),
    ("server.compute_samples", "count"),
    ("server.compute_us_p50", "us"),
    ("server.compute_us_p99", "us"),
    ("server.rejected", "count"),
    ("fleet.upstream_us_p50", "us"),
    ("fleet.retries", "count"),
    ("fleet.hedges", "count"),
    ("proc.threads_peak", "count"),
    ("sched.migrations", "count"),
    ("sched.rejected", "count"),
    ("http.parse_us", "us"),
    ("api.route_us", "us"),
    ("api.format_us", "us"),
    ("http.write_us", "us"),
    ("event_loop.residual_us", "us"),
    ("compute.frontier_us", "us"),
    ("compute.whatif_us", "us"),
    ("compute.tailplan_us", "us"),
    ("rate_table.build_us", "us"),
    ("rate_table.frontier_us", "us"),
    ("rate_table.points_per_s", "1/s"),
    ("rate_table.threads_spawned", "count"),
    ("des.tail_plan_us", "us"),
    ("des.runs_per_plan", "count"),
    ("fleet.forward_us", "us"),
    ("fleet.hop_us", "us"),
    ("store.build_s", "s"),
    ("pool.build_s", "s"),
    ("sched.run_s", "s"),
    ("obs.overhead_pct", "%"),
];

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, or submitted jobs per replay).
    pub attempted: u64,
    /// Operations that failed or whose answers failed the check.
    pub failed: u64,
    /// Everything that makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable run-record lines.
    pub record: Vec<String>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Available parallelism of this machine.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    let workload = workload
        .ok_or("--workload is required: direct_hot, gateway_hot, direct_cold or sched_replay")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `rustc -V`, or why it could not be read.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "rustc not found".to_owned(), |s| s.trim().to_owned())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_owned();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_owned()))
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "direct_hot" => serving::run(Kind::DirectHot, args.seed, args.seconds, args.trace),
        "gateway_hot" => serving::run(Kind::GatewayHot, args.seed, args.seconds, args.trace),
        "direct_cold" => serving::run(Kind::DirectCold, args.seed, args.seconds, args.trace),
        "sched_replay" => replay::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "nproc {} | {} | git {}",
        nproc(),
        rustc_version(),
        git_rev()
    );
    println!(
        "operations attempted {} succeeded {} failed {}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    );
    for line in &out.record {
        println!("{line}");
    }
    if let Some(t) = &out.tracer {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match t.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => out.problems.push(format!("cannot write spans: {e}")),
        }
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values = if args.trace { &out.layers } else { &out.e2e };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let v = values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            out.problems.push(format!("{name} is not finite"));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        println!("{name:<28} {v:>18.6} {unit}");
        metrics.push(format!(r#""{name}":{{"value":{v},"unit":"{unit}"}}"#));
    }
    for p in &out.problems {
        println!("PROBLEM: {p}");
    }
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.problems.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
