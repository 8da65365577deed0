//! Structured observability for the hecmix stack.
//!
//! The paper's argument rests on *measured* quantities — per-phase cycle
//! counts, power-state residency, model-vs-measurement error bands — yet
//! without a telemetry layer the discrete-event engine, the streaming sweep,
//! and the diurnal dispatcher all compute invisibly. This crate provides:
//!
//! - [`Event`]: a closed schema of structured events emitted by the
//!   simulator (phase transitions, memory contention, DVFS switches, fault
//!   lifecycle), the sweep engine (chunk/scan/merge counters, timers), the
//!   dispatcher (per-slot decisions), and the experiment runner (CSV
//!   warnings, artifact manifests).
//! - [`Sink`]: where events go. [`JsonlSink`] appends one JSON object per
//!   line to a file; [`RingSink`] keeps the last N events in memory for
//!   tests; the default is no sink at all.
//! - A process-global registry ([`install`]/[`uninstall`]/[`emit`]) guarded
//!   by a single relaxed [`AtomicBool`] so that the disabled path costs one
//!   predictable branch — event construction is behind a closure and never
//!   runs unless a sink is installed.
//! - [`ScopedTimer`]: wall-clock spans emitted on drop.
//! - [`RunManifest`]: the reproducibility sidecar written next to every
//!   experiment CSV (seed, argv, git revision, wall time, shape).
//!
//! JSON encoding is hand-rolled (the offline workspace has no serde_json);
//! the subset emitted here is flat objects of strings, numbers, bools, and
//! arrays thereof, which [`json`] covers.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

pub mod json;
pub mod manifest;

pub use manifest::{RunManifest, SelfCheckOutcome};

/// Declares [`Event`] from one table and generates its `kind()` tag, its
/// `to_json()` encoder and [`EVENT_SCHEMA`] from the same rows, so a
/// variant, its tag and its fields are written once. Each field is encoded
/// under its own name, in declaration order, by its type's [`JsonField`]
/// impl, which also names its [`JsonType`].
macro_rules! event_table {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Event {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty ),* },
            )*
        }

        impl Event {
            /// The `"kind"` tag used in the JSON encoding.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $kind, )*
                }
            }

            /// Encode as a single-line JSON object (the JSONL record format).
            #[must_use]
            pub fn to_json(&self) -> String {
                let mut o = json::Object::new();
                o.str("kind", self.kind());
                match self {
                    $(
                        Event::$variant { $($field),* } => {
                            $( JsonField::put($field, &mut o, stringify!($field)); )*
                        }
                    )*
                }
                o.finish()
            }
        }

        /// Every event kind with its fields' names and JSON types, in
        /// encoding order — the schema [`check_record`] validates against.
        pub const EVENT_SCHEMA: &[(&str, &[(&str, JsonType)])] = &[
            $( ($kind, &[ $( (stringify!($field), <$ty as JsonField>::TYPE) ),* ]), )*
        ];
    };
}

/// JSON type of an event field, as [`Event::to_json`] writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonType {
    /// An unsigned integer (`u16`, `u32`, `u64`, `usize`).
    UInt,
    /// An `f64`: a number, or `null` when non-finite.
    Num,
    /// A boolean.
    Bool,
    /// A string.
    Str,
}

/// Check one parsed JSONL record against [`EVENT_SCHEMA`] and return its
/// kind. The record must carry a known `"kind"` and exactly that kind's
/// fields, each of its JSON type. Integers must be exact in an `f64`
/// (at most 2⁵³) and numbers finite, except for the `(kind, field)` pairs
/// in `loose`, which may hold any integer or `null` respectively.
///
/// # Errors
/// A description of the first mismatch.
pub fn check_record(line: &json::Value, loose: &[(&str, &str)]) -> Result<&'static str, String> {
    let kind = line
        .get("kind")
        .and_then(json::Value::as_str)
        .ok_or("record without a string `kind`")?;
    let &(kind, fields) = EVENT_SCHEMA
        .iter()
        .find(|(k, _)| *k == kind)
        .ok_or_else(|| format!("unknown kind `{kind}`"))?;
    if let json::Value::Object(members) = line {
        if members.len() != fields.len() + 1 {
            return Err(format!(
                "{kind}: {} fields, the schema has {}",
                members.len() - 1,
                fields.len()
            ));
        }
    }
    for &(name, ty) in fields {
        let v = line
            .get(name)
            .ok_or_else(|| format!("{kind}: missing `{name}`"))?;
        let is_loose = loose.contains(&(kind, name));
        let ok = match ty {
            JsonType::UInt => {
                v.as_u64().is_some()
                    || (is_loose && v.as_f64().is_some_and(|n| n >= 0.0 && n.fract() == 0.0))
            }
            JsonType::Num => {
                v.as_f64().is_some_and(f64::is_finite) || (is_loose && *v == json::Value::Null)
            }
            JsonType::Bool => v.as_bool().is_some(),
            JsonType::Str => v.as_str().is_some(),
        };
        if !ok {
            return Err(format!("{kind}.{name}: expected {ty:?}, got {v:?}"));
        }
    }
    Ok(kind)
}

/// How an event field is written into its JSON object, chosen by the
/// field's type: unsigned integers as JSON integers (exact above 2⁵³),
/// `f64` as a number or `null` when non-finite, strings escaped.
trait JsonField {
    const TYPE: JsonType;
    fn put(&self, o: &mut json::Object, key: &str);
}

impl JsonField for u64 {
    const TYPE: JsonType = JsonType::UInt;

    fn put(&self, o: &mut json::Object, key: &str) {
        o.u64(key, *self);
    }
}

impl JsonField for u32 {
    const TYPE: JsonType = JsonType::UInt;

    fn put(&self, o: &mut json::Object, key: &str) {
        o.u64(key, u64::from(*self));
    }
}

impl JsonField for u16 {
    const TYPE: JsonType = JsonType::UInt;

    fn put(&self, o: &mut json::Object, key: &str) {
        o.u64(key, u64::from(*self));
    }
}

impl JsonField for usize {
    const TYPE: JsonType = JsonType::UInt;

    fn put(&self, o: &mut json::Object, key: &str) {
        o.u64(key, *self as u64);
    }
}

impl JsonField for f64 {
    const TYPE: JsonType = JsonType::Num;

    fn put(&self, o: &mut json::Object, key: &str) {
        o.f64(key, *self);
    }
}

impl JsonField for bool {
    const TYPE: JsonType = JsonType::Bool;

    fn put(&self, o: &mut json::Object, key: &str) {
        o.bool(key, *self);
    }
}

impl JsonField for &str {
    const TYPE: JsonType = JsonType::Str;

    fn put(&self, o: &mut json::Object, key: &str) {
        o.str(key, self);
    }
}

impl JsonField for String {
    const TYPE: JsonType = JsonType::Str;

    fn put(&self, o: &mut json::Object, key: &str) {
        o.str(key, self);
    }
}

event_table! {
    /// One structured telemetry event. Variants group by emitting subsystem;
    /// every variant serializes to a flat JSON object with a `"kind"` tag (see
    /// [`Event::to_json`]).
    ///
    /// This table is the event schema's single source (DESIGN.md §9 lists
    /// it): each row names a variant, its `"kind"` tag and its typed fields,
    /// and the enum, [`Event::kind`] and [`Event::to_json`] are generated
    /// from it. Adding an event means adding one row.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        // ---- hecmix-sim: node engine ----
        /// A core parked (left the active set) or a node-level phase stalled.
        /// `reason` is one of `"nic-backpressure"`, `"starved"`.
        CorePark = "core_park" {
            /// Node RNG seed (identifies the node within a cluster run).
            seed: u64,
            /// Core index that parked.
            core: u32,
            /// Simulated time of the transition, seconds.
            t_s: f64,
            /// Why the core parked.
            reason: &'static str,
        },
        /// A parked core resumed execution.
        CoreResume = "core_resume" {
            /// Node RNG seed.
            seed: u64,
            /// Core index that resumed.
            core: u32,
            /// Simulated time, seconds.
            t_s: f64,
        },
        /// Memory-contention stall accounting for one executed chunk.
        MemContention = "mem_contention" {
            /// Node RNG seed.
            seed: u64,
            /// Simulated start time of the chunk, seconds.
            t_s: f64,
            /// Cores contending for the memory controller during the chunk.
            contending: u32,
            /// Total stall attributed to the chunk, nanoseconds.
            stall_ns: u64,
        },
        /// The ondemand governor switched the operating frequency.
        DvfsSwitch = "dvfs_switch" {
            /// Node RNG seed.
            seed: u64,
            /// Simulated time of the switch, seconds.
            t_s: f64,
            /// Frequency before the switch, GHz.
            from_ghz: f64,
            /// Frequency after the switch, GHz.
            to_ghz: f64,
        },
        /// The node stepped to a different OPP of its DVFS ladder (the
        /// ladder-indexed companion of [`Event::DvfsSwitch`]).
        OppChange = "opp_change" {
            /// Node RNG seed.
            seed: u64,
            /// Simulated time of the change, seconds.
            t_s: f64,
            /// OPP index before the change.
            from_opp: u32,
            /// OPP index after the change.
            to_opp: u32,
            /// Frequency after the change, GHz.
            to_ghz: f64,
        },
        /// A power domain entered its deep idle state (all children idle and
        /// the residency horizon passed).
        DomainSleep = "domain_sleep" {
            /// Node RNG seed.
            seed: u64,
            /// Simulated time the domain entered the deep state, seconds.
            t_s: f64,
            /// Domain name.
            domain: &'static str,
            /// Floor power while slept, watts.
            sleep_w: f64,
        },
        /// A power domain left its deep idle state.
        DomainWake = "domain_wake" {
            /// Node RNG seed.
            seed: u64,
            /// Simulated wake time, seconds.
            t_s: f64,
            /// Domain name.
            domain: &'static str,
            /// Seconds spent in the deep state this residency.
            slept_s: f64,
        },

        // ---- hecmix-sim: fault lifecycle ----
        /// A faulted cluster run started.
        FaultedRunStart = "faulted_run_start" {
            /// Total work units across the cluster.
            total_units: u64,
            /// Number of scheduled crashes.
            crashes: usize,
        },
        /// A node crashed.
        Crash = "crash" {
            /// Node type index in the cluster spec.
            type_idx: usize,
            /// Node index within its type.
            node_idx: usize,
            /// Simulated crash time, seconds.
            crash_s: f64,
            /// Units the node had not completed at the crash.
            leftover_units: u64,
            /// Units in flight (charged but rolled back) at the crash.
            lost_in_flight_units: u64,
        },
        /// The heartbeat monitor detected a crash.
        HeartbeatTimeout = "heartbeat_timeout" {
            /// Crashed node type index.
            type_idx: usize,
            /// Crashed node index within its type.
            node_idx: usize,
            /// Simulated detection time, seconds.
            detected_s: f64,
        },
        /// Leftover work was redistributed (or abandoned) after detection.
        Redistribution = "redistribution" {
            /// Crashed node type index.
            type_idx: usize,
            /// Crashed node index within its type.
            node_idx: usize,
            /// Simulated redistribution time, seconds.
            redistributed_s: f64,
            /// Units moved to survivors.
            moved_units: u64,
            /// Units abandoned (no capacity to absorb them).
            abandoned_units: u64,
        },
        /// One survivor's share of a redistribution.
        RedistributionShare = "redistribution_share" {
            /// Receiving node type index.
            to_type: usize,
            /// Receiving node index within its type.
            to_node: usize,
            /// Units received.
            units: u64,
        },
        /// A faulted cluster run completed.
        FaultedRunEnd = "faulted_run_end" {
            /// Makespan, seconds.
            duration_s: f64,
            /// Units actually completed.
            completed_units: u64,
            /// Units abandoned across all crashes.
            abandoned_units: u64,
        },

        // ---- hecmix-core: streaming sweep ----
        /// Per-type dominance pruning shrank the configuration space before a
        /// sweep.
        SweepPruned = "sweep_pruned" {
            /// Points in the unpruned space.
            total_points: u64,
            /// Points surviving the pruning.
            kept_points: u64,
        },
        /// A streaming frontier sweep started.
        SweepStart = "sweep_start" {
            /// Points in the (possibly pruned) configuration space.
            points: u64,
            /// Worker threads (1 = sequential path).
            workers: usize,
        },
        /// One worker's totals for a sweep.
        SweepWorker = "sweep_worker" {
            /// Worker index.
            worker: usize,
            /// Chunks claimed from the shared cursor.
            chunks: u64,
            /// Points scanned.
            scanned: u64,
            /// Points kept in the worker's partial frontier.
            kept: usize,
        },
        /// One pairwise merge of partial frontiers.
        SweepMerge = "sweep_merge" {
            /// Entries on the left input.
            left: usize,
            /// Entries on the right input.
            right: usize,
            /// Entries surviving the merge.
            merged: usize,
        },
        /// A streaming frontier sweep finished.
        SweepEnd = "sweep_end" {
            /// Points scanned in total.
            points: u64,
            /// Frontier size.
            frontier: usize,
            /// Wall time of the sweep, seconds.
            wall_s: f64,
        },

        // ---- hecmix-queueing: dispatch ----
        /// One slot's provisioning decision in a diurnal dispatch run.
        DispatchDecision = "dispatch_decision" {
            /// Slot index within the day.
            slot: usize,
            /// Offered load for the slot, jobs/s.
            lambda: f64,
            /// Chosen configuration index in the menu.
            choice: usize,
            /// Slot energy, joules.
            energy_j: f64,
            /// Mean response time under the choice, seconds.
            response_s: f64,
            /// Whether the SLO was violated.
            violated: bool,
            /// True when chosen from the resilient (degraded-capacity) menu.
            resilient: bool,
        },

        // ---- hecmix-experiments ----
        /// A CSV cell held a non-finite value and was replaced by the `NA`
        /// sentinel.
        CsvNonFinite = "csv_non_finite" {
            /// Artifact (CSV stem) being written.
            artifact: String,
            /// Row index (0-based, excluding header).
            row: usize,
            /// Column name.
            column: String,
        },
        /// An artifact (CSV + manifest sidecar) was written.
        ArtifactWritten = "artifact_written" {
            /// Artifact (CSV stem).
            artifact: String,
            /// Data rows written.
            rows: usize,
        },

        // ---- self-check (hecmix-check) ----
        /// A differential oracle or metamorphic invariant found a disagreement
        /// between two computational paths that must agree.
        CheckViolation = "check_violation" {
            /// Oracle or invariant name (e.g. `closed_form_vs_numeric`).
            check: String,
            /// Seed of the self-check run that found it.
            seed: u64,
            /// Human-readable description of the disagreement.
            detail: String,
        },
        /// Summary of one self-check run: how many checks ran and how many
        /// violations they reported.
        CheckSummary = "check_summary" {
            /// Seed of the self-check run.
            seed: u64,
            /// Number of oracle/invariant checks executed.
            checks: u64,
            /// Number of violations found across all checks.
            violations: u64,
            /// Wall time of the whole self-check run, seconds.
            wall_s: f64,
        },

        // ---- hecmix-serve: planning daemon ----
        /// A request was dequeued by a worker and its handler started.
        RequestStart = "request_start" {
            /// Request path (e.g. `/plan`).
            path: String,
            /// Queue depth observed when the request was dequeued.
            queue_depth: usize,
        },
        /// A request finished and its response was written.
        RequestDone = "request_done" {
            /// Request path.
            path: String,
            /// HTTP status code of the response.
            status: u16,
            /// Handler wall time, seconds.
            wall_s: f64,
            /// Whether the hot computation was served from the plan cache.
            cached: bool,
        },
        /// Admission control rejected a connection (bounded queue full).
        RequestRejected = "request_rejected" {
            /// Queue depth at rejection (== capacity).
            queue_depth: usize,
            /// `Retry-After` value sent with the 503, seconds.
            retry_after_s: u64,
        },
        /// A plan-cache lookup hit.
        CacheHit = "cache_hit" {
            /// Cache key (content hash of models + query shape).
            key: u64,
        },
        /// A plan-cache lookup missed and the value was computed.
        CacheMiss = "cache_miss" {
            /// Cache key.
            key: u64,
        },
        /// A plan-cache entry was evicted (LRU capacity pressure).
        CacheEvict = "cache_evict" {
            /// Evicted entry's key.
            key: u64,
        },
        /// A request joined an in-flight compute for the same cache key
        /// instead of starting its own (single-flight coalescing).
        RequestCoalesced = "request_coalesced" {
            /// Request path.
            path: String,
            /// Cache key of the shared in-flight compute.
            key: u64,
        },
        /// `POST /reload` started re-computing the hot key set against the new
        /// model store before swapping it in.
        CacheWarmStart = "cache_warm_start" {
            /// Cached entries snapshotted for warming.
            keys: usize,
        },
        /// Background cache warming finished; the store and warmed entries
        /// were swapped in.
        CacheWarmDone = "cache_warm_done" {
            /// Cached entries snapshotted for warming.
            keys: usize,
            /// Entries successfully recomputed and reinserted.
            warmed: usize,
            /// Wall time of the warming pass, seconds.
            wall_s: f64,
        },
        /// One event-loop iteration woke with work to do (ready sources
        /// and/or mailbox messages). Quiet timeout ticks are not emitted.
        EventLoopWakeup = "eventloop_wakeup" {
            /// I/O thread index.
            io_thread: usize,
            /// Readiness events delivered by the poller.
            events: usize,
            /// Mailbox messages (new connections, compute responses).
            messages: usize,
        },

        // ---- hecmix-serve: replica fleet (gateway) ----
        /// The gateway's view of a replica flipped between healthy and
        /// unhealthy (active probe or passive forward failure).
        ReplicaHealthChange = "replica_health_change" {
            /// Replica index in the fleet.
            replica: usize,
            /// Replica upstream address.
            addr: String,
            /// New health state.
            healthy: bool,
            /// What triggered the flip (e.g. `probe connect refused`).
            reason: String,
            /// Consecutive probe/forward outcomes that crossed the threshold.
            consecutive: u32,
        },
        /// A per-replica circuit breaker changed state
        /// (`closed` → `open` → `half_open` → `closed`).
        BreakerTransition = "breaker_transition" {
            /// Replica index in the fleet.
            replica: usize,
            /// State before the transition.
            from: &'static str,
            /// State after the transition.
            to: &'static str,
            /// Consecutive failures recorded when the transition fired.
            failures: u32,
        },
        /// The gateway is retrying a forwarded request after a failed or
        /// shed upstream attempt.
        RequestRetry = "request_retry" {
            /// Request path.
            path: String,
            /// Replica the retry is aimed at.
            replica: usize,
            /// Attempt number (1 = first retry).
            attempt: u32,
            /// Backoff slept before this attempt, milliseconds.
            backoff_ms: u64,
            /// Why the previous attempt failed.
            why: String,
        },
        /// The gateway fired a hedged duplicate because the primary attempt
        /// outlived the adaptive tail-latency delay.
        RequestHedged = "request_hedged" {
            /// Request path.
            path: String,
            /// Replica the primary attempt went to.
            primary: usize,
            /// Replica the hedge went to.
            hedge: usize,
            /// Hedge delay that expired, milliseconds.
            delay_ms: u64,
        },
        /// After a replica was marked down, its displaced hot keys were
        /// re-driven through the ring so the new owners' caches are warm.
        FailoverRewarm = "failover_rewarm" {
            /// Replica whose hash range was re-mapped.
            from_replica: usize,
            /// Displaced hot keys replayed.
            keys: usize,
            /// Keys successfully re-warmed on their new owners.
            rewarmed: usize,
            /// Wall time of the rewarm pass, seconds.
            wall_s: f64,
        },

        // ---- hecmix-queueing: request-level DES + tail planning ----
        /// One request-level discrete-event simulation completed
        /// (`hecmix_queueing::des::simulate` or `sojourn_quantile`).
        DesRun = "des_run" {
            /// Offered Poisson arrival rate, requests/second.
            pps: f64,
            /// Requests generated.
            requests: u64,
            /// Requests that completed.
            completed: u64,
            /// Requests dropped at full per-core queues.
            dropped: u64,
            /// Median sojourn time of completed requests, seconds (NaN when
            /// nothing completed).
            p50_s: f64,
            /// 99th-percentile sojourn time, seconds (NaN when nothing
            /// completed).
            p99_s: f64,
            /// Simulated horizon (last departure), seconds.
            duration_s: f64,
            /// RNG seed of the run.
            seed: u64,
        },
        /// A percentile-deadline plan was decided
        /// (`hecmix_queueing::dispatch::best_choice_tail`).
        TailPlan = "tail_plan" {
            /// Arrival rate planned for, jobs/second.
            lambda: f64,
            /// Target quantile (0.99 = p99).
            percentile: f64,
            /// Deadline on that quantile, seconds.
            deadline_s: f64,
            /// Menu entries considered.
            candidates: usize,
            /// Entries rejected by the analytical mean-response screen.
            screened_out: usize,
            /// DES runs spent (coarse + exact).
            des_runs: u64,
            /// Index of the chosen entry.
            chosen: usize,
            /// DES-measured percentile response of the chosen entry, seconds.
            tail_s: f64,
            /// True when the choice is a smallest-tail fallback that still
            /// misses the deadline.
            violated: bool,
        },

        // ---- hecmix-sched: online energy-aware task scheduler ----
        /// A job entered the scheduler's admission stage (replay or live
        /// `/submit`). Emitted for every job, admitted or not.
        JobSubmitted = "job_submitted" {
            /// Job id (trace order or daemon-assigned).
            job: u64,
            /// Workload name.
            workload: String,
            /// Job size in work units.
            size_units: f64,
            /// Arrival time on the scheduler clock, seconds.
            arrival_s: f64,
            /// Absolute completion deadline, seconds (infinite = none).
            deadline_s: f64,
            /// False when bounded admission rejected the job.
            admitted: bool,
        },
        /// A task was placed (initially or after a migration) on one node at
        /// one OPP by the α-score.
        TaskPlaced = "task_placed" {
            /// Job id.
            job: u64,
            /// Node type index in the pool.
            type_idx: usize,
            /// Node index within its type.
            node_idx: u32,
            /// Option index into the per-(type, OPP) candidate list.
            opt: usize,
            /// Scheduled start, seconds.
            start_s: f64,
            /// Predicted finish, seconds.
            finish_s: f64,
            /// Work units this placement will retire.
            units: f64,
            /// Predicted active energy of the placement, joules.
            energy_j: f64,
        },
        /// A fault (crash/straggler/power-cap) forced a task off its
        /// reservation; committed chunks stay charged, the in-flight chunk is
        /// rolled back, and the remainder is re-placed.
        TaskMigrated = "task_migrated" {
            /// Job id.
            job: u64,
            /// Node type the task was driven from.
            from_type: usize,
            /// Node index the task was driven from.
            from_node: u32,
            /// Node type it re-placed onto.
            to_type: usize,
            /// Node index it re-placed onto.
            to_node: u32,
            /// Migration time on the scheduler clock, seconds.
            at_s: f64,
            /// What displaced it: `"crash"`, `"straggler"`, `"power_cap"`,
            /// `"nic_degrade"`.
            reason: &'static str,
            /// Work units of the rolled-back in-flight chunk (recomputed
            /// elsewhere; their energy charge was refunded).
            lost_units: f64,
        },
        /// A job finished after its deadline.
        DeadlineMiss = "deadline_miss" {
            /// Job id.
            job: u64,
            /// The deadline it missed, seconds.
            deadline_s: f64,
            /// Actual finish, seconds.
            finish_s: f64,
        },
        /// Periodic scheduler heartbeat (virtual time in replay, wall time
        /// behind `/submit`).
        SchedTick = "sched_tick" {
            /// Scheduler clock, seconds.
            t_s: f64,
            /// Tasks executing at the tick.
            running: usize,
            /// Jobs admitted but not yet finished.
            outstanding: usize,
        },

        // ---- generic ----
        /// A named wall-clock span measured by [`ScopedTimer`].
        Timer = "timer" {
            /// Span name.
            name: &'static str,
            /// Wall time, seconds.
            wall_s: f64,
        },
        /// A human-directed warning that is part of normal (degraded) operation.
        Warning = "warning" {
            /// Message text.
            message: String,
        },
    }
}

/// Destination for [`Event`]s. Implementations must be `Send + Sync`: the
/// sweep engine records from scoped worker threads concurrently.
pub trait Sink: Send + Sync {
    /// Record one event. Must be cheap enough to call from hot-ish paths;
    /// the engine only calls it when a sink is installed.
    fn record(&self, event: &Event);

    /// Flush any buffered output. Called by [`uninstall`] and available to
    /// callers that need durable output mid-run.
    fn flush(&self) {}
}

/// Sink that discards everything. Installing it still flips the enabled
/// flag — useful for measuring instrumentation overhead in benches.
#[derive(Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _event: &Event) {}
}

/// Sink that appends one JSON object per line to a file.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and return a sink writing JSONL to it.
    ///
    /// # Errors
    /// Propagates the underlying file-creation error.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        // Format the complete line (newline included) *before* taking the
        // lock, then emit it as a single `write_all`. Formatting inside a
        // `writeln!` would issue several smaller writes; if one of them
        // errored or the process died mid-call, a torn partial line could
        // reach the file. One buffered `write_all` of a finished line keeps
        // every record atomic and shrinks the critical section to a memcpy
        // — with many server workers recording concurrently, the lock is
        // held for nanoseconds, not for the formatting.
        let mut line = event.to_json();
        line.push('\n');
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        // Telemetry is best-effort: an I/O error here must not abort the run.
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Sink that keeps the most recent `capacity` events in memory. Intended
/// for tests asserting on emitted telemetry.
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
}

impl RingSink {
    /// A ring holding at most `capacity` events (older events are dropped).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring sink capacity must be positive");
        Self {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.buf
            .lock()
            .expect("ring sink poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Drop all buffered events.
    pub fn clear(&self) {
        self.buf.lock().expect("ring sink poisoned").clear();
    }
}

impl Sink for RingSink {
    fn record(&self, event: &Event) {
        let mut buf = self.buf.lock().expect("ring sink poisoned");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Fast-path gate: `false` means [`emit`]'s closure is never run. Relaxed
/// ordering is deliberate — a stale read merely delays the first events of
/// a freshly installed sink by one check, it cannot corrupt anything.
static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// Whether a sink is currently installed. Inlined single relaxed atomic
/// load — this is the only cost instrumentation adds when tracing is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `sink` as the process-global event destination, replacing any
/// previous sink (the replaced sink is flushed).
pub fn install(sink: Arc<dyn Sink>) {
    let mut slot = SINK.write().expect("sink registry poisoned");
    if let Some(old) = slot.take() {
        old.flush();
    }
    *slot = Some(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Remove and flush the installed sink, returning it (if any). Telemetry
/// is disabled until the next [`install`].
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    let mut slot = SINK.write().expect("sink registry poisoned");
    ENABLED.store(false, Ordering::Relaxed);
    let old = slot.take();
    if let Some(ref sink) = old {
        sink.flush();
    }
    old
}

/// Emit an event. `build` runs only when a sink is installed, so callers
/// may close over hot-loop state freely: the disabled cost is the
/// [`enabled`] branch, nothing else.
#[inline]
pub fn emit<F: FnOnce() -> Event>(build: F) {
    if !enabled() {
        return;
    }
    emit_cold(build());
}

#[cold]
fn emit_cold(event: Event) {
    if let Some(sink) = SINK.read().expect("sink registry poisoned").as_ref() {
        sink.record(&event);
    }
}

/// Wall-clock span that emits [`Event::Timer`] on drop. The [`Instant`] is
/// only captured when telemetry is enabled; a disabled timer is a `None`
/// and drops for free.
#[must_use = "a scoped timer measures until it is dropped"]
pub struct ScopedTimer {
    name: &'static str,
    start: Option<Instant>,
}

impl ScopedTimer {
    /// Start a span named `name` (no-op when telemetry is disabled).
    pub fn start(name: &'static str) -> Self {
        Self {
            name,
            start: enabled().then(Instant::now),
        }
    }

    /// Elapsed seconds so far, if the timer is live.
    #[must_use]
    pub fn elapsed_s(&self) -> Option<f64> {
        self.start.map(|s| s.elapsed().as_secs_f64())
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let wall_s = start.elapsed().as_secs_f64();
            emit(|| Event::Timer {
                name: self.name,
                wall_s,
            });
        }
    }
}

// NOTE on testing: the registry is process-global, so tests that install a
// sink live in dedicated integration-test binaries (one installing test per
// process) rather than in this module, where the harness would interleave
// them with unrelated unit tests. Pure-value tests are fine here.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_is_single_line_and_tagged() {
        let e = Event::Crash {
            type_idx: 1,
            node_idx: 3,
            crash_s: 12.5,
            leftover_units: 400,
            lost_in_flight_units: 7,
        };
        let j = e.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"kind\":\"crash\""), "{j}");
        assert!(j.contains("\"leftover_units\":400"), "{j}");
    }

    #[test]
    fn dvfs_domain_events_encode_their_fields() {
        let e = Event::OppChange {
            seed: 7,
            t_s: 1.25,
            from_opp: 0,
            to_opp: 2,
            to_ghz: 1.4,
        };
        let j = e.to_json();
        assert!(j.contains("\"kind\":\"opp_change\""));
        assert!(j.contains("\"from_opp\":0"));
        assert!(j.contains("\"to_opp\":2"));
        let e = Event::DomainSleep {
            seed: 7,
            t_s: 2.0,
            domain: "cluster0",
            sleep_w: 0.25,
        };
        let j = e.to_json();
        assert!(j.contains("\"kind\":\"domain_sleep\""));
        assert!(j.contains("\"domain\":\"cluster0\""));
        let e = Event::DomainWake {
            seed: 7,
            t_s: 3.0,
            domain: "cluster0",
            slept_s: 1.0,
        };
        let j = e.to_json();
        assert!(j.contains("\"kind\":\"domain_wake\""));
        assert!(j.contains("\"slept_s\":1"));
    }

    /// Golden encoding of every variant. The values exercise each field
    /// type's edge cases: `u64` above 2⁵³ (JSON readers that parse into
    /// `f64` lose it, the encoder must not), `u16`/`u32`/`usize` widening,
    /// non-finite `f64` (→ `null`), and strings carrying `"`, `\` and
    /// control characters.
    #[test]
    fn every_variant_encodes_to_its_pinned_line() {
        let cases = [
            (
                Event::CorePark {
                    seed: u64::MAX,
                    core: u32::MAX,
                    t_s: 0.1 + 0.2,
                    reason: "nic-backpressure",
                },
                r#"{"kind":"core_park","seed":18446744073709551615,"core":4294967295,"t_s":0.30000000000000004,"reason":"nic-backpressure"}"#,
            ),
            (
                Event::CoreResume {
                    seed: 1 << 53,
                    core: 3,
                    t_s: -0.0,
                },
                r#"{"kind":"core_resume","seed":9007199254740992,"core":3,"t_s":-0.0}"#,
            ),
            (
                Event::MemContention {
                    seed: (1 << 53) + 1,
                    t_s: 1e-7,
                    contending: 4,
                    stall_ns: 123_456_789_012,
                },
                r#"{"kind":"mem_contention","seed":9007199254740993,"t_s":1e-7,"contending":4,"stall_ns":123456789012}"#,
            ),
            (
                Event::DvfsSwitch {
                    seed: 7,
                    t_s: 1e21,
                    from_ghz: 1.4,
                    to_ghz: 2.1,
                },
                r#"{"kind":"dvfs_switch","seed":7,"t_s":1e21,"from_ghz":1.4,"to_ghz":2.1}"#,
            ),
            (
                Event::OppChange {
                    seed: 7,
                    t_s: 1.25,
                    from_opp: 0,
                    to_opp: 2,
                    to_ghz: f64::NAN,
                },
                r#"{"kind":"opp_change","seed":7,"t_s":1.25,"from_opp":0,"to_opp":2,"to_ghz":null}"#,
            ),
            (
                Event::DomainSleep {
                    seed: 7,
                    t_s: 2.0,
                    domain: "cluster\"0\"",
                    sleep_w: 0.25,
                },
                r#"{"kind":"domain_sleep","seed":7,"t_s":2.0,"domain":"cluster\"0\"","sleep_w":0.25}"#,
            ),
            (
                Event::DomainWake {
                    seed: 7,
                    t_s: 3.0,
                    domain: "cluster\\1",
                    slept_s: f64::INFINITY,
                },
                r#"{"kind":"domain_wake","seed":7,"t_s":3.0,"domain":"cluster\\1","slept_s":null}"#,
            ),
            (
                Event::FaultedRunStart {
                    total_units: 1_000_000,
                    crashes: usize::MAX,
                },
                r#"{"kind":"faulted_run_start","total_units":1000000,"crashes":18446744073709551615}"#,
            ),
            (
                Event::Crash {
                    type_idx: 1,
                    node_idx: 3,
                    crash_s: 12.5,
                    leftover_units: 400,
                    lost_in_flight_units: 7,
                },
                r#"{"kind":"crash","type_idx":1,"node_idx":3,"crash_s":12.5,"leftover_units":400,"lost_in_flight_units":7}"#,
            ),
            (
                Event::HeartbeatTimeout {
                    type_idx: 0,
                    node_idx: 2,
                    detected_s: 13.000_000_000_000_002,
                },
                r#"{"kind":"heartbeat_timeout","type_idx":0,"node_idx":2,"detected_s":13.000000000000002}"#,
            ),
            (
                Event::Redistribution {
                    type_idx: 1,
                    node_idx: 0,
                    redistributed_s: 14.0,
                    moved_units: 390,
                    abandoned_units: 10,
                },
                r#"{"kind":"redistribution","type_idx":1,"node_idx":0,"redistributed_s":14.0,"moved_units":390,"abandoned_units":10}"#,
            ),
            (
                Event::RedistributionShare {
                    to_type: 0,
                    to_node: 5,
                    units: 195,
                },
                r#"{"kind":"redistribution_share","to_type":0,"to_node":5,"units":195}"#,
            ),
            (
                Event::FaultedRunEnd {
                    duration_s: f64::NEG_INFINITY,
                    completed_units: 999_990,
                    abandoned_units: 10,
                },
                r#"{"kind":"faulted_run_end","duration_s":null,"completed_units":999990,"abandoned_units":10}"#,
            ),
            (
                Event::SweepPruned {
                    total_points: 36_380,
                    kept_points: 1_212,
                },
                r#"{"kind":"sweep_pruned","total_points":36380,"kept_points":1212}"#,
            ),
            (
                Event::SweepStart {
                    points: 1_212,
                    workers: 2,
                },
                r#"{"kind":"sweep_start","points":1212,"workers":2}"#,
            ),
            (
                Event::SweepWorker {
                    worker: 1,
                    chunks: 19,
                    scanned: 606,
                    kept: 31,
                },
                r#"{"kind":"sweep_worker","worker":1,"chunks":19,"scanned":606,"kept":31}"#,
            ),
            (
                Event::SweepMerge {
                    left: 31,
                    right: 28,
                    merged: 40,
                },
                r#"{"kind":"sweep_merge","left":31,"right":28,"merged":40}"#,
            ),
            (
                Event::SweepEnd {
                    points: 1_212,
                    frontier: 40,
                    wall_s: 0.003_5,
                },
                r#"{"kind":"sweep_end","points":1212,"frontier":40,"wall_s":0.0035}"#,
            ),
            (
                Event::DispatchDecision {
                    slot: 23,
                    lambda: 0.5,
                    choice: 1,
                    energy_j: 1.5e6,
                    response_s: 0.533_333_333_333_333_3,
                    violated: false,
                    resilient: true,
                },
                r#"{"kind":"dispatch_decision","slot":23,"lambda":0.5,"choice":1,"energy_j":1500000.0,"response_s":0.5333333333333333,"violated":false,"resilient":true}"#,
            ),
            (
                Event::CsvNonFinite {
                    artifact: "fig2".to_string(),
                    row: 4,
                    column: "energy \"J\"".to_string(),
                },
                r#"{"kind":"csv_non_finite","artifact":"fig2","row":4,"column":"energy \"J\""}"#,
            ),
            (
                Event::ArtifactWritten {
                    artifact: "table5".to_string(),
                    rows: 6,
                },
                r#"{"kind":"artifact_written","artifact":"table5","rows":6}"#,
            ),
            (
                Event::CheckViolation {
                    check: "closed_form_vs_numeric".to_string(),
                    seed: 42,
                    detail: "line 1\nline 2\ttab \\ back \"q\" \u{1}".to_string(),
                },
                r#"{"kind":"check_violation","check":"closed_form_vs_numeric","seed":42,"detail":"line 1\nline 2\ttab \\ back \"q\" \u0001"}"#,
            ),
            (
                Event::CheckSummary {
                    seed: 42,
                    checks: 17,
                    violations: 0,
                    wall_s: 1.75,
                },
                r#"{"kind":"check_summary","seed":42,"checks":17,"violations":0,"wall_s":1.75}"#,
            ),
            (
                Event::RequestStart {
                    path: "/plan?w=ep&x=\"1\"".to_string(),
                    queue_depth: 3,
                },
                r#"{"kind":"request_start","path":"/plan?w=ep&x=\"1\"","queue_depth":3}"#,
            ),
            (
                Event::RequestDone {
                    path: "/plan".to_string(),
                    status: u16::MAX,
                    wall_s: 0.000_25,
                    cached: true,
                },
                r#"{"kind":"request_done","path":"/plan","status":65535,"wall_s":0.00025,"cached":true}"#,
            ),
            (
                Event::RequestRejected {
                    queue_depth: 64,
                    retry_after_s: 1,
                },
                r#"{"kind":"request_rejected","queue_depth":64,"retry_after_s":1}"#,
            ),
            (
                Event::CacheHit { key: u64::MAX },
                r#"{"kind":"cache_hit","key":18446744073709551615}"#,
            ),
            (
                Event::CacheMiss {
                    key: 0x9e37_79b9_7f4a_7c15,
                },
                r#"{"kind":"cache_miss","key":11400714819323198485}"#,
            ),
            (
                Event::CacheEvict { key: 0 },
                r#"{"kind":"cache_evict","key":0}"#,
            ),
            (
                Event::RequestCoalesced {
                    path: "/frontier".to_string(),
                    key: 12_345_678_901_234_567_890,
                },
                r#"{"kind":"request_coalesced","path":"/frontier","key":12345678901234567890}"#,
            ),
            (
                Event::CacheWarmStart { keys: 8 },
                r#"{"kind":"cache_warm_start","keys":8}"#,
            ),
            (
                Event::CacheWarmDone {
                    keys: 8,
                    warmed: 7,
                    wall_s: 0.125,
                },
                r#"{"kind":"cache_warm_done","keys":8,"warmed":7,"wall_s":0.125}"#,
            ),
            (
                Event::EventLoopWakeup {
                    io_thread: 1,
                    events: 3,
                    messages: 2,
                },
                r#"{"kind":"eventloop_wakeup","io_thread":1,"events":3,"messages":2}"#,
            ),
            (
                Event::ReplicaHealthChange {
                    replica: 2,
                    addr: "127.0.0.1:7078".to_string(),
                    healthy: false,
                    reason: "probe connect refused\r\n".to_string(),
                    consecutive: 3,
                },
                r#"{"kind":"replica_health_change","replica":2,"addr":"127.0.0.1:7078","healthy":false,"reason":"probe connect refused\r\n","consecutive":3}"#,
            ),
            (
                Event::BreakerTransition {
                    replica: 2,
                    from: "closed",
                    to: "half_open",
                    failures: 5,
                },
                r#"{"kind":"breaker_transition","replica":2,"from":"closed","to":"half_open","failures":5}"#,
            ),
            (
                Event::RequestRetry {
                    path: "/plan".to_string(),
                    replica: 1,
                    attempt: 2,
                    backoff_ms: 40,
                    why: "upstream 503 \"shed\"".to_string(),
                },
                r#"{"kind":"request_retry","path":"/plan","replica":1,"attempt":2,"backoff_ms":40,"why":"upstream 503 \"shed\""}"#,
            ),
            (
                Event::RequestHedged {
                    path: "/plan".to_string(),
                    primary: 0,
                    hedge: 1,
                    delay_ms: 12,
                },
                r#"{"kind":"request_hedged","path":"/plan","primary":0,"hedge":1,"delay_ms":12}"#,
            ),
            (
                Event::FailoverRewarm {
                    from_replica: 2,
                    keys: 16,
                    rewarmed: 15,
                    wall_s: 0.042,
                },
                r#"{"kind":"failover_rewarm","from_replica":2,"keys":16,"rewarmed":15,"wall_s":0.042}"#,
            ),
            (
                Event::DesRun {
                    pps: 4.0,
                    requests: 200_000,
                    completed: 199_990,
                    dropped: 10,
                    p50_s: f64::NAN,
                    p99_s: 0.352_173_913_043_478_3,
                    duration_s: 50_012.5,
                    seed: 0x9e37_79b9_7f4a_7c15 ^ 42,
                },
                r#"{"kind":"des_run","pps":4.0,"requests":200000,"completed":199990,"dropped":10,"p50_s":null,"p99_s":0.3521739130434783,"duration_s":50012.5,"seed":11400714819323198527}"#,
            ),
            (
                Event::TailPlan {
                    lambda: 1.0,
                    percentile: 0.99,
                    deadline_s: 2.0,
                    candidates: 2,
                    screened_out: 0,
                    des_runs: 2,
                    chosen: 1,
                    tail_s: 1.409_943_960_979_580_8,
                    violated: false,
                },
                r#"{"kind":"tail_plan","lambda":1.0,"percentile":0.99,"deadline_s":2.0,"candidates":2,"screened_out":0,"des_runs":2,"chosen":1,"tail_s":1.4099439609795807,"violated":false}"#,
            ),
            (
                Event::JobSubmitted {
                    job: 17,
                    workload: "rsa-2048".to_string(),
                    size_units: 2.5e9,
                    arrival_s: 3_600.25,
                    deadline_s: f64::INFINITY,
                    admitted: false,
                },
                r#"{"kind":"job_submitted","job":17,"workload":"rsa-2048","size_units":2500000000.0,"arrival_s":3600.25,"deadline_s":null,"admitted":false}"#,
            ),
            (
                Event::TaskPlaced {
                    job: 17,
                    type_idx: 1,
                    node_idx: u32::MAX,
                    opt: 4,
                    start_s: 3_600.25,
                    finish_s: 3_700.0,
                    units: 2.5e9,
                    energy_j: 812.5,
                },
                r#"{"kind":"task_placed","job":17,"type_idx":1,"node_idx":4294967295,"opt":4,"start_s":3600.25,"finish_s":3700.0,"units":2500000000.0,"energy_j":812.5}"#,
            ),
            (
                Event::TaskMigrated {
                    job: 17,
                    from_type: 1,
                    from_node: 3,
                    to_type: 0,
                    to_node: 12,
                    at_s: 3_650.0,
                    reason: "power_cap",
                    lost_units: 1.0e6,
                },
                r#"{"kind":"task_migrated","job":17,"from_type":1,"from_node":3,"to_type":0,"to_node":12,"at_s":3650.0,"reason":"power_cap","lost_units":1000000.0}"#,
            ),
            (
                Event::DeadlineMiss {
                    job: 17,
                    deadline_s: 3_690.0,
                    finish_s: 3_700.000_1,
                },
                r#"{"kind":"deadline_miss","job":17,"deadline_s":3690.0,"finish_s":3700.0001}"#,
            ),
            (
                Event::SchedTick {
                    t_s: 86_400.0,
                    running: 12,
                    outstanding: 30,
                },
                r#"{"kind":"sched_tick","t_s":86400.0,"running":12,"outstanding":30}"#,
            ),
            (
                Event::Timer {
                    name: "sweep",
                    wall_s: 5e-324,
                },
                r#"{"kind":"timer","name":"sweep","wall_s":5e-324}"#,
            ),
            (
                Event::Warning {
                    message: "degenerate fit: \"x\" \\ y\nz".to_string(),
                },
                r#"{"kind":"warning","message":"degenerate fit: \"x\" \\ y\nz"}"#,
            ),
        ];
        for (event, line) in &cases {
            assert_eq!(event.to_json(), *line, "{event:?}");
        }
        let mut kinds: Vec<&str> = cases.iter().map(|(e, _)| e.kind()).collect();
        let n = kinds.len();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), n, "duplicate kind tags");
        assert_eq!(EVENT_SCHEMA.len(), n, "a pinned line per schema row");
        // The pinned values deliberately leave the strict ranges, so check
        // the schema's names and types with every field loose.
        let all_loose: Vec<(&str, &str)> = EVENT_SCHEMA
            .iter()
            .flat_map(|&(k, fields)| fields.iter().map(move |&(f, _)| (k, f)))
            .collect();
        for (event, line) in &cases {
            let v = json::parse(line).expect("pinned line parses");
            assert_eq!(check_record(&v, &all_loose), Ok(event.kind()), "{line}");
        }
    }

    #[test]
    fn check_record_rejects_schema_breaks() {
        let check = |line: &str, loose: &[(&str, &str)]| {
            check_record(&json::parse(line).expect("valid JSON"), loose)
        };
        let ok = r#"{"kind":"sched_tick","t_s":1.5,"running":2,"outstanding":3}"#;
        assert_eq!(check(ok, &[]), Ok("sched_tick"));
        for bad in [
            r#"{"t_s":1.5,"running":2,"outstanding":3}"#,
            r#"{"kind":"no_such_event"}"#,
            r#"{"kind":"sched_tick","t_s":1.5,"running":2}"#,
            r#"{"kind":"sched_tick","t_s":1.5,"running":2,"outstanding":3,"extra":0}"#,
            r#"{"kind":"sched_tick","t_s":"1.5","running":2,"outstanding":3}"#,
            r#"{"kind":"sched_tick","t_s":null,"running":2,"outstanding":3}"#,
            r#"{"kind":"sched_tick","t_s":1.5,"running":2.5,"outstanding":3}"#,
            r#"{"kind":"sched_tick","t_s":1.5,"running":18446744073709551615,"outstanding":3}"#,
        ] {
            assert!(check(bad, &[]).is_err(), "{bad}");
        }
        let loose = [("sched_tick", "t_s"), ("sched_tick", "running")];
        let wide =
            r#"{"kind":"sched_tick","t_s":null,"running":18446744073709551615,"outstanding":3}"#;
        assert_eq!(check(wide, &loose), Ok("sched_tick"));
    }

    #[test]
    fn ring_sink_drops_oldest() {
        let ring = RingSink::new(2);
        for i in 0..3u64 {
            ring.record(&Event::Timer {
                name: "t",
                wall_s: i as f64,
            });
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[0],
            Event::Timer {
                name: "t",
                wall_s: 1.0
            }
        );
    }

    #[test]
    fn disabled_emit_never_builds() {
        // No sink is installed in this process; the closure must not run.
        assert!(!enabled());
        emit(|| unreachable!("event built while telemetry disabled"));
        let t = ScopedTimer::start("idle");
        assert!(t.elapsed_s().is_none());
    }
}
