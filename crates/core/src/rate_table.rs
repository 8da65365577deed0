//! Streaming, allocation-free sweep engine built on per-type rate tables.
//!
//! The exhaustive sweep in [`crate::sweep`] materializes every
//! [`ClusterPoint`] and runs the full mix-and-match evaluation
//! ([`crate::mix_match::evaluate`]) on each — a `Vec<Option<NodeConfig>>`
//! allocation plus several more per point. That is fine at the paper's
//! 36,380-point scale and untenable for the 128-node budget studies
//! (hundreds of thousands to millions of points).
//!
//! This module exploits the structure of the model instead:
//!
//! * **Rate table.** Under the paper's model every per-type option
//!   `(n, c, f)` contributes to a matched cluster through exactly two
//!   numbers: its execution rate `r = 1/T_alone(1)` (work units per
//!   second) and its lone-run average power `b = E_alone(1) · r` (watts).
//!   Both are computed **once per sweep** — `|options|` model evaluations
//!   instead of `|space|`.
//! * **Lean kernel.** A matched cluster is then
//!   `T = W / Σr` and `E = T · Σb` ([`SweepOutcome`]) — a handful of adds
//!   and one divide per configuration, no allocation. The full
//!   [`crate::mix_match::ClusterOutcome`] path remains available for
//!   reports and validation.
//! * **Streaming fold.** Configurations are indexed by a flat mixed-radix
//!   integer (digit `0` = type unused, same digit order as
//!   [`ConfigSpace::iter`]); worker threads claim chunks of the index
//!   range from an atomic cursor, fold each chunk into a small partial
//!   Pareto frontier, and the partials are merged `O(n + m)` at the end.
//!   Peak memory is `O(threads × frontier)`, independent of the space
//!   size, and only frontier survivors are ever decoded back into
//!   [`ClusterPoint`]s.
//!
//! ## Soundness of the `(r, b)` aggregation
//!
//! Mix-and-match gives type `t` the share `W_t = W·r_t/Σr`, so all types
//! finish at `T = W/Σr`. Every busy term of the time breakdown (Eq. 2–11)
//! is linear-homogeneous in the share, hence so is the busy energy
//! (Eq. 15–19), while the idle floor (Eq. 14) is `P_idle·n·T`. Writing the
//! lone-run energy at one work unit as `E_t(1) = busy_t(1) + idle_t/r_t`,
//! the type's energy in the mix is
//! `E_t = busy_t(W_t) + idle_t·T = T·(busy_t(1)·r_t + idle_t) = T·b_t`,
//! so the cluster total is `E = T·Σb = W·Σb/Σr` exactly. The streaming
//! kernel and the exhaustive path therefore agree up to floating-point
//! associativity — property-tested to 1e-9 relative tolerance in
//! `tests/streaming_equivalence.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::config::{ClusterPoint, ConfigSpace, NodeConfig};
use crate::energy::EnergyModel;
use crate::error::{Error, Result};
use crate::exec_time::ExecTimeModel;
use crate::pareto::{ParetoFrontier, ParetoPoint};
use crate::profile::WorkloadModel;

/// Lean per-configuration result of the streaming kernel: just the two
/// axes of the energy–deadline plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepOutcome {
    /// Job service time in seconds.
    pub time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
}

/// One per-type option with its precomputed aggregates.
#[derive(Debug, Clone, Copy)]
pub struct RateOption {
    /// The `(n, c, f)` knobs. For ladder-aware tables `cfg.freq` is the
    /// OPP's effective frequency.
    pub cfg: NodeConfig,
    /// Execution rate `r` in work units per second.
    pub rate: f64,
    /// Lone-run average power `b = E_alone(1)·r` in watts.
    pub power_w: f64,
    /// OPP index into the type's DVFS ladder; `None` for legacy tables
    /// enumerated over the platform P-state list.
    pub opp: Option<usize>,
}

/// Per-type `(r, b)` tables over a configuration space, plus the flat
/// mixed-radix indexing that turns the space into a single integer range.
///
/// Digit `t` of a flat index selects type `t`'s option (`0` = unused,
/// `d ≥ 1` = `options[t][d-1]`); type 0 is the fastest-varying digit,
/// matching [`ConfigSpace::iter`]. Flat index 0 is the empty cluster and
/// is skipped, so valid indices are `1 ..= count()`.
#[derive(Debug, Clone)]
pub struct RateTable {
    per_type: Vec<Vec<RateOption>>,
    /// Σ over types of `options + 1` before any pruning (the "+1" is the
    /// unused digit), kept for [`PruneStats`] accounting.
    unpruned_options: usize,
    /// Configurations in the table before any pruning, kept for
    /// [`PruneStats`] accounting.
    unpruned_count: u64,
}

impl RateTable {
    /// Build the full table: one entry per option, in
    /// [`crate::config::TypeBounds::options`] order, so flat index `k`
    /// decodes to the `k`-th point of [`crate::sweep::sweep_space`] (and,
    /// for models without a DVFS ladder, of [`ConfigSpace::iter`]).
    pub fn build(space: &ConfigSpace, models: &[WorkloadModel]) -> Result<Self> {
        check_space(space)?;
        Ok(Self::unpruned(Self::type_options(space, models)?))
    }

    fn unpruned(per_type: Vec<Vec<RateOption>>) -> Self {
        let unpruned_options = per_type.iter().map(|o| o.len() + 1).sum();
        let mut table = Self {
            per_type,
            unpruned_options,
            unpruned_count: 0,
        };
        table.unpruned_count = table.count();
        table
    }

    /// Build a dominance-pruned table: within each type, keep only the
    /// `(max r, min b)` Pareto set of options. Because a configuration's
    /// outcome depends on its options only through `(Σr, Σb)`, swapping a
    /// within-type dominated option for its dominator never worsens either
    /// axis, so the pruned product preserves the frontier as an
    /// energy-per-deadline curve.
    pub fn build_pruned(space: &ConfigSpace, models: &[WorkloadModel]) -> Result<Self> {
        check_space(space)?;
        let mut table = Self::unpruned(Self::type_options(space, models)?);
        for opts in &mut table.per_type {
            opts.sort_by(|a, c| {
                c.rate
                    .total_cmp(&a.rate)
                    .then(a.power_w.total_cmp(&c.power_w))
            });
            let mut best_b = f64::INFINITY;
            opts.retain(|o| {
                if o.power_w < best_b {
                    best_b = o.power_w;
                    true
                } else {
                    false
                }
            });
        }
        Ok(table)
    }

    fn type_options(space: &ConfigSpace, models: &[WorkloadModel]) -> Result<Vec<Vec<RateOption>>> {
        space
            .model_options(models)?
            .into_iter()
            .zip(space.types.iter().zip(models))
            .map(|(enumerated, (t, model))| {
                let etm = ExecTimeModel::new(model);
                let enm = EnergyModel::new(model);
                let mut opts = Vec::with_capacity(enumerated.len());
                for (cfg, opp) in enumerated {
                    etm.check_config(&cfg)?;
                    let rate = etm.rate_units_per_s(&cfg);
                    if !(rate > 0.0) || !rate.is_finite() {
                        return Err(Error::MatchingFailed(format!(
                            "option {cfg:?} of `{}` has execution rate {rate} units/s",
                            t.platform.name
                        )));
                    }
                    // Lone-run evaluation at one work unit, matching the
                    // single-type path of `mix_match::evaluate` bit for bit:
                    // the job duration is 1/r and the share is exactly 1.
                    let time_s = 1.0 / rate;
                    let tb = etm.predict(&cfg, 1.0);
                    let power_w = enm.energy(&cfg, &tb, time_s).total() * rate;
                    if !(power_w > 0.0) || !power_w.is_finite() {
                        return Err(Error::InvalidInput(format!(
                            "option {cfg:?} of `{}` has lone-run power {power_w} W",
                            t.platform.name
                        )));
                    }
                    opts.push(RateOption {
                        cfg,
                        rate,
                        power_w,
                        opp,
                    });
                }
                Ok(opts)
            })
            .collect()
    }

    /// Per-type option lists (after pruning, if built pruned).
    #[must_use]
    pub fn options(&self) -> &[Vec<RateOption>] {
        &self.per_type
    }

    /// Number of valid configurations (flat indices `1 ..= count()`).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.per_type
            .iter()
            .map(|o| o.len() as u64 + 1)
            .product::<u64>()
            .saturating_sub(1)
    }

    /// Prune statistics: this table against the unpruned table it was
    /// built from.
    #[must_use]
    pub fn prune_stats(&self) -> PruneStats {
        PruneStats {
            total_options: self.unpruned_options,
            kept_options: self.per_type.iter().map(|o| o.len() + 1).sum(),
            evaluated_configs: self.count(),
            full_space: self.unpruned_count,
        }
    }

    /// Evaluate one flat index with the lean kernel. `flat` must be in
    /// `1 ..= count()` and `w_units` positive (checked by the public sweep
    /// entry points; this hot-path method only debug-asserts).
    #[must_use]
    pub fn outcome(&self, flat: u64, w_units: f64) -> SweepOutcome {
        debug_assert!(flat >= 1 && flat <= self.count());
        let mut rest = flat;
        let mut sum_r = 0.0;
        let mut sum_b = 0.0;
        for opts in &self.per_type {
            let radix = opts.len() as u64 + 1;
            let d = rest % radix;
            rest /= radix;
            if d != 0 {
                let o = &opts[(d - 1) as usize];
                sum_r += o.rate;
                sum_b += o.power_w;
            }
        }
        let time_s = w_units / sum_r;
        SweepOutcome {
            time_s,
            energy_j: time_s * sum_b,
        }
    }

    /// Decode a flat index back into a full [`ClusterPoint`] — done only
    /// for frontier survivors.
    #[must_use]
    pub fn decode(&self, flat: u64) -> ClusterPoint {
        let mut rest = flat;
        let per_type = self
            .per_type
            .iter()
            .map(|opts| {
                let radix = opts.len() as u64 + 1;
                let d = rest % radix;
                rest /= radix;
                if d == 0 {
                    None
                } else {
                    Some(opts[(d - 1) as usize].cfg)
                }
            })
            .collect();
        ClusterPoint { per_type }
    }

    /// Stream the whole table through the lean kernel and fold it into the
    /// energy–deadline Pareto frontier, without materializing the space.
    ///
    /// Deterministic: near-duplicate outcomes are tie-broken by the
    /// smallest flat index, so the result is independent of thread count
    /// and chunk scheduling.
    pub fn frontier(&self, w_units: f64) -> Result<ParetoFrontier> {
        validate_work(w_units)?;
        let entries = stream_fold(self.count(), |flat| Some(self.entry(flat, w_units)))?;
        Ok(ParetoFrontier {
            points: entries
                .into_iter()
                .map(|e| ParetoPoint {
                    time_s: e.time_s,
                    energy_j: e.energy_j,
                    config: self.decode(e.flat),
                })
                .collect(),
        })
    }

    #[inline]
    fn entry(&self, flat: u64, w_units: f64) -> Entry {
        let out = self.outcome(flat, w_units);
        Entry {
            time_s: out.time_s,
            energy_j: out.energy_j,
            flat,
        }
    }
}

/// Below this many configurations per thread, spawning is not worth it.
const MIN_CHUNK: u64 = 4096;

/// Shared work-size validation for every public sweep entry point.
pub(crate) fn validate_work(w_units: f64) -> Result<()> {
    if !(w_units > 0.0) || !w_units.is_finite() {
        return Err(Error::InvalidInput(format!(
            "work must be positive and finite, got {w_units}"
        )));
    }
    Ok(())
}

/// Reject configuration spaces that cannot produce a single configuration.
pub(crate) fn check_space(space: &ConfigSpace) -> Result<()> {
    if space.types.is_empty() || space.count() == 0 {
        return Err(Error::InvalidInput(
            "configuration space is empty (no node types or no deployable options)".into(),
        ));
    }
    Ok(())
}

/// Stream flat indices `1..=count` through `eval`, folding survivors into
/// sorted frontier entries — the chunked parallel core shared by
/// [`RateTable::frontier`] and the degraded-mode sweeps in
/// [`crate::resilience`]. `eval` returning `None` skips the index (e.g. a
/// configuration that cannot tolerate the requested failures).
///
/// Worker panics are captured and surfaced as [`Error::WorkerPanic`]
/// instead of aborting the caller's thread; every worker is still joined
/// before returning, so no detached thread outlives the call.
pub(crate) fn stream_fold<F>(count: u64, eval: F) -> Result<Vec<Entry>>
where
    F: Fn(u64) -> Option<Entry> + Sync,
{
    if count == 0 {
        return Ok(Vec::new());
    }
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(count.div_ceil(MIN_CHUNK) as usize);
    // Telemetry granularity is per chunk / per worker, never per point:
    // the `outcome` kernel stays untouched and the disabled cost of the
    // whole fold is this one flag read.
    let tracing = hecmix_obs::enabled();
    let sweep_t0 = tracing.then(std::time::Instant::now);
    if tracing {
        hecmix_obs::emit(|| hecmix_obs::Event::SweepStart {
            points: count,
            workers: threads.max(1),
        });
    }
    if threads <= 1 {
        // Same capture contract as the threaded path, so callers see
        // `WorkerPanic` regardless of how the fold was scheduled.
        return std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut partial = PartialFrontier::default();
            for flat in 1..=count {
                if let Some(e) = eval(flat) {
                    partial.push(e);
                }
            }
            if tracing {
                hecmix_obs::emit(|| hecmix_obs::Event::SweepWorker {
                    worker: 0,
                    chunks: 1,
                    scanned: count,
                    kept: partial.entries.len(),
                });
                emit_sweep_end(count, partial.entries.len(), sweep_t0);
            }
            partial.entries
        }))
        .map_err(|payload| Error::WorkerPanic(panic_message(&*payload)));
    }
    let chunk = (count / (threads as u64 * 8)).clamp(MIN_CHUNK, 1 << 16);
    let cursor = AtomicU64::new(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|worker| {
                // Move only copies and references into the worker: `eval`
                // itself stays owned by the caller.
                let (eval, cursor) = (&eval, &cursor);
                s.spawn(move || {
                    let mut partial = PartialFrontier::default();
                    let (mut chunks, mut scanned) = (0u64, 0u64);
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start > count {
                            break;
                        }
                        let end = count.min(start + chunk - 1);
                        for flat in start..=end {
                            if let Some(e) = eval(flat) {
                                partial.push(e);
                            }
                        }
                        if tracing {
                            chunks += 1;
                            scanned += end - start + 1;
                        }
                    }
                    if tracing {
                        hecmix_obs::emit(|| hecmix_obs::Event::SweepWorker {
                            worker,
                            chunks,
                            scanned,
                            kept: partial.entries.len(),
                        });
                    }
                    partial.entries
                })
            })
            .collect();
        // Join every worker even after a panic: leaving handles for the
        // scope to auto-join would re-raise the panic we mean to capture.
        let mut acc = Vec::new();
        let mut panic_msg: Option<String> = None;
        for w in workers {
            match w.join() {
                Ok(part) => {
                    let merged = merge_entries(&acc, &part);
                    if tracing {
                        hecmix_obs::emit(|| hecmix_obs::Event::SweepMerge {
                            left: acc.len(),
                            right: part.len(),
                            merged: merged.len(),
                        });
                    }
                    acc = merged;
                }
                Err(payload) => {
                    panic_msg.get_or_insert_with(|| panic_message(&*payload));
                }
            }
        }
        match panic_msg {
            Some(msg) => Err(Error::WorkerPanic(msg)),
            None => {
                if tracing {
                    emit_sweep_end(count, acc.len(), sweep_t0);
                }
                Ok(acc)
            }
        }
    })
}

/// Emit the end-of-sweep summary (points scanned, frontier size, wall
/// time). `t0` is `Some` only when telemetry was enabled at sweep start.
fn emit_sweep_end(points: u64, frontier: usize, t0: Option<std::time::Instant>) {
    let wall_s = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
    hecmix_obs::emit(|| hecmix_obs::Event::SweepEnd {
        points,
        frontier,
        wall_s,
    });
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Compact frontier candidate: no configuration, just the two axes and the
/// flat index it decodes from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) time_s: f64,
    pub(crate) energy_j: f64,
    pub(crate) flat: u64,
}

/// Lexicographic `(time, energy, flat)` order — a strict total order over
/// entries (flat indices are unique), which is what makes the streaming
/// fold deterministic.
fn key_lt(a: &Entry, b: &Entry) -> bool {
    a.time_s
        .total_cmp(&b.time_s)
        .then(a.energy_j.total_cmp(&b.energy_j))
        .then(a.flat.cmp(&b.flat))
        .is_lt()
}

/// A partial Pareto frontier maintained incrementally: entries sorted by
/// strictly increasing time and strictly decreasing energy (the same
/// invariant as [`ParetoFrontier::from_points`] output).
#[derive(Debug, Default)]
struct PartialFrontier {
    entries: Vec<Entry>,
}

impl PartialFrontier {
    fn push(&mut self, c: Entry) {
        if !c.time_s.is_finite() || !c.energy_j.is_finite() {
            return;
        }
        let i = self.entries.partition_point(|p| key_lt(p, &c));
        // Entries before `i` are keyed below `c`, so the one at `i-1` has
        // the minimum energy among them; `c` is dominated iff it does not
        // strictly beat that energy.
        if i > 0 && self.entries[i - 1].energy_j <= c.energy_j {
            return;
        }
        // Entries from `i` on are keyed above `c`; the prefix with energy
        // ≥ `c`'s is dominated by `c`.
        let k = self.entries[i..].partition_point(|p| p.energy_j >= c.energy_j);
        self.entries.splice(i..i + k, std::iter::once(c));
    }
}

/// Merge two partial frontiers in `O(n + m)`: a sorted merge by key with
/// the same strictly-improving-energy pass `from_points` uses.
fn merge_entries(a: &[Entry], b: &[Entry]) -> Vec<Entry> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    let mut best = f64::INFINITY;
    while i < a.len() || j < b.len() {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(p), Some(q)) => key_lt(p, q),
            (Some(_), None) => true,
            _ => false,
        };
        let e = if take_a {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        if e.energy_j < best {
            best = e.energy_j;
            out.push(e);
        }
    }
    out
}

/// Streaming frontier of the **full** space: build the complete rate table
/// and fold every configuration through the lean kernel. Agrees with the
/// exhaustive [`crate::sweep::sweep_frontier`] to floating-point
/// associativity; use this whenever only the frontier is needed.
pub fn stream_frontier(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Result<ParetoFrontier> {
    validate_work(w_units)?;
    RateTable::build(space, models)?.frontier(w_units)
}

/// Statistics from a dominance-pruned sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// Per-type options before pruning (summed over types, including the
    /// "type unused" option).
    pub total_options: usize,
    /// Per-type options kept after pruning.
    pub kept_options: usize,
    /// Cluster configurations actually evaluated.
    pub evaluated_configs: u64,
    /// Size of the full configuration space: the unpruned table's count,
    /// over each model's DVFS ladder where it has one.
    pub full_space: u64,
}

/// Streaming frontier of the **dominance-pruned** space, with prune
/// statistics — the configuration-space reduction the paper leaves open
/// (§IV-B). The production path for large sweeps: per-type pruning
/// typically shrinks the product by orders of magnitude before the kernel
/// ever runs, and [`RateTable::build_pruned`] keeps the frontier as an
/// energy-per-deadline curve.
pub fn stream_frontier_pruned(
    space: &ConfigSpace,
    models: &[WorkloadModel],
    w_units: f64,
) -> Result<(ParetoFrontier, PruneStats)> {
    validate_work(w_units)?;
    let table = RateTable::build_pruned(space, models)?;
    let stats = table.prune_stats();
    hecmix_obs::emit(|| hecmix_obs::Event::SweepPruned {
        total_points: stats.full_space,
        kept_points: stats.evaluated_configs,
    });
    let frontier = table.frontier(w_units)?;
    Ok((frontier, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix_match::evaluate;
    use crate::sweep::{sweep_frontier, sweep_space};
    use crate::types::Platform;

    fn setup() -> (ConfigSpace, Vec<WorkloadModel>) {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let space = ConfigSpace::two_type(arm.clone(), 3, amd.clone(), 2);
        let models = vec![
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
        ];
        (space, models)
    }

    #[test]
    fn full_table_indexes_the_space_in_iter_order() {
        let (space, models) = setup();
        let table = RateTable::build(&space, &models).unwrap();
        assert_eq!(table.count(), space.count());
        for (k, point) in space.iter().enumerate() {
            assert_eq!(table.decode(k as u64 + 1), point, "flat index {}", k + 1);
        }
    }

    /// The reference platforms with 3- and 2-OPP ladders: fewer operating
    /// points than their 5 and 3 P-states, so ladder and P-state counts
    /// differ.
    fn ladder_setup() -> (ConfigSpace, Vec<WorkloadModel>) {
        let (space, models) = setup();
        let models = models
            .into_iter()
            .zip([3, 2])
            .map(|(m, opps)| {
                let mut d =
                    crate::dvfs::NodeDvfs::synthetic_ladder(&m.power, m.platform.cores, 0.1);
                d.ladder.states.truncate(opps);
                m.with_dvfs(d)
            })
            .collect();
        (space, models)
    }

    #[test]
    fn full_table_indexes_the_ladder_space_in_sweep_order() {
        let (space, models) = ladder_setup();
        let table = RateTable::build(&space, &models).unwrap();
        let evaluated = sweep_space(&space, &models, 1e6).unwrap();
        assert_eq!(evaluated.len() as u64, table.count());
        assert_ne!(
            table.count(),
            space.count(),
            "ladders change the option count"
        );
        for (k, e) in evaluated.iter().enumerate() {
            assert_eq!(table.decode(k as u64 + 1), e.config, "flat index {}", k + 1);
        }
    }

    #[test]
    fn prune_stats_count_the_unpruned_table() {
        let (space, models) = setup();
        let (_, stats) = stream_frontier_pruned(&space, &models, 1e6).unwrap();
        assert_eq!(stats.full_space, space.count());
        let (space, models) = ladder_setup();
        let (_, stats) = stream_frontier_pruned(&space, &models, 1e6).unwrap();
        let full = RateTable::build(&space, &models).unwrap();
        assert_eq!(stats.full_space, full.count(), "{stats:?}");
        assert_eq!(
            stats.total_options,
            full.options().iter().map(|o| o.len() + 1).sum::<usize>()
        );
    }

    #[test]
    fn lean_kernel_matches_full_evaluation() {
        let (space, models) = setup();
        let table = RateTable::build(&space, &models).unwrap();
        let w = 1e6;
        for (k, point) in space.iter().enumerate() {
            let lean = table.outcome(k as u64 + 1, w);
            let full = evaluate(&point, &models, w).unwrap();
            assert_eq!(lean.time_s, full.time_s, "time must be bit-identical");
            assert!(
                (lean.energy_j - full.energy_j).abs() <= 1e-9 * full.energy_j,
                "flat {}: lean {} J vs full {} J",
                k + 1,
                lean.energy_j,
                full.energy_j
            );
        }
    }

    #[test]
    fn streaming_frontier_matches_exhaustive() {
        let (space, models) = setup();
        let w = 1e6;
        let exhaustive = sweep_frontier(&space, &models, w).unwrap();
        let streamed = stream_frontier(&space, &models, w).unwrap();
        // Frontier *membership* can differ at exact ties (the lean kernel
        // and the full evaluator round energy differently in the last
        // bits), so compare the energy-per-deadline curves both ways.
        for p in &exhaustive.points {
            let got = streamed.min_energy_for_deadline(p.time_s).unwrap();
            assert!((got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j);
        }
        for p in &streamed.points {
            let got = exhaustive.min_energy_for_deadline(p.time_s).unwrap();
            assert!(got.energy_j <= p.energy_j + 1e-9 * p.energy_j);
        }
        // Every streamed point must decode to a config whose full
        // evaluation reproduces the kernel numbers.
        for p in &streamed.points {
            let full = evaluate(&p.config, &models, w).unwrap();
            assert_eq!(p.time_s, full.time_s);
            assert!((p.energy_j - full.energy_j).abs() <= 1e-9 * full.energy_j);
        }
    }

    #[test]
    fn streaming_is_deterministic_across_chunkings() {
        // Force the sequential path (small count) and compare against the
        // same table folded through tiny hand-fed chunks.
        let (space, models) = setup();
        let table = RateTable::build(&space, &models).unwrap();
        let w = 2e6;
        let reference = table.frontier(w).unwrap();
        let mut parts: Vec<Vec<Entry>> = Vec::new();
        let mut flat = 1;
        while flat <= table.count() {
            let mut partial = PartialFrontier::default();
            for f in flat..=table.count().min(flat + 96) {
                partial.push(table.entry(f, w));
            }
            parts.push(partial.entries);
            flat += 97;
        }
        let merged = parts
            .into_iter()
            .fold(Vec::new(), |acc, p| merge_entries(&acc, &p));
        assert_eq!(merged.len(), reference.len());
        for (m, r) in merged.iter().zip(&reference.points) {
            assert_eq!(m.time_s, r.time_s);
            assert_eq!(m.energy_j, r.energy_j);
            assert_eq!(table.decode(m.flat), r.config);
        }
    }

    #[test]
    fn pruned_table_shrinks_and_preserves_curve() {
        let (space, models) = setup();
        let w = 1e6;
        let full = sweep_frontier(&space, &models, w).unwrap();
        let (pruned, stats) = stream_frontier_pruned(&space, &models, w).unwrap();
        assert!(stats.evaluated_configs < stats.full_space / 2, "{stats:?}");
        assert!(stats.kept_options < stats.total_options);
        for p in &full.points {
            let got = pruned.min_energy_for_deadline(p.time_s).unwrap();
            assert!((got.energy_j - p.energy_j).abs() <= 1e-9 * p.energy_j);
        }
        for p in &pruned.points {
            let got = full.min_energy_for_deadline(p.time_s).unwrap();
            assert!(got.energy_j <= p.energy_j + 1e-9 * p.energy_j);
        }
    }

    #[test]
    fn no_point_vectors_needed_for_large_space() {
        // A space far past what sweep_space would comfortably materialize
        // per-point: 64 + 8 nodes ≈ 187k configurations. The streaming fold
        // only ever holds per-thread partial frontiers.
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let space = ConfigSpace::two_type(arm.clone(), 64, amd.clone(), 8);
        let models = vec![
            WorkloadModel::synthetic_cpu_bound(&arm, "ep", 60.0),
            WorkloadModel::synthetic_cpu_bound(&amd, "ep", 40.0),
        ];
        let frontier = stream_frontier(&space, &models, 1e7).unwrap();
        assert!(!frontier.is_empty());
        assert!(frontier
            .points
            .windows(2)
            .all(|w| w[1].time_s > w[0].time_s && w[1].energy_j < w[0].energy_j));
    }

    #[test]
    fn kernel_outcome_vs_sweep_space_on_io_bound() {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let space = ConfigSpace::two_type(arm.clone(), 2, amd.clone(), 2);
        let models = vec![
            WorkloadModel::synthetic_io_bound(&arm, "kv", 1000.0, 512.0),
            WorkloadModel::synthetic_io_bound(&amd, "kv", 700.0, 512.0),
        ];
        let table = RateTable::build(&space, &models).unwrap();
        let evaluated = sweep_space(&space, &models, 5e4).unwrap();
        for (k, e) in evaluated.iter().enumerate() {
            let lean = table.outcome(k as u64 + 1, 5e4);
            assert_eq!(lean.time_s, e.outcome.time_s);
            assert!((lean.energy_j - e.outcome.energy_j).abs() <= 1e-9 * e.outcome.energy_j);
        }
    }

    #[test]
    fn error_paths() {
        let (space, models) = setup();
        assert!(matches!(
            RateTable::build(&space, &models[..1]),
            Err(Error::ProfileMismatch { .. })
        ));
        let table = RateTable::build(&space, &models).unwrap();
        assert!(table.frontier(0.0).is_err());
        assert!(table.frontier(f64::NAN).is_err());
        assert!(stream_frontier(&space, &models, -1.0).is_err());
        assert!(stream_frontier(&space, &models, f64::INFINITY).is_err());
        assert!(stream_frontier_pruned(&space, &models, 0.0).is_err());
    }

    #[test]
    fn empty_spaces_rejected() {
        let empty = ConfigSpace::new(Vec::new());
        assert!(matches!(
            RateTable::build(&empty, &[]),
            Err(Error::InvalidInput(_))
        ));
        // A space whose only type deploys zero nodes has no configurations.
        let zero = ConfigSpace::new(vec![crate::config::TypeBounds {
            platform: Platform::reference_arm(),
            max_nodes: 0,
        }]);
        let models = vec![WorkloadModel::synthetic_cpu_bound(
            &Platform::reference_arm(),
            "ep",
            60.0,
        )];
        assert!(matches!(
            RateTable::build_pruned(&zero, &models),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn worker_panic_surfaces_as_error() {
        // Sequential path (count below the spawn threshold).
        let got = stream_fold(16, |flat| {
            if flat == 7 {
                panic!("boom at {flat}");
            }
            None
        });
        assert!(
            matches!(&got, Err(Error::WorkerPanic(msg)) if msg.contains("boom at 7")),
            "{got:?}"
        );
        // Threaded path: enough indices that workers are spawned (when the
        // host has more than one CPU; otherwise this re-checks sequential).
        let got = stream_fold(MIN_CHUNK * 64, |flat| {
            if flat % (MIN_CHUNK + 1) == 0 {
                panic!("threaded boom");
            }
            None
        });
        assert!(
            matches!(&got, Err(Error::WorkerPanic(msg)) if msg.contains("threaded boom")),
            "{got:?}"
        );
        // And a clean fold still works after the captured panics.
        let ok = stream_fold(8, |flat| {
            Some(Entry {
                time_s: flat as f64,
                energy_j: -(flat as f64),
                flat,
            })
        })
        .unwrap();
        assert_eq!(ok.len(), 8);
    }

    #[test]
    fn partial_frontier_push_keeps_invariant() {
        let mut pf = PartialFrontier::default();
        let e = |t: f64, j: f64, flat: u64| Entry {
            time_s: t,
            energy_j: j,
            flat,
        };
        pf.push(e(2.0, 8.0, 10));
        pf.push(e(1.0, 10.0, 11)); // faster, pricier → kept before
        pf.push(e(2.5, 9.0, 12)); // dominated
        pf.push(e(2.0, 8.0, 9)); // duplicate, smaller flat wins
        pf.push(e(3.0, 1.0, 13)); // new relaxed optimum
        pf.push(e(f64::NAN, 1.0, 14)); // dropped
        let got: Vec<(f64, f64, u64)> = pf
            .entries
            .iter()
            .map(|p| (p.time_s, p.energy_j, p.flat))
            .collect();
        assert_eq!(got, vec![(1.0, 10.0, 11), (2.0, 8.0, 9), (3.0, 1.0, 13)]);
    }
}
