//! Percentiles and process readings.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Latency histogram with fixed memory: log-linear buckets (64 binary
/// exponents × 1024 linear steps), so a recorded value is kept to within
/// 0.1 % and the benchmark's own memory does not grow with the request
/// count.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

const SUB_BITS: u32 = 10;

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; 64 << SUB_BITS],
            total: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        (((shift + 1) << SUB_BITS) as u64 + ((v >> shift) & ((1 << SUB_BITS) - 1))) as usize
    }

    /// Lower bound and width of bucket `b`.
    fn bounds(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < 1 << SUB_BITS {
            return (b as f64, 1.0);
        }
        let shift = (b >> SUB_BITS) - 1;
        let low = ((1 << SUB_BITS) + (b & ((1 << SUB_BITS) - 1))) << shift;
        (low as f64, (1u64 << shift) as f64)
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Values recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Add `other`'s values to this histogram.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile `q` (0–100), placed inside its bucket by
    /// the rank's position among the bucket's values; 0 when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + u64::from(c) >= rank {
                let (low, width) = Self::bounds(b);
                return low + width * ((rank - seen) as f64 - 0.5) / f64::from(c);
            }
            seen += u64::from(c);
        }
        unreachable!("rank {rank} lies within the {} recorded values", self.total)
    }
}

/// Nearest-rank percentile `q` (0–100) of `v`; sorts `v`. 0 when empty.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median of `v` (nearest rank); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Arithmetic mean; 0 when empty.
#[must_use]
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A `/proc/self/status` field in its own unit (kB for memory, a count
/// for `Threads`).
#[must_use]
pub fn proc_status(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Machine-wide CPU time from `/proc/stat`, in clock ticks: time the
/// CPUs ran (user, nice, system, irq, softirq) and time the hypervisor
/// took from them (steal).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Ticks spent running.
    pub busy: u64,
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
}

impl CpuTicks {
    /// Read the aggregate `cpu` line; zeros when unavailable.
    #[must_use]
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        Self {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Share of the demanded CPU time the hypervisor stole since `start`.
    #[must_use]
    pub fn steal_share_since(self, start: Self) -> f64 {
        let busy = self.busy.saturating_sub(start.busy);
        let steal = self.steal.saturating_sub(start.steal);
        if busy + steal == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }
}

/// Peak resident set of this process, MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// How often the thread-count sampler reads `/proc/self/status`.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// Sample this process's thread count every `every` until `stop` is set;
/// returns the peak seen.
#[must_use]
pub fn threads_peak(stop: &AtomicBool, every: Duration) -> u64 {
    let mut peak = 0;
    while !stop.load(Ordering::Relaxed) {
        peak = peak.max(proc_status("Threads").unwrap_or(0));
        std::thread::sleep(every);
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn histogram_keeps_values_within_a_tenth_of_a_percent() {
        let mut h = Histogram::new();
        for v in [3u64, 999, 1024, 5_000, 123_456, 98_765_432] {
            h.record(v);
            let (low, width) = Histogram::bounds(Histogram::bucket(v));
            assert!(
                low <= v as f64 && (v as f64) < low + width && width <= v as f64 * 1e-3 + 1.0,
                "{v}"
            );
        }
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        assert!((h.percentile(50.0) - 500_000.0).abs() < 500.0);
        assert!((h.percentile(99.0) - 990_000.0).abs() < 990.0);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn reads_proc_status() {
        assert!(proc_status("Threads").unwrap_or(0) >= 1);
        assert!(peak_rss_mb() > 0.0);
    }
}
