//! Metric primitive: HDR-style log-bucketed latency histograms.
//!
//! The histogram layout is base-2 octaves split into `2^SUB_BITS = 16`
//! linear sub-buckets: values below 16 get exact buckets, every larger
//! value lands in a bucket whose width is `2^(octave-4)`, so the
//! relative quantile error is at most `1/16 = 6.25 %`. All recording is
//! wait-free relaxed atomics — histograms are safe to hammer from many
//! threads and to snapshot concurrently (a snapshot is a consistent
//! *approximation* while writers are live, exact at quiescence).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket resolution: each base-2 octave splits into
/// `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the whole `u64` value domain.
pub const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB as usize + SUB as usize;

/// The bucket a value lands in.
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros(); // >= SUB_BITS
        let m = ((value >> (exp - SUB_BITS)) - SUB) as usize;
        SUB as usize * (exp - SUB_BITS) as usize + SUB as usize + m
    }
}

/// Inclusive lower bound of bucket `index`.
fn bucket_lower(index: usize) -> u64 {
    let idx = index as u64;
    if idx < SUB {
        idx
    } else {
        let octave = idx / SUB - 1 + SUB_BITS as u64;
        let m = idx % SUB;
        (SUB + m) << (octave - SUB_BITS as u64)
    }
}

/// Exclusive upper bound of bucket `index` (`u64::MAX` for the last).
fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1)
    }
}

// ---------------------------------------------------------------------
// Histogram.

/// A log-bucketed latency histogram (values are `u64`, by convention
/// nanoseconds). Recording is wait-free; snapshots may run concurrently.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        // relaxed: each bucket/sum/max cell is an independent monotone
        // accumulator; nothing is published through them and snapshots
        // tolerate torn cross-cell reads (documented approximation).
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the bucket counts. While writers are
    /// live the cells may be mutually slightly stale; `count` is
    /// derived from the copied buckets so quantiles are internally
    /// consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            // relaxed: see `record`.
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            count,
            // relaxed: see `record`.
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state with quantile
/// readout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded values (sum of `buckets`).
    pub count: u64,
    /// Sum of recorded values (mean = `sum / count`).
    pub sum: u64,
    /// Largest recorded value, exact.
    pub max: u64,
    /// Per-bucket counts (`BUCKETS` entries).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot of an empty histogram.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// The mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: an upper bound of the bucket
    /// holding the `ceil(q·count)`-th value, clamped to the exact
    /// recorded `max`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Highest value representable by the bucket (the last
                // bucket's upper bound is itself inclusive), clamped to
                // the exact recorded max.
                let bound = if i + 1 >= BUCKETS {
                    u64::MAX
                } else {
                    bucket_upper(i) - 1
                };
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds another snapshot's population into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_below_sub_and_tight_above() {
        // Exact buckets for small values.
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
        }
        // Every bucket's lower bound maps back to that bucket, and
        // buckets tile the domain: upper(i) == lower(i+1).
        for i in 0..BUCKETS {
            let lo = bucket_lower(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_upper(i), bucket_lower(i + 1));
                assert_eq!(bucket_index(bucket_upper(i) - 1), i, "last value of {i}");
            }
        }
        // Octave edges land on fresh buckets.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [17u64, 100, 1_000, 123_456, u32::MAX as u64, 1 << 60] {
            let i = bucket_index(v);
            let width = bucket_upper(i) - bucket_lower(i);
            assert!(
                (width as f64) <= (bucket_lower(i) as f64) / (SUB as f64 - 1.0) + 1.0,
                "bucket {i} too wide for {v}: width {width}"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded_by_max() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let qs: Vec<u64> = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| s.quantile(q))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
        }
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.quantile(1.0), s.max);
        // p50 within one sub-bucket (6.25 %) of the true median.
        let p50 = s.p50() as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.0725, "{p50}");
    }

    #[test]
    fn saturation_at_u64_max_is_safe() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record_duration(std::time::Duration::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[BUCKETS - 1], 3);
        assert_eq!(s.p99(), u64::MAX);
    }

    #[test]
    fn merge_is_population_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v);
            b.record(v + 1000);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 200);
        assert_eq!(m.sum, (0..100).sum::<u64>() + (1000..1100).sum::<u64>());
        assert_eq!(m.max, 1099);
        // The merged median sits between the two populations.
        assert!(m.p50() >= 99 && m.p50() <= 1008, "{}", m.p50());
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
