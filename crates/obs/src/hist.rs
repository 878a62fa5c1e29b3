//! Log2-bucketed latency histograms (HDR-style, fixed size, lock-free).
//!
//! One histogram is 64 buckets; bucket `i` covers `[2^i, 2^(i+1))` with the
//! value 0 folded into bucket 0, so any `u64` sample — nanoseconds in every
//! recorder use — lands in exactly one bucket and the top bucket absorbs
//! everything from `2^63` up (no saturation arithmetic needed). Quantiles
//! read back the *bucket midpoint* `1.5 * 2^i`, which bounds the relative
//! error of any reported percentile to one log2 bucket (a factor of 2).
//!
//! Two flavors share the bucket math:
//!
//! - [`AtomicHist`]: `[AtomicU64; 64]`, `record` is one relaxed `fetch_add`
//!   — safe to hammer from every pool worker at once. Embedded in the
//!   recorder's `SpanCell` / `HistCell`.
//! - [`HistSnapshot`]: the plain-`u64` image of one histogram. Merging,
//!   quantiles and trace encoding all happen here; the serve engine's
//!   rolling window keeps one per time slot.
//!
//! This module is free of recorder dependencies: the offline trace reader
//! (`rdd report`) rebuilds snapshots from `hist` events without a live
//! recorder.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets; covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// The bucket index holding `v`: `floor(log2(v))`, with 0 folded into
/// bucket 0.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` (0 for bucket 0).
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// The representative value reported for bucket `i`: the midpoint
/// `1.5 * 2^i`. Any exact sample in the bucket is within a factor of 2.
#[inline]
pub fn bucket_rep(i: usize) -> f64 {
    1.5 * (1u64 << i.min(62)) as f64 * if i >= 63 { 2.0 } else { 1.0 }
}

/// Lock-free histogram cell: 64 relaxed atomic bucket counters.
pub struct AtomicHist {
    buckets: [AtomicU64; BUCKETS],
}

impl AtomicHist {
    /// An empty histogram; `const` so it can live in a `static` cell.
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Count one sample. One relaxed `fetch_add`; no locks, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time plain image of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot::new();
        for (dst, src) in out.counts.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        out
    }

    /// Whether any sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.load(Ordering::Relaxed) == 0)
    }
}

impl Default for AtomicHist {
    fn default() -> Self {
        Self::new()
    }
}

/// The plain (non-atomic) image of one histogram: merge, quantile and
/// encode here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Sample count per log2 bucket.
    pub counts: [u64; BUCKETS],
}

impl HistSnapshot {
    /// An empty snapshot.
    pub const fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
        }
    }

    /// Rebuild from a trace-encoded bucket array (trailing zero buckets
    /// trimmed on encode). Buckets beyond [`BUCKETS`] are rejected.
    pub fn from_counts(counts: &[u64]) -> Option<Self> {
        if counts.len() > BUCKETS {
            return None;
        }
        let mut out = Self::new();
        out.counts[..counts.len()].copy_from_slice(counts);
        Some(out)
    }

    /// Count one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
    }

    /// Add every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Set every bucket back to zero.
    pub fn clear(&mut self) {
        self.counts = [0; BUCKETS];
    }

    /// The bucket counts with trailing zero buckets trimmed (the trace
    /// encoding of a histogram).
    pub fn trimmed(&self) -> &[u64] {
        let last = self
            .counts
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |i| i + 1);
        &self.counts[..last]
    }

    /// Approximate nearest-rank quantile: the representative midpoint of
    /// the bucket holding rank `round(q * (count - 1))`. 0 on an empty
    /// histogram. `q` must be in `[0, 1]` (callers pass literals;
    /// checked in debug builds).
    pub fn quantile(&self, q: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&q), "quantile q={q} outside [0, 1]");
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (n - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_rep(i);
            }
        }
        bucket_rep(BUCKETS - 1)
    }

    /// Approximate median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Approximate 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// Approximate 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Approximate 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        for i in 0..BUCKETS {
            if i > 0 {
                assert_eq!(bucket_of(bucket_lo(i)), i, "lower edge of bucket {i}");
            }
            let lo = bucket_lo(i).max(1) as f64;
            let rep = bucket_rep(i);
            assert!(rep >= lo, "rep of bucket {i} below its range");
        }
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = HistSnapshot::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.p99(), 0.0);
        assert!(s.trimmed().is_empty());
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut s = HistSnapshot::new();
        s.record(1000); // bucket 9: [512, 1024)
        assert_eq!(s.count(), 1);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(bucket_of(s.quantile(q) as u64), 9, "q={q}");
        }
        assert_eq!(s.trimmed().len(), 10);
    }

    #[test]
    fn top_bucket_absorbs_huge_samples() {
        let mut s = HistSnapshot::new();
        s.record(u64::MAX);
        s.record(u64::MAX / 2 + 1);
        assert_eq!(s.counts[BUCKETS - 1], 2, "both land in the top bucket");
        assert!(s.quantile(1.0) >= (1u64 << 62) as f64);
    }

    #[test]
    fn merge_adds_bucket_wise() {
        let mut a = HistSnapshot::new();
        let mut b = HistSnapshot::new();
        for v in [1u64, 5, 100, 100] {
            a.record(v);
        }
        for v in [2u64, 100, 1 << 40] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.counts[bucket_of(100)], 3);
        // Merge equals recording the union directly.
        let mut direct = HistSnapshot::new();
        for v in [1u64, 5, 100, 100, 2, 100, 1 << 40] {
            direct.record(v);
        }
        assert_eq!(merged, direct);
    }

    #[test]
    fn trimmed_round_trips_through_from_counts() {
        let mut s = HistSnapshot::new();
        for v in [3u64, 90, 7000] {
            s.record(v);
        }
        let re = HistSnapshot::from_counts(s.trimmed()).unwrap();
        assert_eq!(re, s);
        assert!(HistSnapshot::from_counts(&[0u64; BUCKETS + 1]).is_none());
    }

    #[test]
    fn atomic_and_plain_agree() {
        let a = AtomicHist::new();
        assert!(a.is_empty());
        let mut plain = HistSnapshot::new();
        for v in [0u64, 1, 17, 17, 4096, u64::MAX] {
            a.record(v);
            plain.record(v);
        }
        assert!(!a.is_empty());
        assert_eq!(a.snapshot(), plain);
    }

    #[test]
    fn concurrent_records_merge_to_identity() {
        let hist = AtomicHist::new();
        let threads = 8;
        let per_thread = 10_000usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let hist = &hist;
                scope.spawn(move || {
                    // Deterministic per-thread xorshift stream.
                    let mut x = 0x9e3779b97f4a7c15u64 ^ (t as u64 + 1);
                    for _ in 0..per_thread {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        hist.record(x >> (x % 48) as u32);
                    }
                });
            }
        });
        // Replay the same streams sequentially: bucket-exact identity.
        let mut expect = HistSnapshot::new();
        for t in 0..threads {
            let mut x = 0x9e3779b97f4a7c15u64 ^ (t as u64 + 1);
            for _ in 0..per_thread {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                expect.record(x >> (x % 48) as u32);
            }
        }
        assert_eq!(hist.snapshot(), expect);
        assert_eq!(expect.count(), (threads * per_thread) as u64);
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_one_bucket() {
        // Property-style sweep: random samples, histogram p50/p99 must land
        // in the same or an adjacent log2 bucket as the exact nearest-rank
        // percentile.
        let mut x = 0x2545f4914f6cdd1du64;
        for round in 0..50 {
            let n = 10 + (round * 37) % 2000;
            let mut s = HistSnapshot::new();
            let mut exact: Vec<u64> = Vec::with_capacity(n);
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = x >> (x % 50) as u32;
                s.record(v);
                exact.push(v);
            }
            exact.sort_unstable();
            for q in [0.5f64, 0.99] {
                let rank = (q * (n - 1) as f64).round() as usize;
                let truth = exact[rank];
                let approx = s.quantile(q) as u64;
                let (bt, ba) = (bucket_of(truth) as i64, bucket_of(approx) as i64);
                assert!(
                    (bt - ba).abs() <= 1,
                    "round {round} q={q}: exact {truth} (bucket {bt}) vs approx {approx} (bucket {ba})"
                );
            }
        }
    }
}
