//! Log-bucketed atomic latency histograms (HDR-style, dependency-free).
//!
//! Durations in this runtime span seven orders of magnitude (a no-wait
//! publish is 0 units; a straggler future blocks for millions), so fixed
//! buckets are useless and exact reservoirs are too expensive for a hot
//! path. We bucket by magnitude instead: value `v` lands in bucket
//! `⌈log2(v+1)⌉` (bucket 0 holds exactly 0, bucket `i ≥ 1` holds
//! `[2^(i-1), 2^i)`), giving a worst-case quantile error of 2x — plenty
//! for the "where did the time go" questions the evaluation asks — with
//! recording cost of one `leading_zeros` and one relaxed `fetch_add`.
//!
//! All counters are relaxed atomics: histograms are statistics, not
//! synchronization, exactly like `TmStats`/`StmStats`.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: 0 plus one per power of two up to 2^63.
pub const BUCKETS: usize = 65;

/// Shared atomic histogram; record from any thread, snapshot any time.
pub struct Histogram {
    // ordering: relaxed-rmw, relaxed-load — statistics (module docs).
    buckets: [AtomicU64; BUCKETS],
    // ordering: relaxed-rmw, relaxed-load — statistics. relaxed-guard:
    // the snapshot's emptiness check only normalizes the reported min.
    count: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — statistics.
    sum: AtomicU64,
    /// Tracked as `u64::MAX` while empty; snapshots normalize to 0.
    // ordering: relaxed-rmw, relaxed-load — statistics.
    min: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — statistics.
    max: AtomicU64,
}

/// Bucket index of `v`: 0 for 0, else position of the highest set bit + 1.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (used for quantile estimates and
/// the bucket labels of the JSON dump).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free; relaxed ordering throughout.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`Histogram`], with quantile/summary accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 < q <= 1`).
    /// Within-a-factor-of-2 by construction; exact for the max bucket
    /// thanks to the tracked true maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Compact JSON: summary stats plus the non-empty buckets as
    /// `[bucket_upper_bound, count]` pairs (deterministic order).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::arr(vec![bucket_upper(i).into(), n.into()]))
            .collect();
        Json::obj(vec![
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
            ("mean", self.mean().into()),
            ("p50", self.quantile(0.50).into()),
            ("p90", self.quantile(0.90).into()),
            ("p99", self.quantile(0.99).into()),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_magnitude() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantiles_within_2x() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        assert!((500..=1000).contains(&p50), "p50 estimate {p50}");
        assert_eq!(s.quantile(1.0), 1000);
        assert!(s.mean() > 499.0 && s.mean() < 502.0);
    }

    #[test]
    fn zero_only_histogram() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn min_tracked_and_normalized() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().min, 0, "empty histogram reports min 0");
        h.record(9);
        h.record(3);
        h.record(100);
        let s = h.snapshot();
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let h = Histogram::new();
        for v in [5, 100, 7] {
            h.record(v);
        }
        let j = h.snapshot().to_json();
        assert_eq!(j.get("count"), Some(&Json::U64(3)));
        assert_eq!(j.get("sum"), Some(&Json::U64(112)));
        // Round-trips through the parser.
        let s = j.to_string();
        assert_eq!(Json::parse(&s).unwrap(), j);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Values concentrated on bucket boundaries (powers of two and their
    /// neighbours) plus small and broad-range fills, so the oracle
    /// exercises the `[2^(i-1), 2^i)` edges, not just bucket interiors.
    fn value_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..16,
            (0u32..64).prop_map(|s| 1u64 << s),
            (0u32..64).prop_map(|s| (1u64 << s) - 1),
            (0u32..63).prop_map(|s| (1u64 << s) + 1),
            0u64..1_000_000,
        ]
    }

    proptest! {
        /// Oracle: against the exact sorted sample, the histogram's
        /// percentile estimate must (a) never under-report, (b) stay
        /// within the documented 2x bound, and (c) equal the upper bound
        /// of the exact value's bucket, capped by the true max.
        #[test]
        fn percentile_matches_sorted_oracle(
            input in (proptest::collection::vec(value_strategy(), 1..200), 1u64..1001)
        ) {
            let (values, p_tenths) = input;
            let p = p_tenths as f64 / 10.0; // 0.1% ..= 100.0%
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let s = h.snapshot();
            let estimate = s.quantile(p / 100.0);

            let mut sorted = values.clone();
            sorted.sort_unstable();
            let n = sorted.len() as u64;
            let rank = (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n);
            let exact = sorted[(rank - 1) as usize];

            prop_assert!(estimate >= exact, "under-reported: est {estimate} < exact {exact}");
            if exact == 0 {
                prop_assert_eq!(estimate, 0);
            } else {
                prop_assert!(
                    estimate <= exact.saturating_mul(2),
                    "over 2x bound: est {} for exact {}",
                    estimate,
                    exact
                );
            }
            let max = *sorted.last().unwrap();
            prop_assert_eq!(estimate, bucket_upper(bucket_of(exact)).min(max));
        }
    }
}
