//! The log₂-bucketed (HDR-style) [`Histogram`] behind the metrics
//! pipeline's RTT percentiles.

/// log₂ of the linear sub-buckets per octave: 8 sub-buckets, so bucket
/// boundaries are `m · 2^e` with `m ∈ {1, 1.125, 1.25, …, 1.875}` and the
/// worst-case relative bucket width is 1/8.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Smallest binary exponent with its own octave; values below `2^MIN_EXP`
/// (including zero and negatives) land in the underflow bucket 0.
const MIN_EXP: i32 = -10;
/// Largest binary exponent with its own octave; larger values clamp into
/// the topmost bucket.
const MAX_EXP: i32 = 40;
/// Octaves covered: `MIN_EXP ..= MAX_EXP`.
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
/// Total buckets: one underflow bucket plus `SUBS` per octave.
const N_BUCKETS: usize = 1 + OCTAVES * SUBS;

/// `2^e` for `e` well inside the normal-double range, built from bits so
/// bucket boundaries are bit-exact on every platform.
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// An HDR-style log₂-bucketed histogram.
///
/// Buckets are octaves of the value's binary exponent split into `SUBS`
/// linear sub-buckets, so the bucket for a sample is a bit-twiddle of its
/// IEEE-754 representation — no caller-chosen bounds, no search — and any
/// two histograms are always mergeable/comparable. The covered domain is
/// `[2^-10, 2^41)` ≈ `[0.001, 2.2e12]`, wide enough for RTTs in
/// microseconds, rates in Mbps, and queue depths in bytes alike; values
/// outside clamp into the underflow/topmost bucket. Percentiles
/// interpolate linearly inside the target bucket and are exact at the
/// recorded min/max, giving ≤ 1/8 relative error in between.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
    min: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; N_BUCKETS],
            total: 0,
            sum: 0.0,
            max: 0.0,
            min: f64::INFINITY,
        }
    }

    /// The bucket index a value lands in.
    pub fn bucket_of(v: f64) -> usize {
        // NaN, negatives, zero and sub-domain values → underflow bucket.
        if v.is_nan() || v < pow2(MIN_EXP) {
            return 0;
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp > MAX_EXP {
            return N_BUCKETS - 1;
        }
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        1 + (exp - MIN_EXP) as usize * SUBS + sub
    }

    /// The `[lo, hi)` boundaries of bucket `idx`. Bucket 0 is the
    /// underflow bucket `[0, 2^MIN_EXP)`.
    pub fn bucket_bounds(idx: usize) -> (f64, f64) {
        assert!(idx < N_BUCKETS, "bucket index {idx} out of range");
        if idx == 0 {
            return (0.0, pow2(MIN_EXP));
        }
        let e = MIN_EXP + ((idx - 1) / SUBS) as i32;
        let s = (idx - 1) % SUBS;
        let scale = pow2(e);
        // `scale · (1 + s/8)` is exact: the mantissa step is dyadic.
        let lo = scale * (1.0 + s as f64 / SUBS as f64);
        let hi = scale * (1.0 + (s + 1) as f64 / SUBS as f64);
        (lo, hi)
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
        if v < self.min {
            self.min = v;
        }
    }

    /// Resets to empty, retaining the allocation (the metrics pipeline
    /// clears per-bin histograms on every bin close).
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0.0;
        self.max = 0.0;
        self.min = f64::INFINITY;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Smallest sample seen (0 when empty).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Per-bucket counts (index with [`Histogram::bucket_of`] /
    /// [`Histogram::bucket_bounds`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated inside
    /// the target bucket and clamped to the recorded `[min, max]` — so
    /// `percentile(0.0)` is exactly the min and `percentile(1.0)` exactly
    /// the max. Deterministic; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen as f64 >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = ((target - (seen - c) as f64) / c as f64).clamp(0.0, 1.0);
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.percentile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression pin: the log₂ bucket layout. Bucket boundaries are pure
    /// functions of the IEEE-754 representation; these exact values must
    /// never drift (flushed metrics and reports depend on them).
    #[test]
    fn histogram_bucket_boundaries_are_pinned() {
        // Underflow bucket: [0, 2^-10).
        assert_eq!(Histogram::bucket_bounds(0), (0.0, 0.0009765625));
        for v in [0.0, -5.0, 0.0005, f64::NAN] {
            assert_eq!(Histogram::bucket_of(v), 0, "{v} must underflow");
        }
        // 1.0 opens its octave: bucket [1.0, 1.125).
        assert_eq!(Histogram::bucket_of(1.0), 81);
        assert_eq!(Histogram::bucket_bounds(81), (1.0, 1.125));
        // 1000 = 2^9 · 1.953125 → top sub-bucket of the 2^9 octave.
        assert_eq!(Histogram::bucket_of(1000.0), 160);
        assert_eq!(Histogram::bucket_bounds(160), (960.0, 1024.0));
        // Boundaries are half-open: lo inclusive, hi exclusive.
        assert_eq!(Histogram::bucket_of(960.0), 160);
        assert_eq!(Histogram::bucket_of(1024.0), 161);
        // Beyond 2^40 clamps into the topmost bucket.
        assert_eq!(Histogram::bucket_of(1e13), 408);
    }

    /// Regression pin: percentile interpolation inside a bucket, and the
    /// exact-min/exact-max clamps at the ends.
    #[test]
    fn histogram_percentile_interpolation_is_pinned() {
        let mut h = Histogram::new();
        h.record(960.0);
        h.record(1020.0);
        // Both samples share bucket [960, 1024): the median interpolates
        // halfway into the bucket, the extremes clamp to min/max exactly.
        assert_eq!(h.percentile(0.5), 992.0);
        assert_eq!(h.percentile(0.0), 960.0);
        assert_eq!(h.percentile(1.0), 1020.0);
        assert_eq!(h.min(), 960.0);
        assert_eq!(h.max(), 1020.0);

        // A single sample reports itself at every percentile.
        let mut one = Histogram::new();
        one.record(100.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(q), 100.0);
        }
    }

    #[test]
    fn histogram_percentiles_track_uniform_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.mean(), 500.5);
        assert_eq!(h.max(), 1000.0);
        assert_eq!(h.min(), 1.0);
        for (got, want) in [
            (h.p50(), 500.0),
            (h.p95(), 950.0),
            (h.p99(), 990.0),
            (h.p999(), 999.0),
        ] {
            let rel = (got - want).abs() / want;
            assert!(rel < 0.13, "got {got}, want ~{want} (rel err {rel:.3})");
        }
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99() && h.p99() <= h.p999());

        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!((h.mean(), h.min(), h.max()), (0.0, 0.0, 0.0));
    }
}
