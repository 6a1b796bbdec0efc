//! Order statistics for host-time samples and for the simulator's
//! log-bucketed latency histograms.

use snapbpf_sim::Histogram;

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles of `values` by the exclusive method
/// (Python's `statistics.quantiles(values, n=4)`); `None` below two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = (m as f64 - 4.0 * j as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// A histogram's contents as `(bucket low, bucket high, count)`
/// triples in ascending order, values in the histogram's unit.
///
/// [`Histogram`] keeps counts per log bucket (four per power of two)
/// and answers percentiles with a bucket's midpoint. The buckets are
/// recovered by asking for every rank: the percentile at rank `k` is a
/// value inside the bucket holding the `k`-th smallest sample, and the
/// bucket's bounds follow from the same log-bucket rule. The outer
/// bounds are clamped to the exact recorded minimum and maximum.
pub struct Buckets(Vec<(f64, f64, u64)>);

impl Buckets {
    /// Recovers the buckets of `h`.
    pub fn of(h: &Histogram) -> Buckets {
        let n = h.count();
        let mut out: Vec<(f64, f64, u64)> = Vec::new();
        if n == 0 {
            return Buckets(out);
        }
        let (min, max) = (
            h.min().expect("non-empty") as f64,
            h.max().expect("non-empty") as f64,
        );
        for k in 1..=n {
            // Rank k exactly: ceil((k - 0.5) / n * n) == k.
            let p = 100.0 * (k as f64 - 0.5) / n as f64;
            let v = h.percentile(p).expect("non-empty");
            let (lo, hi) = bucket_bounds(v);
            match out.last_mut() {
                Some(last) if last.0 == lo as f64 => last.2 += 1,
                _ => out.push((lo as f64, hi as f64, 1)),
            }
        }
        if let Some(first) = out.first_mut() {
            first.0 = first.0.max(min);
        }
        if let Some(last) = out.last_mut() {
            last.1 = last.1.min(max);
            last.0 = last.0.min(last.1);
        }
        Buckets(out)
    }

    /// Total sample count.
    pub fn count(&self) -> u64 {
        self.0.iter().map(|b| b.2).sum()
    }

    /// Removes `n` samples from the bucket holding zero (the restore
    /// histogram records 0 for every warm start).
    pub fn without_zeros(mut self, n: u64) -> Buckets {
        if let Some(first) = self.0.first_mut() {
            if first.0 == 0.0 && first.1 == 0.0 {
                first.2 = first.2.saturating_sub(n);
                if first.2 == 0 {
                    self.0.remove(0);
                }
            }
        }
        self
    }

    /// Percentile `p` (0–100), interpolating linearly inside the
    /// bucket that holds it; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = (p / 100.0 * n as f64).clamp(0.0, n as f64);
        let mut below = 0.0;
        for &(lo, hi, c) in &self.0 {
            let c = c as f64;
            if below + c >= target {
                return lo + (hi - lo) * ((target - below) / c);
            }
            below += c;
        }
        self.0.last().map_or(0.0, |b| b.1)
    }
}

/// Bounds `[lo, hi]` of the log bucket holding `v` under
/// [`Histogram`]'s rule: exact below 4, otherwise a quarter octave.
fn bucket_bounds(v: u64) -> (u64, u64) {
    if v < 4 {
        return (v, v);
    }
    let shift = 63 - v.leading_zeros() - 2;
    let lo = (v >> shift) << shift;
    (lo, lo + (1u64 << shift))
}

/// The highest percentile of the ladder 99, 95, 90, 75, 50 that has
/// at least ten samples beyond it among `n`, or 50.
pub fn tail_level(n: u64) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_preserve_count_and_bracket_percentiles() {
        let mut h = Histogram::new();
        for v in [0, 0, 3, 10, 11, 12, 100, 1000, 1000, 5000] {
            h.record(v);
        }
        let b = Buckets::of(&h);
        assert_eq!(b.count(), 10);
        assert_eq!(b.percentile(100.0), 5000.0);
        assert_eq!(b.percentile(0.0), 0.0);
        let b = b.without_zeros(2);
        assert_eq!(b.count(), 8);
        let p50 = b.percentile(50.0);
        assert!((12.0..=128.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn medians_and_tail_levels() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            Some((2.75, 8.25))
        );
        assert_eq!(tail_level(1000), 99.0);
        assert_eq!(tail_level(400), 95.0);
        assert_eq!(tail_level(15), 50.0);
    }
}
