//! Order statistics used everywhere a value is reported: nearest-rank
//! percentiles over integer samples, and median/quartiles over per-rep
//! values (the same convention as Python's `statistics.quantiles(v, n=4)`,
//! which is what the driver applies to the per-run values).

/// Nearest-rank percentile: the sample of rank `ceil(q * n)` (1-based) in
/// sorted order. `sorted` must be ascending; empty input gives 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median, quartiles and sample count of one reported value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quantile at position `p` of `n + 1` equal intervals (the "exclusive"
/// method), linearly interpolated and clamped to the data range.
fn quantile_exclusive(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// Median and quartiles of `values` (any order). One value is its own
/// median and quartiles; none gives zeros.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        },
        n => Summary {
            median: quantile_exclusive(&v, 0.5),
            q1: quantile_exclusive(&v, 0.25),
            q3: quantile_exclusive(&v, 0.75),
            n,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // 250 samples lie beyond p99 of 25 000.
        let big: Vec<u64> = (0..25_000).collect();
        let p99 = percentile(&big, 0.99);
        assert_eq!(big.iter().filter(|&&x| x > p99).count(), 250);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 2.0, 9.0, 3.0, 8.0, 4.0, 7.0, 5.0, 6.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // Two values: Python gives [0.75, 1.5, 2.25] unclamped; we clamp to
        // the data range so a quartile is always a value that could occur.
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(summarize(&[]).n, 0);
    }
}
