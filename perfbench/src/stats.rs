//! Summary statistics over wall-clock samples.
//!
//! Regressions are judged on medians and on quartile spreads, so the
//! benchmark reports medians of repeated measurements, and for per-job
//! times a tail taken at the highest percentile that still has at least
//! [`TAIL_BEYOND`] samples beyond it.

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles with the same "exclusive" method as Python's
/// `statistics.quantiles(values, n=4)`, the usual way to judge a
/// benchmark's spread. `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Python: j = i*(n+1) // 4 clamped to [1, n-1]; delta may fall
        // outside [0, 4] after clamping, which extrapolates.
        let m = (i * (n + 1)) as i64;
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - 4 * j) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The tail of a sample: the highest-ranked value that still has at least
/// [`TAIL_BEYOND`] samples strictly above it in rank, i.e. the
/// `(TAIL_BEYOND + 1)`-th largest. Returns `(value, percentile)`, where
/// the percentile is the share of samples at or below that rank. `None`
/// when the sample is too small for any value to qualify.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND; // 1-based
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        // 11 samples: only the minimum has ten above it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        // 100 samples: the 90th value, ten samples above it.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!((value, pct), (90.0, 90.0));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
    }
}
