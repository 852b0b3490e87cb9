//! Sample statistics shared by every metric row: median, min, max,
//! inter-quartile range, and p99 for the probes.

/// Summary of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle values for even `n`).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Third quartile minus first quartile (0 for fewer than two samples).
    pub iqr: f64,
    /// Nearest-rank 99th percentile; `None` below [`P99_MIN_SAMPLES`],
    /// where fewer than ten samples lie beyond it.
    pub p99: Option<f64>,
}

/// Fewest samples for which a p99 is reported: ten lie at or beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(x, n=4)`
/// computes them (the "exclusive" method), so a spread computed here equals
/// the one the acceptance procedure computes from the same values.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range; 0 for fewer than two samples.
pub fn iqr(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    q3 - q1
}

/// Nearest-rank 99th percentile of a non-empty sample set.
pub fn p99(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "p99 of no samples");
    let rank = (0.99 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Summarise a non-empty sample set.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        median: median(&s),
        min: s[0],
        max: s[s.len() - 1],
        iqr: iqr(&s),
        p99: (s.len() >= P99_MIN_SAMPLES).then(|| p99(&s)),
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(iqr(&ten), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&seven), (2.0, 6.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(iqr(&[5.0]), 0.0);
    }

    #[test]
    fn p99_is_nearest_rank() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&thousand), 990.0);
        assert_eq!(p99(&[1.0, 2.0, 3.0]), 3.0);
    }

    #[test]
    fn summary_reports_p99_only_with_enough_samples() {
        let few = summarize(&[2.0, 9.0, 4.0]);
        assert_eq!((few.n, few.min, few.median, few.max), (3, 2.0, 4.0, 9.0));
        assert_eq!(few.p99, None);
        let many: Vec<f64> = (0..P99_MIN_SAMPLES).map(|i| i as f64).collect();
        assert_eq!(summarize(&many).p99, Some(989.0));
    }
}
