//! Order statistics over exact samples: no histograms, no interpolation
//! beyond what Python's `statistics.quantiles` does, so a spread computed
//! here equals the one the acceptance driver computes.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.  `None` when empty.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle two when even).  `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive).  With fewer than two
/// values both quartiles are the single value.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some((v[0], v[0])),
        n => {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Median, quartiles and count of one metric's per-trial values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let (q1, q3) = quartiles(values)?;
        Some(Summary {
            median: median(values)?,
            q1,
            q3,
            n: values.len(),
        })
    }

    /// Interquartile distance of the values as a share of their median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    /// The interquartile distance to expect between the medians of repeated
    /// sets of `n` such values, as a share of the median: for values spread
    /// about normally, `1.2533 / sqrt(n)` of their own.  This, not
    /// [`Summary::spread`], says how far a reported median can be trusted.
    pub fn spread_of_median(&self) -> f64 {
        1.2533 * self.spread() / (self.n.max(1) as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), Some(50));
        assert_eq!(percentile_sorted(&s, 99.0), Some(99));
        assert_eq!(percentile_sorted(&s, 99.9), Some(100));
        assert_eq!(percentile_sorted(&s, 0.0), Some(1));
        assert_eq!(percentile_sorted(&[7], 99.0), Some(7));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]).unwrap();
        assert_eq!(s.median, 13.0);
        assert_eq!((s.q1, s.q3), (11.0, 15.0));
        assert!((s.spread() - 4.0 / 13.0).abs() < 1e-12);
        let of_median = 1.2533 * (4.0 / 13.0) / 7f64.sqrt();
        assert!((s.spread_of_median() - of_median).abs() < 1e-12);
    }
}
