//! Order statistics over the samples of one run.

/// Summary of a sample set. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), because the
/// driver that gates this benchmark computes its spreads that way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty or when any value is NaN.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: quantile(&v, 1),
            median: quantile(&v, 2),
            q3: quantile(&v, 3),
            max: v[v.len() - 1],
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// The `k`-th quartile cut point of sorted `v` by the exclusive method:
/// position `k (n + 1) / 4` counted from one, interpolated linearly and
/// clamped to the data (a single sample is its own quartile).
fn quantile(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap().median, 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        assert_eq!(s.iqr(), 5.0);
        // statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_and_bad_input() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (7.0, 7.0, 7.0, 7.0, 7.0)
        );
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }
}
