//! Order statistics over timing samples.

/// Sorted copy of `xs` (NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `NaN` when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method). With one
/// sample both quartiles are that sample.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: i64| {
        let (len, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Sub-buckets per power of two of a [`LogHistogram`] (relative
/// resolution 2^(1/64) - 1, about 1.1%).
const SUB: usize = 64;

/// A fixed-size histogram of positive values on a logarithmic scale, for
/// latency percentiles over millions of samples in constant memory.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; 64 * SUB],
            total: 0,
        }
    }
}

impl LogHistogram {
    /// Records one value (values below 1 count as 1).
    pub fn record(&mut self, x: f64) {
        let i = ((x.max(1.0).log2() * SUB as f64) as usize).min(self.counts.len() - 1);
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile by nearest rank, as the geometric middle of its
    /// bucket; `NaN` when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 2f64.powf((i as f64 + 0.5) / SUB as f64);
            }
        }
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = LogHistogram::default();
        for i in 1..=1000 {
            h.record(f64::from(i));
        }
        assert_eq!(h.len(), 1000);
        assert!((h.percentile(0.5) / 500.0 - 1.0).abs() < 0.012);
        assert!((h.percentile(0.99) / 990.0 - 1.0).abs() < 0.012);
    }
}
