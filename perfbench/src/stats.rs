//! The one percentile helper every workload reports through.
//!
//! Percentiles are nearest-rank: the `q`-quantile of `n` sorted samples is
//! the sample at rank `ceil(q * n)`. A percentile is only reported when at
//! least [`MIN_BEYOND`] samples lie beyond it, so a tail figure is never
//! read off a handful of points.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles [`Summary::tail`] may pick, highest first.
const LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// One percentile read off a sample set, with the counts it rests on.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    /// The quantile (0.5 for the median).
    pub q: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// Median and tail of one sample set.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Sort `values` once for any number of percentile reads. NaNs sort last.
    pub fn new(mut values: Vec<f64>) -> Summary {
        values.sort_by(f64::total_cmp);
        Summary { sorted: values }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile, or `None` when fewer than [`MIN_BEYOND`] samples
    /// lie beyond it (the median needs at least one sample).
    pub fn pct(&self, q: f64) -> Option<Pct> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let beyond = n - rank;
        if q > 0.5 && beyond < MIN_BEYOND {
            return None;
        }
        Some(Pct {
            q,
            value: self.sorted[rank - 1],
            n,
            beyond,
        })
    }

    /// The median.
    pub fn median(&self) -> Option<Pct> {
        self.pct(0.5)
    }

    /// The highest ladder percentile with at least [`MIN_BEYOND`] samples
    /// beyond it.
    pub fn tail(&self) -> Option<Pct> {
        LADDER.iter().find_map(|&q| self.pct(q))
    }

    /// Arithmetic mean (0 for no samples).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// The `q`-percentile of each group (say, each block of a run), and the
/// median of those — a burst of noise moves one group's figure, not the
/// reported one. `None` unless every group has [`MIN_BEYOND`] samples
/// beyond its percentile.
pub fn median_of_groups(groups: &[Vec<f64>], q: f64) -> Option<f64> {
    let per: Option<Vec<f64>> = groups
        .iter()
        .map(|g| Summary::new(g.clone()).pct(q).map(|p| p.value))
        .collect();
    per.filter(|v| !v.is_empty()).map(|v| median(&v))
}

/// Median of a small set of repeated measurements (set-up and offline
/// timings); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::new(values.to_vec())
        .median()
        .map_or(0.0, |p| p.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_with_beyond_counts() {
        let s = Summary::new((1..=200).rev().map(f64::from).collect());
        let p50 = s.median().unwrap();
        assert_eq!((p50.value, p50.beyond), (100.0, 100));
        let p95 = s.pct(0.95).unwrap();
        assert_eq!((p95.value, p95.beyond), (190.0, 10));
        assert!(s.pct(0.99).is_none(), "only 2 samples beyond p99");
        assert_eq!(s.tail().unwrap().q, 0.95);
    }

    #[test]
    fn group_medians_need_every_group() {
        let g = vec![(1..=20).map(f64::from).collect::<Vec<_>>(); 3];
        assert_eq!(median_of_groups(&g, 0.5), Some(10.0));
        assert_eq!(median_of_groups(&g, 0.95), None, "1 sample beyond p95");
        assert_eq!(median_of_groups(&[], 0.5), None);
    }

    #[test]
    fn empty_has_no_percentiles() {
        let s = Summary::new(Vec::new());
        assert!(s.median().is_none() && s.tail().is_none());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
