//! Order statistics shared by the end-to-end and traced runs.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median as the midpoint of the two central samples, so it moves
/// smoothly with the data.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the bounds in `BENCHMARK.json` are compared with.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The candidate tail percentiles, highest first.
pub const TAIL_PERCENTILES: [u32; 4] = [99, 95, 90, 80];

/// The highest tail percentile that leaves at least ten samples beyond
/// it when a run holds `min_samples` samples, or `None` when even p80
/// does not.
pub fn tail_percentile(min_samples: usize) -> Option<u32> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| min_samples as f64 * (100 - p) as f64 / 100.0 >= 10.0)
}

/// Length of the union of `[start, end)` intervals, each clipped to
/// `within`: the part of a parent span its (possibly overlapping)
/// children cover.
pub fn covered(within: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(80));
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(49), None);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two batch workers overlap between 30 and 40.
        assert_eq!(covered((0, 100), &[(10, 40), (30, 60)]), 50);
        // Children are clipped to the parent.
        assert_eq!(covered((20, 50), &[(10, 30), (45, 70)]), 15);
        // Disjoint, unsorted, nested.
        assert_eq!(covered((0, 100), &[(70, 80), (0, 10), (2, 5)]), 20);
        assert_eq!(covered((0, 100), &[]), 0);
    }
}
