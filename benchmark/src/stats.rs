//! Order statistics over small samples.

/// Sorts in place and returns the median (mean of the middle two for an
/// even count). `0.0` for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Index, into `n` sorted samples, of the tail value reported as "p90":
/// the nearest-rank 90th percentile, lowered until at least ten samples
/// lie beyond it, but never below the median. Small samples therefore
/// report their median — they support no higher percentile.
pub fn tail_index(n: usize) -> usize {
    assert!(n > 0, "no samples");
    let p90 = (n * 9).div_ceil(10) - 1;
    p90.min(n.saturating_sub(11)).max(n / 2)
}

/// Median and supported tail (see [`tail_index`]) of a latency sample.
pub fn p50_and_tail(values: &mut [f64]) -> (f64, f64) {
    let p50 = median(values);
    (p50, values[tail_index(values.len())])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them — the rule the benchmark
/// driver applies to ten runs of a metric.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_when_it_can() {
        // 99 epochs: p90 by nearest rank is index 89 (9 beyond); the
        // picker steps down to 88.
        assert_eq!(tail_index(99), 88);
        // Plenty of samples: the true p90.
        assert_eq!(tail_index(1000), 899);
        assert_eq!(tail_index(133), 119);
        // 60 samples: ten beyond -> index 49.
        assert_eq!(tail_index(60), 49);
        // Too few to support anything above the median.
        assert_eq!(tail_index(14), 7);
        assert_eq!(tail_index(1), 0);
        for n in 21..500 {
            assert!(n - 1 - tail_index(n) >= 10, "n={n}");
        }
    }

    #[test]
    fn median_and_tail_of_a_ramp() {
        let mut v: Vec<f64> = (1..=99).rev().map(f64::from).collect();
        assert_eq!(p50_and_tail(&mut v), (50.0, 89.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&mut [16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }
}
