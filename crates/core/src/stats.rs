//! Small statistics helpers shared by the signature modules.

use serde::{Deserialize, Serialize};

/// Mean and standard deviation summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub std: f64,
    /// Sample size.
    pub n: usize,
}

impl MeanStd {
    /// Summarizes a sample.
    pub fn of(samples: &[f64]) -> MeanStd {
        let mut moments = Moments::default();
        samples.iter().for_each(|&x| moments.add(x));
        moments.center();
        samples.iter().for_each(|&x| moments.spread(x));
        moments.summary()
    }

    /// How many baseline standard deviations `other`'s mean lies from
    /// this baseline's mean. Infinite shifts collapse to a large finite
    /// value so comparisons stay total.
    pub fn shift_sigmas(&self, other: &MeanStd) -> f64 {
        let denom = self.std.max(self.mean.abs() * 0.01).max(1e-9);
        ((other.mean - self.mean) / denom).abs().min(1e6)
    }
}

/// The two sums [`MeanStd::of`] takes, one sample at a time: every sample
/// through [`add`](Self::add), then [`center`](Self::center), then every
/// sample again, in the same order, through [`spread`](Self::spread).
/// A sequence handed over in pieces — the panes of a window, or one key's
/// samples interleaved with other keys' — sums exactly as the one slice
/// would, so a fold of per-pane samples matches a build over the whole
/// window bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Moments {
    sum: f64,
    n: usize,
    mean: f64,
    squares: f64,
}

impl Default for Moments {
    fn default() -> Moments {
        // -0.0 is the additive identity (-0.0 + x == x for every x), so
        // each sum is exactly the left fold of its samples, as
        // `Iterator::sum` computes it.
        Moments {
            sum: -0.0,
            n: 0,
            mean: 0.0,
            squares: -0.0,
        }
    }
}

impl Moments {
    /// First pass: one more sample.
    pub(crate) fn add(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    /// Between the passes: fixes the mean.
    pub(crate) fn center(&mut self) {
        if self.n > 0 {
            self.mean = self.sum / self.n as f64;
        }
    }

    /// Second pass: the same sample again.
    pub(crate) fn spread(&mut self, x: f64) {
        self.squares += (x - self.mean).powi(2);
    }

    /// True when no sample was added.
    pub(crate) fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The summary, after both passes.
    pub(crate) fn summary(&self) -> MeanStd {
        match self.n {
            0 => MeanStd::default(),
            1 => MeanStd {
                mean: self.mean,
                std: 0.0,
                n: 1,
            },
            n => MeanStd {
                mean: self.mean,
                std: (self.squares / (n - 1) as f64).sqrt(),
                n,
            },
        }
    }
}

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns `None` when either series is constant or shorter than 2.
///
/// ```
/// use flowdiff::stats::pearson;
/// let upstream = [3.0, 7.0, 2.0, 9.0];
/// let downstream = [2.0, 6.0, 1.0, 8.0]; // tracks upstream
/// assert!(pearson(&upstream, &downstream).unwrap() > 0.99);
/// assert!(pearson(&upstream, &[1.0, 1.0, 1.0, 1.0]).is_none());
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// χ² fitness statistic between observed and expected counts
/// (Section IV-A). Expected counts are rescaled to the observed total so
/// only the *shape* of the distribution matters. Cells with zero expected
/// count contribute their observed count directly.
///
/// Distributions of unequal length never panic: the shorter side is
/// treated as zero-padded, so mass the other side has in the extra cells
/// degrades the fit instead of aborting a diff (a malformed histogram is
/// exactly the kind of input a sick network produces).
pub fn chi_squared(observed: &[f64], expected: &[f64]) -> f64 {
    let cells = observed.len().max(expected.len());
    let obs = |i: usize| observed.get(i).copied().unwrap_or(0.0);
    let exp = |i: usize| expected.get(i).copied().unwrap_or(0.0);
    let obs_total: f64 = observed.iter().sum();
    let exp_total: f64 = expected.iter().sum();
    if exp_total <= 0.0 {
        return obs_total;
    }
    let scale = obs_total / exp_total;
    let mut chi2 = 0.0;
    for i in 0..cells {
        let e = exp(i) * scale;
        if e > 0.0 {
            chi2 += (obs(i) - e).powi(2) / e;
        } else {
            chi2 += obs(i);
        }
    }
    chi2
}

/// A fixed-width histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    bin_width: u64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: u64) -> Histogram {
        assert!(bin_width > 0, "bin width must be positive");
        Histogram {
            bin_width,
            counts: Vec::new(),
        }
    }

    /// A histogram with the given per-bin counts, which must be what
    /// [`add`](Self::add) leaves: no trailing zero.
    pub(crate) fn from_counts(bin_width: u64, counts: Vec<u64>) -> Histogram {
        debug_assert!(bin_width > 0 && counts.last() != Some(&0));
        Histogram { bin_width, counts }
    }

    /// Adds one observation.
    pub fn add(&mut self, value: u64) {
        let bin = (value / self.bin_width) as usize;
        if bin >= self.counts.len() {
            self.counts.resize(bin + 1, 0);
        }
        self.counts[bin] += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The bin width.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Index of the most populated bin, if any observations exist. Ties
    /// break toward the smaller bin.
    pub fn peak_bin(&self) -> Option<usize> {
        self.counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i)
    }

    /// The value range of the peak bin `(lo, hi)`.
    pub fn peak_range(&self) -> Option<(u64, u64)> {
        self.peak_bin()
            .map(|b| (b as u64 * self.bin_width, (b as u64 + 1) * self.bin_width))
    }

    /// Empirical CDF evaluated at each bin edge.
    pub fn cdf(&self) -> Vec<f64> {
        let total = self.total() as f64;
        let mut acc = 0.0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c as f64;
                if total > 0.0 {
                    acc / total
                } else {
                    0.0
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basic() {
        let s = MeanStd::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - 2.138089935).abs() < 1e-6);
        assert_eq!(MeanStd::of(&[]).n, 0);
        assert_eq!(MeanStd::of(&[3.0]).std, 0.0);
    }

    #[test]
    fn shift_sigmas_detects_displacement() {
        let base = MeanStd::of(&[10.0, 11.0, 9.0, 10.5, 9.5]);
        let same = MeanStd::of(&[10.2, 9.8, 10.1, 10.0, 9.9]);
        let far = MeanStd::of(&[20.0, 21.0, 19.0, 20.0, 20.0]);
        assert!(base.shift_sigmas(&same) < 1.0);
        assert!(base.shift_sigmas(&far) > 3.0);
    }

    #[test]
    fn shift_sigmas_with_zero_std_stays_finite() {
        let base = MeanStd::of(&[5.0, 5.0, 5.0]);
        let other = MeanStd::of(&[6.0, 6.0]);
        let s = base.shift_sigmas(&other);
        assert!(s.is_finite() && s > 0.0);
    }

    #[test]
    fn shift_sigmas_of_empty_baseline_is_finite() {
        let empty = MeanStd::default();
        let other = MeanStd::of(&[100.0, 110.0]);
        let s = empty.shift_sigmas(&other);
        assert!(s.is_finite());
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let inv = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &inv).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_rejects_degenerate_input() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[2.0]).is_none());
    }

    #[test]
    fn chi_squared_zero_for_same_shape() {
        let a = [10.0, 20.0, 30.0];
        let b = [1.0, 2.0, 3.0]; // same shape, different scale
        assert!(chi_squared(&a, &b) < 1e-9);
        let skewed = [30.0, 20.0, 10.0];
        assert!(chi_squared(&skewed, &b) > 3.84);
    }

    #[test]
    fn chi_squared_handles_zero_expected() {
        assert!(chi_squared(&[5.0, 0.0], &[0.0, 5.0]) > 0.0);
        assert_eq!(chi_squared(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn chi_squared_tolerates_unequal_lengths() {
        // Shorter side is zero-padded: identical to passing the padding
        // explicitly, and never a panic.
        let padded = chi_squared(&[10.0, 20.0, 5.0], &[1.0, 2.0, 0.0]);
        let implicit = chi_squared(&[10.0, 20.0, 5.0], &[1.0, 2.0]);
        assert!((padded - implicit).abs() < 1e-12);
        let sym = chi_squared(&[1.0, 2.0], &[1.0, 2.0, 4.0]);
        assert!(
            sym.is_finite() && sym > 0.0,
            "extra expected mass degrades fit"
        );
        assert_eq!(chi_squared(&[], &[]), 0.0);
        assert_eq!(chi_squared(&[3.0], &[]), 3.0, "no expectation: worst case");
    }

    #[test]
    fn histogram_peak_and_cdf() {
        let mut h = Histogram::new(20_000);
        for v in [55_000u64, 58_000, 61_000, 62_000, 63_000, 140_000] {
            h.add(v);
        }
        // bin 3 (60k-80k) has 3 entries
        assert_eq!(h.peak_bin(), Some(3));
        assert_eq!(h.peak_range(), Some((60_000, 80_000)));
        assert_eq!(h.total(), 6);
        let cdf = h.cdf();
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn histogram_tie_breaks_to_lower_bin() {
        let mut h = Histogram::new(10);
        h.add(5);
        h.add(25);
        assert_eq!(h.peak_bin(), Some(0));
    }

    #[test]
    fn empty_histogram_has_no_peak() {
        let h = Histogram::new(10);
        assert_eq!(h.peak_bin(), None);
        assert_eq!(h.total(), 0);
    }
}
