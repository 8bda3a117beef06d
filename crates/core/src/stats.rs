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
    /// Summarizes a sample of real values: the mean of their left-fold
    /// sum, then the spread about it. Integer samples are summed
    /// exactly instead, so that no sample order can change their summary.
    pub fn of(samples: &[f64]) -> MeanStd {
        let n = samples.len();
        if n == 0 {
            return MeanStd::default();
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let squares: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum();
        let std = if n < 2 {
            0.0
        } else {
            (squares / (n - 1) as f64).sqrt()
        };
        MeanStd { mean, std, n }
    }

    /// How many baseline standard deviations `other`'s mean lies from
    /// this baseline's mean. Infinite shifts collapse to a large finite
    /// value so comparisons stay total.
    pub fn shift_sigmas(&self, other: &MeanStd) -> f64 {
        let denom = self.std.max(self.mean.abs() * 0.01).max(1e-9);
        ((other.mean - self.mean) / denom).abs().min(1e6)
    }
}

/// The largest sample [`Moments`] counts; a larger one counts as this.
/// Samples come off the wire — `FlowRemoved` byte and packet counts,
/// gaps between control-message timestamps — so each is bounded before
/// it is squared: then Σx² fits a `u128` for any window under 2³²
/// samples. 2⁴⁸ µs is 8.9 years and 2⁴⁸ bytes 256 TiB, so no real
/// sample reaches it.
const MAX_SAMPLE: u64 = 1 << 48;

/// Exact sums of integer samples: `[n, Σx, Σx²]`. Sums of integers are
/// the same in any order, so adding samples or whole `Moments` in any
/// order or split gives the same value, and subtracting a part added
/// before restores the value it had. The sums saturate instead of
/// wrapping past `u128` (over 2³² samples of [`MAX_SAMPLE`] in one
/// window), so no input panics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Moments([u128; 3]);

impl Moments {
    /// The sums of `samples`.
    pub(crate) fn of(samples: impl IntoIterator<Item = u64>) -> Moments {
        let mut moments = Moments::default();
        samples.into_iter().for_each(|x| moments.add(x));
        moments
    }

    /// One more sample, capped at [`MAX_SAMPLE`].
    pub(crate) fn add(&mut self, x: u64) {
        let x = u128::from(x.min(MAX_SAMPLE));
        *self += Moments([1, x, x * x]);
    }

    /// True when no sample was added.
    pub(crate) fn is_empty(&self) -> bool {
        self.0[0] == 0
    }

    /// The mean and the sample standard deviation of the samples.
    /// `n·Σx² − (Σx)²` is `n·Σ(x − mean)²` exactly, so the spread takes
    /// one rounding; past `u128` it falls back to f64 sums.
    pub(crate) fn summary(&self) -> MeanStd {
        let [n, sum, squares] = self.0;
        if n == 0 {
            return MeanStd::default();
        }
        let (count, total) = (n as f64, sum as f64);
        let mean = total / count;
        let spread = (n.checked_mul(squares))
            .zip(sum.checked_mul(sum))
            .and_then(|(n_squares, sum_squared)| n_squares.checked_sub(sum_squared));
        let variance = match spread {
            _ if n < 2 => 0.0,
            Some(spread) => spread as f64 / (count * (count - 1.0)),
            None => ((squares as f64 - total * mean) / (count - 1.0)).max(0.0),
        };
        let (std, n) = (variance.sqrt(), usize::try_from(n).unwrap_or(usize::MAX));
        MeanStd { mean, std, n }
    }
}

impl std::ops::AddAssign for Moments {
    fn add_assign(&mut self, other: Moments) {
        (self.0.iter_mut().zip(other.0)).for_each(|(a, b)| *a = a.saturating_add(b));
    }
}

impl std::ops::SubAssign for Moments {
    /// Takes back a part added before.
    fn sub_assign(&mut self, other: Moments) {
        (self.0.iter_mut().zip(other.0)).for_each(|(a, b)| *a = a.saturating_sub(b));
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

    /// Samples whose two-pass f64 spread rounds to two different `std`
    /// bits over their 720 orders.
    const SAMPLES: [u64; 6] = [3, 1 << 40, 17, 999_999_937, 0, 1 << 40];

    /// Every permutation of `xs`, by Heap's algorithm.
    fn permutations(xs: &mut [u64], k: usize, out: &mut Vec<Vec<u64>>) {
        if k <= 1 {
            out.push(xs.to_vec());
            return;
        }
        for i in 0..k {
            permutations(xs, k - 1, out);
            xs.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
    }

    fn summary_bits(m: &Moments) -> (usize, u64, u64) {
        let s = m.summary();
        (s.n, s.mean.to_bits(), s.std.to_bits())
    }

    #[test]
    fn moments_are_the_same_in_any_order_and_split() {
        let whole = Moments::of(SAMPLES);
        let mut orders = Vec::new();
        permutations(&mut SAMPLES.clone(), SAMPLES.len(), &mut orders);
        assert_eq!(orders.len(), 720);
        for order in &orders {
            for at in 0..=order.len() {
                let mut parts = Moments::of(order[at..].iter().copied());
                parts += Moments::of(order[..at].iter().copied());
                assert_eq!(parts, whole, "{order:?} split at {at}");
            }
        }
        let s = whole.summary();
        let reference = MeanStd::of(&SAMPLES.map(|x| x as f64));
        assert_eq!((s.n, s.mean), (reference.n, reference.mean));
        assert!((s.std - reference.std).abs() <= 1e-12 * reference.std);
    }

    #[test]
    fn removing_a_part_restores_the_moments() {
        let mut moments = Moments::of(SAMPLES[..4].iter().copied());
        let before = moments;
        let part = Moments::of(SAMPLES[4..].iter().copied());
        moments += part;
        assert_ne!(moments, before);
        moments -= part;
        assert_eq!(moments, before);
        assert_eq!(summary_bits(&moments), summary_bits(&before));
    }

    #[test]
    fn huge_samples_neither_panic_nor_wrap() {
        let capped = Moments::of([u64::MAX; 3]);
        let s = capped.summary();
        assert_eq!((s.n, s.mean, s.std), (3, MAX_SAMPLE as f64, 0.0));
        let spread = Moments::of([0, u64::MAX, 5]);
        let s = spread.summary();
        assert!(s.mean.is_finite() && s.std.is_finite() && s.std > 0.0);
        // Past u128: the sums saturate and the spread falls back to f64.
        let mut full = Moments([u128::MAX; 3]);
        full += full;
        full.add(u64::MAX);
        let s = full.summary();
        assert!(s.mean.is_finite() && s.std.is_finite(), "{s:?}");
        full -= spread;
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
