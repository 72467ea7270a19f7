//! Order statistics and ratios shared by every workload.
//!
//! Latencies are summarised by their median and by the highest
//! percentile the sample count can support: p99 from 1000 samples up,
//! below that the highest whole percentile with at least ten samples
//! beyond it.

/// Samples a p99 needs before it is reported as p99.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Samples that must lie beyond any reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile together with the quantile it was taken at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The quantile, e.g. `0.99` for p99.
    pub q: f64,
    /// The sample at that quantile.
    pub value: f64,
}

/// Nearest-rank quantile of already sorted samples: the smallest sample
/// with at least `q · n` samples at or below it. `None` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps a product like 0.99 · 1000 from rounding up a rank.
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The quantile the tail rule allows for `n` samples: 0.99 from
/// [`P99_MIN_SAMPLES`] samples on, else the highest whole percentile that
/// leaves [`TAIL_MIN_BEYOND`] samples beyond it. `None` when even the
/// median would leave fewer than that beyond it.
pub fn tail_quantile(n: usize) -> Option<f64> {
    if n >= P99_MIN_SAMPLES {
        return Some(0.99);
    }
    // Largest whole percent p with n · (100 − p) / 100 ≥ TAIL_MIN_BEYOND.
    let percent = 100usize.checked_sub((TAIL_MIN_BEYOND * 100).div_ceil(n.max(1)))?;
    (percent >= 50).then(|| percent as f64 / 100.0)
}

/// Sorts `samples` in place and returns their median and tail (see
/// [`tail_quantile`]). `None` for an empty slice; the tail is `None`
/// below 20 samples.
pub fn summarize(samples: &mut [f64]) -> Option<(f64, Option<Tail>)> {
    samples.sort_by(f64::total_cmp);
    let median = quantile_sorted(samples, 0.5)?;
    let tail = tail_quantile(samples.len()).map(|q| Tail {
        q,
        value: quantile_sorted(samples, q).expect("non-empty"),
    });
    Some((median, tail))
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and the highest quarter (rounded down). It moves smoothly with
/// the share of each mode in a multimodal set, as a mean does, and
/// ignores a few outliers, as a median does. 0 for none.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// `num / den`, or 0 when the base is 0 — a layer that did no work has
/// no ratio, and reports it as 0 rather than NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(50_000), Some(0.99));
        // 999 samples: p99 would leave 9.99 beyond, so p98 is reported.
        assert_eq!(tail_quantile(999), Some(0.98));
    }

    #[test]
    fn below_a_thousand_the_tail_keeps_ten_samples_beyond() {
        for n in 20..P99_MIN_SAMPLES {
            let q = tail_quantile(n).expect("tail exists from 20 samples");
            let beyond = n as f64 * (1.0 - q);
            assert!(beyond >= TAIL_MIN_BEYOND as f64 - 1e-9, "n={n} q={q}");
            // One whole percent higher would leave fewer than ten.
            if q < 0.99 {
                assert!(n as f64 * (1.0 - q - 0.01) < TAIL_MIN_BEYOND as f64 - 1e-9);
            }
        }
        assert_eq!(tail_quantile(500), Some(0.98));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn nearest_rank_leaves_the_promised_samples_beyond() {
        let mut v = ramp(1000);
        let (median, tail) = summarize(&mut v).expect("non-empty");
        assert_eq!(median, 500.0);
        let tail = tail.expect("1000 samples");
        assert_eq!(tail.q, 0.99);
        assert_eq!(tail.value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > tail.value).count(), 10);

        let mut v = ramp(500);
        let tail = summarize(&mut v).expect("non-empty").1.expect("tail");
        assert_eq!((tail.q, tail.value), (0.98, 490.0));
    }

    #[test]
    fn summarize_sorts_unordered_input() {
        let mut v = vec![5.0, 1.0, 3.0];
        let (median, tail) = summarize(&mut v).expect("non-empty");
        assert_eq!(median, 3.0);
        assert_eq!(tail, None);
        assert!(summarize(&mut []).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_none_is_zero() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        // Eight values: the lowest two and the highest two are dropped.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&v), 3.5);
        // Fewer than four values: nothing to drop.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 9.0]), 4.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
        // Two modes: the result follows their shares, not a jump.
        let mostly_fast = [25.0, 25.0, 25.0, 25.0, 25.0, 50.0, 50.0, 50.0];
        let mostly_slow = [25.0, 25.0, 25.0, 50.0, 50.0, 50.0, 50.0, 50.0];
        let (a, b) = (
            interquartile_mean(&mostly_fast),
            interquartile_mean(&mostly_slow),
        );
        assert!(25.0 < a && a < b && b < 50.0, "{a} {b}");
    }

    #[test]
    fn ratio_of_an_empty_base_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
