//! Order statistics over measured samples.

/// The `q`-quantile of `v` (linear interpolation between order
/// statistics); NaN for an empty sample. NaN samples are ignored.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
    if s.is_empty() {
        return f64::NAN;
    }
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `(p50, p95)` of `v`.
pub fn p50_p95(v: &[f64]) -> (f64, f64) {
    (quantile(v, 0.5), quantile(v, 0.95))
}

/// Samples per window of [`windowed`]: enough that a window's p95 has
/// ten samples beyond it.
pub const WINDOW_MIN: usize = 200;
/// Most windows [`windowed`] splits a sample into.
pub const WINDOWS_MAX: usize = 10;

/// The `q`-quantile of `v` taken per window and reduced to the median
/// over windows. `v` is split, in measurement order, into consecutive
/// windows of equal count (at least [`WINDOW_MIN`] samples, at most
/// [`WINDOWS_MAX`] windows). One disturbed stretch of a run moves one
/// window's figure, not the result. Also returns the window count.
pub fn windowed(v: &[f64], q: f64) -> (f64, usize) {
    let n = v.len();
    let w = (n / WINDOW_MIN).clamp(1, WINDOWS_MAX);
    let per: Vec<f64> = (0..w)
        .map(|i| quantile(&v[i * n / w..(i + 1) * n / w], q))
        .collect();
    (median(&per), w)
}

/// Arithmetic mean of `v`; NaN for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[f64::NAN, 7.0]), 7.0);
    }

    #[test]
    fn windowed_ignores_one_disturbed_window() {
        let mut v = vec![1.0; 3 * WINDOW_MIN];
        v[..WINDOW_MIN].iter_mut().for_each(|x| *x = 100.0);
        assert_eq!(windowed(&v, 0.95), (1.0, 3));
        assert_eq!(windowed(&[5.0, 6.0], 0.5), (5.5, 1));
    }
}
