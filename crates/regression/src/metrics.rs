//! Prediction-quality metrics.
//!
//! The paper evaluates its performance model with relative prediction
//! errors (Figure 5): the fraction of cases with error below 3 %, 5 % and
//! 8 %, and the mean error (2.68 %). These helpers compute exactly those
//! statistics, plus the Pearson correlation used as the relevance weight
//! in Eq. 1.

/// Pearson correlation coefficient between two equal-length slices.
///
/// Returns 0.0 when either input has zero variance (an uncorrelated,
/// constant resource earns no weight in Eq. 1).
///
/// # Panics
/// Panics if slices differ in length or are empty.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson requires equal-length inputs");
    assert!(!xs.is_empty(), "pearson requires at least one sample");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx < 1e-24 || vy < 1e-24 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// For each threshold (in percent), the fraction of cases whose absolute
/// percentage error falls strictly below it — the Figure 5 statistic
/// ("errors smaller than 3 %, 5 %, 8 % in 63.33 %, 82.22 %, 96.67 % of
/// cases").
pub fn error_buckets(errors_pct: &[f64], thresholds_pct: &[f64]) -> Vec<f64> {
    if errors_pct.is_empty() {
        return vec![0.0; thresholds_pct.len()];
    }
    thresholds_pct
        .iter()
        .map(|&t| errors_pct.iter().filter(|&&e| e < t).count() as f64 / errors_pct.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_detects_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_for_constant_input() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn buckets_match_figure5_statistic_shape() {
        let errors = [1.0, 2.5, 4.0, 6.0, 9.0];
        let buckets = error_buckets(&errors, &[3.0, 5.0, 8.0]);
        assert_eq!(buckets, vec![0.4, 0.6, 0.8]);
    }

    #[test]
    fn buckets_empty_input() {
        assert_eq!(error_buckets(&[], &[3.0]), vec![0.0]);
    }
}
