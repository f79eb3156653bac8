//! Order statistics over measured samples.

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `xs`, sorting in place.
/// `None` when `xs` is empty.
pub fn quantile(xs: &mut [f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (p * xs.len() as f64).ceil() as usize;
    Some(xs[rank.clamp(1, xs.len()) - 1])
}

/// The median of a non-empty sample (the mean of the two middle values
/// on even counts).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), Some(50.0));
        assert_eq!(quantile(&mut xs, 0.99), Some(99.0));
        assert_eq!(quantile(&mut xs, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
