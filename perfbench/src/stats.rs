//! Order statistics over measured samples.

/// The median; the mean of the two middle values for an even count.
/// `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile: the smallest sample with at least `q` of all
/// samples at or below it. With fewer than `1 / (1 - q)` samples this
/// is the largest sample. `NaN` for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The arithmetic mean. `NaN` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Each input's repetitions reduced to their smallest value. On a
/// shared host, contention only ever adds time, so an input's fastest
/// repetition is the steadiest estimate of what the code itself costs.
pub fn minima(per_input: &[Vec<f64>]) -> Vec<f64> {
    per_input
        .iter()
        .map(|xs| xs.iter().copied().fold(f64::NAN, f64::min))
        .collect()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_quantile() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 198.0);
        assert_eq!(quantile(&xs, 0.5), 100.0);
        // Too few samples for a 99th percentile: the maximum.
        assert_eq!(quantile(&[5.0, 9.0, 7.0], 0.99), 9.0);
    }

    #[test]
    fn minima_per_input() {
        assert_eq!(minima(&[vec![3.0, 100.0, 2.0], vec![10.0]]), [2.0, 10.0]);
        assert!(minima(&[vec![]])[0].is_nan());
    }
}
