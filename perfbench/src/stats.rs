//! Order statistics for the reported metrics.

/// Samples that must lie beyond a reported percentile: a tail figure
/// resting on fewer is one or two unlucky samples, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the smallest
/// sample with at least a `q` share of the data at or below it.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the chosen
/// rank, or when a sample is not finite.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    if samples.iter().any(|s| !s.is_finite()) {
        return Err("non-finite sample".to_string());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    #[allow(clippy::cast_possible_truncation)]
    let rank = ((sorted.len() as f64 * q).ceil() as usize).max(1);
    let beyond = sorted.len().saturating_sub(rank);
    if sorted.is_empty() || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0,
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample set (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: u32) -> Vec<f64> {
        (1..=n).map(f64::from).collect()
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 200 samples: rank 190, exactly ten beyond.
        assert_eq!(percentile(&one_to(200), 0.95), Ok(190.0));
        // 199 samples: rank 190, only nine beyond.
        assert!(percentile(&one_to(199), 0.95).is_err());
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let mut samples = one_to(40);
        samples.reverse();
        assert_eq!(percentile(&samples, 0.5), Ok(20.0));
        assert_eq!(percentile(&samples, 0.75), Ok(30.0));
        assert!(percentile(&samples, 0.9).is_err());
    }

    #[test]
    fn empty_and_non_finite_samples_are_refused() {
        assert!(percentile(&[], 0.5).is_err());
        let mut samples = one_to(100);
        samples[3] = f64::NAN;
        assert!(percentile(&samples, 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
