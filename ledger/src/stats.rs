//! The two reductions every wall metric goes through: a nearest-rank
//! percentile inside a round, then the median across rounds.

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of unsorted samples; 0.0
/// when empty. The same definition as `parp_net::latency_quantile_us`:
/// the smallest sample with at least `q` of the set at or below it.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median with the even case averaged (what Python's
/// `statistics.median` gives the driver); 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `part / whole`, 0.0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_matches_hand_computed_vectors() {
        let ten: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(percentile(&ten, 0.9), 9.0);
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&ten, 1.0), 10.0);
        // rank = ceil(4 * 0.5) = 2 → second smallest.
        assert_eq!(percentile(&[40.0, 10.0, 30.0, 20.0], 0.5), 20.0);
        // 200 samples: p99 is rank 198, two samples lie beyond it.
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), 198.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_rounds_matches_hand_computed_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow round out of seven does not move the median.
        assert_eq!(median(&[10.0, 10.2, 9.9, 10.1, 55.0, 10.0, 9.8]), 10.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
