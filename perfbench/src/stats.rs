//! Order statistics over raw samples (no histogram bucketing: every sample
//! is kept, so percentiles carry all their digits).

/// Nearest-rank `pct`-th percentile of `sorted` (ascending), with the
/// number of samples strictly beyond it.  `None` when empty.
pub fn percentile(sorted: &[u64], pct: u32) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (u128::from(pct) * n as u128).div_ceil(100).max(1) as usize;
    let rank = rank.min(n);
    Some((sorted[rank - 1], n - rank))
}

/// Nearest-rank percentile of unsorted samples, `0` when empty (a layer the
/// workload never calls).
pub fn percentile_or_zero(samples: &[u64], pct: u32) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, pct).map_or(0, |(v, _)| v)
}

/// [`percentile`] per time slice: slice `j` of `slices` takes the `j`-th
/// equal share of every series (each series in completion order, one per
/// connection).  Returns the median over slices of each slice's percentile,
/// and the fewest samples beyond it in any slice.  `None` when a slice is
/// empty.
pub fn sliced_percentile(series: &[Vec<u64>], slices: usize, pct: u32) -> Option<(f64, usize)> {
    let mut values = Vec::with_capacity(slices);
    let mut fewest_beyond = usize::MAX;
    for j in 0..slices {
        let mut slice: Vec<u64> = series
            .iter()
            .flat_map(|s| &s[s.len() * j / slices..s.len() * (j + 1) / slices])
            .copied()
            .collect();
        slice.sort_unstable();
        let (value, beyond) = percentile(&slice, pct)?;
        values.push(value as f64);
        fewest_beyond = fewest_beyond.min(beyond);
    }
    (slices > 0).then(|| (median(&values), fewest_beyond))
}

/// Arithmetic mean, `0.0` when empty.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
}

/// Median of floating-point values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_the_samples_beyond() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 50), Some((500, 500)));
        assert_eq!(percentile(&sorted, 99), Some((990, 10)));
        assert_eq!(percentile(&sorted, 100), Some((1000, 0)));
        assert_eq!(percentile(&[7], 90), Some((7, 0)));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile_or_zero(&[3, 1, 2], 50), 2);
        assert_eq!(percentile_or_zero(&[], 99), 0);
    }

    #[test]
    fn sliced_percentiles_take_the_median_over_slices() {
        // Two connections, three slices; the middle slice holds a stall.
        let a = vec![1, 2, 3, 90, 91, 92, 4, 5, 6];
        let b = vec![2, 3, 4, 93, 94, 95, 5, 6, 7];
        // Slice p50s: 3, 93, 5 -> median 5.
        assert_eq!(
            sliced_percentile(&[a.clone(), b.clone()], 3, 50),
            Some((5.0, 3))
        );
        // One slice is the plain percentile.
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        let (p90, beyond) = percentile(&all, 90).expect("samples");
        assert_eq!(
            sliced_percentile(&[a, b], 1, 90),
            Some((p90 as f64, beyond))
        );
        assert_eq!(sliced_percentile(&[vec![1]], 2, 50), None);
    }

    #[test]
    fn means_and_medians() {
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
