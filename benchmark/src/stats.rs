//! Order statistics used by the benchmark: medians of host timings and
//! exact quantiles of simulated latency samples.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of an ascending slice by the nearest-rank rule: the
/// smallest sample with at least `q · n` samples at or below it. Exact
/// (no bucketing), so two runs of the deterministic simulator agree to
/// the last bit.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64) * q.clamp(0.0, 1.0)).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u32> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 500);
        assert_eq!(quantile_sorted(&s, 0.99), 990);
        assert_eq!(quantile_sorted(&s, 0.999), 999);
        assert_eq!(quantile_sorted(&s, 1.0), 1000);
        assert_eq!(quantile_sorted(&s, 0.0), 1);
        assert_eq!(quantile_sorted(&[7], 0.999), 7);
    }
}
