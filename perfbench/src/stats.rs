//! Sample statistics: nearest-rank quantiles and medians.

/// Quantile `q` of `samples` by nearest rank: the smallest sample with at
/// least `ceil(q·n)` samples at or below it (the same rank rule as the
/// `mrp-obs` histograms, without their bucket error). `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Samples that lie strictly above the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// Quantile `q`, reported only when at least ten samples lie beyond it:
/// a tail percentile read off fewer samples is one sample's noise.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) < 10 {
        return None;
    }
    quantile(samples, q)
}

/// Percentile `q` over groups of samples, such as the calls of each grid
/// cell: each group counts once, at its median, and the nearest-rank
/// percentile is taken over those medians. Reported only when the groups
/// beyond it hold at least ten samples in all.
///
/// With equal-sized groups a pooled percentile can fall exactly on the
/// seam between two groups (the median of 24 cells, say), where it reads
/// one group's slowest call on one run and the next group's fastest on
/// another. Group medians have no seam.
pub fn group_quantile(groups: &[Vec<f64>], q: f64) -> Option<f64> {
    let mut medians: Vec<(f64, usize)> = groups
        .iter()
        .filter_map(|g| median(g).map(|m| (m, g.len())))
        .collect();
    medians.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = (q.clamp(0.0, 1.0) * medians.len() as f64).ceil() as usize;
    let at = rank.clamp(1, medians.len().max(1)) - 1;
    let (value, _) = *medians.get(at)?;
    let beyond: usize = medians[at + 1..].iter().map(|&(_, n)| n).sum();
    (beyond >= 10).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_ptest::run_cases;

    /// The definition spelled out: the smallest sample `v` such that at
    /// least `ceil(q·n)` samples are `<= v`.
    fn brute_force(samples: &[f64], q: f64) -> f64 {
        let need = ((q * samples.len() as f64).ceil() as usize).max(1);
        let mut candidates = samples.to_vec();
        candidates.sort_by(f64::total_cmp);
        *candidates
            .iter()
            .find(|&&v| samples.iter().filter(|&&s| s <= v).count() >= need)
            .expect("the largest sample always qualifies")
    }

    #[test]
    fn matches_exact_sorted_sample_quantiles() {
        run_cases("perfbench.quantile", 300, |rng| {
            let samples = rng.vec_f64(1, 200, -50.0, 50.0);
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(quantile(&samples, q), Some(brute_force(&samples, q)));
            }
        });
    }

    #[test]
    fn small_cases_by_hand() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&s, 0.5), Some(3.0));
        assert_eq!(quantile(&s, 0.9), Some(5.0));
        assert_eq!(quantile(&s, 0.2), Some(1.0));
        assert_eq!(quantile(&s, 0.21), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn group_quantile_takes_group_medians() {
        // Ten groups of five samples; group g has median 10·g.
        let groups: Vec<Vec<f64>> = (1..=10)
            .map(|g| {
                let m = 10.0 * f64::from(g);
                vec![m - 2.0, m - 1.0, m, m + 1.0, m + 50.0]
            })
            .collect();
        assert_eq!(group_quantile(&groups, 0.5), Some(50.0));
        assert_eq!(group_quantile(&groups, 0.8), Some(80.0));
        // Beyond the 9th group's median lies one group of five samples.
        assert_eq!(group_quantile(&groups, 0.9), None);
        assert_eq!(group_quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail_quantile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_quantile(&hundred[..99], 0.9), None);
        assert_eq!(tail_quantile(&hundred, 0.99), None);
    }
}
