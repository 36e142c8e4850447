//! Zipf-distributed key rounds.
//!
//! Key `k` of rank `r` (1-based) has weight `r^-s`. Which key holds which
//! rank comes from a seeded shuffle. A *round* of `n` draws holds every
//! key exactly its largest-remainder quota of `n·p(k)` times, in a seeded
//! order: the frequencies are Zipf's in every round, and only the order
//! changes with the seed. So two runs with different seeds ask the server
//! for the same work, and the spread between them is the program's, not
//! the sampler's.

use mrp_ptest::Rng;

/// A Zipf popularity law over `keys` keys.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// `by_rank[r]` is the key at rank `r + 1`.
    by_rank: Vec<usize>,
    /// Probability of rank `r + 1`.
    weights: Vec<f64>,
}

impl Zipf {
    /// Zipf law with exponent `exponent`; `rank_seed` shuffles which key
    /// holds which rank.
    pub fn new(keys: usize, exponent: f64, rank_seed: u64) -> Zipf {
        let mut by_rank: Vec<usize> = (0..keys).collect();
        shuffle(&mut by_rank, &mut Rng::new(rank_seed));
        let raw: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-exponent)).collect();
        let total: f64 = raw.iter().sum();
        Zipf {
            by_rank,
            weights: raw.iter().map(|w| w / total).collect(),
        }
    }

    /// The key holding rank `rank` (1-based).
    pub fn key_of_rank(&self, rank: usize) -> usize {
        self.by_rank[rank - 1]
    }

    /// Draw counts per key for a round of `draws`, by largest remainder:
    /// the counts sum to `draws` and never increase with rank.
    pub fn quotas(&self, draws: usize) -> Vec<usize> {
        let exact: Vec<f64> = self.weights.iter().map(|p| p * draws as f64).collect();
        let mut by_rank: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let short = draws - by_rank.iter().sum::<usize>();
        let mut order: Vec<usize> = (0..exact.len()).collect();
        // Largest remainder first; ties go to the better rank.
        order.sort_by(|&a, &b| {
            let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        for &r in order.iter().take(short) {
            by_rank[r] += 1;
        }
        let mut by_key = vec![0; by_rank.len()];
        for (r, &count) in by_rank.iter().enumerate() {
            by_key[self.by_rank[r]] = count;
        }
        by_key
    }

    /// One round of `draws` keys: every key its quota, in seeded order.
    pub fn round(&self, draws: usize, rng: &mut Rng) -> Vec<usize> {
        let mut keys: Vec<usize> = self
            .quotas(draws)
            .iter()
            .enumerate()
            .flat_map(|(key, &count)| std::iter::repeat_n(key, count))
            .collect();
        shuffle(&mut keys, rng);
        keys
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.u64_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_sum_and_follow_rank() {
        let z = Zipf::new(96, 1.0, 7);
        for draws in [1, 17, 60, 120, 1000] {
            let q = z.quotas(draws);
            assert_eq!(q.iter().sum::<usize>(), draws);
            let by_rank: Vec<usize> = (1..=96).map(|r| q[z.key_of_rank(r)]).collect();
            assert!(by_rank.windows(2).all(|w| w[0] >= w[1]), "{by_rank:?}");
        }
        // Rank 1 of 96 under s = 1 holds 1/H(96) ≈ 19.4 % of the draws.
        let h96: f64 = (1..=96).map(|r| 1.0 / f64::from(r)).sum();
        let top = z.quotas(1000)[z.key_of_rank(1)] as f64;
        assert!((top - 1000.0 / h96).abs() < 1.0, "{top}");
    }

    #[test]
    fn rank_shuffle_is_a_permutation_fixed_by_its_seed() {
        let a = Zipf::new(96, 1.0, 7);
        let mut keys: Vec<usize> = (1..=96).map(|r| a.key_of_rank(r)).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..96).collect::<Vec<_>>());
        let b = Zipf::new(96, 1.0, 7);
        let c = Zipf::new(96, 1.0, 8);
        let ranks = |z: &Zipf| (1..=96).map(|r| z.key_of_rank(r)).collect::<Vec<_>>();
        assert_eq!(ranks(&a), ranks(&b));
        assert_ne!(ranks(&a), ranks(&c));
    }

    #[test]
    fn rounds_repeat_for_a_seed_and_keep_their_multiset() {
        let z = Zipf::new(96, 1.0, 7);
        let one = z.round(120, &mut Rng::new(11));
        let again = z.round(120, &mut Rng::new(11));
        let other = z.round(120, &mut Rng::new(12));
        assert_eq!(one, again);
        assert_ne!(one, other);
        let (mut x, mut y) = (one.clone(), other.clone());
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y, "a seed changes the order, never the counts");
    }
}
