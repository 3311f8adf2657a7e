//! Repetition and parameter-sweep helpers.
//!
//! The paper's methodology (Section 5.2) repeats each barrier simulation 100
//! times with fresh random arrivals and averages. [`Repetitions`] owns the
//! seed half of that pattern: it derives an independent seed per run from a
//! master seed. Callers fold the runs themselves (the exhibits through
//! `abs_core::aggregate_runs_with`).

use crate::rng::SplitMix64;

/// Derives the seed for repetition `index` of an experiment from a master
/// `seed`.
///
/// Uses SplitMix64 over the pair so that consecutive indices produce
/// statistically independent streams.
///
/// # Examples
///
/// ```
/// use abs_sim::sweep::derive_seed;
/// assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
/// assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
/// ```
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut sm = SplitMix64::new(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let base = sm.next_u64();
    let mut sm2 = SplitMix64::new(base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    sm2.next_u64()
}

/// A fixed number of repetitions of one experiment, each with a seed
/// derived from a master seed.
///
/// # Examples
///
/// ```
/// use abs_sim::sweep::{derive_seed, Repetitions};
///
/// let reps = Repetitions::new(50, 1234);
/// let seeds = reps.seeds();
/// assert_eq!(seeds.len(), 50);
/// assert_eq!(seeds[7], derive_seed(1234, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repetitions {
    runs: u32,
    seed: u64,
}

impl Repetitions {
    /// Creates `runs` repetitions derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn new(runs: u32, seed: u64) -> Self {
        assert!(runs > 0, "at least one run is required");
        Self { runs, seed }
    }

    /// Number of repetitions configured.
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// Master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-repetition seeds, in repetition order: repetition `i` runs
    /// with [`derive_seed`]`(seed, i)`.
    pub fn seeds(&self) -> Vec<u64> {
        (0..u64::from(self.runs))
            .map(|i| derive_seed(self.seed, i))
            .collect()
    }
}

/// Generates logarithmically spaced processor counts `2, 4, 8, ..., max`,
/// the x-axis of the paper's Figures 4–10.
///
/// # Examples
///
/// ```
/// use abs_sim::sweep::power_of_two_counts;
/// assert_eq!(power_of_two_counts(16), vec![2, 4, 8, 16]);
/// ```
pub fn power_of_two_counts(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut n = 2usize;
    while n <= max {
        v.push(n);
        n *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let s: Vec<u64> = (0..32).map(|i| derive_seed(7, i)).collect();
        let s2: Vec<u64> = (0..32).map(|i| derive_seed(7, i)).collect();
        assert_eq!(s, s2);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
    }

    #[test]
    fn different_master_seeds_differ() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn seeds_follow_repetition_order() {
        let reps = Repetitions::new(6, 77);
        let expected: Vec<u64> = (0..6).map(|i| derive_seed(77, i)).collect();
        assert_eq!(reps.seeds(), expected);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        Repetitions::new(0, 0);
    }

    #[test]
    fn power_counts() {
        assert_eq!(power_of_two_counts(512).len(), 9);
        assert_eq!(power_of_two_counts(1), Vec::<usize>::new());
        assert_eq!(power_of_two_counts(3), vec![2]);
    }
}
