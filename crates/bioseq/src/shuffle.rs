//! Sequence shuffling — the *Shuffle* activity.
//!
//! Random permutations of the encoded sample are compressed to provide the standard against
//! which compressibility is normalised: permutation destroys context-dependent correlations
//! while preserving symbol frequencies, so the difference between the compressed sizes of the
//! original and its permutations isolates the structural component. Shuffling is seeded so
//! every permutation is reproducible from its index — which is itself a small piece of
//! provenance: the same (sample, permutation index) pair always yields the same bytes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Shuffle `data` with a deterministic seed, returning the permuted copy.
pub fn shuffle_with_seed(data: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = data.to_vec();
    out.shuffle(&mut rng);
    out
}

/// Produce `count` seeded permutations of `data`. Permutation `i` uses seed `base_seed + i`.
pub fn permutations(data: &[u8], count: usize, base_seed: u64) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| shuffle_with_seed(data, base_seed.wrapping_add(i as u64)))
        .collect()
}

/// Check that `a` is a permutation of `b` (same multiset of bytes).
#[cfg(test)]
pub(crate) fn is_permutation_of(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut counts = [0i64; 256];
    for &x in a {
        counts[x as usize] += 1;
    }
    for &x in b {
        counts[x as usize] -= 1;
    }
    counts.iter().all(|&c| c == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_preserves_multiset() {
        let data: Vec<u8> = (0..200u8).collect();
        let shuffled = shuffle_with_seed(&data, 42);
        assert!(is_permutation_of(&shuffled, &data));
        assert_ne!(
            shuffled, data,
            "a 200-element shuffle should not be the identity"
        );
    }

    #[test]
    fn same_seed_is_deterministic() {
        let data = b"MKVLAAGGSTLLQNWYPMKVLAAGG".to_vec();
        assert_eq!(shuffle_with_seed(&data, 7), shuffle_with_seed(&data, 7));
        assert_ne!(shuffle_with_seed(&data, 7), shuffle_with_seed(&data, 8));
    }

    #[test]
    fn permutations_are_distinct_and_valid() {
        let data: Vec<u8> = b"ABCDEFGH".iter().cycle().take(400).copied().collect();
        let perms = permutations(&data, 10, 100);
        assert_eq!(perms.len(), 10);
        for p in &perms {
            assert!(is_permutation_of(p, &data));
        }
        let distinct: std::collections::BTreeSet<&Vec<u8>> = perms.iter().collect();
        assert_eq!(distinct.len(), 10);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(shuffle_with_seed(b"", 1).is_empty());
        assert_eq!(shuffle_with_seed(b"Q", 1), b"Q");
        assert!(permutations(b"", 3, 0).iter().all(|p| p.is_empty()));
    }

    #[test]
    fn is_permutation_of_detects_mismatches() {
        assert!(is_permutation_of(b"abc", b"cab"));
        assert!(!is_permutation_of(b"abc", b"abd"));
        assert!(!is_permutation_of(b"abc", b"ab"));
        assert!(is_permutation_of(b"", b""));
    }

    #[test]
    fn shuffling_destroys_local_structure() {
        // A highly repetitive string compresses much better than its shuffle — the whole reason
        // the experiment uses permutations as its comparison standard.
        let data = b"ABAB".repeat(2000);
        let shuffled = shuffle_with_seed(&data, 3);
        let runs = |s: &[u8]| s.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(runs(&shuffled) > runs(&data));
    }
}
