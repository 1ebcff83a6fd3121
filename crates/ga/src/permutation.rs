//! Genetic operators over permutations — the genotype of Phase II.
//!
//! Pin assignments are per-function permutations, so the GA needs
//! permutation-preserving operators: [`random_permutation`] for
//! initialization, [`swap_mutation`] for mutation, and partially-mapped
//! crossover ([`pmx`]) for recombination.

use rand::rngs::StdRng;
use rand::Rng;

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// Swaps two random positions in place. A no-op for permutations of
/// length < 2.
pub fn swap_mutation(p: &mut [usize], rng: &mut StdRng) {
    if p.len() < 2 {
        return;
    }
    let i = rng.gen_range(0..p.len());
    let mut j = rng.gen_range(0..p.len());
    if i == j {
        j = (j + 1) % p.len();
    }
    p.swap(i, j);
}

/// Partially-mapped crossover: copies a random segment from `a` and fills
/// the rest from `b`, repairing collisions through the PMX mapping chain.
/// Always produces a valid permutation.
///
/// # Panics
///
/// Panics if the parents differ in length, or if either parent is not a
/// permutation of `0..len` (the repair chain of a parent that repeats a
/// value need not end).
pub fn pmx(a: &[usize], b: &[usize], rng: &mut StdRng) -> Vec<usize> {
    assert_eq!(a.len(), b.len(), "parents must have equal length");
    assert!(
        is_permutation(a) && is_permutation(b),
        "parents must be permutations"
    );
    let n = a.len();
    if n < 2 {
        return a.to_vec();
    }
    let mut lo = rng.gen_range(0..n);
    let mut hi = rng.gen_range(0..n);
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    let mut child = vec![usize::MAX; n];
    let mut used = vec![false; n];
    for i in lo..=hi {
        child[i] = a[i];
        used[a[i]] = true;
    }
    // Position of each value in a, for the repair chain.
    let mut pos_in_a = vec![0usize; n];
    for (i, &v) in a.iter().enumerate() {
        pos_in_a[v] = i;
    }
    for i in (0..lo).chain(hi + 1..n) {
        let mut v = b[i];
        // Follow the mapping chain until the value is free.
        while used[v] {
            v = b[pos_in_a[v]];
        }
        child[i] = v;
        used[v] = true;
    }
    child
}

/// `true` iff `p` is a permutation of `0..p.len()`.
pub fn is_permutation(p: &[usize]) -> bool {
    let mut seen = vec![false; p.len()];
    for &x in p {
        if x >= p.len() || seen[x] {
            return false;
        }
        seen[x] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_permutations_are_valid_and_varied() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..50 {
            let p = random_permutation(6, &mut rng);
            assert!(is_permutation(&p));
            distinct.insert(p);
        }
        assert!(distinct.len() > 20, "permutations should vary");
    }

    #[test]
    fn swap_mutation_preserves_validity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = random_permutation(8, &mut rng);
        for _ in 0..100 {
            swap_mutation(&mut p, &mut rng);
            assert!(is_permutation(&p));
        }
    }

    #[test]
    fn swap_mutation_changes_something() {
        let mut rng = StdRng::seed_from_u64(3);
        let orig: Vec<usize> = (0..8).collect();
        let mut p = orig.clone();
        swap_mutation(&mut p, &mut rng);
        assert_ne!(p, orig);
    }

    #[test]
    fn pmx_produces_valid_children() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let a = random_permutation(9, &mut rng);
            let b = random_permutation(9, &mut rng);
            let c = pmx(&a, &b, &mut rng);
            assert!(is_permutation(&c), "a={a:?} b={b:?} c={c:?}");
        }
    }

    #[test]
    fn pmx_inherits_from_both_parents() {
        let mut rng = StdRng::seed_from_u64(5);
        let a: Vec<usize> = (0..10).collect();
        let b: Vec<usize> = (0..10).rev().collect();
        let mut from_a = 0;
        let mut from_b = 0;
        for _ in 0..100 {
            let c = pmx(&a, &b, &mut rng);
            for (i, &v) in c.iter().enumerate() {
                if a[i] == v {
                    from_a += 1;
                }
                if b[i] == v {
                    from_b += 1;
                }
            }
        }
        assert!(from_a > 0 && from_b > 0, "a:{from_a} b:{from_b}");
    }

    #[test]
    #[should_panic(expected = "parents must be permutations")]
    fn pmx_rejects_non_permutation_parents() {
        // A repeated value once sent the repair chain round forever.
        let mut rng = StdRng::seed_from_u64(0);
        let _ = pmx(&[0, 0, 2, 3], &[0, 0, 2, 3], &mut rng);
    }

    #[test]
    fn pmx_handles_tiny_inputs() {
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(pmx(&[0], &[0], &mut rng), vec![0]);
        assert_eq!(pmx(&[], &[], &mut rng), Vec::<usize>::new());
    }
}
