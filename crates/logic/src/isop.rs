//! Minato–Morreale irredundant sum-of-products (ISOP) computation.
//!
//! Given an incompletely specified function as a pair of truth tables
//! `(lower, upper)` with `lower ⊆ upper` (onset and onset∪don't-care), the
//! algorithm produces an irredundant cube cover `C` with
//! `lower ⊆ C ⊆ upper`. This is the classical recursive procedure used by
//! ABC's refactoring pass, which this workspace's synthesis engine mirrors.

use crate::{Cube, Sop, TruthTable};

/// Computes an irredundant sum-of-products cover for the interval
/// `[lower, upper]`.
///
/// The returned cover `C` satisfies `lower ⊆ C ⊆ upper` and no cube or
/// literal can be dropped without violating the lower bound.
///
/// # Panics
///
/// Panics if the tables differ in arity, if `lower ⊄ upper`, or if the
/// arity exceeds 32 (the cube limit).
///
/// # Example
///
/// ```
/// use mvf_logic::{isop, TruthTable};
///
/// let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2); // majority
/// let cover = isop(&f, &f);
/// assert_eq!(cover.to_truth_table(), f);
/// assert_eq!(cover.n_cubes(), 3); // ab + ac + bc
/// ```
pub fn isop(lower: &TruthTable, upper: &TruthTable) -> Sop {
    assert_eq!(lower.n_vars(), upper.n_vars(), "isop arity mismatch");
    assert!(lower.n_vars() <= 32, "isop limited to 32 variables");
    assert!(
        lower.and_not(upper).is_zero(),
        "isop requires lower ⊆ upper"
    );
    let n = lower.n_vars();
    let mut cubes = Vec::new();
    let _ = isop_rec(lower, upper, n, &mut cubes, Cube::new());
    Sop::from_cubes(n, cubes)
}

/// Recursive core. Returns the function realized by the cubes added for
/// this sub-problem (needed by the caller to compute the residual onset).
fn isop_rec(
    lower: &TruthTable,
    upper: &TruthTable,
    scan_bound: usize,
    out: &mut Vec<Cube>,
    prefix: Cube,
) -> TruthTable {
    if lower.is_zero() {
        return TruthTable::zero(lower.n_vars());
    }
    if upper.is_one() {
        out.push(prefix);
        return TruthTable::one(lower.n_vars());
    }
    // Pick the top-most variable in the combined support. Cofactors then
    // only depend on variables below it, so the bound shrinks each level.
    let var = (0..scan_bound)
        .rev()
        .find(|&v| lower.depends_on(v) || upper.depends_on(v))
        .expect("non-constant interval must have support");

    let l0 = lower.cofactor(var, false);
    let l1 = lower.cofactor(var, true);
    let u0 = upper.cofactor(var, false);
    let u1 = upper.cofactor(var, true);

    // Cubes that must carry ¬var: onset minterms of the 0-half not
    // coverable in the 1-half.
    let f0 = isop_rec(&l0.and_not(&u1), &u0, var, out, prefix.with_neg(var));
    // Cubes that must carry var.
    let f1 = isop_rec(&l1.and_not(&u0), &u1, var, out, prefix.with_pos(var));
    // Remaining onset is covered by cubes independent of var.
    let lnew = l0.and_not(&f0).or(&l1.and_not(&f1));
    let f2 = isop_rec(&lnew, &u0.and(&u1), var, out, prefix);

    let x = TruthTable::var(var, lower.n_vars());
    x.not().and(&f0).or(&x.and(&f1)).or(&f2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_interval(lower: &TruthTable, upper: &TruthTable) {
        let cover = isop(lower, upper);
        let f = cover.to_truth_table();
        assert!(lower.and_not(&f).is_zero(), "cover misses onset");
        assert!(f.and_not(upper).is_zero(), "cover exceeds upper bound");
    }

    #[test]
    fn exact_simple_functions() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        for f in [
            a.and(&b),
            a.or(&b),
            a.xor(&b),
            a.and(&b).or(&c),
            a.and(&b).or(&a.not().and(&c)),
            TruthTable::zero(3),
            TruthTable::one(3),
        ] {
            let cover = isop(&f, &f);
            assert_eq!(cover.to_truth_table(), f, "f={f:?}");
        }
    }

    #[test]
    fn xor_needs_two_cubes() {
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let f = a.xor(&b);
        let cover = isop(&f, &f);
        assert_eq!(cover.n_cubes(), 2);
        assert_eq!(cover.n_literals(), 4);
    }

    #[test]
    fn majority_is_three_cubes() {
        let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let cover = isop(&f, &f);
        assert_eq!(cover.n_cubes(), 3);
        assert_eq!(cover.n_literals(), 6);
    }

    #[test]
    fn dont_cares_shrink_cover() {
        // Onset {m=7}, don't care everything with >= 2 ones: the single
        // cube "a" (or similar) suffices instead of a·b·c.
        let lower = TruthTable::from_fn(3, |m| m == 7);
        let upper = TruthTable::from_fn(3, |m| m.count_ones() >= 2 || m == 7);
        let cover = isop(&lower, &upper);
        check_interval(&lower, &upper);
        assert!(cover.n_literals() < 3, "don't cares should shrink the cube");
    }

    #[test]
    fn randomized_intervals() {
        // Deterministic pseudo-random functions over 6 vars.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let on = TruthTable::from_word(6, next()).unwrap();
            let dc = TruthTable::from_word(6, next()).unwrap();
            let upper = on.or(&dc);
            check_interval(&on, &upper);
        }
    }

    #[test]
    fn exact_random_8var() {
        let f = TruthTable::from_fn(8, |m| (m.wrapping_mul(0x9E37) >> 4) & 3 == 1);
        let cover = isop(&f, &f);
        assert_eq!(cover.to_truth_table(), f);
    }

    #[test]
    #[should_panic(expected = "lower ⊆ upper")]
    fn rejects_inverted_interval() {
        let _ = isop(&TruthTable::one(2), &TruthTable::zero(2));
    }
}
