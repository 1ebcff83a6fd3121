//! One-word truth-table kernels.
//!
//! A function of at most six variables fits one `u64`: bit `m` is its
//! value on minterm `m`, exactly the single word of a
//! [`TruthTable`](crate::TruthTable) of that arity. Cut rewriting, NPN
//! canonicalization, the camouflage and lock-library closures and the
//! attack's orbit keys all work on such words, and this module is their
//! one copy of the bit tricks: variable and tail masks, variable flip,
//! cofactor, permutation through a minterm map, support and projection.
//! It also holds the SplitMix64 mixer every seeded stream and word hash
//! in the workspace uses.
//!
//! A word is *clean* when its bits at and above `2^n` are zero, as every
//! `TruthTable` word is. The kernels that take no arity keep a clean word
//! clean when their variables are below `n`.
//!
//! Every kernel is `#[inline]`: release builds run without link-time
//! optimization, and the callers' hot loops (rewriting's per-cut loop,
//! the cell closures at set-up) would otherwise make a call per step.
//!
//! # Example
//!
//! ```
//! use mvf_logic::word;
//!
//! let and2 = word::VAR[0] & word::VAR[1] & word::tail(2);
//! assert_eq!(and2, 0b1000);
//! assert_eq!(word::cofactor(and2, 1, true), word::VAR[0] & word::tail(2));
//! // Over three variables, a ∧ b ignores the third.
//! let wide = word::VAR[0] & word::VAR[1] & word::tail(3);
//! assert_eq!(word::support(wide, 3), 0b011);
//! assert_eq!(word::project(wide, 0b011), and2);
//! ```

/// Bit patterns of the first six variables inside one word: bit `m` of
/// `VAR[v]` is set iff bit `v` of minterm `m` is 1.
pub const VAR: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The meaningful bits of an `n_vars`-variable table word: the low
/// `2^n_vars` bits, or every bit from six variables up.
#[inline]
pub fn tail(n_vars: usize) -> u64 {
    if n_vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << n_vars)) - 1
    }
}

/// `w` with input `var` complemented, `f(x) ← f(x ⊕ e_var)`
/// ([`TruthTable::flip_var`](crate::TruthTable::flip_var) on one word).
///
/// # Panics
///
/// Panics if `var >= 6`.
#[inline]
pub fn flip_var(w: u64, var: usize) -> u64 {
    let shift = 1u32 << var;
    ((w & VAR[var]) >> shift) | ((w & !VAR[var]) << shift)
}

/// The cofactor of `w` with respect to `var = value`, over the same
/// variables ([`TruthTable::cofactor`](crate::TruthTable::cofactor) on
/// one word).
///
/// # Panics
///
/// Panics if `var >= 6`.
#[inline]
pub fn cofactor(w: u64, var: usize, value: bool) -> u64 {
    let shift = 1u32 << var;
    if value {
        let x = w & VAR[var];
        x | (x >> shift)
    } else {
        let x = w & !VAR[var];
        x | (x << shift)
    }
}

/// The minterm map of an input permutation: variable `v` becomes
/// variable `perm[v]`, so minterm `m` lands on minterm `map[m]`. Entries
/// from `2^perm.len()` on are zero.
///
/// # Panics
///
/// Panics if `perm` has more than 6 entries.
#[inline]
pub fn minterm_map(perm: &[usize]) -> [u8; 64] {
    let mut map = [0u8; 64];
    for (m, slot) in map[..1 << perm.len()].iter_mut().enumerate() {
        let mut image = 0usize;
        for (v, &p) in perm.iter().enumerate() {
            image |= ((m >> v) & 1) << p;
        }
        *slot = image as u8;
    }
    map
}

/// Moves bit `m` of `w` to bit `map[m]`, for every set bit `m`
/// ([`TruthTable::permute`](crate::TruthTable::permute) on one word,
/// through [`minterm_map`]).
#[inline]
pub fn permute(w: u64, map: &[u8; 64]) -> u64 {
    let mut out = 0u64;
    let mut ones = w;
    while ones != 0 {
        out |= 1u64 << map[ones.trailing_zeros() as usize];
        ones &= ones - 1;
    }
    out
}

/// Bitmask of the variables the `n_vars`-variable function `w` depends
/// on ([`TruthTable::support_mask`](crate::TruthTable::support_mask) on
/// one word): variable `v` matters iff some minterm with bit `v` clear
/// differs from its neighbour with it set.
///
/// # Panics
///
/// Panics if `n_vars > 6`.
#[inline]
pub fn support(w: u64, n_vars: usize) -> u32 {
    let minterms = tail(n_vars);
    let mut mask = 0;
    for (v, &var) in VAR[..n_vars].iter().enumerate() {
        if ((w >> (1 << v)) ^ w) & !var & minterms != 0 {
            mask |= 1 << v;
        }
    }
    mask
}

/// The function `w` over the variables set in `support` (which must
/// include every variable it depends on), renumbered in ascending order
/// ([`TruthTable::project`](crate::TruthTable::project) on one word).
#[inline]
pub fn project(w: u64, support: u32) -> u64 {
    let support = u64::from(support);
    let mut out = 0u64;
    // `m` runs through the subsets of `support` in ascending order, so it
    // is minterm `m2` with its bits spread onto the support's positions.
    let mut m = 0u64;
    for m2 in 0..1u64 << support.count_ones() {
        out |= ((w >> m) & 1) << m2;
        m = m.wrapping_sub(support) & support;
    }
    out
}

/// The SplitMix64 increment, `2^64` divided by the golden ratio.
pub const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijective mix of one word, whose every
/// output bit depends on every input bit.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step from state `x`: the next state's mixed output,
/// `mix64(x + SPLITMIX_GAMMA)`. Seeded streams built on it are pure
/// functions of their seed.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(SPLITMIX_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npn::all_permutations;
    use crate::TruthTable;

    /// Checks every kernel on `f` against the `TruthTable` method it
    /// stands for and against the minterm-level definition.
    fn check_kernels(f: &TruthTable, perms: &[Vec<usize>]) {
        let n = f.n_vars();
        let w = f.as_word();
        assert_eq!(w & !tail(n), 0, "table words are clean");
        for var in 0..n {
            let flipped = TruthTable::from_fn(n, |m| f.get(m ^ (1 << var)));
            assert_eq!(flip_var(w, var), flipped.as_word(), "flip {var} of {f:?}");
            assert_eq!(flip_var(w, var), f.flip_var(var).as_word());
            for value in [false, true] {
                let bit = usize::from(value) << var;
                let cof = TruthTable::from_fn(n, |m| f.get((m & !(1 << var)) | bit));
                let got = cofactor(w, var, value);
                assert_eq!(got, cof.as_word(), "cofactor {var}={value} of {f:?}");
                assert_eq!(got, f.cofactor(var, value).as_word());
            }
        }
        for perm in perms {
            let map = minterm_map(perm);
            assert!(map[1 << n..].iter().all(|&m| m == 0));
            let want = f.permute(perm).expect("valid permutation").as_word();
            assert_eq!(permute(w, &map), want, "perm {perm:?} of {f:?}");
        }
        let support_mask = support(w, n);
        assert_eq!(support_mask, f.support_mask(), "support of {f:?}");
        assert_eq!(
            project(w, support_mask),
            f.project(&f.support()).as_word(),
            "projection of {f:?}"
        );
        assert_eq!(project(w, (1 << n) - 1), w, "identity projection of {f:?}");
    }

    #[test]
    fn kernels_match_truth_table_methods() {
        for n in 0..=4usize {
            let perms = all_permutations(n);
            for bits in 0..1u64 << (1 << n) {
                check_kernels(&TruthTable::from_word(n, bits).unwrap(), &perms);
            }
        }
        let mut state = 0x5750_5244_u64;
        for (n, samples) in [(5usize, 64), (6, 16)] {
            let perms = all_permutations(n);
            for _ in 0..samples {
                state = state.wrapping_add(SPLITMIX_GAMMA);
                let f = TruthTable::from_word(n, mix64(state)).unwrap();
                check_kernels(&f, &perms);
            }
        }
    }

    #[test]
    fn masks_match_truth_table_constants() {
        for n in 0..=6usize {
            assert_eq!(
                tail(n),
                TruthTable::from_fn(n, |_| true).as_word(),
                "n = {n}"
            );
            for (v, &pattern) in VAR.iter().enumerate().take(n) {
                let var = TruthTable::from_fn(n, |m| (m >> v) & 1 == 1);
                assert_eq!(pattern & tail(n), var.as_word(), "n = {n} v = {v}");
            }
        }
    }

    #[test]
    fn splitmix64_keeps_its_golden_outputs() {
        // The outputs of the SplitMix64 step the locker and the screen
        // have always drawn from; seeds, sites and vectors depend on them.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(0xC0FFEE), 0xca82_16fa_9058_d0fa);
        assert_eq!(splitmix64(SPLITMIX_GAMMA), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
        assert_eq!(mix64(SPLITMIX_GAMMA), splitmix64(0));
    }
}
