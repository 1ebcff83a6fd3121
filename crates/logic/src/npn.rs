//! NPN canonical forms and the interpretation group.
//!
//! Two functions are **NPN-equivalent** if one can be obtained from the
//! other by Negating inputs, Permuting inputs, and/or Negating the output.
//! The synthesis engine's cut-rewriting pass groups 4-input cut functions
//! by NPN class so one pre-optimized replacement network per class suffices
//! (exactly as in ABC).
//!
//! Canonicalization is exhaustive over the transform group, which is exact
//! and fast for the arities used here (≤ 4 inputs for cuts:
//! 4!·2⁴·2 = 768 transforms). [`npn_canonical`] runs the whole scan on
//! single `u64` words with the [`word`] kernels: a table of at most 6
//! variables is one word, and on equal arity `TruthTable`'s order is
//! numeric order on that word. The `2^n` input-negated words are computed
//! once, each permutation's minterm map once, and the canonical table and
//! transform are materialized only at the end, so a scan allocates
//! nothing per transform.
//!
//! The attack layer's orbit walks enumerate the same group lazily, over
//! multi-output functions: [`Permutations`] in lexicographic order,
//! [`NegationMasks`] in Gray-code order, and [`IoInterpretation`] as one
//! point of the group.

use crate::{word, LogicError, TruthTable, VectorFunction};

/// A transform in the NPN group: permute inputs, negate a subset of inputs,
/// optionally negate the output.
///
/// Applying the transform to `f` yields `g` with
/// `g(x) = out_neg ⊕ f(π⁻¹(x) ⊕ input_neg)` — i.e. input `v` of `f` is
/// wired (possibly inverted) to input `perm[v]` of `g`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    /// `perm[v]` is the position of `f`'s input `v` in the new function.
    pub perm: Vec<usize>,
    /// Bit `v` set ⇒ input `v` of `f` is complemented before use.
    pub input_neg: u32,
    /// Whether the output is complemented.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transform over `n` inputs.
    pub fn identity(n: usize) -> Self {
        NpnTransform {
            perm: (0..n).collect(),
            input_neg: 0,
            output_neg: false,
        }
    }

    /// Applies the transform to a truth table.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length differs from the table arity.
    pub fn apply(&self, f: &TruthTable) -> TruthTable {
        assert_eq!(self.perm.len(), f.n_vars(), "transform arity mismatch");
        apply_parts(f, &self.perm, self.input_neg, self.output_neg)
    }

    /// The inverse transform, such that `inv.apply(&t.apply(f)) == f`.
    pub fn inverse(&self) -> Self {
        let n = self.perm.len();
        let mut inv_perm = vec![0; n];
        for (v, &p) in self.perm.iter().enumerate() {
            inv_perm[p] = v;
        }
        // Input negations move with the permutation.
        let mut input_neg = 0u32;
        for v in 0..n {
            if self.input_neg & (1 << inv_perm[v]) != 0 {
                input_neg |= 1 << v;
            }
        }
        NpnTransform {
            perm: inv_perm,
            input_neg,
            output_neg: self.output_neg,
        }
    }
}

/// A lazy, allocation-free permutation stream over `0..n`, in
/// lexicographic order.
///
/// This replaces the old materializing pipeline (recursive Heap's
/// algorithm into a `Vec<Vec<usize>>`, then a sort): the `O(n!·n)`
/// up-front allocation spike is gone, each step is a handful of in-place
/// swaps on one buffer, and the lexicographic yield order — which the
/// canonicalizers' tie-breaks and the attack's witness-permutation
/// semantics depend on — is a property of the algorithm instead of a
/// trailing sort.
///
/// `next` is a lending iterator (it returns a borrow of the internal
/// buffer), so drive it with `while let`:
///
/// ```
/// use mvf_logic::npn::Permutations;
///
/// let mut perms = Permutations::new(3);
/// let mut count = 0;
/// let mut first = Vec::new();
/// while let Some(p) = perms.next() {
///     if count == 0 {
///         first = p.to_vec();
///     }
///     count += 1;
/// }
/// assert_eq!(count, 6);
/// assert_eq!(first, [0, 1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Permutations {
    cur: Vec<usize>,
    started: bool,
    done: bool,
}

impl Permutations {
    /// A stream over all permutations of `0..n`. (`n == 0` yields exactly
    /// one empty permutation, matching [`all_permutations`].)
    pub fn new(n: usize) -> Self {
        Permutations {
            cur: (0..n).collect(),
            started: false,
            done: false,
        }
    }

    /// Rewinds the stream to the identity permutation.
    pub fn reset(&mut self) {
        for (i, p) in self.cur.iter_mut().enumerate() {
            *p = i;
        }
        self.started = false;
        self.done = false;
    }

    /// Advances to the next permutation and returns it, or `None` once
    /// the stream is exhausted.
    #[allow(clippy::should_implement_trait)] // lending: borrows self
    pub fn next(&mut self) -> Option<&[usize]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.cur);
        }
        // Classic lexicographic successor: find the rightmost ascent,
        // swap its head with the smallest larger element to its right,
        // reverse the (descending) suffix. All in-place.
        let n = self.cur.len();
        let Some(i) = (0..n.saturating_sub(1))
            .rev()
            .find(|&i| self.cur[i] < self.cur[i + 1])
        else {
            self.done = true;
            return None;
        };
        let j = (i + 1..n)
            .rev()
            .find(|&j| self.cur[j] > self.cur[i])
            .expect("an ascent guarantees a larger suffix element");
        self.cur.swap(i, j);
        self.cur[i + 1..].reverse();
        Some(&self.cur)
    }
}

/// The Gray code at rank `pos`: consecutive ranks differ in exactly one
/// bit, so an enumeration ordered by rank can apply each step as a single
/// in-place polarity flip. `gray_code(0) == 0` (the identity mask).
pub fn gray_code(pos: u64) -> u64 {
    pos ^ (pos >> 1)
}

/// A lazy enumerator of all `2^n` input/output negation masks in Gray-code
/// order, the polarity half of an NPN orbit walk.
///
/// Each step reports the mask together with the single bit that changed
/// from the previous mask, so an orbit walk can maintain a transformed
/// function incrementally — one `flip_var`/`not` per step instead of
/// rebuilding from scratch. The mask at position `p` is `gray_code(p)`,
/// which keeps orbit points addressable as bare mixed-radix indices
/// (position 0 is always the empty mask, i.e. the identity).
///
/// ```
/// use mvf_logic::npn::{gray_code, NegationMasks};
///
/// let mut masks = NegationMasks::new(2);
/// let mut seen = Vec::new();
/// while let Some((mask, flipped)) = masks.next() {
///     seen.push((mask, flipped));
/// }
/// assert_eq!(
///     seen,
///     [(0b00, None), (0b01, Some(0)), (0b11, Some(1)), (0b10, Some(0))]
/// );
/// assert_eq!(gray_code(2), 0b11);
/// ```
#[derive(Debug, Clone)]
pub struct NegationMasks {
    pos: u64,
    total: u64,
    mask: u32,
}

impl NegationMasks {
    /// A stream over all negation masks of `n` bits. (`n == 0` yields
    /// exactly one empty mask.)
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn new(n: usize) -> Self {
        assert!(n <= 32, "negation masks limited to 32 bits");
        NegationMasks {
            pos: 0,
            total: 1u64 << n,
            mask: 0,
        }
    }

    /// Rewinds the stream to the empty mask.
    pub fn reset(&mut self) {
        self.pos = 0;
        self.mask = 0;
    }

    /// Number of masks in the stream (`2^n`).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `false` — the stream always contains at least the empty mask.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Advances to the next mask; returns `(mask, flipped_bit)` where
    /// `flipped_bit` is the single bit that changed from the previous
    /// mask (`None` for the leading empty mask), or `None` once the
    /// stream is exhausted.
    #[allow(clippy::should_implement_trait)] // paired with Permutations::next
    pub fn next(&mut self) -> Option<(u32, Option<usize>)> {
        if self.pos == self.total {
            return None;
        }
        let flipped = if self.pos == 0 {
            None
        } else {
            // Gray step k-1 → k flips exactly bit trailing_zeros(k).
            let bit = self.pos.trailing_zeros() as usize;
            self.mask ^= 1 << bit;
            Some(bit)
        };
        self.pos += 1;
        Some((self.mask, flipped))
    }
}

/// Generates all permutations of `0..n` (lexicographic order).
///
/// Prefer [`Permutations`] when the consumer can stream: this collects
/// all `n!` permutations into owned vectors.
pub fn all_permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut perms = Permutations::new(n);
    while let Some(p) = perms.next() {
        out.push(p.to_vec());
    }
    out
}

/// The NPN canonical form of a function: the lexicographically smallest
/// truth table in its NPN class, together with the transform that produced
/// it.
///
/// # Panics
///
/// Panics if the function has more than 6 variables (exhaustive
/// canonicalization is only intended for cut/cell-sized functions).
///
/// # Example
///
/// ```
/// use mvf_logic::{npn::npn_canonical, TruthTable};
///
/// let a = TruthTable::var(0, 2);
/// let b = TruthTable::var(1, 2);
/// let (c1, _) = npn_canonical(&a.and(&b));
/// let (c2, _) = npn_canonical(&a.or(&b).not()); // NOR ≡ AND under NPN
/// assert_eq!(c1, c2);
/// ```
pub fn npn_canonical(f: &TruthTable) -> (TruthTable, NpnTransform) {
    assert!(f.n_vars() <= 6, "exhaustive NPN limited to 6 variables");
    let n = f.n_vars();
    let n_masks = 1usize << n;
    let full = word::tail(n);
    // negated[mask] = f with the inputs in `mask` complemented; each mask
    // extends a smaller one by its lowest set bit.
    let mut negated = [0u64; 64];
    negated[0] = f.as_word();
    for mask in 1..n_masks {
        let v = mask.trailing_zeros() as usize;
        negated[mask] = word::flip_var(negated[mask & (mask - 1)], v);
    }
    // The scan order (permutations lexicographic, input masks ascending,
    // the plain output before the complemented one) and the strict `<`
    // decide which transform wins among those reaching the canon, and
    // callers rely on that choice being stable.
    let mut best: Option<(u64, [usize; 6], u32, bool)> = None;
    let mut perms = Permutations::new(n);
    while let Some(perm) = perms.next() {
        let map = word::minterm_map(perm);
        for (input_neg, &src) in negated[..n_masks].iter().enumerate() {
            let g = word::permute(src, &map);
            for output_neg in [false, true] {
                let h = if output_neg { !g & full } else { g };
                if best.is_none_or(|(canon, ..)| h < canon) {
                    let mut kept = [0usize; 6];
                    kept[..n].copy_from_slice(perm);
                    best = Some((h, kept, input_neg as u32, output_neg));
                }
            }
        }
    }
    let (word, perm, input_neg, output_neg) = best.expect("at least the identity transform");
    (
        TruthTable::from_word(n, word).expect("at most 6 variables"),
        NpnTransform {
            perm: perm[..n].to_vec(),
            input_neg,
            output_neg,
        },
    )
}

/// [`NpnTransform::apply`] over borrowed parts, so exhaustive scans can
/// evaluate a transform without building an owned `NpnTransform` first.
fn apply_parts(f: &TruthTable, perm: &[usize], input_neg: u32, output_neg: bool) -> TruthTable {
    let mut t = f.clone();
    for v in 0..f.n_vars() {
        if input_neg & (1 << v) != 0 {
            t = t.flip_var(v);
        }
    }
    let mut t = t.permute(perm).expect("valid permutation");
    if output_neg {
        t = t.not();
    }
    t
}

/// A point of the full NPN interpretation group acting on a
/// [`VectorFunction`]: negate inputs, permute inputs, permute outputs,
/// negate outputs — the complete I/O freedom the paper's adversary must
/// grant a camouflaged block.
///
/// [`IoInterpretation::apply`] evaluates the pipeline
/// `f.negate_inputs(in_neg) → permute_inputs(in_perm) →
/// permute_outputs(out_perm) → negate_outputs(out_neg)`; `in_neg` is in
/// the *pre-permutation* frame (bit `v` inverts `f`'s input `v`) and
/// `out_neg` in the *post-permutation* frame (bit `j` inverts final
/// output `j`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IoInterpretation {
    /// Input permutation: `f`'s input `v` is driven by wire `in_perm[v]`.
    pub in_perm: Vec<usize>,
    /// Pre-permutation input polarity mask.
    pub in_neg: u32,
    /// Output permutation: `f`'s output `i` appears at `out_perm[i]`.
    pub out_perm: Vec<usize>,
    /// Post-permutation output polarity mask.
    pub out_neg: u32,
}

impl IoInterpretation {
    /// The identity interpretation for an `n_in → n_out` function.
    pub fn identity(n_in: usize, n_out: usize) -> Self {
        IoInterpretation {
            in_perm: (0..n_in).collect(),
            in_neg: 0,
            out_perm: (0..n_out).collect(),
            out_neg: 0,
        }
    }

    /// A pure permutation interpretation (both polarity masks empty) —
    /// the P subgroup the pre-NPN adversary was limited to.
    pub fn from_perms(in_perm: Vec<usize>, out_perm: Vec<usize>) -> Self {
        IoInterpretation {
            in_perm,
            in_neg: 0,
            out_perm,
            out_neg: 0,
        }
    }

    /// Whether this is the identity interpretation.
    pub fn is_identity(&self) -> bool {
        self.in_neg == 0
            && self.out_neg == 0
            && self.in_perm.iter().enumerate().all(|(i, &p)| i == p)
            && self.out_perm.iter().enumerate().all(|(i, &p)| i == p)
    }

    /// Applies the interpretation to a function.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::BadPermutation`] if either permutation does
    /// not match the function's arity.
    ///
    /// # Panics
    ///
    /// Panics if a polarity mask has bits beyond the function's arity.
    pub fn apply(&self, f: &VectorFunction) -> Result<VectorFunction, LogicError> {
        let g = f
            .negate_inputs(self.in_neg)
            .permute_inputs(&self.in_perm)?
            .permute_outputs(&self.out_perm)?;
        Ok(g.negate_outputs(self.out_neg))
    }

    /// The composition "apply `self`, then `then`": for every `f`,
    /// `then.apply(&self.apply(f)) == self.compose(then).apply(f)`.
    ///
    /// # Panics
    ///
    /// Panics if the two interpretations' arities disagree.
    pub fn compose(&self, then: &IoInterpretation) -> Self {
        let n_in = self.in_perm.len();
        let n_out = self.out_perm.len();
        assert_eq!(then.in_perm.len(), n_in, "input arity mismatch");
        assert_eq!(then.out_perm.len(), n_out, "output arity mismatch");
        let mut in_perm = vec![0; n_in];
        let mut in_neg = self.in_neg;
        for v in 0..n_in {
            in_perm[v] = then.in_perm[self.in_perm[v]];
            if then.in_neg & (1 << self.in_perm[v]) != 0 {
                in_neg ^= 1 << v;
            }
        }
        let mut inv_then_out = vec![0; n_out];
        for (i, &p) in then.out_perm.iter().enumerate() {
            inv_then_out[p] = i;
        }
        let mut out_perm = vec![0; n_out];
        let mut out_neg = then.out_neg;
        for i in 0..n_out {
            out_perm[i] = then.out_perm[self.out_perm[i]];
        }
        for j in 0..n_out {
            if self.out_neg & (1 << inv_then_out[j]) != 0 {
                out_neg ^= 1 << j;
            }
        }
        IoInterpretation {
            in_perm,
            in_neg,
            out_perm,
            out_neg,
        }
    }

    /// The inverse interpretation, such that
    /// `t.compose(&t.inverse())` is the identity.
    pub fn inverse(&self) -> Self {
        let n_in = self.in_perm.len();
        let n_out = self.out_perm.len();
        let mut in_perm = vec![0; n_in];
        let mut in_neg = 0u32;
        for (v, &p) in self.in_perm.iter().enumerate() {
            in_perm[p] = v;
            if self.in_neg & (1 << v) != 0 {
                in_neg |= 1 << p;
            }
        }
        let mut out_perm = vec![0; n_out];
        let mut out_neg = 0u32;
        for (i, &q) in self.out_perm.iter().enumerate() {
            out_perm[q] = i;
        }
        for j in 0..n_out {
            if self.out_neg & (1 << self.out_perm[j]) != 0 {
                out_neg |= 1 << j;
            }
        }
        IoInterpretation {
            in_perm,
            in_neg,
            out_perm,
            out_neg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating scan [`npn_canonical`] replaced: every transform
    /// materialized as a `TruthTable` through [`apply_parts`]. Kept as the
    /// oracle of the one-word kernel.
    fn npn_canonical_reference(f: &TruthTable) -> (TruthTable, NpnTransform) {
        let n = f.n_vars();
        let mut best: Option<(TruthTable, NpnTransform)> = None;
        let mut perms = Permutations::new(n);
        while let Some(perm) = perms.next() {
            for input_neg in 0..(1u32 << n) {
                for output_neg in [false, true] {
                    let g = apply_parts(f, perm, input_neg, output_neg);
                    if best.as_ref().is_none_or(|(b, _)| g < *b) {
                        best = Some((
                            g,
                            NpnTransform {
                                perm: perm.to_vec(),
                                input_neg,
                                output_neg,
                            },
                        ));
                    }
                }
            }
        }
        best.expect("at least the identity transform")
    }

    fn assert_matches_reference(f: &TruthTable) {
        let got = npn_canonical(f);
        assert_eq!(got, npn_canonical_reference(f), "f = {f:?}");
        assert_eq!(got.1.apply(f), got.0, "transform must reach the canon");
    }

    /// SplitMix64: a seeded word stream for sampling wide functions.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(word::SPLITMIX_GAMMA);
        word::mix64(*state)
    }

    #[test]
    fn word_kernel_matches_reference_on_small_functions() {
        for n in 0..=3usize {
            for bits in 0..(1u64 << (1 << n)) {
                assert_matches_reference(&TruthTable::from_word(n, bits).unwrap());
            }
        }
    }

    #[test]
    fn word_kernel_matches_reference_on_sampled_wide_functions() {
        let mut state = 0x4E50_4E00_u64;
        for (n, samples) in [(4usize, 256), (5, 24), (6, 2)] {
            for _ in 0..samples {
                let f = TruthTable::from_word(n, splitmix(&mut state)).unwrap();
                assert_matches_reference(&f);
            }
        }
    }

    /// The exhaustive four-input oracle: seconds in a release build,
    /// minutes in a debug one, so it runs on request
    /// (`cargo test --release -p mvf-logic -- --ignored`).
    #[test]
    #[ignore]
    fn word_kernel_matches_reference_on_every_four_input_function() {
        for bits in 0..(1u64 << 16) {
            assert_matches_reference(&TruthTable::from_word(4, bits).unwrap());
        }
    }

    #[test]
    fn permutation_count() {
        assert_eq!(all_permutations(0).len(), 1);
        assert_eq!(all_permutations(1).len(), 1);
        assert_eq!(all_permutations(3).len(), 6);
        assert_eq!(all_permutations(4).len(), 24);
    }

    #[test]
    fn lazy_stream_is_lexicographic_and_complete() {
        for n in 0..=5usize {
            let mut perms = Permutations::new(n);
            let mut seen: Vec<Vec<usize>> = Vec::new();
            while let Some(p) = perms.next() {
                if let Some(prev) = seen.last() {
                    assert!(prev.as_slice() < p, "not lexicographic at {p:?}");
                }
                seen.push(p.to_vec());
            }
            assert_eq!(seen, all_permutations(n), "n = {n}");
            assert!(perms.next().is_none(), "exhausted stream stays exhausted");
            // Reset rewinds to the identity.
            perms.reset();
            let restart = perms.next().map(<[usize]>::to_vec);
            assert_eq!(restart.as_deref(), seen.first().map(Vec::as_slice));
        }
    }

    #[test]
    fn transform_inverse_roundtrip() {
        let f = TruthTable::from_fn(4, |m| (m * 7 + 3) % 5 < 2);
        let t = NpnTransform {
            perm: vec![2, 0, 3, 1],
            input_neg: 0b0110,
            output_neg: true,
        };
        let g = t.apply(&f);
        assert_eq!(t.inverse().apply(&g), f);
    }

    #[test]
    fn and_or_nand_nor_share_npn_class() {
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let class = |f: &TruthTable| npn_canonical(f).0;
        let and = class(&a.and(&b));
        assert_eq!(class(&a.or(&b)), and);
        assert_eq!(class(&a.and(&b).not()), and);
        assert_eq!(class(&a.or(&b).not()), and);
        assert_eq!(class(&a.not().and(&b)), and);
        assert_ne!(class(&a.xor(&b)), and);
    }

    #[test]
    fn canonical_is_invariant_over_class() {
        let f = TruthTable::from_fn(3, |m| [1, 0, 0, 1, 1, 1, 0, 1][m] == 1);
        let (canon, _) = npn_canonical(&f);
        // Apply a few random-ish transforms; canonical form must not move.
        for (perm, neg, oneg) in [
            (vec![1, 2, 0], 0b101u32, true),
            (vec![2, 1, 0], 0b010, false),
            (vec![0, 2, 1], 0b111, true),
        ] {
            let t = NpnTransform {
                perm,
                input_neg: neg,
                output_neg: oneg,
            };
            let g = t.apply(&f);
            assert_eq!(npn_canonical(&g).0, canon);
        }
    }

    #[test]
    fn npn_transform_recovers_canonical() {
        let f = TruthTable::from_fn(4, |m| (m ^ (m >> 2)) & 3 == 2);
        let (canon, t) = npn_canonical(&f);
        assert_eq!(t.apply(&f), canon);
    }

    #[test]
    fn negation_masks_are_gray_coded_and_complete() {
        for n in 0..=4usize {
            let mut masks = NegationMasks::new(n);
            assert_eq!(masks.len(), 1 << n);
            let mut seen = Vec::new();
            let mut prev: Option<u32> = None;
            while let Some((mask, flipped)) = masks.next() {
                match (prev, flipped) {
                    (None, None) => assert_eq!(mask, 0),
                    (Some(p), Some(bit)) => assert_eq!(p ^ mask, 1 << bit),
                    other => panic!("inconsistent step {other:?}"),
                }
                assert_eq!(u64::from(mask), gray_code(seen.len() as u64));
                prev = Some(mask);
                seen.push(mask);
            }
            assert_eq!(seen.len(), 1 << n, "n = {n}");
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 1 << n, "all masks distinct");
            assert!(masks.next().is_none());
            masks.reset();
            assert_eq!(masks.next(), Some((0, None)));
        }
    }

    #[test]
    fn io_interpretation_apply_compose_inverse() {
        let f = VectorFunction::from_lookup_table(3, 2, &[1, 0, 3, 2, 2, 3, 1, 0]).unwrap();
        let t = IoInterpretation {
            in_perm: vec![2, 0, 1],
            in_neg: 0b101,
            out_perm: vec![1, 0],
            out_neg: 0b10,
        };
        // apply == the documented pipeline.
        let manual = f
            .negate_inputs(0b101)
            .permute_inputs(&[2, 0, 1])
            .unwrap()
            .permute_outputs(&[1, 0])
            .unwrap()
            .negate_outputs(0b10);
        assert_eq!(t.apply(&f).unwrap(), manual);
        // compose(a, b).apply == b.apply ∘ a.apply
        let u = IoInterpretation {
            in_perm: vec![1, 2, 0],
            in_neg: 0b011,
            out_perm: vec![0, 1],
            out_neg: 0b01,
        };
        assert_eq!(
            t.compose(&u).apply(&f).unwrap(),
            u.apply(&t.apply(&f).unwrap()).unwrap()
        );
        // inverse undoes apply, and composes to the identity.
        assert_eq!(t.inverse().apply(&t.apply(&f).unwrap()).unwrap(), f);
        assert!(t.compose(&t.inverse()).is_identity());
        assert!(t.inverse().compose(&t).is_identity());
        assert!(IoInterpretation::identity(3, 2).is_identity());
        assert!(!t.is_identity());
    }

    #[test]
    fn number_of_npn_classes_of_2var_functions() {
        use std::collections::HashSet;
        let mut classes = HashSet::new();
        for bits in 0..16u64 {
            let f = TruthTable::from_word(2, bits).unwrap();
            classes.insert(npn_canonical(&f).0);
        }
        // Known: 2-variable functions fall into 4 NPN classes
        // (const, literal, AND-like, XOR-like).
        assert_eq!(classes.len(), 4);
    }

    #[test]
    fn number_of_npn_classes_of_3var_functions() {
        use std::collections::HashSet;
        let mut classes = HashSet::new();
        for bits in 0..256u64 {
            let f = TruthTable::from_word(3, bits).unwrap();
            classes.insert(npn_canonical(&f).0);
        }
        // Known result: 14 NPN classes of 3-variable functions.
        assert_eq!(classes.len(), 14);
    }
}
