use std::fmt;

use crate::{word, LogicError, MAX_VARS};

/// Applies `f` word-by-word: `dst[i] = f(dst[i], src[i])`, unrolled in
/// 8-wide `[u64; 8]` blocks.
///
/// The multi-word tables the word-parallel validator produces (≥ 10
/// inputs plus config variables) spend their time in these straight-line
/// word loops; the explicit 8-wide unrolling gives the backend a full
/// 512-bit block of independent operations to schedule (and is the
/// stepping stone to `std::simd` lanes once that stabilizes) without
/// changing a single result bit — the scalar tail loop handles the
/// remainder words identically.
#[inline(always)]
fn zip2_words(dst: &mut [u64], src: &[u64], f: impl Fn(u64, u64) -> u64) {
    let n = dst.len().min(src.len());
    let n8 = n & !7;
    let (dc, dr) = dst[..n].split_at_mut(n8);
    let (sc, sr) = src[..n].split_at(n8);
    for (d8, s8) in dc.chunks_exact_mut(8).zip(sc.chunks_exact(8)) {
        d8[0] = f(d8[0], s8[0]);
        d8[1] = f(d8[1], s8[1]);
        d8[2] = f(d8[2], s8[2]);
        d8[3] = f(d8[3], s8[3]);
        d8[4] = f(d8[4], s8[4]);
        d8[5] = f(d8[5], s8[5]);
        d8[6] = f(d8[6], s8[6]);
        d8[7] = f(d8[7], s8[7]);
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d = f(*d, *s);
    }
}

/// Three-address variant: `dst[i] = f(a[i], b[i])`, unrolled 8-wide.
#[inline(always)]
fn zip3_words(dst: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
    let n = dst.len().min(a.len()).min(b.len());
    let n8 = n & !7;
    let (dc, dr) = dst[..n].split_at_mut(n8);
    let (ac, ar) = a[..n].split_at(n8);
    let (bc, br) = b[..n].split_at(n8);
    for ((d8, a8), b8) in dc
        .chunks_exact_mut(8)
        .zip(ac.chunks_exact(8))
        .zip(bc.chunks_exact(8))
    {
        d8[0] = f(a8[0], b8[0]);
        d8[1] = f(a8[1], b8[1]);
        d8[2] = f(a8[2], b8[2]);
        d8[3] = f(a8[3], b8[3]);
        d8[4] = f(a8[4], b8[4]);
        d8[5] = f(a8[5], b8[5]);
        d8[6] = f(a8[6], b8[6]);
        d8[7] = f(a8[7], b8[7]);
    }
    for ((d, a), b) in dr.iter_mut().zip(ar).zip(br) {
        *d = f(*a, *b);
    }
}

/// Unary in-place variant: `w[i] = f(w[i])`, unrolled 8-wide.
#[inline(always)]
fn map_words(words: &mut [u64], f: impl Fn(u64) -> u64) {
    let n8 = words.len() & !7;
    let (c, r) = words.split_at_mut(n8);
    for w8 in c.chunks_exact_mut(8) {
        w8[0] = f(w8[0]);
        w8[1] = f(w8[1]);
        w8[2] = f(w8[2]);
        w8[3] = f(w8[3]);
        w8[4] = f(w8[4]);
        w8[5] = f(w8[5]);
        w8[6] = f(w8[6]);
        w8[7] = f(w8[7]);
    }
    for w in r {
        *w = f(*w);
    }
}

/// A complete truth table of a Boolean function over up to [`MAX_VARS`]
/// variables, packed 64 minterms per word.
///
/// Minterm `m` encodes the input assignment where variable `v` takes the
/// value of bit `v` of `m`. The table stores exactly `2^n` meaningful bits;
/// any unused bits of the last word are kept at zero (an internal invariant
/// restored after every complementing operation).
///
/// # Example
///
/// ```
/// use mvf_logic::TruthTable;
///
/// let maj = TruthTable::from_fn(3, |m| (m.count_ones() >= 2));
/// assert_eq!(maj.count_ones(), 4);
/// assert!(maj.get(0b011));
/// assert!(!maj.get(0b100));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    n_vars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// Number of 64-bit words needed for an `n`-variable table.
    fn word_count(n_vars: usize) -> usize {
        if n_vars <= 6 {
            1
        } else {
            1 << (n_vars - 6)
        }
    }

    fn assert_vars(n_vars: usize) {
        assert!(
            n_vars <= MAX_VARS,
            "too many variables: {n_vars} > {MAX_VARS}"
        );
    }

    /// The constant-0 function of `n_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > MAX_VARS`.
    pub fn zero(n_vars: usize) -> Self {
        Self::assert_vars(n_vars);
        TruthTable {
            n_vars,
            words: vec![0; Self::word_count(n_vars)],
        }
    }

    /// The constant-1 function of `n_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > MAX_VARS`.
    pub fn one(n_vars: usize) -> Self {
        Self::assert_vars(n_vars);
        let mut words = vec![u64::MAX; Self::word_count(n_vars)];
        *words.last_mut().expect("at least one word") &= word::tail(n_vars);
        if n_vars < 6 {
            words[0] = word::tail(n_vars);
        }
        TruthTable { n_vars, words }
    }

    /// A constant function with the given value.
    pub fn constant(n_vars: usize, value: bool) -> Self {
        if value {
            Self::one(n_vars)
        } else {
            Self::zero(n_vars)
        }
    }

    /// The projection function of variable `var` in an `n_vars`-variable space.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars` or `n_vars > MAX_VARS`.
    pub fn var(var: usize, n_vars: usize) -> Self {
        Self::assert_vars(n_vars);
        let mut t = Self::zero(n_vars);
        fill_var(&mut t.words, var, n_vars);
        t
    }

    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > MAX_VARS`.
    pub fn from_fn<F: FnMut(usize) -> bool>(n_vars: usize, mut f: F) -> Self {
        Self::assert_vars(n_vars);
        let mut t = Self::zero(n_vars);
        for m in 0..(1usize << n_vars) {
            if f(m) {
                t.set(m, true);
            }
        }
        t
    }

    /// Builds a small (≤ 6 variables) table directly from its word value.
    ///
    /// Bits above `2^n_vars` are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::TooManyVars`] if `n_vars > 6`.
    pub fn from_word(n_vars: usize, bits: u64) -> Result<Self, LogicError> {
        if n_vars > 6 {
            return Err(LogicError::TooManyVars(n_vars));
        }
        Ok(TruthTable {
            n_vars,
            words: vec![bits & word::tail(n_vars)],
        })
    }

    /// The number of variables of the function.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The number of minterms (`2^n_vars`).
    pub fn n_minterms(&self) -> usize {
        1usize << self.n_vars
    }

    /// The backing words (64 minterms per word, low bits first).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// For tables of at most 6 variables, the table as a single word.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than 6 variables.
    pub fn as_word(&self) -> u64 {
        assert!(self.n_vars <= 6, "as_word requires <= 6 variables");
        self.words[0]
    }

    /// The value of the function on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^n_vars`.
    pub fn get(&self, m: usize) -> bool {
        assert!(m < self.n_minterms(), "minterm {m} out of range");
        (self.words[m >> 6] >> (m & 63)) & 1 == 1
    }

    /// Sets the value of the function on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^n_vars`.
    pub fn set(&mut self, m: usize, value: bool) {
        assert!(m < self.n_minterms(), "minterm {m} out of range");
        if value {
            self.words[m >> 6] |= 1u64 << (m & 63);
        } else {
            self.words[m >> 6] &= !(1u64 << (m & 63));
        }
    }

    fn check_arity(&self, other: &Self) {
        assert_eq!(
            self.n_vars, other.n_vars,
            "arity mismatch: {} vs {}",
            self.n_vars, other.n_vars
        );
    }

    /// Bitwise AND of two functions of equal arity.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn and(&self, other: &Self) -> Self {
        self.check_arity(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        TruthTable {
            n_vars: self.n_vars,
            words,
        }
    }

    /// Bitwise OR of two functions of equal arity.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn or(&self, other: &Self) -> Self {
        self.check_arity(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        TruthTable {
            n_vars: self.n_vars,
            words,
        }
    }

    /// Bitwise XOR of two functions of equal arity.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn xor(&self, other: &Self) -> Self {
        self.check_arity(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a ^ b)
            .collect();
        TruthTable {
            n_vars: self.n_vars,
            words,
        }
    }

    /// Complement of the function.
    pub fn not(&self) -> Self {
        let mut words: Vec<u64> = self.words.iter().map(|a| !a).collect();
        *words.last_mut().expect("at least one word") &= word::tail(self.n_vars);
        TruthTable {
            n_vars: self.n_vars,
            words,
        }
    }

    /// AND with the complement of `other` (`self ∧ ¬other`).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn and_not(&self, other: &Self) -> Self {
        self.check_arity(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & !b)
            .collect();
        TruthTable {
            n_vars: self.n_vars,
            words,
        }
    }

    /// In-place complement: `self = ¬self`.
    pub fn not_assign(&mut self) {
        map_words(&mut self.words, |w| !w);
        *self.words.last_mut().expect("at least one word") &= word::tail(self.n_vars);
    }

    /// `true` iff the function is constant 0.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` iff the function is constant 1.
    pub fn is_one(&self) -> bool {
        *self == Self::one(self.n_vars)
    }

    /// `true` iff the function is constant (either polarity).
    pub fn is_const(&self) -> bool {
        self.is_zero() || self.is_one()
    }

    /// Number of satisfying minterms.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Cofactor with respect to `var = value`. The result has the same
    /// arity but no longer depends on `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars`.
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        assert!(var < self.n_vars, "variable {var} out of range");
        let mut out = self.clone();
        if var < 6 {
            for w in &mut out.words {
                *w = word::cofactor(*w, var, value);
            }
        } else {
            let block = 1usize << (var - 6);
            let n_words = out.words.len();
            let mut i = 0;
            while i < n_words {
                for j in 0..block {
                    let src = if value { i + block + j } else { i + j };
                    let w = out.words[src];
                    out.words[i + j] = w;
                    out.words[i + block + j] = w;
                }
                i += 2 * block;
            }
        }
        out
    }

    /// `true` iff the function depends on `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor(var, false) != self.cofactor(var, true)
    }

    /// Bitmask of the variables the function depends on.
    pub fn support_mask(&self) -> u32 {
        let mut m = 0;
        for v in 0..self.n_vars {
            if self.depends_on(v) {
                m |= 1 << v;
            }
        }
        m
    }

    /// Indices of the variables the function depends on, in ascending order.
    pub fn support(&self) -> Vec<usize> {
        (0..self.n_vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Negates an input: returns `g` with `g(x) = f(x ⊕ e_var)`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars`.
    pub fn flip_var(&self, var: usize) -> Self {
        let mut out = self.clone();
        out.flip_var_assign(var);
        out
    }

    /// In-place form of [`flip_var`](Self::flip_var): `f(x) ← f(x ⊕ e_var)`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars`.
    pub fn flip_var_assign(&mut self, var: usize) {
        assert!(var < self.n_vars, "variable {var} out of range");
        if var < 6 {
            for w in &mut self.words {
                *w = word::flip_var(*w, var);
            }
        } else {
            let block = 1usize << (var - 6);
            let n_words = self.words.len();
            let mut i = 0;
            while i < n_words {
                for j in 0..block {
                    self.words.swap(i + j, i + block + j);
                }
                i += 2 * block;
            }
        }
    }

    /// Re-expresses the function over `n_new >= n_vars` variables; existing
    /// variables keep their indices and the function is independent of the
    /// new ones.
    ///
    /// # Panics
    ///
    /// Panics if `n_new < n_vars` or `n_new > MAX_VARS`.
    pub fn extend(&self, n_new: usize) -> Self {
        assert!(n_new >= self.n_vars, "extend cannot shrink");
        Self::assert_vars(n_new);
        if n_new == self.n_vars {
            return self.clone();
        }
        let mut out = Self::zero(n_new);
        if self.n_vars <= 6 && n_new <= 6 {
            // Replicate the low 2^n bits across the wider word.
            let src = self.words[0];
            let chunk = 1usize << self.n_vars;
            let mut w = 0u64;
            let mut off = 0;
            while off < (1usize << n_new) {
                w |= src << off;
                off += chunk;
            }
            out.words[0] = w & word::tail(n_new);
        } else if self.n_vars <= 6 {
            // First widen to a full word, then replicate the word.
            let full = self.extend(6);
            for w in &mut out.words {
                *w = full.words[0];
            }
        } else {
            let n_src = self.words.len();
            for (i, w) in out.words.iter_mut().enumerate() {
                *w = self.words[i % n_src];
            }
        }
        out
    }

    /// Applies a variable permutation: variable `v` of `self` becomes
    /// variable `perm[v]` of the result.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::BadPermutation`] if `perm` is not a
    /// permutation of `0..n_vars`.
    pub fn permute(&self, perm: &[usize]) -> Result<Self, LogicError> {
        let mut out = Self::zero(self.n_vars);
        self.permute_into(perm, &mut out)?;
        Ok(out)
    }

    /// [`TruthTable::permute`] into a caller-provided table, reusing its
    /// word storage — the allocation-free step of permutation-orbit
    /// walks. `out` is reshaped to this table's arity.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::BadPermutation`] if `perm` is not a
    /// permutation of `0..n_vars`; `out` is unspecified (but valid) on
    /// error.
    pub fn permute_into(&self, perm: &[usize], out: &mut TruthTable) -> Result<(), LogicError> {
        if perm.len() != self.n_vars {
            return Err(LogicError::BadPermutation);
        }
        // Bit-set validation: variable counts are tiny (≤ MAX_VARS ≤ 64).
        let mut seen = 0u64;
        for &p in perm {
            if p >= self.n_vars || seen & (1 << p) != 0 {
                return Err(LogicError::BadPermutation);
            }
            seen |= 1 << p;
        }
        out.n_vars = self.n_vars;
        out.words.resize(Self::word_count(self.n_vars), 0);
        out.words.fill(0);
        for m in 0..self.n_minterms() {
            if self.get(m) {
                let mut m2 = 0usize;
                for (v, &p) in perm.iter().enumerate() {
                    if m & (1 << v) != 0 {
                        m2 |= 1 << p;
                    }
                }
                out.set(m2, true);
            }
        }
        Ok(())
    }

    /// Overwrites this table with a copy of `src`, reusing the word
    /// allocation (a `clone_from` that never reallocates once warm).
    pub fn copy_from(&mut self, src: &TruthTable) {
        self.n_vars = src.n_vars;
        self.words.clear();
        self.words.extend_from_slice(&src.words);
    }

    /// Projects the function onto the listed variables: old variable
    /// `vars[i]` becomes variable `i` of the result, which has exactly
    /// `vars.len()` variables.
    ///
    /// # Panics
    ///
    /// Panics if the function depends on a variable not in `vars`, or if
    /// `vars` contains duplicates / out-of-range indices.
    pub fn project(&self, vars: &[usize]) -> Self {
        let mut pos = vec![usize::MAX; self.n_vars];
        for (i, &v) in vars.iter().enumerate() {
            assert!(v < self.n_vars, "variable {v} out of range");
            assert!(pos[v] == usize::MAX, "duplicate variable {v}");
            pos[v] = i;
        }
        for v in 0..self.n_vars {
            if pos[v] == usize::MAX {
                assert!(
                    !self.depends_on(v),
                    "cannot project: function depends on dropped variable {v}"
                );
            }
        }
        let mut out = Self::zero(vars.len());
        for m2 in 0..out.n_minterms() {
            // Build a representative minterm of the original space.
            let mut m = 0usize;
            for (i, &v) in vars.iter().enumerate() {
                if m2 & (1 << i) != 0 {
                    m |= 1 << v;
                }
            }
            if self.get(m) {
                out.set(m2, true);
            }
        }
        out
    }

    /// Evaluates the function on an input assignment given as a bitmask.
    ///
    /// Alias of [`TruthTable::get`] with intent-revealing naming.
    pub fn eval(&self, assignment: usize) -> bool {
        self.get(assignment)
    }

    /// A compact hex rendering (most significant word first).
    pub fn to_hex(&self) -> String {
        let digits = self.n_minterms().div_ceil(4).max(1);
        let mut full = String::new();
        for w in self.words.iter().rev() {
            full.push_str(&format!("{w:016x}"));
        }
        full[full.len() - digits..].to_string()
    }
}

/// Writes the projection pattern of `var` into a word buffer sized for
/// `n_vars` variables.
///
/// # Panics
///
/// Panics if `var >= n_vars`.
fn fill_var(words: &mut [u64], var: usize, n_vars: usize) {
    assert!(
        var < n_vars,
        "variable {var} out of range for {n_vars} vars"
    );
    if var < 6 {
        let pat = word::VAR[var] & word::tail(n_vars);
        for w in words.iter_mut() {
            *w = pat;
        }
    } else {
        let block = 1usize << (var - 6);
        for (i, w) in words.iter_mut().enumerate() {
            *w = if (i / block) % 2 == 1 { u64::MAX } else { 0 };
        }
    }
}

/// A flat arena of equally-sized truth tables packed into one contiguous
/// word buffer.
///
/// Exhaustive circuit simulation needs one table per node; allocating each
/// as an individual [`TruthTable`] costs a heap allocation per node and
/// scatters the tables across memory. The arena instead makes a **single**
/// allocation for all slots up front and provides fused, complement-aware
/// bitwise operations between slots, so a whole-circuit simulation runs
/// with O(1) heap traffic and linear memory access.
///
/// Slots are addressed by index in `0..n_slots`; all slots share the same
/// variable count. Binary operations take the complement of each operand
/// as a flag, which removes the temporary `not()` tables the naive
/// evaluation style materializes.
///
/// # Example
///
/// ```
/// use mvf_logic::{TtArena, TruthTable};
///
/// let mut arena = TtArena::new(3, 3);
/// arena.write_var(0, 0);
/// arena.write_var(1, 1);
/// // slot2 = ¬slot0 ∧ slot1
/// arena.and2(2, 0, true, 1, false);
/// let expect = TruthTable::var(0, 3).not().and(&TruthTable::var(1, 3));
/// assert_eq!(arena.to_table(2), expect);
/// ```
#[derive(Clone)]
pub struct TtArena {
    n_vars: usize,
    words_per_slot: usize,
    tail: u64,
    words: Vec<u64>,
}

impl TtArena {
    /// Creates an arena of `n_slots` zeroed tables over `n_vars` variables
    /// in one contiguous allocation.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > MAX_VARS`.
    pub fn new(n_vars: usize, n_slots: usize) -> Self {
        TruthTable::assert_vars(n_vars);
        let words_per_slot = TruthTable::word_count(n_vars);
        TtArena {
            n_vars,
            words_per_slot,
            tail: word::tail(n_vars),
            words: vec![0u64; words_per_slot * n_slots],
        }
    }

    /// Reconfigures the arena to `n_slots` zeroed tables over `n_vars`
    /// variables, reusing the backing allocation when it is large enough.
    ///
    /// This is the reuse hook for callers that evaluate many small cones
    /// of varying arity (cut functions, fitness evaluation): one arena
    /// lives across calls and only grows, instead of being reallocated
    /// per cone.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > MAX_VARS`.
    pub fn reset(&mut self, n_vars: usize, n_slots: usize) {
        TruthTable::assert_vars(n_vars);
        self.n_vars = n_vars;
        self.words_per_slot = TruthTable::word_count(n_vars);
        self.tail = word::tail(n_vars);
        let need = self.words_per_slot * n_slots;
        self.words.clear();
        self.words.resize(need, 0);
    }

    /// Grows the arena to at least `n_slots` slots (same arity),
    /// zero-filling the new slots and preserving existing contents.
    ///
    /// This is the on-demand growth hook for callers that discover their
    /// slot count while evaluating (cone evaluation over a subtree whose
    /// size is only known at the end).
    pub fn ensure_slots(&mut self, n_slots: usize) {
        let need = self.words_per_slot * n_slots;
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    /// The number of variables of every slot.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The number of slots.
    pub fn n_slots(&self) -> usize {
        // `words_per_slot` is at least 1 by construction.
        self.words.len() / self.words_per_slot
    }

    /// The number of 64-bit words backing each slot.
    pub fn words_per_slot(&self) -> usize {
        self.words_per_slot
    }

    /// The backing words of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_slots`.
    pub fn slot(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_slot..(i + 1) * self.words_per_slot]
    }

    fn slot_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.words_per_slot..(i + 1) * self.words_per_slot]
    }

    /// Disjoint mutable/shared access to a destination and a source slot.
    ///
    /// # Panics
    ///
    /// Panics if `dst == src`.
    fn pair(&mut self, dst: usize, src: usize) -> (&mut [u64], &[u64]) {
        assert_ne!(dst, src, "in-place op requires distinct slots");
        let w = self.words_per_slot;
        if dst < src {
            let (lo, hi) = self.words.split_at_mut(src * w);
            (&mut lo[dst * w..(dst + 1) * w], &hi[..w])
        } else {
            let (lo, hi) = self.words.split_at_mut(dst * w);
            (&mut hi[..w], &lo[src * w..(src + 1) * w])
        }
    }

    /// Sets slot `i` to constant 0.
    pub fn write_zero(&mut self, i: usize) {
        self.slot_mut(i).fill(0);
    }

    /// Sets slot `i` to constant 1.
    pub fn write_one(&mut self, i: usize) {
        let tail = self.tail;
        let s = self.slot_mut(i);
        s.fill(u64::MAX);
        *s.last_mut().expect("at least one word") &= tail;
    }

    /// Sets slot `i` to the projection of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars`.
    pub fn write_var(&mut self, i: usize, var: usize) {
        let n = self.n_vars;
        fill_var(self.slot_mut(i), var, n);
    }

    /// Overwrites slot `i` with `pattern` repeated cyclically
    /// (`slot[w] = pattern[w % pattern.len()]`), masking the unused tail
    /// bits of the last word.
    ///
    /// This is the raw-bit entry point of the vector-batch simulator: a
    /// sampled input column (one bit per random vector) is written once
    /// and replicated across every configuration block of the widened
    /// table, where it is *not* the projection of any arena variable.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is empty or `i >= n_slots`.
    pub fn write_pattern(&mut self, i: usize, pattern: &[u64]) {
        assert!(!pattern.is_empty(), "empty pattern");
        let tail = self.tail;
        let s = self.slot_mut(i);
        for (w, dst) in s.iter_mut().enumerate() {
            *dst = pattern[w % pattern.len()];
        }
        *s.last_mut().expect("at least one word") &= tail;
    }

    /// Fused binary AND with per-operand complement flags:
    /// `dst = (a ⊕ ca) ∧ (b ⊕ cb)`.
    ///
    /// This is the simulation workhorse: one pass over the words, no
    /// temporaries, and the unused tail bits restored for free. `a` and
    /// `b` may alias each other (and `dst`, in which case the operand is
    /// read pre-update only when `dst` equals it — pass distinct slots for
    /// the conventional three-address form).
    ///
    /// # Panics
    ///
    /// Panics if a slot index is out of range.
    pub fn and2(&mut self, dst: usize, a: usize, ca: bool, b: usize, cb: bool) {
        let w = self.words_per_slot;
        let ma = if ca { u64::MAX } else { 0 };
        let mb = if cb { u64::MAX } else { 0 };
        let (da, aa, ba) = (dst * w, a * w, b * w);
        if dst > a && dst > b {
            // The common topological case (destination after both
            // operands): disjoint slices let the word loop run as a
            // straight-line 8-wide chunked kernel without per-access
            // bounds checks.
            let (src, rest) = self.words.split_at_mut(da);
            let d = &mut rest[..w];
            let sa = &src[aa..aa + w];
            let sb = &src[ba..ba + w];
            zip3_words(d, sa, sb, |x, y| (x ^ ma) & (y ^ mb));
        } else {
            assert!(da + w <= self.words.len(), "slot {dst} out of range");
            for k in 0..w {
                let x = (self.words[aa + k] ^ ma) & (self.words[ba + k] ^ mb);
                self.words[da + k] = x;
            }
        }
        self.words[da + w - 1] &= self.tail;
    }

    /// In-place complement-aware AND: `dst &= (src ⊕ compl)`.
    ///
    /// # Panics
    ///
    /// Panics if `dst == src` or a slot index is out of range.
    pub fn and_in_place(&mut self, dst: usize, src: usize, compl: bool) {
        let m = if compl { u64::MAX } else { 0 };
        let tail = self.tail;
        let (d, s) = self.pair(dst, src);
        zip2_words(d, s, |x, y| x & (y ^ m));
        *d.last_mut().expect("at least one word") &= tail;
    }

    /// In-place OR: `dst |= src`.
    ///
    /// # Panics
    ///
    /// Panics if `dst == src` or a slot index is out of range.
    pub fn or_in_place(&mut self, dst: usize, src: usize) {
        let (d, s) = self.pair(dst, src);
        zip2_words(d, s, |x, y| x | y);
    }

    /// The value of slot `i` on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `m` is out of range.
    pub fn get(&self, i: usize, m: usize) -> bool {
        assert!(m < (1usize << self.n_vars), "minterm {m} out of range");
        (self.slot(i)[m >> 6] >> (m & 63)) & 1 == 1
    }

    /// Extracts slot `i` as an owned [`TruthTable`].
    pub fn to_table(&self, i: usize) -> TruthTable {
        TruthTable {
            n_vars: self.n_vars,
            words: self.slot(i).to_vec(),
        }
    }

    /// Extracts slot `i`, complemented when `compl` is set.
    pub fn to_table_compl(&self, i: usize, compl: bool) -> TruthTable {
        let mut t = self.to_table(i);
        if compl {
            t.not_assign();
        }
        t
    }
}

impl Default for TtArena {
    /// An empty arena (no slots); [`TtArena::reset`] gives it a shape.
    fn default() -> Self {
        TtArena::new(0, 0)
    }
}

impl fmt::Debug for TtArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TtArena({} slots × {}v)", self.n_slots(), self.n_vars)
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({}v, 0x{})", self.n_vars, self.to_hex())
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        for n in 0..=8 {
            let z = TruthTable::zero(n);
            let o = TruthTable::one(n);
            assert!(z.is_zero());
            assert!(o.is_one());
            assert_eq!(z.count_ones(), 0);
            assert_eq!(o.count_ones(), 1 << n);
            assert_eq!(z.not(), o);
            assert_eq!(o.not(), z);
        }
    }

    #[test]
    fn var_patterns_small() {
        let a = TruthTable::var(0, 2);
        assert_eq!(a.as_word(), 0b1010);
        let b = TruthTable::var(1, 2);
        assert_eq!(b.as_word(), 0b1100);
        let f = a.and(&b);
        assert_eq!(f.as_word(), 0b1000);
    }

    #[test]
    fn var_patterns_large() {
        for n in [7, 9] {
            for v in 0..n {
                let t = TruthTable::var(v, n);
                for m in 0..(1usize << n) {
                    assert_eq!(t.get(m), m & (1 << v) != 0, "n={n} v={v} m={m}");
                }
            }
        }
    }

    #[test]
    fn shannon_expansion() {
        // f = x ? f1 : f0 for every variable.
        let f = TruthTable::from_fn(8, |m| (m * 2654435761usize) & 0x10 != 0);
        for v in 0..8 {
            let x = TruthTable::var(v, 8);
            let f0 = f.cofactor(v, false);
            let f1 = f.cofactor(v, true);
            assert_eq!(x.and(&f1).or(&x.not().and(&f0)), f, "var {v}");
            assert!(!f0.depends_on(v));
            assert!(!f1.depends_on(v));
        }
    }

    #[test]
    fn cofactor_small_tables() {
        // NAND over 2 vars: cofactors are the Fig. 1b plausible set.
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let nand = a.and(&b).not();
        assert_eq!(nand.cofactor(0, false), TruthTable::one(2));
        assert_eq!(nand.cofactor(0, true), b.not());
        assert_eq!(nand.cofactor(1, false), TruthTable::one(2));
        assert_eq!(nand.cofactor(1, true), a.not());
        assert_eq!(
            nand.cofactor(0, true).cofactor(1, true),
            TruthTable::zero(2)
        );
    }

    #[test]
    fn support_and_quantifiers() {
        let f = TruthTable::var(2, 5).xor(&TruthTable::var(4, 5));
        assert_eq!(f.support(), vec![2, 4]);
        assert_eq!(f.support_mask(), 0b10100);
        let (f0, f1) = (f.cofactor(2, false), f.cofactor(2, true));
        assert!(f0.or(&f1).is_one(), "exists");
        assert!(f0.and(&f1).is_zero(), "forall");
    }

    #[test]
    fn permute_roundtrip() {
        let f = TruthTable::from_fn(4, |m| m.count_ones() % 3 == 1);
        let perm = vec![2, 0, 3, 1];
        let g = f.permute(&perm).unwrap();
        let mut inv = vec![0; 4];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        assert_eq!(g.permute(&inv).unwrap(), f);
        // Semantics check: g(y) = f(x) with y[perm[v]] = x[v].
        for m in 0..16 {
            let mut m2 = 0usize;
            for v in 0..4 {
                if m & (1 << v) != 0 {
                    m2 |= 1 << perm[v];
                }
            }
            assert_eq!(f.get(m), g.get(m2));
        }
    }

    #[test]
    fn permute_rejects_non_bijections() {
        let f = TruthTable::one(3);
        assert!(f.permute(&[0, 0, 1]).is_err());
        assert!(f.permute(&[0, 1]).is_err());
        assert!(f.permute(&[0, 1, 3]).is_err());
    }

    #[test]
    fn extend_preserves_semantics() {
        let f = TruthTable::from_fn(3, |m| m == 5 || m == 2);
        for n_new in 3..=9 {
            let g = f.extend(n_new);
            assert_eq!(g.n_vars(), n_new);
            for m in 0..(1usize << n_new) {
                assert_eq!(g.get(m), f.get(m & 7), "n_new={n_new} m={m}");
            }
        }
    }

    #[test]
    fn project_inverse_of_extend() {
        let f = TruthTable::from_fn(4, |m| (m ^ (m >> 1)) & 1 == 1);
        let g = f.extend(9);
        let back = g.project(&[0, 1, 2, 3]);
        assert_eq!(back, f);
    }

    #[test]
    fn project_with_reordering() {
        // f depends on vars 1 and 3 of a 5-var space.
        let f = TruthTable::var(1, 5).and(&TruthTable::var(3, 5).not());
        let p = f.project(&[3, 1]);
        // New var 0 = old var 3, new var 1 = old var 1: p = ¬v0 ∧ v1.
        let expect = TruthTable::var(1, 2).and(&TruthTable::var(0, 2).not());
        assert_eq!(p, expect);
    }

    #[test]
    #[should_panic(expected = "depends on dropped variable")]
    fn project_rejects_lossy_drop() {
        let f = TruthTable::var(0, 3);
        let _ = f.project(&[1, 2]);
    }

    #[test]
    fn zero_variable_tables() {
        let z = TruthTable::zero(0);
        let o = TruthTable::one(0);
        assert_eq!(z.n_minterms(), 1);
        assert!(!z.get(0));
        assert!(o.get(0));
        assert!(o.is_one() && !o.is_zero());
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        for n in [2usize, 5, 8] {
            let f = TruthTable::from_fn(n, |m| (m * 2654435761usize) & 0x8 != 0);
            let mut t = f.clone();
            t.not_assign();
            assert_eq!(t, f.not(), "not n={n}");
            t.not_assign();
            assert_eq!(t, f, "double complement restores, tail bits clean");
        }
    }

    #[test]
    fn arena_ops_match_table_ops() {
        for n in [0usize, 3, 6, 7, 9] {
            let mut arena = TtArena::new(n, 4);
            arena.write_one(0);
            assert!(arena.to_table(0).is_one(), "one n={n}");
            arena.write_zero(0);
            assert!(arena.to_table(0).is_zero(), "zero n={n}");
            if n >= 2 {
                arena.write_var(0, 0);
                arena.write_var(1, n - 1);
                let a = TruthTable::var(0, n);
                let b = TruthTable::var(n - 1, n);
                assert_eq!(arena.to_table(0), a);
                assert_eq!(arena.to_table(1), b);
                for (ca, cb) in [(false, false), (true, false), (false, true), (true, true)] {
                    arena.and2(2, 0, ca, 1, cb);
                    let want = (if ca { a.not() } else { a.clone() }).and(&if cb {
                        b.not()
                    } else {
                        b.clone()
                    });
                    assert_eq!(arena.to_table(2), want, "and2 n={n} ca={ca} cb={cb}");
                    assert_eq!(arena.to_table_compl(2, true), want.not());
                }
                // In-place ops against slot 0.
                arena.write_one(3);
                arena.and_in_place(3, 0, true);
                assert_eq!(arena.to_table(3), a.not(), "and_in_place");
                arena.or_in_place(3, 0);
                assert!(arena.to_table(3).is_one(), "or_in_place");
                for m in 0..(1usize << n) {
                    assert_eq!(arena.get(1, m), b.get(m), "get n={n} m={m}");
                }
            }
        }
    }

    #[test]
    fn arena_single_allocation_layout() {
        let arena = TtArena::new(9, 10);
        assert_eq!(arena.n_slots(), 10);
        assert_eq!(arena.words_per_slot(), 8);
        assert_eq!(arena.n_vars(), 9);
        assert_eq!(arena.slot(3).len(), 8);
    }

    #[test]
    fn from_word_masks_excess_bits() {
        let t = TruthTable::from_word(2, u64::MAX).unwrap();
        assert!(t.is_one());
        assert!(TruthTable::from_word(7, 0).is_err());
    }
}
