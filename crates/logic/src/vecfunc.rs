use std::fmt;

use crate::{LogicError, TruthTable};

/// A multi-output Boolean function — e.g. a 4→4 S-box.
///
/// This is the unit of "viable function" in the paper: the adversary knows
/// a set of `VectorFunction`s the obfuscated block might implement, and the
/// designer merges them into one circuit. Phase II's pin-assignment freedom
/// is exposed here as [`VectorFunction::permute_inputs`] and
/// [`VectorFunction::permute_outputs`].
///
/// # Example
///
/// ```
/// use mvf_logic::VectorFunction;
///
/// // A 2-bit swap: (a, b) -> (b, a).
/// let f = VectorFunction::from_lookup_table(2, 2, &[0b00, 0b10, 0b01, 0b11])?;
/// assert_eq!(f.eval(0b01), 0b10);
/// assert!(f.is_bijection());
/// # Ok::<(), mvf_logic::LogicError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct VectorFunction {
    n_inputs: usize,
    outputs: Vec<TruthTable>,
}

impl VectorFunction {
    /// Builds a function from per-output truth tables.
    ///
    /// # Panics
    ///
    /// Panics if any table's arity differs from `n_inputs`.
    pub fn new(n_inputs: usize, outputs: Vec<TruthTable>) -> Self {
        for t in &outputs {
            assert_eq!(t.n_vars(), n_inputs, "output arity mismatch");
        }
        VectorFunction { n_inputs, outputs }
    }

    /// Builds a function from a lookup table: `table[m]` is the output word
    /// for input minterm `m`, with output bit `i` in bit `i`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::BadTableLength`] if `table.len() != 2^n_inputs`,
    /// [`LogicError::TooManyVars`] if `n_inputs` exceeds the supported
    /// maximum and [`LogicError::TooManyOutputs`] if `n_outputs` exceeds
    /// the 16 bits of a row.
    pub fn from_lookup_table(
        n_inputs: usize,
        n_outputs: usize,
        table: &[u16],
    ) -> Result<Self, LogicError> {
        if n_inputs > crate::MAX_VARS {
            return Err(LogicError::TooManyVars(n_inputs));
        }
        if n_outputs > u16::BITS as usize {
            return Err(LogicError::TooManyOutputs(n_outputs));
        }
        if table.len() != 1 << n_inputs {
            return Err(LogicError::BadTableLength(table.len()));
        }
        let outputs = (0..n_outputs)
            .map(|bit| TruthTable::from_fn(n_inputs, |m| (table[m] >> bit) & 1 == 1))
            .collect();
        Ok(VectorFunction { n_inputs, outputs })
    }

    /// Number of inputs.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of outputs.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The truth table of output `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn output(&self, i: usize) -> &TruthTable {
        &self.outputs[i]
    }

    /// All output tables, in order.
    pub fn outputs(&self) -> &[TruthTable] {
        &self.outputs
    }

    /// Evaluates the function: returns the output word for input minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^n_inputs`.
    pub fn eval(&self, m: usize) -> u16 {
        let mut out = 0u16;
        for (i, t) in self.outputs.iter().enumerate() {
            if t.get(m) {
                out |= 1 << i;
            }
        }
        out
    }

    /// The function's lookup table (`2^n_inputs` output words).
    pub fn to_lookup_table(&self) -> Vec<u16> {
        (0..1usize << self.n_inputs).map(|m| self.eval(m)).collect()
    }

    /// `true` iff `n_inputs == n_outputs` and the function is a bijection.
    pub fn is_bijection(&self) -> bool {
        if self.n_inputs != self.outputs.len() {
            return false;
        }
        let mut seen = vec![false; 1 << self.n_inputs];
        for m in 0..(1usize << self.n_inputs) {
            let y = self.eval(m) as usize;
            if seen[y] {
                return false;
            }
            seen[y] = true;
        }
        true
    }

    /// Applies an input-pin permutation: input `v` of `self` is driven by
    /// wire `perm[v]` of the permuted function, i.e. the new function `g`
    /// satisfies `g(x) = f(x')` with `x'[v] = x[perm[v]]`.
    ///
    /// This is the Phase-II genotype's input half.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::BadPermutation`] if `perm` is not a
    /// permutation of `0..n_inputs`.
    pub fn permute_inputs(&self, perm: &[usize]) -> Result<Self, LogicError> {
        let outputs = self
            .outputs
            .iter()
            .map(|t| t.permute(perm))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(VectorFunction {
            n_inputs: self.n_inputs,
            outputs,
        })
    }

    /// [`VectorFunction::permute_inputs`] into a caller-provided scratch
    /// function, reusing its table storage. `out` is reshaped to this
    /// function's arity; after warm-up the call performs no allocation —
    /// the step that makes permutation-orbit walks (the any-IO
    /// plausibility sweep) allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::BadPermutation`] if `perm` is not a
    /// permutation of `0..n_inputs`; `out` is unspecified (but valid) on
    /// error.
    pub fn permute_inputs_into(
        &self,
        perm: &[usize],
        out: &mut VectorFunction,
    ) -> Result<(), LogicError> {
        out.n_inputs = self.n_inputs;
        out.outputs
            .resize_with(self.outputs.len(), || TruthTable::zero(self.n_inputs));
        for (src, dst) in self.outputs.iter().zip(&mut out.outputs) {
            src.permute_into(perm, dst)?;
        }
        Ok(())
    }

    /// Applies input-polarity flips: the new function `g` satisfies
    /// `g(x) = f(x ⊕ mask)` — each set bit of `mask` names an input read
    /// through an inverter.
    ///
    /// Together with [`VectorFunction::permute_inputs`] this is the input
    /// half of an NPN interpretation. The two commute up to a mask
    /// translation: negating before permuting with mask `a` equals
    /// permuting first and negating with `a'` where `a'` has bit
    /// `perm[v]` set iff `a` has bit `v` set.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a bit at or above `n_inputs`.
    pub fn negate_inputs(&self, mask: u32) -> Self {
        let mut out = self.clone();
        out.negate_inputs_assign(mask);
        out
    }

    /// In-place form of [`VectorFunction::negate_inputs`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a bit at or above `n_inputs`.
    pub fn negate_inputs_assign(&mut self, mask: u32) {
        assert!(
            u64::from(mask) >> self.n_inputs == 0,
            "negation mask {mask:#b} exceeds {} inputs",
            self.n_inputs
        );
        let mut m = mask;
        while m != 0 {
            let v = m.trailing_zeros() as usize;
            self.negate_input_assign(v);
            m &= m - 1;
        }
    }

    /// Flips the polarity of a single input in place: `f(x) ← f(x ⊕ e_var)`.
    /// One Gray-code step of an NPN orbit walk.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_inputs`.
    pub fn negate_input_assign(&mut self, var: usize) {
        for t in &mut self.outputs {
            t.flip_var_assign(var);
        }
    }

    /// Applies output-polarity flips: output `i` is complemented iff bit
    /// `i` of `mask` is set. The output half of an NPN interpretation,
    /// applied *after* any output permutation.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a bit at or above `n_outputs`.
    pub fn negate_outputs(&self, mask: u32) -> Self {
        let mut out = self.clone();
        out.negate_outputs_assign(mask);
        out
    }

    /// In-place form of [`VectorFunction::negate_outputs`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a bit at or above `n_outputs`.
    pub fn negate_outputs_assign(&mut self, mask: u32) {
        assert!(
            (u64::from(mask)) >> self.outputs.len() == 0,
            "negation mask {mask:#b} exceeds {} outputs",
            self.outputs.len()
        );
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            self.negate_output_assign(i);
            m &= m - 1;
        }
    }

    /// Complements a single output in place. One Gray-code step of an NPN
    /// orbit walk.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_outputs`.
    pub fn negate_output_assign(&mut self, i: usize) {
        self.outputs[i].not_assign();
    }

    /// Applies an output-pin permutation: output `i` of `self` appears at
    /// position `perm[i]` of the result.
    ///
    /// This is the Phase-II genotype's output half.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::BadPermutation`] if `perm` is not a
    /// permutation of `0..n_outputs`.
    pub fn permute_outputs(&self, perm: &[usize]) -> Result<Self, LogicError> {
        let n = self.outputs.len();
        if perm.len() != n {
            return Err(LogicError::BadPermutation);
        }
        let mut new_outputs = vec![None; n];
        for (i, &p) in perm.iter().enumerate() {
            if p >= n || new_outputs[p].is_some() {
                return Err(LogicError::BadPermutation);
            }
            new_outputs[p] = Some(self.outputs[i].clone());
        }
        Ok(VectorFunction {
            n_inputs: self.n_inputs,
            outputs: new_outputs
                .into_iter()
                .map(|o| o.expect("filled"))
                .collect(),
        })
    }

    /// [`VectorFunction::permute_outputs`] into a caller-provided scratch
    /// function, reusing its table storage (allocation-free once warm).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::BadPermutation`] if `perm` is not a
    /// permutation of `0..n_outputs`; `out` is unspecified (but valid) on
    /// error.
    pub fn permute_outputs_into(
        &self,
        perm: &[usize],
        out: &mut VectorFunction,
    ) -> Result<(), LogicError> {
        let n = self.outputs.len();
        if perm.len() != n {
            return Err(LogicError::BadPermutation);
        }
        let mut seen = 0u64;
        for &p in perm {
            if p >= n || seen & (1 << p) != 0 {
                return Err(LogicError::BadPermutation);
            }
            seen |= 1 << p;
        }
        out.n_inputs = self.n_inputs;
        out.outputs
            .resize_with(n, || TruthTable::zero(self.n_inputs));
        for (i, &p) in perm.iter().enumerate() {
            out.outputs[p].copy_from(&self.outputs[i]);
        }
        Ok(())
    }
}

impl fmt::Debug for VectorFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VectorFunction({}→{})",
            self.n_inputs,
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn present_sbox() -> VectorFunction {
        const S: [u16; 16] = [
            0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
        ];
        VectorFunction::from_lookup_table(4, 4, &S).unwrap()
    }

    #[test]
    fn lookup_roundtrip() {
        let f = present_sbox();
        assert_eq!(f.eval(0), 0xC);
        assert_eq!(f.eval(0xF), 0x2);
        assert_eq!(
            f.to_lookup_table(),
            vec![0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2]
        );
    }

    #[test]
    fn bijection_detection() {
        assert!(present_sbox().is_bijection());
        let collapsed = VectorFunction::from_lookup_table(2, 2, &[0, 0, 1, 2]).unwrap();
        assert!(!collapsed.is_bijection());
        let non_square = VectorFunction::from_lookup_table(2, 1, &[0, 1, 1, 0]).unwrap();
        assert!(!non_square.is_bijection());
    }

    #[test]
    fn input_permutation_semantics() {
        let f = present_sbox();
        let perm = vec![2, 0, 3, 1];
        let g = f.permute_inputs(&perm).unwrap();
        for m in 0..16usize {
            // g's wire perm[v] carries f's input v.
            let mut m2 = 0usize;
            for v in 0..4 {
                if m & (1 << v) != 0 {
                    m2 |= 1 << perm[v];
                }
            }
            assert_eq!(f.eval(m), g.eval(m2));
        }
    }

    #[test]
    fn output_permutation_semantics() {
        let f = present_sbox();
        let perm = vec![3, 1, 0, 2];
        let g = f.permute_outputs(&perm).unwrap();
        for m in 0..16usize {
            let y = f.eval(m);
            let z = g.eval(m);
            for i in 0..4 {
                assert_eq!((y >> i) & 1, (z >> perm[i]) & 1);
            }
        }
    }

    #[test]
    fn permutation_errors() {
        let f = present_sbox();
        assert!(f.permute_inputs(&[0, 0, 1, 2]).is_err());
        assert!(f.permute_outputs(&[0, 1]).is_err());
    }

    #[test]
    fn into_variants_match_allocating_permutations() {
        let f = present_sbox();
        // One scratch pair reused across every orbit element, including
        // after an error left it in an unspecified state.
        let mut scratch_in = VectorFunction::from_lookup_table(1, 1, &[0, 1]).unwrap();
        let mut scratch_out = scratch_in.clone();
        assert!(f
            .permute_inputs_into(&[0, 0, 1, 2], &mut scratch_in)
            .is_err());
        assert!(f.permute_outputs_into(&[0, 1], &mut scratch_out).is_err());
        for perm in [[0, 1, 2, 3], [2, 0, 3, 1], [3, 2, 1, 0], [1, 3, 0, 2]] {
            f.permute_inputs_into(&perm, &mut scratch_in).unwrap();
            assert_eq!(scratch_in, f.permute_inputs(&perm).unwrap());
            f.permute_outputs_into(&perm, &mut scratch_out).unwrap();
            assert_eq!(scratch_out, f.permute_outputs(&perm).unwrap());
        }
    }

    #[test]
    fn negation_semantics() {
        let f = present_sbox();
        let g = f.negate_inputs(0b0101);
        for m in 0..16usize {
            assert_eq!(g.eval(m), f.eval(m ^ 0b0101));
        }
        let h = f.negate_outputs(0b1010);
        for m in 0..16usize {
            assert_eq!(h.eval(m), f.eval(m) ^ 0b1010);
        }
        // Gray-step forms compose to the mask forms.
        let mut step = f.clone();
        step.negate_input_assign(0);
        step.negate_input_assign(2);
        assert_eq!(step, g);
        let mut ostep = f.clone();
        ostep.negate_output_assign(1);
        ostep.negate_output_assign(3);
        assert_eq!(ostep, h);
        // Negate-then-permute equals permute-then-negate with the mask
        // translated through the permutation.
        let perm = [2, 0, 3, 1];
        let a = 0b0110u32;
        let mut translated = 0u32;
        for v in 0..4 {
            if a & (1 << v) != 0 {
                translated |= 1 << perm[v];
            }
        }
        assert_eq!(
            f.negate_inputs(a).permute_inputs(&perm).unwrap(),
            f.permute_inputs(&perm).unwrap().negate_inputs(translated)
        );
    }

    #[test]
    fn bad_table_length_rejected() {
        assert!(matches!(
            VectorFunction::from_lookup_table(3, 2, &[0; 7]),
            Err(LogicError::BadTableLength(7))
        ));
    }

    #[test]
    fn outputs_beyond_the_row_width_rejected() {
        // Every output bit of a 16-bit row is usable...
        let full = VectorFunction::from_lookup_table(1, 16, &[0x8001, 0x7FFE]).unwrap();
        assert_eq!(full.eval(0), 0x8001);
        assert_eq!(full.eval(1), 0x7FFE);
        // ...but a 17th output would have to invent bits the rows lack.
        assert_eq!(
            VectorFunction::from_lookup_table(1, 17, &[0, 1]),
            Err(LogicError::TooManyOutputs(17))
        );
        assert_eq!(
            VectorFunction::from_lookup_table(1, 1 << 40, &[0, 1]),
            Err(LogicError::TooManyOutputs(1 << 40))
        );
    }
}
