//! ABC-style synthesis scripts.
//!
//! The paper synthesizes merged circuits with "our own script comprising
//! multiple refactor, rewrite and balance commands" (§III-A). [`Script`]
//! reproduces that: an ordered list of passes iterated until the AND count
//! stops improving or a round limit is hit, with exhaustive equivalence
//! verification after every pass (up to [`mvf_logic::MAX_VARS`] inputs).

use crate::cuts::{CutScratch, CutSet};
use crate::rewrite::{rewrite_with_cache, RewriteCache};
use crate::{balance, collapse, refactor, Aig};

/// Reusable synthesis state threaded through [`Script::run_with`].
///
/// Two kinds of state live here:
///
/// * **Semantic caches** — the NPN-canonicalization and recipe caches of
///   the rewriting pass. These are keyed by truth table (arity plus its
///   one `u64` word, since cut functions have at most 4 variables), so
///   they are valid across *different* circuits: a fitness loop that
///   synthesizes thousands of related circuits hits the same 4-variable
///   classes over and over and skips the canonicalization and factoring
///   work entirely. The rewriting pass computes each cut's word, support
///   and projection on that one word and looks it up through a cheap
///   integer hasher; a `TruthTable` is built only on a miss. Lookups
///   return borrows of flat per-entry storage.
/// * **Scratch buffers** — the flat CSR cut store ([`CutSet`]) and the
///   cut-function evaluation arena, whose allocations are retained across
///   passes and across calls. (Each rewriting or refactoring pass also
///   reuses one set of candidate buffers, for the replacement probe and
///   the freed-node count, across all of its cuts.)
///
/// Reuse never changes results: cached entries are exactly what
/// recomputation would produce, so `run_with` is bit-identical to
/// [`Script::run`].
#[derive(Default)]
pub struct SynthScratch {
    rewrite: RewriteCache,
    cuts: CutSet,
    eval: CutScratch,
}

impl SynthScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        SynthScratch::default()
    }
}

impl std::fmt::Debug for SynthScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthScratch").finish_non_exhaustive()
    }
}

/// One synthesis pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Cut rewriting over NPN classes ([`crate::rewrite::rewrite`]).
    Rewrite,
    /// Cone refactoring through ISOP ([`crate::refactor::refactor`]).
    Refactor,
    /// AND-tree balancing ([`crate::balance::balance`]).
    Balance,
    /// Whole-circuit collapse and resynthesis ([`crate::collapse::collapse`]).
    Collapse,
}

/// An ordered synthesis script with a round limit.
///
/// # Example
///
/// ```
/// use mvf_aig::{Aig, Pass, Script};
///
/// let script = Script::new(vec![Pass::Rewrite, Pass::Balance], 2);
/// let mut aig = Aig::new(2);
/// let (a, b) = (aig.input(0), aig.input(1));
/// let f = aig.xor(a, b);
/// aig.add_output("f", f);
/// let out = script.run(&aig);
/// assert!(out.equivalent(&aig));
/// ```
#[derive(Debug, Clone)]
pub struct Script {
    passes: Vec<Pass>,
    max_rounds: usize,
}

impl Script {
    /// A script with explicit passes, iterated up to `max_rounds` times.
    pub fn new(passes: Vec<Pass>, max_rounds: usize) -> Self {
        Script { passes, max_rounds }
    }

    /// The paper-style default script:
    /// `collapse; rewrite; refactor; balance` iterated up to 4 rounds.
    pub fn standard() -> Self {
        Script::new(
            vec![Pass::Collapse, Pass::Rewrite, Pass::Refactor, Pass::Balance],
            4,
        )
    }

    /// A cheaper script for inner-loop fitness evaluation (2 rounds of
    /// `rewrite; balance`).
    pub fn fast() -> Self {
        Script::new(vec![Pass::Rewrite, Pass::Balance], 2)
    }

    /// The configured passes.
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// Runs the script and returns the optimized graph.
    ///
    /// # Panics
    ///
    /// Panics if a pass changes the circuit function (this would be an
    /// engine bug). Every pass is checked exhaustively on circuits of up
    /// to [`mvf_logic::MAX_VARS`] inputs.
    pub fn run(&self, aig: &Aig) -> Aig {
        self.run_with(aig, &mut SynthScratch::default())
    }

    /// Runs the script with a caller-owned [`SynthScratch`], reusing its
    /// caches and buffers. Bit-identical to [`Script::run`]; markedly
    /// faster when many circuits are synthesized in a loop (fitness
    /// evaluation).
    ///
    /// # Panics
    ///
    /// Same as [`Script::run`].
    pub fn run_with(&self, aig: &Aig, scratch: &mut SynthScratch) -> Aig {
        let mut cur = aig.compact();
        let reference = if aig.n_inputs() <= mvf_logic::MAX_VARS {
            Some(cur.output_functions())
        } else {
            None
        };
        for _ in 0..self.max_rounds {
            let before = cur.n_ands();
            for pass in &self.passes {
                cur = match pass {
                    Pass::Rewrite => rewrite_with_cache(
                        &cur,
                        &mut scratch.rewrite,
                        &mut scratch.cuts,
                        &mut scratch.eval,
                    ),
                    Pass::Refactor => refactor::refactor_with_scratch(
                        &cur,
                        refactor::DEFAULT_CUT_WIDTH,
                        refactor::DEFAULT_MAX_CUTS,
                        &mut scratch.cuts,
                        &mut scratch.eval,
                    ),
                    Pass::Balance => balance::balance(&cur),
                    Pass::Collapse => collapse::collapse(&cur),
                };
                if let Some(reference) = &reference {
                    assert_eq!(
                        &cur.output_functions(),
                        reference,
                        "synthesis pass {pass:?} changed the circuit function"
                    );
                }
            }
            if cur.n_ands() >= before {
                break;
            }
        }
        cur
    }
}

impl Default for Script {
    fn default() -> Self {
        Script::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, Lit};
    use mvf_logic::TruthTable;

    #[test]
    fn standard_script_shrinks_naive_sbox_logic() {
        // Build the PRESENT S-box naively (minterm by minterm) and check
        // the script compresses it substantially.
        const S: [usize; 16] = [
            0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
        ];
        let mut aig = Aig::new(4);
        let inputs: Vec<Lit> = (0..4).map(|i| aig.input(i)).collect();
        for bit in 0..4 {
            // Sum of minterms, deliberately unoptimized.
            let mut terms = Vec::new();
            for m in 0..16usize {
                if (S[m] >> bit) & 1 == 1 {
                    let lits: Vec<Lit> = (0..4)
                        .map(|v| inputs[v].xor_sign(m & (1 << v) == 0))
                        .collect();
                    let cube = aig.and_many(&lits);
                    terms.push(cube);
                }
            }
            let f = aig.or_many(&terms);
            aig.add_output(format!("o{bit}"), f);
        }
        let before = aig.n_ands();
        let out = Script::standard().run(&aig);
        assert!(out.equivalent(&aig));
        assert!(
            out.n_ands() < before && out.n_ands() <= 40,
            "expected a real shrink: {before} -> {}",
            out.n_ands()
        );
    }

    #[test]
    fn fast_script_is_sound() {
        let tt = TruthTable::from_fn(6, |m| (m * 37 + 11) % 7 < 3);
        let mut aig = Aig::new(6);
        let leaves: Vec<Lit> = (0..6).map(|i| aig.input(i)).collect();
        let f = build::tt_to_aig(&mut aig, &tt, &leaves);
        aig.add_output("f", f);
        let out = Script::fast().run(&aig);
        assert_eq!(out.output_functions()[0], tt);
    }

    #[test]
    fn script_preserves_io_names() {
        let mut aig = Aig::new(2);
        aig.set_input_name(0, "sel");
        aig.set_input_name(1, "data");
        let f = {
            let s = aig.input(0);
            let d = aig.input(1);
            aig.and(s, d)
        };
        aig.add_output("out", f);
        let out = Script::standard().run(&aig);
        assert_eq!(out.input_name(0), "sel");
        assert_eq!(out.input_name(1), "data");
        assert_eq!(out.outputs()[0].0, "out");
    }

    #[test]
    fn empty_script_is_identity_modulo_compaction() {
        let mut aig = Aig::new(2);
        let a = aig.input(0);
        let b = aig.input(1);
        let f = aig.and(a, b);
        let _dangling = aig.and(a, !b);
        aig.add_output("f", f);
        let out = Script::new(vec![], 1).run(&aig);
        assert!(out.equivalent(&aig));
        assert_eq!(out.n_ands(), 1, "compaction removes dangling nodes");
    }
}
