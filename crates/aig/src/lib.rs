//! An and-inverter-graph (AIG) logic-synthesis engine.
//!
//! This crate is the workspace's substitute for the ABC synthesis system
//! the paper drives with a script of `rewrite`, `refactor` and `balance`
//! commands. It provides:
//!
//! * [`Aig`] — an and-inverter graph with structural hashing and
//!   complemented edges, the classical subject data structure.
//! * [`build`] — construction of factored logic from truth tables
//!   (ISOP + weak-division factoring, Shannon decomposition fallback).
//! * [`cuts`] — k-feasible cut enumeration with cut functions.
//! * [`rewrite`] — DAG-aware cut rewriting over NPN classes ([`rewrite::rewrite`]).
//! * [`refactor`] — larger-cone refactoring through ISOP ([`refactor::refactor`]).
//! * [`balance`] — AND-tree balancing for depth ([`balance::balance`]).
//! * [`collapse`] — whole-circuit resynthesis ([`collapse::collapse`]).
//! * [`Script`] — an ABC-style synthesis script runner with equivalence
//!   checking after every pass.
//!
//! # Example
//!
//! ```
//! use mvf_aig::{Aig, Script};
//!
//! // Build (a·b)·(a·c) + redundant logic, then optimize.
//! let mut aig = Aig::new(3);
//! let (a, b, c) = (aig.input(0), aig.input(1), aig.input(2));
//! let ab = aig.and(a, b);
//! let ac = aig.and(a, c);
//! let f = aig.and(ab, ac);
//! aig.add_output("f", f);
//! let optimized = Script::standard().run(&aig);
//! assert!(optimized.n_ands() <= aig.n_ands());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aig;
pub mod balance;
pub mod build;
pub mod collapse;
pub mod cuts;
pub mod refactor;
pub mod rewrite;
mod script;
mod simulate;

pub use aig::{Aig, Lit, NodeId};
pub use script::{Pass, Script, SynthScratch};

/// A deterministic random graph for tests: ANDs of two earlier literals
/// (the second complemented at random) drawn by an LCG from `seed` until
/// the graph holds `n_ands` AND nodes; the last one is output `f`.
#[cfg(test)]
pub(crate) fn random_aig(n_inputs: usize, n_ands: usize, seed: u64) -> Aig {
    let mut g = Aig::new(n_inputs);
    let mut lits: Vec<Lit> = (0..n_inputs).map(|i| g.input(i)).collect();
    let mut state = seed;
    let mut step = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    while g.n_ands() < n_ands {
        let i = (step() >> 16) as usize % lits.len();
        let j = (step() >> 16) as usize % lits.len();
        let b = lits[j].xor_sign(step() & 1 == 1);
        let f = g.and(lits[i], b);
        lits.push(f);
    }
    g.add_output("f", *lits.last().expect("non-empty"));
    g
}
