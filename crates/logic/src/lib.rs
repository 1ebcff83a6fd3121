//! Boolean-function foundations for the MVF obfuscation toolchain.
//!
//! This crate provides the function-level substrate used by every other
//! crate in the workspace:
//!
//! * [`TruthTable`] — bit-packed truth tables over up to 16 variables with
//!   the Boolean operations, cofactoring, support computation and
//!   variable permutation.
//! * [`TtArena`] — a flat arena packing many equally-sized tables into one
//!   contiguous allocation, with fused complement-aware operations between
//!   slots; the backing store of allocation-free circuit simulation.
//! * [`Cube`] / [`Sop`] — cube (product term) and sum-of-products covers.
//! * [`isop`] — the Minato–Morreale irredundant sum-of-products algorithm,
//!   used by the refactoring pass of the synthesis engine.
//! * [`word`] — the one-word kernels (variable and tail masks, variable
//!   flip, cofactor, permutation, support, projection) behind every
//!   function of at most six variables: cut rewriting, NPN
//!   canonicalization, the camouflage and lock-library closures and the
//!   attack's orbit keys; and the SplitMix64 mixer of every seeded stream.
//! * [`npn`] — NPN canonical forms, used by the cut-rewriting pass, and
//!   the lazy enumerators of the interpretation group the adversary walks.
//! * [`VectorFunction`] — multi-output Boolean functions (e.g. an S-box),
//!   with input/output pin permutation, the degree of freedom exploited by
//!   Phase II of the paper.
//!
//! # Example
//!
//! ```
//! use mvf_logic::TruthTable;
//!
//! // f(a, b) = a AND b
//! let a = TruthTable::var(0, 2);
//! let b = TruthTable::var(1, 2);
//! let f = a.and(&b);
//! assert_eq!(f.count_ones(), 1);
//! // Positive cofactor with respect to b is just a.
//! assert_eq!(f.cofactor(1, true), TruthTable::var(0, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cube;
mod error;
mod isop;
pub mod npn;
mod tt;
mod vecfunc;
pub mod word;

pub use cube::{Cube, Sop};
pub use error::LogicError;
pub use isop::isop;
pub use npn::{IoInterpretation, NegationMasks, NpnTransform};
pub use tt::{TruthTable, TtArena};
pub use vecfunc::VectorFunction;

/// Maximum number of variables supported by [`TruthTable`].
pub const MAX_VARS: usize = 16;
