//! A CDCL SAT solver and circuit-to-CNF encoding.
//!
//! This is the decision-procedure substrate for the adversary model of the
//! paper's §I: deciding whether a candidate function is plausible for a
//! camouflaged netlist reduces to satisfiability over the doping-
//! configuration variables (see the `mvf-attack` crate). The solver is a
//! compact conflict-driven clause-learning implementation with two-watched
//! literals, first-UIP learning, VSIDS-style activities, EMA-driven
//! stabilizing restarts and tiered learnt-clause reduction.
//!
//! # Example
//!
//! ```
//! use mvf_sat::{Lit, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert!(s.solve());
//! assert_eq!(s.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
mod reduce;
mod restart;
mod solver;
mod tseitin;

pub use cnf::{Lit, Var};
pub use solver::{SimplifyStats, Solver};
pub use tseitin::{encode_netlist, CircuitCnf};
