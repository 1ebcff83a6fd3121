//! **MVF** — design automation for obfuscated circuits with multiple
//! viable functions.
//!
//! A from-scratch Rust reproduction of Keshavarz, Paar and Holcomb,
//! *"Design Automation for Obfuscated Circuits with Multiple Viable
//! Functions"* (DATE 2017). Given a set of viable functions the adversary
//! already suspects, the flow produces a camouflaged circuit in which
//! **every** viable function remains plausible, at minimum area:
//!
//! 1. **Phase I** ([`mvf_merge`]): merge all viable functions into one
//!    circuit behind select-driven output multiplexers and synthesize it
//!    ([`mvf_aig`]'s `rewrite/refactor/balance` script).
//! 2. **Phase II** ([`mvf_ga`]): optimize each function's input/output pin
//!    assignment with a pluggable [`SearchStrategy`] — the paper's genetic
//!    algorithm ([`mvf_ga::Ga`]), random search or hill climbing — whose
//!    fitness is the mapped gate-equivalent area, evaluated through
//!    reusable per-worker [`EvalContext`]s.
//! 3. **Phase III** ([`mvf_techmap::map_camouflage`]): tree-cover the
//!    synthesized circuit with camouflaged cells so the select inputs are
//!    eliminated while all viable functions stay plausible, then validate
//!    exhaustively ([`mvf_sim`]).
//!
//! # Quickstart
//!
//! Flows are assembled with [`Flow::builder`]; libraries, script, mapper
//! options and the search strategy are all pluggable:
//!
//! ```
//! use mvf::Flow;
//! use mvf_ga::GaConfig;
//! use mvf_sboxes::optimal_sboxes;
//!
//! let functions = optimal_sboxes()[..2].to_vec();
//! let flow = Flow::builder()
//!     .ga(GaConfig { population: 8, generations: 3, ..GaConfig::default() })
//!     .build();
//! let result = flow.run(&functions)?;
//! assert!(result.mapped_area_ge > 0.0);
//! assert!(result.mapped_area_ge <= result.synthesized_area_ge);
//! assert_eq!(result.failed_evaluations, 0);
//! # Ok::<(), mvf::MvfError>(())
//! ```
//!
//! # Batched workloads
//!
//! A fleet of obfuscation jobs runs as one batch with deterministic
//! per-workload seeds:
//!
//! ```
//! use mvf::{Flow, Workload};
//! use mvf_ga::GaConfig;
//! use mvf_sboxes::optimal_sboxes;
//!
//! let flow = Flow::builder()
//!     .ga(GaConfig { population: 4, generations: 1, ..GaConfig::default() })
//!     .validate(false)
//!     .build();
//! let sboxes = optimal_sboxes();
//! let workloads: Vec<Workload> = (0..2)
//!     .map(|i| Workload::new(format!("pair-{i}"), sboxes[2 * i..2 * i + 2].to_vec()))
//!     .collect();
//! let reports = flow.run_many(&workloads);
//! assert!(reports.iter().all(|r| r.outcome.is_ok()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod eval;
mod flow;
mod report;
mod workload;

pub use error::MvfError;
pub use eval::{random_assignment, EvalContext, PinObjective};
pub use flow::{Flow, FlowBuilder, FlowConfig, FlowResult, RandomBaseline};
pub use report::{Fig4Data, Table1, Table1Row};
pub use workload::{PlausibilityVerdict, Workload, WorkloadReport};

// The strategy vocabulary is part of the flow API surface.
pub use mvf_ga::{Ga, HillClimb, Objective, RandomSearch, SearchOutcome, SearchStrategy};

// The obfuscation-scheme vocabulary likewise: which family a flow emits,
// how a locking flow is keyed, and the seam the attack layer consumes.
pub use mvf_obfuscate::{
    lock_library, LockError, LockGate, LockOptions, LockSite, LockedNetlist, ObfuscationSpace,
    SchemeKind,
};

// Re-export the workspace layers under one roof for downstream users.
pub use mvf_aig as aig;
pub use mvf_cells as cells;
pub use mvf_ga as ga;
pub use mvf_logic as logic;
pub use mvf_merge as merge;
pub use mvf_netlist as netlist;
pub use mvf_obfuscate as obfuscate;
pub use mvf_sboxes as sboxes;
pub use mvf_sim as sim;
pub use mvf_techmap as techmap;
