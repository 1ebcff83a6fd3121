//! Pluggable obfuscation schemes behind one seam.
//!
//! The paper's adversary model — *is some configuration of the obfuscated
//! netlist consistent with the observed I/O?* — is not specific to
//! per-cell camouflage. Any obfuscation family that reduces to **discrete
//! per-site choice sets** (one independent choice per obfuscated cell,
//! each choice a concrete truth table over the cell's pins) presents the
//! attack stack with exactly the same shape: a configuration odometer for
//! the screen, selector variables for the SAT encoding, a
//! word-parallel vector-evaluation hook, and a fingerprint contribution
//! for session keying.
//!
//! [`ObfuscationSpace`] is that seam. It is a cheap borrowed view — a
//! scheme tag plus the two libraries the netlist indexes — so every
//! existing `(netlist, lib, camo)` call site can wrap itself in a space
//! for free, and the attack layer (`mvf-attack`), the flow (`mvf`) and
//! the audit service (`mvf-serve`) contain **zero scheme-specific code**.
//!
//! Two families ship today:
//!
//! * **Per-cell camouflage** ([`SchemeKind::Camouflage`]) — the paper's
//!   doping-programmable look-alike cells; choice sets are cofactor
//!   closures ([`mvf_cells::CamoLibrary::from_library`]).
//! * **Logic locking** ([`SchemeKind::Locking`]) — XOR/XNOR and MUX key
//!   gates inserted by the deterministic keyed inserter
//!   ([`lock_netlist`]); choice sets are the two realizable functions of
//!   a key gate (`{A, ¬A}` for an XOR/XNOR site, the two data
//!   projections for a MUX site), carried by look-alike cells in a
//!   dedicated lock library ([`lock_library`]).
//!
//! Both flow through screen-then-solve, NPN sweeps, class sharing,
//! sessions and kill/resume because the machinery only ever sees the
//! per-site choice product.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lock;
mod space;

pub use lock::{
    lock_library, lock_merged_netlist, lock_netlist, LockError, LockGate, LockOptions, LockSite,
    LockedNetlist, MKEY_NAME, XKEY_NAME,
};
pub use space::{ConfigOdometer, ObfuscationSpace, SchemeKind};
