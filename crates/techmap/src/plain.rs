//! Ordinary (non-camouflaged) tree-covering technology mapping.
//!
//! Maps an AND2/INV subject netlist onto the full standard library to
//! minimize GE area. This is the area oracle of Phase II: the paper uses
//! the area ABC reports after mapping as the genetic algorithm's fitness.

use mvf_cells::Library;
use mvf_logic::TruthTable;
use mvf_netlist::{CellRef, Netlist};

use crate::engine::{Engine, EngineScratch, MapError, Match, Subtree};

/// Reusable matcher state for [`map_standard_with`].
///
/// Matching itself needs no scratch: each candidate subtree is one lookup
/// in the library's pin-permutation index
/// ([`Library::match_function`]). What remains is the covering engine's
/// `EngineScratch` (flat leaf-set arena and `TtArena`-backed cone
/// evaluation). Sharing one `MatchScratch` across
/// many mapping calls — the Phase-II fitness loop — removes the mapper's
/// transient allocations without changing any mapping decision.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// The covering engine's enumeration and cone-evaluation arenas.
    pub(crate) engine: EngineScratch,
}

/// The standard-cell cover of a select-free subtree function `f`: the
/// library index's cell and pin permutation, if any cell matches.
pub(crate) fn standard_match(lib: &Library, f: &TruthTable) -> Option<Match> {
    let (id, perm) = lib.match_function(f)?;
    let cell = lib.cell(id);
    Some(Match {
        cell: CellRef::Std(id),
        pin_perm: perm.to_vec(),
        funcs_by_assign: vec![cell.function().clone()],
        area: cell.area_ge(),
        override_leaves: None,
    })
}

/// Options for [`map_standard`].
#[derive(Debug, Clone)]
pub struct MapOptions {
    /// Maximum subtree depth in subject cells (AND2/INV granularity).
    pub max_depth: usize,
    /// Maximum data leaves per subtree (bounded by the widest cell).
    pub max_leaves: usize,
}

impl Default for MapOptions {
    fn default() -> Self {
        // Depth 5 lets an OR4 (inverter fringe + AND tree + inverter) be
        // recognized from AND2/INV granularity; 4 leaves matches the
        // widest library cells.
        MapOptions {
            max_depth: 5,
            max_leaves: 4,
        }
    }
}

/// Maps the subject netlist onto the standard library, minimizing area.
///
/// # Errors
///
/// Returns [`MapError::NoMatch`] if some cone cannot be covered (cannot
/// happen with the standard library, which contains AND2 and INV) and
/// [`MapError::BadSubject`] if the netlist is malformed.
///
/// # Example
///
/// ```
/// use mvf_aig::Aig;
/// use mvf_cells::Library;
/// use mvf_netlist::subject_graph;
/// use mvf_techmap::{map_standard, MapOptions};
///
/// let mut aig = Aig::new(2);
/// let (a, b) = (aig.input(0), aig.input(1));
/// let f = aig.and(a, b);
/// aig.add_output("y", !f);
/// let lib = Library::standard();
/// let subject = subject_graph::from_aig(&aig, &lib);
/// let mapped = map_standard(&subject, &lib, &MapOptions::default())?;
/// // ¬(a·b) maps to a single NAND2 of 1.0 GE.
/// assert_eq!(mapped.area_ge(&lib, None), 1.0);
/// # Ok::<(), mvf_techmap::MapError>(())
/// ```
pub fn map_standard(
    subject: &Netlist,
    lib: &Library,
    options: &MapOptions,
) -> Result<Netlist, MapError> {
    map_standard_with(subject, lib, options, &mut MatchScratch::default())
}

/// [`map_standard`] with a caller-owned [`MatchScratch`]: identical
/// mapping decisions, but the covering engine's arenas are reused across
/// calls.
///
/// # Errors
///
/// Same as [`map_standard`].
pub fn map_standard_with(
    subject: &Netlist,
    lib: &Library,
    options: &MapOptions,
    scratch: &mut MatchScratch,
) -> Result<Netlist, MapError> {
    let engine = Engine::new(
        subject,
        lib,
        None,
        &[],
        options.max_depth,
        options.max_leaves,
        0,
    )?;
    let matcher = |st: &Subtree| -> Option<Match> {
        debug_assert_eq!(st.funcs_by_assign.len(), 1, "plain mapping has no selects");
        standard_match(lib, &st.funcs_by_assign[0])
    };
    let choices = engine.cover(matcher, &mut scratch.engine)?;
    let (mapped, _) = engine.emit(&choices, false, &format!("{}_mapped", subject.name()));
    Ok(mapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_aig::Aig;
    use mvf_netlist::subject_graph;

    fn map_aig(aig: &Aig) -> (Netlist, Library) {
        let lib = Library::standard();
        let subject = subject_graph::from_aig(aig, &lib);
        let mapped = map_standard(&subject, &lib, &MapOptions::default()).expect("mappable");
        mapped.check(&lib).expect("mapped netlist is well-formed");
        (mapped, lib)
    }

    #[test]
    fn nand_maps_to_single_cell() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.input(0), aig.input(1));
        let f = aig.and(a, b);
        aig.add_output("y", !f);
        let (mapped, lib) = map_aig(&aig);
        assert_eq!(mapped.n_cells(), 1);
        assert_eq!(mapped.area_ge(&lib, None), 1.0);
        assert_eq!(
            mapped.cell_histogram(&lib, None),
            vec![("NAND2".to_string(), 1)]
        );
    }

    #[test]
    fn wide_gates_are_recognized() {
        // ¬(a+b+c+d) = NOR4 built from AND2/INV primitives.
        let mut aig = Aig::new(4);
        let lits: Vec<_> = (0..4).map(|i| aig.input(i)).collect();
        let f = aig.or_many(&lits);
        aig.add_output("y", !f);
        let (mapped, lib) = map_aig(&aig);
        assert_eq!(
            mapped.cell_histogram(&lib, None),
            vec![("NOR4".to_string(), 1)],
            "expected a single NOR4"
        );
    }

    #[test]
    fn and4_cheaper_than_three_and2() {
        let mut aig = Aig::new(4);
        let lits: Vec<_> = (0..4).map(|i| aig.input(i)).collect();
        let f = aig.and_many(&lits);
        aig.add_output("y", f);
        let (mapped, lib) = map_aig(&aig);
        assert_eq!(
            mapped.area_ge(&lib, None),
            2.0,
            "AND4 = 2.0 GE beats 3 AND2"
        );
    }

    #[test]
    fn xor_maps_functionally_correctly() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.input(0), aig.input(1));
        let f = aig.xor(a, b);
        aig.add_output("y", f);
        let (mapped, lib) = map_aig(&aig);
        // No XOR cell in the library: expect a small gate network, and
        // verify the function by evaluating the mapped netlist.
        let f = eval_output(&mapped, &lib);
        for m in 0..4usize {
            assert_eq!(f.get(m), (m & 1 == 1) ^ (m & 2 == 2));
        }
    }

    #[test]
    fn shared_nodes_stay_shared() {
        // (a·b)·c and (a·b)·d: a·b is a tree root used twice.
        let mut aig = Aig::new(4);
        let (a, b, c, d) = (aig.input(0), aig.input(1), aig.input(2), aig.input(3));
        let ab = aig.and(a, b);
        let x = aig.and(ab, c);
        let y = aig.and(ab, d);
        aig.add_output("x", x);
        aig.add_output("y", y);
        let (mapped, lib) = map_aig(&aig);
        let hist = mapped.cell_histogram(&lib, None);
        assert_eq!(hist, vec![("AND2".to_string(), 3)], "{hist:?}");
    }

    #[test]
    fn warm_scratch_reuse_matches_cold_calls() {
        // The engine scratch (flat leaf pools, cone arena) must never
        // change a mapping decision: identical netlists, identical areas,
        // across repeated warm calls and against a cold call.
        let mut aig = Aig::new(4);
        let lits: Vec<_> = (0..4).map(|i| aig.input(i)).collect();
        let ab = aig.or(lits[0], lits[1]);
        let cd = aig.xor(lits[2], lits[3]);
        let f = aig.and(ab, cd);
        aig.add_output("y", !f);
        let lib = Library::standard();
        let subject = subject_graph::from_aig(&aig, &lib);
        let cold = map_standard(&subject, &lib, &MapOptions::default()).expect("mappable");
        let mut scratch = MatchScratch::default();
        for round in 0..3 {
            let warm = map_standard_with(&subject, &lib, &MapOptions::default(), &mut scratch)
                .expect("mappable");
            assert_eq!(
                warm.area_ge(&lib, None),
                cold.area_ge(&lib, None),
                "round {round}"
            );
            assert_eq!(
                warm.cell_histogram(&lib, None),
                cold.cell_histogram(&lib, None),
                "round {round}"
            );
        }
    }

    #[test]
    fn constant_and_passthrough_outputs() {
        let mut aig = Aig::new(1);
        let a = aig.input(0);
        aig.add_output("t", mvf_aig::Lit::TRUE);
        aig.add_output("w", a);
        let (mapped, lib) = map_aig(&aig);
        let hist = mapped.cell_histogram(&lib, None);
        assert!(hist.iter().any(|(n, _)| n == "TIE1"));
        assert!(hist.iter().any(|(n, _)| n == "BUF"));
    }

    /// Helper: evaluate the first output of a std-cell netlist.
    fn eval_output(nl: &Netlist, lib: &Library) -> mvf_logic::TruthTable {
        use std::collections::HashMap;
        let n = nl.inputs().len();
        let mut env: HashMap<mvf_netlist::NetId, mvf_logic::TruthTable> = HashMap::new();
        for (i, &pi) in nl.inputs().iter().enumerate() {
            env.insert(pi, mvf_logic::TruthTable::var(i, n));
        }
        for cid in nl.topo_cells() {
            let c = nl.cell(cid);
            let pin_tts: Vec<_> = c.inputs.iter().map(|p| env[p].clone()).collect();
            let f = match c.cell {
                CellRef::Std(id) => lib.cell(id).function().clone(),
                CellRef::Camo(_) => unreachable!("plain mapping emits std cells"),
            };
            env.insert(c.output, crate::engine::compose(&f, &pin_tts, n));
        }
        env[&nl.outputs()[0].1].clone()
    }
}
