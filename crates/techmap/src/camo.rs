//! Camouflage technology mapping — the paper's Algorithm 1.
//!
//! The subject netlist is the synthesized merged circuit, whose select
//! inputs choose among the viable functions. Tree covering proceeds as in
//! ordinary mapping, except that a subtree containing select leaves is
//! characterized by `ABSFUNC` — the set of functions it takes over its
//! data leaves under every select assignment — and may be mapped onto a
//! camouflaged cell `g` only if `plausiblefunctions(g) ⊇ F(ts)` under a
//! single pin assignment (Alg. 1 line 8). The mapped circuit has **no
//! select inputs**: they are absorbed into the doping freedom of the
//! camouflaged cells, so all viable functions remain plausible to the
//! imaging adversary.

use mvf_cells::{CamoLibrary, CellKind, Library};
use mvf_logic::npn::all_permutations;
use mvf_logic::TruthTable;
use mvf_netlist::{CellId, CellRef, Netlist};

use crate::engine::{Engine, MapError, Match, Subtree};
use crate::plain::{standard_match, MatchScratch};

/// Reusable matcher state for [`map_camouflage_with`], mirroring
/// [`MatchScratch`] for the camouflage matcher.
///
/// Holds the covering engine's arenas ([`MatchScratch`]), the
/// lazily-filled pin-permutation tables per arity that the
/// plausible-set cover test walks, and the deduplicated required-function
/// candidate buffer that is otherwise allocated once per candidate
/// subtree. Standard cells are matched through the library's index, as
/// in [`crate::map_standard_with`]. Sharing one `CamoMatchScratch` across
/// many mapping calls — the Phase-III path of a fitness or validation
/// loop (see `mvf::EvalContext`) — removes the matcher's dominant
/// transient allocations without changing any mapping decision.
#[derive(Debug, Default)]
pub struct CamoMatchScratch {
    matcher: MatchScratch,
    /// `perms[k]` = all permutations of `0..k`, in [`all_permutations`]
    /// order; filled lazily per arity.
    perms: Vec<Option<Vec<Vec<usize>>>>,
    /// Deduplicated requirement set of the current subtree.
    required: Vec<TruthTable>,
}

/// Lazily fills and returns the permutation table for arity `k`. A free
/// function (not a method) so callers can hold disjoint borrows of the
/// other `CamoMatchScratch` fields at the same time.
fn perms_for(perms: &mut Vec<Option<Vec<Vec<usize>>>>, k: usize) -> &[Vec<usize>] {
    if perms.len() <= k {
        perms.resize(k + 1, None);
    }
    perms[k]
        .get_or_insert_with(|| all_permutations(k))
        .as_slice()
}

/// Options for [`map_camouflage`].
#[derive(Debug, Clone)]
pub struct CamoMapOptions {
    /// Maximum subtree depth in subject cells (AND2/INV granularity).
    /// The paper's Alg. 1 bounds candidate subtrees to depth < 3 over a
    /// ≤4-input-gate netlist; over the finer AND2/INV subject graph the
    /// equivalent horizon is deeper.
    pub max_depth: usize,
    /// Maximum data leaves per subtree.
    pub max_leaves: usize,
    /// Maximum select leaves abstracted per subtree (bounds the 2^s
    /// ABSFUNC enumeration).
    pub max_selects: usize,
    /// Allow plain standard cells for subtrees whose function set is a
    /// singleton (no select dependence). Keeps area down and is sound:
    /// the covering condition still holds.
    pub allow_standard_cells: bool,
}

impl Default for CamoMapOptions {
    fn default() -> Self {
        CamoMapOptions {
            max_depth: 5,
            max_leaves: 4,
            max_selects: 8,
            allow_standard_cells: true,
        }
    }
}

/// Per-instance doping witness: which function the cell realizes for each
/// assignment of its select inputs.
#[derive(Debug, Clone)]
pub struct CellWitness {
    /// The camouflaged instance in the mapped netlist.
    pub cell: CellId,
    /// Select numbers (bit positions of the select value) this cell's
    /// cone depended on.
    pub select_ids: Vec<usize>,
    /// Pin-space function per local select assignment (`2^select_ids.len()`
    /// entries): entry `a` is the function required when select
    /// `select_ids[j]` takes bit `j` of `a`.
    pub funcs_by_assign: Vec<TruthTable>,
}

impl CellWitness {
    /// The function the cell must be doped to under a *global* select
    /// value (bit `i` of `global` = select number `i`).
    pub fn function_for(&self, global: usize) -> &TruthTable {
        let mut local = 0usize;
        for (j, &sid) in self.select_ids.iter().enumerate() {
            if global & (1 << sid) != 0 {
                local |= 1 << j;
            }
        }
        &self.funcs_by_assign[local]
    }
}

/// The doping witnesses of a camouflage-mapped circuit.
#[derive(Debug, Clone, Default)]
pub struct CamoWitness {
    /// One entry per camouflaged instance.
    pub cells: Vec<CellWitness>,
}

/// A camouflage-mapped circuit: the netlist (select-free), its witness,
/// and bookkeeping for validation.
#[derive(Debug, Clone)]
pub struct CamoMappedCircuit {
    /// The mapped netlist over camouflaged (and standard) cells.
    pub netlist: Netlist,
    /// Doping witnesses for every camouflaged instance.
    pub witness: CamoWitness,
}

/// Runs Algorithm 1: covers the subject netlist with camouflaged cells so
/// that every select assignment's circuit function remains realizable
/// (hence plausible), eliminating the select inputs.
///
/// `select_inputs` are the indices (into `subject.inputs()`) of the select
/// nets.
///
/// # Errors
///
/// Returns [`MapError::NoMatch`] if some cone cannot be covered — with the
/// standard camouflaged library this indicates an over-constrained subtree
/// bound, not a fundamental failure — and [`MapError::BadSubject`] for
/// malformed subjects.
pub fn map_camouflage(
    subject: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    select_inputs: &[usize],
    options: &CamoMapOptions,
) -> Result<CamoMappedCircuit, MapError> {
    map_camouflage_with(
        subject,
        lib,
        camo,
        select_inputs,
        options,
        &mut CamoMatchScratch::default(),
    )
}

/// [`map_camouflage`] with a caller-owned [`CamoMatchScratch`]: identical
/// mapping decisions, but the pin-permutation tables and candidate
/// buffers are reused across calls — the Phase-III analogue of
/// [`crate::map_standard_with`].
///
/// # Errors
///
/// Same as [`map_camouflage`].
pub fn map_camouflage_with(
    subject: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    select_inputs: &[usize],
    options: &CamoMapOptions,
    scratch: &mut CamoMatchScratch,
) -> Result<CamoMappedCircuit, MapError> {
    let engine = Engine::new(
        subject,
        lib,
        Some(camo),
        select_inputs,
        options.max_depth,
        options.max_leaves,
        options.max_selects,
    )?;
    let dummy_net = subject
        .inputs()
        .iter()
        .copied()
        .find(|n| !select_inputs.contains(&subject.input_index(*n).expect("input")))
        .unwrap_or_else(|| subject.inputs()[0]);

    // Disjoint scratch borrows: the matcher closure owns the permutation
    // tables and candidate buffers, the covering engine owns its arenas.
    let CamoMatchScratch {
        matcher: MatchScratch {
            engine: engine_scratch,
        },
        perms,
        required,
    } = scratch;
    let matcher = |st: &Subtree| -> Option<Match> {
        let k = st.data_leaves.len();
        // Deduplicated requirement set (the per-assignment list can repeat
        // functions), built in the reused candidate buffer.
        required.clear();
        for f in &st.funcs_by_assign {
            if !required.contains(f) {
                required.push(f.clone());
            }
        }
        let required = &*required;
        let mut best: Option<Match> = None;

        // Constant cones (no data leaves).
        if k == 0 {
            if required.len() == 1 {
                // Fixed constant: a tie cell.
                let kind = if required[0].is_one() {
                    CellKind::Tie1
                } else {
                    CellKind::Tie0
                };
                let id = lib.cell_by_kind(kind).expect("tie cells present");
                return Some(Match {
                    cell: CellRef::Std(id),
                    pin_perm: vec![],
                    funcs_by_assign: st.funcs_by_assign.clone(),
                    area: lib.cell(id).area_ge(),
                    override_leaves: Some(vec![]),
                });
            }
            // Select-dependent constant {0, 1}: a camouflaged inverter fed
            // by any net realizes either constant by doping.
            let inv = camo
                .cell_by_name("INV")
                .expect("camouflaged inverter present");
            let (inv_id, _) = camo
                .iter()
                .find(|(_, c)| c.name() == "INV")
                .expect("camouflaged inverter present");
            let funcs: Vec<TruthTable> = st
                .funcs_by_assign
                .iter()
                .map(|f| TruthTable::constant(1, f.is_one()))
                .collect();
            return Some(Match {
                cell: CellRef::Camo(inv_id),
                pin_perm: vec![0],
                funcs_by_assign: funcs,
                area: inv.area_ge(),
                override_leaves: Some(vec![dummy_net]),
            });
        }

        // Standard cells for select-independent subtrees: one lookup in
        // the library's pin-permutation index.
        if options.allow_standard_cells && required.len() == 1 {
            best = standard_match(lib, &required[0]);
        }

        // The pin-permutation table for this arity, computed once and
        // shared by every camouflaged cover test below.
        let perms = perms_for(perms, k);

        // Camouflaged cells: plausible-set containment (Alg. 1 line 8).
        for (id, cell) in camo.cells_with_arity(k) {
            if best.as_ref().is_some_and(|b| b.area <= cell.area_ge()) {
                continue;
            }
            if let Some(perm) = cell.covers_with(perms, required) {
                let funcs: Vec<TruthTable> = st
                    .funcs_by_assign
                    .iter()
                    .map(|f| f.permute(&perm).expect("valid permutation"))
                    .collect();
                best = Some(Match {
                    cell: CellRef::Camo(id),
                    pin_perm: perm,
                    funcs_by_assign: funcs,
                    area: cell.area_ge(),
                    override_leaves: None,
                });
            }
        }
        best
    };

    let choices = engine.cover(matcher, engine_scratch)?;
    let (netlist, raw_witnesses) = engine.emit(&choices, true, &format!("{}_camo", subject.name()));
    let witness = CamoWitness {
        cells: raw_witnesses
            .into_iter()
            .map(|(cell, select_ids, funcs_by_assign)| CellWitness {
                cell,
                select_ids,
                funcs_by_assign,
            })
            .collect(),
    };
    Ok(CamoMappedCircuit { netlist, witness })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_aig::Aig;
    use mvf_netlist::subject_graph;

    /// Builds the classic target: a mux between two functions of (a, b),
    /// select as input 2.
    fn mux_subject() -> (Netlist, Library, CamoLibrary) {
        let mut aig = Aig::new(3);
        let a = aig.input(0);
        let b = aig.input(1);
        let s = aig.input(2);
        aig.set_input_name(2, "sel0");
        let f0 = aig.and(a, b);
        let f1 = aig.or(a, b);
        let y = aig.mux(s, f1, f0);
        aig.add_output("y", y);
        let lib = Library::standard();
        let subject = subject_graph::from_aig(&aig, &lib);
        let camo = CamoLibrary::from_library(&lib);
        (subject, lib, camo)
    }

    #[test]
    fn eliminates_select_inputs() {
        let (subject, lib, camo) = mux_subject();
        let mapped = map_camouflage(&subject, &lib, &camo, &[2], &CamoMapOptions::default())
            .expect("mappable");
        assert_eq!(
            mapped.netlist.inputs().len(),
            2,
            "select input must be eliminated"
        );
        mapped
            .netlist
            .check_with_camo(&lib, Some(&camo))
            .expect("well-formed");
        assert!(
            !mapped.witness.cells.is_empty(),
            "at least one camouflaged cell is required to absorb the select"
        );
    }

    #[test]
    fn witness_functions_are_plausible() {
        let (subject, lib, camo) = mux_subject();
        let mapped = map_camouflage(&subject, &lib, &camo, &[2], &CamoMapOptions::default())
            .expect("mappable");
        for w in &mapped.witness.cells {
            let inst = mapped.netlist.cell(w.cell);
            let CellRef::Camo(id) = inst.cell else {
                panic!("witness for non-camouflaged cell")
            };
            let cell = camo.cell(id);
            for f in &w.funcs_by_assign {
                assert!(
                    cell.is_plausible(f),
                    "required function {f:?} not plausible for {}",
                    cell.name()
                );
                assert!(cell.config_for(f).is_some(), "no doping config for {f:?}");
            }
        }
    }

    #[test]
    fn camo_mapping_is_smaller_than_keeping_selects() {
        let (subject, lib, camo) = mux_subject();
        let plain =
            crate::map_standard(&subject, &lib, &crate::MapOptions::default()).expect("mappable");
        let mapped = map_camouflage(&subject, &lib, &camo, &[2], &CamoMapOptions::default())
            .expect("mappable");
        assert!(
            mapped.netlist.area_ge(&lib, Some(&camo)) < plain.area_ge(&lib, None),
            "camouflage mapping should absorb the mux: {} vs {}",
            mapped.netlist.area_ge(&lib, Some(&camo)),
            plain.area_ge(&lib, None)
        );
    }

    #[test]
    fn witness_function_for_global_assignment() {
        let w = CellWitness {
            cell: CellId(0),
            select_ids: vec![2, 0],
            funcs_by_assign: (0..4)
                .map(|a| TruthTable::constant(1, a % 2 == 1))
                .collect(),
        };
        // Global bit 2 -> local bit 0; global bit 0 -> local bit 1.
        assert!(w.function_for(0b100).is_one()); // local a = 0b01
        assert!(!w.function_for(0b001).is_one()); // local a = 0b10
    }

    #[test]
    fn select_only_constant_cone() {
        // Output = ¬sel: a select-dependent constant {1, 0} must map to a
        // camouflaged inverter with no select inputs left.
        let mut aig = Aig::new(2);
        let s = aig.input(1);
        let a = aig.input(0);
        let f = aig.and(a, s); // keep a data path too
        aig.add_output("y", f);
        aig.add_output("nsel", !s);
        let lib = Library::standard();
        let subject = subject_graph::from_aig(&aig, &lib);
        let camo = CamoLibrary::from_library(&lib);
        let mapped = map_camouflage(&subject, &lib, &camo, &[1], &CamoMapOptions::default())
            .expect("mappable");
        assert_eq!(mapped.netlist.inputs().len(), 1);
        mapped
            .netlist
            .check_with_camo(&lib, Some(&camo))
            .expect("well-formed");
    }
}
