//! Netlist simulation and camouflage validation — the ModelSim substitute.
//!
//! The paper validates its implementation by simulating the mapped
//! circuits in ModelSim and checking that each viable function is realized
//! "when appropriate gate functions are supplied" (§IV). This crate does
//! the same exhaustively:
//!
//! * [`eval_netlist`] — exact truth-table evaluation of a standard-cell
//!   netlist;
//! * [`eval_camo_netlist`] — evaluation of a camouflaged netlist under a
//!   doping configuration (a function binding per camouflaged instance);
//! * [`eval_camo_netlist_vectors`] — word-parallel evaluation under
//!   *many* doping configurations at once on a batch of input vectors:
//!   the configuration index becomes extra arena variables above the
//!   batch index, so each camouflaged cell's pin-term products are
//!   computed once and shared across every configuration. Over a sampled
//!   batch it is the probabilistic screening primitive of the attack
//!   crate's screen-then-solve funnel; over every minterm it is exact;
//! * [`validate_mapped`] — for every viable function, bind each
//!   camouflaged cell to its witnessed function and check the circuit
//!   equals the function on all inputs (one vector pass over every
//!   minterm);
//! * [`validate_configs`] — the same check under any per-function
//!   bindings, such as a locked circuit's key configurations.
//!
//! # Example
//!
//! ```
//! use mvf_cells::{CellKind, Library};
//! use mvf_netlist::Netlist;
//! use mvf_sim::eval_netlist;
//!
//! let lib = Library::standard();
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let nor = lib.cell_by_kind(CellKind::Nor(2)).expect("NOR2");
//! let (_, y) = nl.add_cell("u", nor.into(), vec![a, b]);
//! nl.add_output("y", y);
//! let outs = eval_netlist(&nl, &lib);
//! assert!(outs[0].get(0b00));
//! assert!(!outs[0].get(0b01));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use mvf_cells::{CamoLibrary, Library};
use mvf_logic::{TruthTable, TtArena, VectorFunction};
use mvf_netlist::{CellId, CellRef, NetId, Netlist};
use mvf_techmap::CamoMappedCircuit;

/// Validation failures.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ValidationError {
    /// A camouflaged instance had no binding.
    MissingBinding(CellId),
    /// A bound function is not plausible for its cell.
    NotPlausible {
        /// The offending instance.
        cell: CellId,
    },
    /// The configured circuit disagreed with the viable function.
    FunctionMismatch {
        /// Index of the viable function.
        function: usize,
        /// Output bit where the mismatch occurred.
        output: usize,
    },
    /// Shape mismatch between circuit and functions.
    ShapeMismatch(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::MissingBinding(c) => {
                write!(f, "camouflaged cell {c:?} has no function binding")
            }
            ValidationError::NotPlausible { cell } => {
                write!(f, "bound function for cell {cell:?} is not plausible")
            }
            ValidationError::FunctionMismatch { function, output } => {
                write!(
                    f,
                    "circuit disagrees with viable function {function} on output {output}"
                )
            }
            ValidationError::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
        }
    }
}

impl Error for ValidationError {}

fn eval_internal(
    nl: &Netlist,
    lib: &Library,
    bind: &dyn Fn(CellId) -> Option<TruthTable>,
) -> Vec<TruthTable> {
    let n = nl.inputs().len();
    // One flat arena slot per net, plus one scratch slot for the product
    // terms: the whole evaluation performs O(1) heap allocations.
    let scratch = nl.n_nets();
    let mut arena = TtArena::new(n, scratch + 1);
    for (i, &pi) in nl.inputs().iter().enumerate() {
        arena.write_var(pi.0 as usize, i);
    }
    for cid in nl.topo_cells() {
        let c = nl.cell(cid);
        let bound;
        let f: &TruthTable = match c.cell {
            CellRef::Std(id) => lib.cell(id).function(),
            CellRef::Camo(_) => {
                bound = bind(cid).expect("camouflaged cell must be bound");
                &bound
            }
        };
        // Shannon sum of the cell's on-set minterms over the pin tables:
        // out = Σ_m f(m) · Π_i (pin_i ⊕ ¬m_i), built with in-place ops.
        let out = c.output.0 as usize;
        arena.write_zero(out);
        for m in 0..f.n_minterms() {
            if !f.get(m) {
                continue;
            }
            arena.write_one(scratch);
            for (i, p) in c.inputs.iter().enumerate() {
                arena.and_in_place(scratch, p.0 as usize, m & (1 << i) == 0);
            }
            arena.or_in_place(out, scratch);
        }
    }
    nl.outputs()
        .iter()
        .map(|(_, net)| arena.to_table(net.0 as usize))
        .collect()
}

/// Exhaustively evaluates a standard-cell netlist: one truth table per
/// output over the primary inputs (in input order).
///
/// # Panics
///
/// Panics if the netlist contains camouflaged cells (use
/// [`eval_camo_netlist`]) or more inputs than [`mvf_logic::MAX_VARS`].
pub fn eval_netlist(nl: &Netlist, lib: &Library) -> Vec<TruthTable> {
    eval_internal(nl, lib, &|_| None)
}

/// Evaluates a netlist containing camouflaged cells under the given
/// doping configuration (`config[cell]` = realized pin-space function).
///
/// # Errors
///
/// Returns [`ValidationError::MissingBinding`] if a camouflaged instance
/// has no entry in `config`, or [`ValidationError::NotPlausible`] if a
/// binding is outside the cell's plausible set.
pub fn eval_camo_netlist(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    config: &HashMap<CellId, TruthTable>,
) -> Result<Vec<TruthTable>, ValidationError> {
    check_bindings(nl, camo, config, nl.cells().map(|(cid, _)| cid))?;
    Ok(eval_internal(nl, lib, &|cid| config.get(&cid).cloned()))
}

/// Checks that `config` binds every camouflaged cell among `cells` to a
/// function in the cell's plausible set.
fn check_bindings(
    nl: &Netlist,
    camo: &CamoLibrary,
    config: &HashMap<CellId, TruthTable>,
    cells: impl IntoIterator<Item = CellId>,
) -> Result<(), ValidationError> {
    for cid in cells {
        if let CellRef::Camo(id) = nl.cell(cid).cell {
            let f = config
                .get(&cid)
                .ok_or(ValidationError::MissingBinding(cid))?;
            if !camo.cell(id).is_plausible(f) {
                return Err(ValidationError::NotPlausible { cell: cid });
            }
        }
    }
    Ok(())
}

/// Reusable scratch for multi-configuration evaluation and validation:
/// the widened truth-table arena and the per-configuration binding maps
/// keep their allocations across calls (see `mvf::EvalContext`, which
/// owns one for Phase-III validation).
#[derive(Debug, Default)]
pub struct CamoEvalScratch {
    arena: TtArena,
    configs: Vec<HashMap<CellId, TruthTable>>,
}

impl CamoEvalScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        CamoEvalScratch::default()
    }
}

/// Number of selector variables needed to index `n` configurations.
fn config_bits(n: usize) -> usize {
    let mut s = 0usize;
    while (1usize << s) < n {
        s += 1;
    }
    s
}

/// Evaluates the fan-in cone of some outputs of a camouflaged netlist
/// under all the given doping configurations on an arbitrary **batch of
/// input vectors** in one word-parallel pass: bit `b` of
/// `result[j][k][w]` is output `outputs[k]` of the circuit under
/// `configs[j]` on the input minterm `vectors[64*w + b]`, exactly as
/// [`eval_camo_netlist`] under `configs[j]` computes it.
///
/// The low arena variables index the *vector batch* (each primary input
/// becomes an arbitrary bit-column, written raw rather than as a
/// variable projection) and the high variables index the configuration,
/// so every cell's pin-term products are computed once and shared across
/// all configurations. Because the
/// batch dimension replaces the input dimension, the primary-input
/// count is *not* limited by [`mvf_logic::MAX_VARS`] — only
/// `vectors.len() · configs-per-chunk` is. This is the probabilistic
/// screening primitive of the attack crate's screen-then-solve funnel.
///
/// Only the cells in the fan-in cone of `outputs` are evaluated, so a
/// configuration needs to bind only the camouflaged cells in that cone;
/// any other binding is ignored.
///
/// # Errors
///
/// Same per-configuration errors as [`eval_camo_netlist`] for the cone's
/// camouflaged cells, checked for every configuration up front.
///
/// # Panics
///
/// Panics if an output index is out of range, if `vectors.len()` is not
/// a power of two in `64..=2^`[`mvf_logic::MAX_VARS`] (power-of-two
/// length keeps every configuration's block word-aligned), or if a
/// vector has bits set at or above the input count.
pub fn eval_camo_netlist_vectors(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    outputs: &[usize],
    configs: &[HashMap<CellId, TruthTable>],
    vectors: &[u64],
) -> Result<Vec<Vec<Vec<u64>>>, ValidationError> {
    eval_camo_netlist_vectors_with(
        nl,
        lib,
        camo,
        outputs,
        configs,
        vectors,
        &mut TtArena::default(),
    )
}

/// [`eval_camo_netlist_vectors`] with a caller-owned arena: the widened
/// evaluation tables are reset in place across calls.
///
/// # Errors
///
/// Same as [`eval_camo_netlist_vectors`].
///
/// # Panics
///
/// Same as [`eval_camo_netlist_vectors`].
pub fn eval_camo_netlist_vectors_with(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    outputs: &[usize],
    configs: &[HashMap<CellId, TruthTable>],
    vectors: &[u64],
    arena: &mut TtArena,
) -> Result<Vec<Vec<Vec<u64>>>, ValidationError> {
    let roots: Vec<NetId> = outputs.iter().map(|&o| nl.outputs()[o].1).collect();
    let cells = nl.cone_cells(&roots);
    for config in configs {
        check_bindings(nl, camo, config, cells.iter().copied())?;
    }
    let v = vectors.len();
    assert!(
        v.is_power_of_two() && (64..=1 << mvf_logic::MAX_VARS).contains(&v),
        "vector batch length must be a power of two in 64..=2^{}",
        mvf_logic::MAX_VARS
    );
    let n_in = nl.inputs().len();
    assert!(n_in <= 64, "u64 vectors cover at most 64 primary inputs");
    assert!(
        n_in == 64 || vectors.iter().all(|&m| m < 1u64 << n_in),
        "vectors must be minterms over the {n_in} primary inputs"
    );
    let v_bits = v.trailing_zeros() as usize;
    let cap = 1usize << (mvf_logic::MAX_VARS - v_bits);
    let mut out = Vec::with_capacity(configs.len());
    for chunk in configs.chunks(cap) {
        eval_vectors_chunk(nl, lib, &cells, &roots, chunk, vectors, arena, &mut out);
    }
    Ok(out)
}

/// One word-parallel vector-batch pass of `cells` (a fan-in cone in
/// topological order) over a chunk of configurations whose selector bits
/// fit alongside the batch-index variables.
///
/// Configuration blocks are always word-aligned (the batch length is a
/// power of two ≥ 64), so the per-minterm configuration masks are
/// written directly as raw word patterns — `O(words)` per minterm rather
/// than `O(configs · words)` selector ORs, which is what lets the screen
/// enumerate thousands of configurations cheaply.
#[allow(clippy::too_many_arguments)]
fn eval_vectors_chunk(
    nl: &Netlist,
    lib: &Library,
    cells: &[CellId],
    roots: &[NetId],
    configs: &[HashMap<CellId, TruthTable>],
    vectors: &[u64],
    arena: &mut TtArena,
    out: &mut Vec<Vec<Vec<u64>>>,
) {
    let n_cfg = configs.len();
    let s = config_bits(n_cfg);
    let v_bits = vectors.len().trailing_zeros() as usize;
    let wpv = vectors.len() / 64;
    let n_nets = nl.n_nets();
    // Slot layout: 0..n_nets per-net tables, then the product-term and
    // config-mask scratch slots.
    let term = n_nets;
    let mask = n_nets + 1;
    arena.reset(v_bits + s, n_nets + 2);
    // Input columns: bit b of word w is bit i of vectors[64w + b],
    // replicated across every configuration block.
    let mut pattern = vec![0u64; wpv];
    for (i, &pi) in nl.inputs().iter().enumerate() {
        for (w, word) in pattern.iter_mut().enumerate() {
            *word = vectors[64 * w..64 * (w + 1)]
                .iter()
                .enumerate()
                .fold(0u64, |acc, (b, &m)| acc | (((m >> i) & 1) << b));
        }
        arena.write_pattern(pi.0 as usize, &pattern);
    }
    let mut bound: Vec<&TruthTable> = Vec::with_capacity(n_cfg);
    let mut mask_words = vec![0u64; arena.words_per_slot()];
    for &cid in cells {
        let c = nl.cell(cid);
        let out_slot = c.output.0 as usize;
        arena.write_zero(out_slot);
        match c.cell {
            CellRef::Std(id) => {
                // Config-independent: the plain Shannon sum.
                let f = lib.cell(id).function();
                for m in 0..f.n_minterms() {
                    if !f.get(m) {
                        continue;
                    }
                    arena.write_one(term);
                    for (i, p) in c.inputs.iter().enumerate() {
                        arena.and_in_place(term, p.0 as usize, m & (1 << i) == 0);
                    }
                    arena.or_in_place(out_slot, term);
                }
            }
            CellRef::Camo(_) => {
                // Each pin-minterm product is built once and gated by the
                // mask of configurations that enable it, a direct block
                // fill: word w belongs entirely to configuration w / wpv.
                bound.clear();
                bound.extend(configs.iter().map(|config| &config[&cid]));
                let n_pins = c.inputs.len();
                for m in 0..(1usize << n_pins) {
                    mask_words.fill(0);
                    let mut any = false;
                    for (j, f) in bound.iter().enumerate() {
                        if f.get(m) {
                            mask_words[j * wpv..(j + 1) * wpv].fill(u64::MAX);
                            any = true;
                        }
                    }
                    if !any {
                        continue;
                    }
                    arena.write_pattern(mask, &mask_words);
                    arena.write_one(term);
                    for (i, p) in c.inputs.iter().enumerate() {
                        arena.and_in_place(term, p.0 as usize, m & (1 << i) == 0);
                    }
                    arena.and_in_place(term, mask, false);
                    arena.or_in_place(out_slot, term);
                }
            }
        }
    }
    // Slice each configuration's word block back out of every root.
    for j in 0..n_cfg {
        out.push(
            roots
                .iter()
                .map(|net| arena.slot(net.0 as usize)[j * wpv..(j + 1) * wpv].to_vec())
                .collect(),
        );
    }
}

/// Validates a camouflage-mapped circuit against its viable functions: for
/// every function index `j`, binds each camouflaged cell to its witnessed
/// function under select value `j` and checks the circuit computes
/// `viable[j]` exactly.
///
/// All viable functions are checked in **one** word-parallel
/// [`eval_camo_netlist_vectors`] pass over every input minterm, so the
/// per-cell pin-term products are shared across the doping
/// configurations instead of being recomputed per function.
///
/// `viable[j]` must be expressed over the mapped netlist's input/output
/// ordering (i.e. the *pin-permuted* functions from the merged circuit).
///
/// # Errors
///
/// Returns the first [`ValidationError`] encountered (shape and binding
/// errors for every function are reported before any mismatch).
///
/// # Panics
///
/// Panics if the circuit has more inputs than [`mvf_logic::MAX_VARS`].
pub fn validate_mapped(
    mapped: &CamoMappedCircuit,
    lib: &Library,
    camo: &CamoLibrary,
    viable: &[VectorFunction],
) -> Result<(), ValidationError> {
    validate_mapped_with(mapped, lib, camo, viable, &mut CamoEvalScratch::default())
}

/// [`validate_mapped`] with a caller-owned [`CamoEvalScratch`]: the
/// widened evaluation arena and the per-function binding maps are reused
/// across calls — the Phase-III validation reuse hook of
/// `mvf::EvalContext`.
///
/// # Errors
///
/// Same as [`validate_mapped`].
///
/// # Panics
///
/// Same as [`validate_mapped`].
pub fn validate_mapped_with(
    mapped: &CamoMappedCircuit,
    lib: &Library,
    camo: &CamoLibrary,
    viable: &[VectorFunction],
    scratch: &mut CamoEvalScratch,
) -> Result<(), ValidationError> {
    // One binding map per viable function, rebuilt in the reused buffers.
    if scratch.configs.len() < viable.len() {
        scratch.configs.resize_with(viable.len(), HashMap::new);
    }
    for (j, config) in scratch.configs[..viable.len()].iter_mut().enumerate() {
        config.clear();
        for w in &mapped.witness.cells {
            config.insert(w.cell, w.function_for(j).clone());
        }
    }
    validate_configs(
        &mapped.netlist,
        lib,
        camo,
        viable,
        &scratch.configs[..viable.len()],
        &mut scratch.arena,
    )
}

/// Validates a netlist with choice cells (camouflaged cells or key gates
/// of `camo`) against its viable functions: under `configs[j]`, which
/// binds every choice cell to a function it can realize, the circuit
/// must compute `viable[j]` exactly. This is the check behind both
/// schemes: [`validate_mapped`] binds a camouflage witness, and a locked
/// circuit binds the configuration of each function's key.
///
/// All functions are checked in **one** word-parallel
/// [`eval_camo_netlist_vectors_with`] pass over every input minterm, with
/// `arena` as its evaluation arena.
///
/// # Errors
///
/// Returns the first [`ValidationError`] encountered: shape errors for
/// every function, then binding errors (checked over every cell, not
/// just the outputs' cones) for every configuration, then mismatches.
///
/// # Panics
///
/// Panics if `configs.len() != viable.len()` or the circuit has more
/// inputs than [`mvf_logic::MAX_VARS`].
pub fn validate_configs(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    viable: &[VectorFunction],
    configs: &[HashMap<CellId, TruthTable>],
    arena: &mut TtArena,
) -> Result<(), ValidationError> {
    assert_eq!(configs.len(), viable.len(), "one binding per function");
    let n_in = nl.inputs().len();
    let n_out = nl.outputs().len();
    for (j, f) in viable.iter().enumerate() {
        if f.n_inputs() != n_in || f.n_outputs() != n_out {
            return Err(ValidationError::ShapeMismatch(format!(
                "function {j} is {}→{}, circuit is {}→{}",
                f.n_inputs(),
                f.n_outputs(),
                n_in,
                n_out
            )));
        }
    }
    for config in configs {
        check_bindings(nl, camo, config, nl.cells().map(|(cid, _)| cid))?;
    }
    assert!(
        n_in <= mvf_logic::MAX_VARS,
        "exhaustive evaluation limited to {} inputs",
        mvf_logic::MAX_VARS
    );
    // Every minterm, cycled up to the pass's 64-vector minimum.
    let minterms = 1u64 << n_in;
    let vectors: Vec<u64> = (0..minterms.max(64)).map(|m| m % minterms).collect();
    let outputs: Vec<usize> = (0..n_out).collect();
    let results =
        eval_camo_netlist_vectors_with(nl, lib, camo, &outputs, configs, &vectors, arena)?;
    for (j, f) in viable.iter().enumerate() {
        for (o, cols) in results[j].iter().enumerate() {
            let want = f.output(o);
            let bit = |m: usize| (cols[m / 64] >> (m % 64)) & 1 == 1;
            if (0..want.n_minterms()).any(|m| bit(m) != want.get(m)) {
                return Err(ValidationError::FunctionMismatch {
                    function: j,
                    output: o,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_aig::Aig;
    use mvf_cells::CellKind;
    use mvf_merge::{build_merged, PinAssignment};
    use mvf_netlist::subject_graph;
    use mvf_sboxes::optimal_sboxes;
    use mvf_techmap::{map_camouflage, CamoMapOptions};

    #[test]
    fn eval_matches_cell_semantics() {
        let lib = Library::standard();
        let or3 = lib.cell_by_kind(CellKind::Or(3)).unwrap();
        let inv = lib.cell_by_kind(CellKind::Inv).unwrap();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let (_, or) = nl.add_cell("u1", or3.into(), vec![a, b, c]);
        let (_, y) = nl.add_cell("u2", inv.into(), vec![or]);
        nl.add_output("nor3", y);
        let outs = eval_netlist(&nl, &lib);
        for m in 0..8usize {
            assert_eq!(outs[0].get(m), m == 0);
        }
    }

    #[test]
    fn camo_eval_rejects_unbound_and_implausible() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let (nand_id, _) = camo
            .iter()
            .find(|(_, c)| c.name() == "NAND2")
            .expect("NAND2");
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (cid, y) = nl.add_cell("u1", nand_id.into(), vec![a, b]);
        nl.add_output("y", y);

        let empty = HashMap::new();
        assert!(matches!(
            eval_camo_netlist(&nl, &lib, &camo, &empty),
            Err(ValidationError::MissingBinding(_))
        ));

        let mut bad = HashMap::new();
        let a_tt = TruthTable::var(0, 2);
        let b_tt = TruthTable::var(1, 2);
        bad.insert(cid, a_tt.xor(&b_tt)); // XOR is not plausible for NAND2
        assert!(matches!(
            eval_camo_netlist(&nl, &lib, &camo, &bad),
            Err(ValidationError::NotPlausible { .. })
        ));

        let mut good = HashMap::new();
        good.insert(cid, a_tt.not());
        let outs = eval_camo_netlist(&nl, &lib, &camo, &good).unwrap();
        assert_eq!(outs[0], a_tt.not());
    }

    #[test]
    fn full_flow_validates_two_sboxes() {
        // Merge 2 optimal S-boxes, synthesize lightly, camo-map, validate.
        let funcs = optimal_sboxes()[..2].to_vec();
        let merged = build_merged(&funcs, &PinAssignment::identity(&funcs)).unwrap();
        let synthesized = mvf_aig::Script::fast().run(&merged.aig);
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let subject = subject_graph::from_aig(&synthesized, &lib);
        let mapped = map_camouflage(
            &subject,
            &lib,
            &camo,
            &merged.select_indices,
            &CamoMapOptions::default(),
        )
        .expect("mappable");
        validate_mapped(&mapped, &lib, &camo, &merged.functions)
            .expect("every viable function must be realizable");
    }

    #[test]
    fn validation_detects_wrong_function() {
        let funcs = optimal_sboxes()[..2].to_vec();
        let merged = build_merged(&funcs, &PinAssignment::identity(&funcs)).unwrap();
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let subject = subject_graph::from_aig(&merged.aig, &lib);
        let mapped = map_camouflage(
            &subject,
            &lib,
            &camo,
            &merged.select_indices,
            &CamoMapOptions::default(),
        )
        .expect("mappable");
        // Swap in a wrong expected function list: validation must fail.
        let wrong = vec![merged.functions[1].clone(), merged.functions[0].clone()];
        assert!(validate_mapped(&mapped, &lib, &camo, &wrong).is_err());
    }

    /// Four merged PRESENT S-boxes, camouflage-mapped, with one doping
    /// configuration per viable function.
    fn present4_configs() -> (
        Library,
        CamoLibrary,
        CamoMappedCircuit,
        Vec<VectorFunction>,
        Vec<HashMap<CellId, TruthTable>>,
    ) {
        let funcs = optimal_sboxes()[..4].to_vec();
        let merged = build_merged(&funcs, &PinAssignment::identity(&funcs)).unwrap();
        let synthesized = mvf_aig::Script::fast().run(&merged.aig);
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let subject = subject_graph::from_aig(&synthesized, &lib);
        let mapped = map_camouflage(
            &subject,
            &lib,
            &camo,
            &merged.select_indices,
            &CamoMapOptions::default(),
        )
        .expect("mappable");
        let configs = (0..funcs.len())
            .map(|j| {
                mapped
                    .witness
                    .cells
                    .iter()
                    .map(|w| (w.cell, w.function_for(j).clone()))
                    .collect()
            })
            .collect();
        (lib, camo, mapped, merged.functions, configs)
    }

    /// Every minterm of `n_in` inputs, cycled up to 64 vectors.
    fn all_minterms(n_in: usize) -> Vec<u64> {
        let minterms = 1u64 << n_in;
        (0..minterms.max(64)).map(|m| m % minterms).collect()
    }

    /// One configuration's columns over [`all_minterms`] as truth tables.
    fn tables(cols: &[Vec<u64>], n_in: usize) -> Vec<TruthTable> {
        cols.iter()
            .map(|c| TruthTable::from_fn(n_in, |m| (c[m / 64] >> (m % 64)) & 1 == 1))
            .collect()
    }

    #[test]
    fn multi_config_eval_matches_per_config() {
        // The word-parallel pass over every minterm must agree
        // bit-for-bit with evaluating each doping configuration
        // separately.
        let (lib, camo, mapped, functions, configs) = present4_configs();
        let nl = &mapped.netlist;
        let n_in = nl.inputs().len();
        let all: Vec<usize> = (0..nl.outputs().len()).collect();
        let vectors = all_minterms(n_in);
        let multi = eval_camo_netlist_vectors(nl, &lib, &camo, &all, &configs, &vectors).unwrap();
        assert_eq!(multi.len(), configs.len());
        for (j, config) in configs.iter().enumerate() {
            let single = eval_camo_netlist(nl, &lib, &camo, config).unwrap();
            assert_eq!(tables(&multi[j], n_in), single, "config {j}");
        }
        // A reused scratch gives the same answers.
        let mut scratch = CamoEvalScratch::new();
        for _ in 0..2 {
            let again = eval_camo_netlist_vectors_with(
                nl,
                &lib,
                &camo,
                &all,
                &configs,
                &vectors,
                &mut scratch.arena,
            )
            .unwrap();
            assert_eq!(again, multi);
        }
        validate_mapped_with(&mapped, &lib, &camo, &functions, &mut scratch)
            .expect("valid under scratch reuse");
    }

    #[test]
    fn multi_config_eval_empty_and_single() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let (nand_id, _) = camo
            .iter()
            .find(|(_, c)| c.name() == "NAND2")
            .expect("NAND2");
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (cid, y) = nl.add_cell("u1", nand_id.into(), vec![a, b]);
        nl.add_output("y", y);
        let vectors = all_minterms(2);
        assert!(
            eval_camo_netlist_vectors(&nl, &lib, &camo, &[0], &[], &vectors)
                .unwrap()
                .is_empty()
        );
        let a_tt = TruthTable::var(0, 2);
        let mut config = HashMap::new();
        config.insert(cid, a_tt.not());
        let configs = std::slice::from_ref(&config);
        let multi = eval_camo_netlist_vectors(&nl, &lib, &camo, &[0], configs, &vectors)
            .expect("single config");
        assert_eq!(multi.len(), 1);
        assert_eq!(tables(&multi[0], 2), [a_tt.not()]);
        assert_eq!(
            eval_camo_netlist(&nl, &lib, &camo, &config).unwrap(),
            [a_tt.not()]
        );
    }

    #[test]
    fn vector_batch_eval_matches_multi_config_eval() {
        // The vector-batch pass must agree bit-for-bit with evaluating
        // each configuration's full truth tables on every sampled vector
        // — the soundness anchor of the attack crate's screening funnel.
        let (lib, camo, mapped, _, configs) = present4_configs();
        let nl = &mapped.netlist;
        let n_in = nl.inputs().len();
        let full: Vec<Vec<TruthTable>> = configs
            .iter()
            .map(|config| eval_camo_netlist(nl, &lib, &camo, config).unwrap())
            .collect();
        // A cycled complete batch and a scattered sampled batch, with a
        // reused arena across calls.
        let cycled: Vec<u64> = (0..64u64).map(|m| m % (1 << n_in)).collect();
        let sampled: Vec<u64> = (0..128u64)
            .map(|m| (m * 2_654_435_761) % (1 << n_in))
            .collect();
        let mut arena = TtArena::default();
        let all: Vec<usize> = (0..nl.outputs().len()).collect();
        for vectors in [&cycled, &sampled] {
            let got = eval_camo_netlist_vectors_with(
                nl, &lib, &camo, &all, &configs, vectors, &mut arena,
            )
            .unwrap();
            assert_eq!(got.len(), configs.len());
            for (j, per_cfg) in got.iter().enumerate() {
                assert_eq!(per_cfg.len(), nl.outputs().len());
                for (o, words) in per_cfg.iter().enumerate() {
                    assert_eq!(words.len(), vectors.len() / 64);
                    for (m, &x) in vectors.iter().enumerate() {
                        let bit = (words[m / 64] >> (m % 64)) & 1 == 1;
                        assert_eq!(
                            bit,
                            full[j][o].get(x as usize),
                            "config {j}, output {o}, vector {m} (minterm {x})"
                        );
                    }
                }
            }
        }
        // One output's cone needs only that cone's bindings and yields
        // that output's columns.
        for o in 0..nl.outputs().len() {
            let cone = nl.cone_cells(&[nl.outputs()[o].1]);
            let projected: Vec<HashMap<CellId, TruthTable>> = configs
                .iter()
                .map(|config| {
                    config
                        .iter()
                        .filter(|(cid, _)| cone.contains(cid))
                        .map(|(&cid, f)| (cid, f.clone()))
                        .collect()
                })
                .collect();
            let got =
                eval_camo_netlist_vectors(nl, &lib, &camo, &[o], &projected, &cycled).unwrap();
            let want = eval_camo_netlist_vectors(nl, &lib, &camo, &all, &configs, &cycled).unwrap();
            for (j, per_cfg) in got.iter().enumerate() {
                assert_eq!(per_cfg, &[want[j][o].clone()], "config {j}, output {o}");
            }
        }
        // Binding errors surface exactly as in the truth-table pass.
        let empty = vec![HashMap::new()];
        assert!(matches!(
            eval_camo_netlist_vectors(nl, &lib, &camo, &all, &empty, &cycled),
            Err(ValidationError::MissingBinding(_))
        ));
    }

    #[test]
    fn plain_subject_graph_eval_matches_aig() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.input(0), aig.input(1), aig.input(2));
        let t = aig.xor(a, b);
        let f = aig.mux(c, t, a);
        aig.add_output("y", f);
        let lib = Library::standard();
        let nl = subject_graph::from_aig(&aig, &lib);
        let outs = eval_netlist(&nl, &lib);
        assert_eq!(outs, aig.output_functions());
    }
}
