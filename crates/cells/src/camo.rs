use std::collections::BTreeSet;
use std::fmt;

use mvf_logic::{npn::all_permutations, word, TruthTable};

use crate::{CellKind, LibCellId, Library};

/// The doping state of one input pin of a camouflaged cell.
///
/// A look-alike cell is programmed at the doping level: each pin's
/// transistors can be left functional or silently stuck so the pin reads a
/// constant. All three states are indistinguishable under imaging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinState {
    /// The pin behaves normally.
    Active,
    /// The pin is internally stuck at 0.
    Stuck0,
    /// The pin is internally stuck at 1.
    Stuck1,
}

/// Identifier of a cell within a [`CamoLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CamoCellId(pub u32);

/// A camouflaged look-alike cell.
///
/// The cell is visually identical to its nominal base cell, has the same
/// area, and can implement any function in its **plausible set** — the
/// closure of the nominal function under cofactoring with respect to every
/// subset of inputs and every polarity (paper §II, Fig. 1).
#[derive(Debug, Clone)]
pub struct CamoCell {
    base: LibCellId,
    kind: CellKind,
    name: String,
    n_inputs: usize,
    area_ge: f64,
    nominal: TruthTable,
    /// Distinct plausible functions, sorted for determinism.
    plausible: Vec<TruthTable>,
    /// Plausible set additionally closed under input permutation, as
    /// sorted table words ([`TruthTable::as_word`]), for the matcher's
    /// pre-filter.
    perm_closed: Vec<u64>,
}

impl CamoCell {
    /// Builds a cell with an explicit plausible set, for obfuscation
    /// families whose choice sets are not cofactor closures (e.g. a logic-
    /// locking key gate whose plausible set is `{A, ¬A}`). The set is
    /// deduplicated and sorted so enumeration order is deterministic, and
    /// the permutation closure is derived for the matcher pre-filter.
    ///
    /// # Panics
    ///
    /// Panics if `plausible` is empty or contains a function whose arity
    /// differs from `n_inputs`, or if `n_inputs` exceeds 6 (a cell's
    /// functions are single table words).
    pub fn from_parts(
        base: LibCellId,
        kind: CellKind,
        name: impl Into<String>,
        n_inputs: usize,
        area_ge: f64,
        nominal: TruthTable,
        plausible: Vec<TruthTable>,
    ) -> Self {
        assert!(!plausible.is_empty(), "plausible set must be non-empty");
        assert!(n_inputs <= 6, "cells have at most 6 inputs");
        assert!(
            plausible.iter().all(|f| f.n_vars() == n_inputs),
            "plausible function arity mismatch"
        );
        let plausible: Vec<TruthTable> = plausible
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let perm_closed = perm_closure(&plausible, n_inputs);
        CamoCell {
            base,
            kind,
            name: name.into(),
            n_inputs,
            area_ge,
            nominal,
            plausible,
            perm_closed,
        }
    }

    fn from_lib_cell(base: LibCellId, lib: &Library) -> Self {
        let cell = lib.cell(base);
        let nominal = cell.function().clone();
        let plausible = cofactor_closure(&nominal);
        let perm_closed = perm_closure(&plausible, nominal.n_vars());
        CamoCell {
            base,
            kind: cell.kind(),
            name: cell.name().to_string(),
            n_inputs: cell.n_inputs(),
            area_ge: cell.area_ge(),
            nominal,
            plausible,
            perm_closed,
        }
    }

    /// The id of the look-alike base cell in the standard library.
    pub fn base(&self) -> LibCellId {
        self.base
    }

    /// The base cell's gate family.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The base cell's name (a camouflaged cell is indistinguishable from
    /// it, so it shares the name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input pins.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Area in gate equivalents — identical to the base cell's, which is
    /// the entire point of a look-alike.
    pub fn area_ge(&self) -> f64 {
        self.area_ge
    }

    /// The nominal (undoped) function.
    pub fn nominal(&self) -> &TruthTable {
        &self.nominal
    }

    /// The distinct plausible functions, in deterministic order.
    pub fn plausible(&self) -> &[TruthTable] {
        &self.plausible
    }

    /// The function realized by a doping configuration.
    ///
    /// Stuck pins are cofactored out; the result still has full pin arity
    /// but no longer depends on stuck pins.
    ///
    /// # Panics
    ///
    /// Panics if `config.len() != n_inputs`.
    pub fn config_function(&self, config: &[PinState]) -> TruthTable {
        assert_eq!(config.len(), self.n_inputs, "config arity mismatch");
        let mut f = self.nominal.clone();
        for (pin, &st) in config.iter().enumerate() {
            match st {
                PinState::Active => {}
                PinState::Stuck0 => f = f.cofactor(pin, false),
                PinState::Stuck1 => f = f.cofactor(pin, true),
            }
        }
        f
    }

    /// Finds a doping configuration realizing `f` over the cell pins, if
    /// one exists.
    pub fn config_for(&self, f: &TruthTable) -> Option<Vec<PinState>> {
        if f.n_vars() != self.n_inputs {
            return None;
        }
        let states = [PinState::Active, PinState::Stuck0, PinState::Stuck1];
        let mut config = vec![PinState::Active; self.n_inputs];
        let total = 3usize.pow(self.n_inputs as u32);
        for code in 0..total {
            let mut c = code;
            for slot in config.iter_mut() {
                *slot = states[c % 3];
                c /= 3;
            }
            if &self.config_function(&config) == f {
                return Some(config.clone());
            }
        }
        None
    }

    /// `true` iff `f` (over the cell pins, same arity) is plausible.
    pub fn is_plausible(&self, f: &TruthTable) -> bool {
        self.plausible.contains(f)
    }

    /// Checks whether all `required` functions (over `self.n_inputs`
    /// variables, where variable `v` is subtree leaf `v`) can be made
    /// plausible simultaneously under a single pin assignment.
    ///
    /// Returns the permutation `perm` (leaf `v` connects to pin `perm[v]`)
    /// if one exists. This is the containment test of Alg. 1, line 8:
    /// `plausiblefunctions(g) ⊇ F(ts)` modulo pin ordering.
    pub fn covers(&self, required: &[TruthTable]) -> Option<Vec<usize>> {
        self.covers_with(&all_permutations(self.n_inputs), required)
    }

    /// [`CamoCell::covers`] with a caller-supplied pin-permutation table:
    /// identical decisions, but the table (one allocation per arity) can
    /// be shared across many cells and subtrees — the camouflage mapper's
    /// `CamoMatchScratch` reuse hook.
    ///
    /// `perms` must be the permutations of `0..n_inputs()` in
    /// [`all_permutations`] order for results to match [`CamoCell::covers`].
    ///
    /// # Panics
    ///
    /// Panics if a permutation's length does not match the cell arity.
    pub fn covers_with(&self, perms: &[Vec<usize>], required: &[TruthTable]) -> Option<Vec<usize>> {
        if required.is_empty() {
            return Some((0..self.n_inputs).collect());
        }
        if required[0].n_vars() != self.n_inputs {
            return None;
        }
        // Quick reject: every function must be in the permutation-closed set.
        let in_closure = |f: &TruthTable| {
            f.n_vars() == self.n_inputs && self.perm_closed.binary_search(&f.as_word()).is_ok()
        };
        if !required.iter().all(in_closure) {
            return None;
        }
        // Find one permutation that works for all of them simultaneously.
        'perm: for perm in perms {
            for f in required {
                let g = f.permute(perm).expect("valid permutation");
                if !self.plausible.contains(&g) {
                    continue 'perm;
                }
            }
            return Some(perm.clone());
        }
        None
    }
}

/// Closure of `f` under cofactoring on every input × polarity, in
/// [`TruthTable`] order — for tables of one arity, the order of their
/// words.
fn cofactor_closure(f: &TruthTable) -> Vec<TruthTable> {
    let n = f.n_vars();
    let mut seen: Vec<u64> = Vec::new();
    let mut stack = vec![f.as_word()];
    while let Some(g) = stack.pop() {
        if seen.contains(&g) {
            continue;
        }
        seen.push(g);
        for v in 0..n {
            for value in [false, true] {
                stack.push(word::cofactor(g, v, value));
            }
        }
    }
    seen.sort_unstable();
    seen.into_iter()
        .map(|w| TruthTable::from_word(n, w).expect("cells have at most 6 inputs"))
        .collect()
}

/// The words of every pin permutation of every function in `plausible`,
/// sorted and deduplicated.
fn perm_closure(plausible: &[TruthTable], n: usize) -> Vec<u64> {
    let maps: Vec<[u8; 64]> = all_permutations(n)
        .iter()
        .map(|p| word::minterm_map(p))
        .collect();
    let mut words: Vec<u64> = plausible
        .iter()
        .flat_map(|f| maps.iter().map(|map| word::permute(f.as_word(), map)))
        .collect();
    words.sort_unstable();
    words.dedup();
    words
}

/// A library of camouflaged look-alike cells, one per logic cell of a base
/// [`Library`] (tie cells are not camouflaged — they are already
/// constants). The camouflaged buffer is included: its plausible set
/// {A, 0, 1} absorbs select-gated wires.
#[derive(Debug, Clone)]
pub struct CamoLibrary {
    cells: Vec<CamoCell>,
}

impl CamoLibrary {
    /// Derives the camouflaged variants of every logic cell in `lib`
    /// (everything except the tie cells).
    pub fn from_library(lib: &Library) -> Self {
        let mut cells = Vec::new();
        for (id, cell) in lib.iter() {
            match cell.kind() {
                CellKind::Tie0 | CellKind::Tie1 => continue,
                _ => cells.push(CamoCell::from_lib_cell(id, lib)),
            }
        }
        CamoLibrary { cells }
    }

    /// Builds a library from an explicit cell list (ids are assigned in
    /// order), for obfuscation families with hand-constructed choice sets.
    pub fn from_cells(cells: Vec<CamoCell>) -> Self {
        CamoLibrary { cells }
    }

    /// Number of camouflaged cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` iff the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cell(&self, id: CamoCellId) -> &CamoCell {
        &self.cells[id.0 as usize]
    }

    /// Looks a cell up by (base-cell) name.
    pub fn cell_by_name(&self, name: &str) -> Option<&CamoCell> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CamoCellId, &CamoCell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CamoCellId(i as u32), c))
    }

    /// Cells with exactly `n` input pins.
    pub fn cells_with_arity(&self, n: usize) -> impl Iterator<Item = (CamoCellId, &CamoCell)> {
        self.iter().filter(move |(_, c)| c.n_inputs == n)
    }
}

impl fmt::Display for CamoCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "camo-{} ({} plausible fns)",
            self.name,
            self.plausible.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camo(name: &str) -> CamoCell {
        let lib = Library::standard();
        CamoLibrary::from_library(&lib)
            .cell_by_name(name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .clone()
    }

    #[test]
    fn fig1b_nand2_plausible_set() {
        // The paper's Fig. 1b: camo NAND2 ∈ {¬(AB), ¬A, ¬B, 0, 1}.
        let cell = camo("NAND2");
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let expect: BTreeSet<TruthTable> = [
            a.and(&b).not(),
            a.not(),
            b.not(),
            TruthTable::zero(2),
            TruthTable::one(2),
        ]
        .into_iter()
        .collect();
        let got: BTreeSet<TruthTable> = cell.plausible().iter().cloned().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn and2_plausible_set() {
        let cell = camo("AND2");
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        // Both pins stuck at 1 realizes constant 1, so the closure holds
        // five functions, mirroring Fig. 1b's five for NAND2.
        let expect: BTreeSet<TruthTable> = [
            a.and(&b),
            a.clone(),
            b.clone(),
            TruthTable::zero(2),
            TruthTable::one(2),
        ]
        .into_iter()
        .collect();
        let got: BTreeSet<TruthTable> = cell.plausible().iter().cloned().collect();
        assert_eq!(got, expect);
        // AND2 can realize a bare wire to either pin: the mux-absorption
        // property Phase III exploits.
        assert!(cell.is_plausible(&a));
        assert!(cell.is_plausible(&b));
    }

    #[test]
    fn inv_plausible_set() {
        let cell = camo("INV");
        assert_eq!(cell.plausible().len(), 3); // ¬A, 0, 1
        assert!(cell.is_plausible(&TruthTable::var(0, 1).not()));
        assert!(cell.is_plausible(&TruthTable::zero(1)));
        assert!(cell.is_plausible(&TruthTable::one(1)));
    }

    #[test]
    fn config_function_matches_cofactors() {
        let cell = camo("NAND2");
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        assert_eq!(
            cell.config_function(&[PinState::Active, PinState::Stuck1]),
            a.not()
        );
        assert_eq!(
            cell.config_function(&[PinState::Stuck0, PinState::Active]),
            TruthTable::one(2)
        );
        assert_eq!(
            cell.config_function(&[PinState::Stuck1, PinState::Stuck1]),
            TruthTable::zero(2)
        );
        assert_eq!(
            cell.config_function(&[PinState::Active, PinState::Active]),
            a.and(&b).not()
        );
    }

    #[test]
    fn config_for_finds_every_plausible_function() {
        for name in ["NAND2", "NOR3", "AND4", "OR2", "INV"] {
            let cell = camo(name);
            for f in cell.plausible() {
                let cfg = cell
                    .config_for(f)
                    .unwrap_or_else(|| panic!("{name}: no config for {f:?}"));
                assert_eq!(&cell.config_function(&cfg), f);
            }
        }
    }

    #[test]
    fn config_for_rejects_non_plausible() {
        let cell = camo("NAND2");
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        assert!(cell.config_for(&a.xor(&b)).is_none());
        assert!(cell.config_for(&a.and(&b)).is_none()); // AND is not plausible for NAND
    }

    #[test]
    fn covers_mux_requirement_with_and2() {
        // A 2:1 mux under select abstraction requires {leaf0, leaf1}.
        let need = vec![TruthTable::var(0, 2), TruthTable::var(1, 2)];
        let cell = camo("AND2");
        assert!(cell.covers(&need).is_some());
        // NAND2 cannot: its plausible set has only inverted literals.
        assert!(camo("NAND2").covers(&need).is_none());
        // OR2 can as well ({A+B, A, B, 1} ⊇ {A, B}).
        assert!(camo("OR2").covers(&need).is_some());
    }

    #[test]
    fn covers_finds_consistent_permutation() {
        // Require {¬leaf1} only: NAND2 covers it by wiring leaf1 to a pin
        // and sticking the other pin at 1.
        let need = vec![TruthTable::var(1, 2).not()];
        let cell = camo("NAND2");
        let perm = cell.covers(&need).expect("should cover");
        let g = need[0].permute(&perm).unwrap();
        assert!(cell.is_plausible(&g));
    }

    #[test]
    fn covers_rejects_mixed_impossible_sets() {
        // {A·B, A+B} requires both AND and OR plausible in one cell: none
        // of the doping variants provides that.
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let need = vec![a.and(&b), a.or(&b)];
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        for (_, cell) in camo.cells_with_arity(2) {
            assert!(
                cell.covers(&need).is_none(),
                "{} unexpectedly covers",
                cell.name()
            );
        }
    }

    #[test]
    fn library_skips_ties_only() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        assert!(camo.cell_by_name("TIE0").is_none());
        assert!(camo.cell_by_name("TIE1").is_none());
        assert_eq!(camo.len(), 14); // INV + BUF + 12 multi-input gates
    }

    #[test]
    fn buf_plausible_set_absorbs_select_gating() {
        let cell = camo("BUF");
        let a = TruthTable::var(0, 1);
        let got: BTreeSet<TruthTable> = cell.plausible().iter().cloned().collect();
        let expect: BTreeSet<TruthTable> = [a, TruthTable::zero(1), TruthTable::one(1)]
            .into_iter()
            .collect();
        assert_eq!(got, expect);
    }

    /// The heap-table closure the word kernels replaced.
    fn cofactor_closure_oracle(f: &TruthTable) -> Vec<TruthTable> {
        let mut seen: BTreeSet<TruthTable> = BTreeSet::new();
        let mut stack = vec![f.clone()];
        while let Some(g) = stack.pop() {
            if !seen.insert(g.clone()) {
                continue;
            }
            for v in 0..f.n_vars() {
                for val in [false, true] {
                    let c = g.cofactor(v, val);
                    if !seen.contains(&c) {
                        stack.push(c);
                    }
                }
            }
        }
        seen.into_iter().collect()
    }

    /// The heap-table permutation closure the word kernels replaced.
    fn perm_closure_oracle(cell: &CamoCell) -> BTreeSet<TruthTable> {
        let perms = all_permutations(cell.n_inputs());
        cell.plausible()
            .iter()
            .flat_map(|f| perms.iter().map(|p| f.permute(p).unwrap()))
            .collect()
    }

    #[test]
    fn word_closures_match_the_table_oracles() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        assert_eq!(camo.len(), lib.len() - 2, "every logic cell");
        // An explicit set (a MUX key gate's two projections) takes the
        // from_parts path.
        let and2 = lib.cell_by_kind(CellKind::And(2)).unwrap();
        let projections = vec![TruthTable::var(1, 2), TruthTable::var(0, 2)];
        let explicit = CamoCell::from_parts(
            and2,
            CellKind::And(2),
            "MKEY",
            2,
            1.75,
            TruthTable::var(0, 2),
            projections.clone(),
        );
        assert_eq!(
            explicit.plausible(),
            [projections[1].clone(), projections[0].clone()]
        );
        for cell in camo.iter().map(|(_, c)| c).chain([&explicit]) {
            if !std::ptr::eq(cell, &explicit) {
                assert_eq!(
                    cell.plausible(),
                    cofactor_closure_oracle(cell.nominal()),
                    "{}: plausible set and its order",
                    cell.name()
                );
            }
            let oracle = perm_closure_oracle(cell);
            let words: Vec<u64> = oracle.iter().map(TruthTable::as_word).collect();
            let mut sorted = words.clone();
            sorted.sort_unstable();
            assert_eq!(cell.perm_closed, sorted, "{}", cell.name());
            // The pre-filter answers exactly as membership in the table
            // closure, on every function of the cell's arity.
            if cell.n_inputs() <= 3 {
                for w in 0..1u64 << (1 << cell.n_inputs()) {
                    let f = TruthTable::from_word(cell.n_inputs(), w).unwrap();
                    let want = oracle
                        .contains(&f)
                        .then(|| {
                            all_permutations(cell.n_inputs())
                                .into_iter()
                                .find(|p| cell.is_plausible(&f.permute(p).unwrap()))
                        })
                        .flatten();
                    assert_eq!(cell.covers(&[f]), want, "{}: word {w:#x}", cell.name());
                }
            }
        }
    }

    #[test]
    fn plausible_sets_are_cofactor_closed() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        for (_, cell) in camo.iter() {
            for f in cell.plausible() {
                for v in 0..cell.n_inputs() {
                    for val in [false, true] {
                        assert!(
                            cell.is_plausible(&f.cofactor(v, val)),
                            "{} not closed",
                            cell.name()
                        );
                    }
                }
            }
        }
    }
}
