use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use mvf_logic::npn::all_permutations;
use mvf_logic::TruthTable;

/// The gate families of the base standard-cell library.
///
/// This is exactly the set the paper's ABC script maps to: "inverters,
/// buffers, and 2-4 input NAND, NOR, AND, OR gates", plus tie cells used to
/// realize constant nets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Inverter (1 input).
    Inv,
    /// Buffer (1 input).
    Buf,
    /// `¬(a·b·…)` with the given fan-in (2–4).
    Nand(u8),
    /// `¬(a+b+…)` with the given fan-in (2–4).
    Nor(u8),
    /// `a·b·…` with the given fan-in (2–4).
    And(u8),
    /// `a+b+…` with the given fan-in (2–4).
    Or(u8),
    /// Constant 0 driver (0 inputs).
    Tie0,
    /// Constant 1 driver (0 inputs).
    Tie1,
}

impl CellKind {
    /// Number of input pins.
    pub fn n_inputs(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::Nand(n) | CellKind::Nor(n) | CellKind::And(n) | CellKind::Or(n) => n as usize,
            CellKind::Tie0 | CellKind::Tie1 => 0,
        }
    }

    /// The nominal logic function over the cell's pins (pin `i` = variable `i`).
    pub fn function(self) -> TruthTable {
        let n = self.n_inputs();
        match self {
            CellKind::Inv => TruthTable::var(0, 1).not(),
            CellKind::Buf => TruthTable::var(0, 1),
            CellKind::And(_) => and_all(n),
            CellKind::Nand(_) => and_all(n).not(),
            CellKind::Or(_) => or_all(n),
            CellKind::Nor(_) => or_all(n).not(),
            CellKind::Tie0 => TruthTable::zero(0),
            CellKind::Tie1 => TruthTable::one(0),
        }
    }

    /// Conventional cell name (`NAND3`, `INV`, …).
    pub fn name(self) -> String {
        match self {
            CellKind::Inv => "INV".to_string(),
            CellKind::Buf => "BUF".to_string(),
            CellKind::Nand(n) => format!("NAND{n}"),
            CellKind::Nor(n) => format!("NOR{n}"),
            CellKind::And(n) => format!("AND{n}"),
            CellKind::Or(n) => format!("OR{n}"),
            CellKind::Tie0 => "TIE0".to_string(),
            CellKind::Tie1 => "TIE1".to_string(),
        }
    }

    /// Area in gate equivalents (NAND2 ≡ 1.0 GE).
    ///
    /// Ratios follow typical commercial standard-cell libraries (e.g. the
    /// UMC/TSMC 90–180 nm libraries commonly used for GE figures in the
    /// lightweight-crypto literature the paper draws its ~30 GE-per-S-box
    /// anchor from).
    pub fn area_ge(self) -> f64 {
        match self {
            CellKind::Inv => 0.67,
            CellKind::Buf => 1.0,
            CellKind::Nand(2) | CellKind::Nor(2) => 1.0,
            CellKind::Nand(3) | CellKind::Nor(3) => 1.33,
            CellKind::Nand(4) | CellKind::Nor(4) => 1.67,
            CellKind::And(2) | CellKind::Or(2) => 1.33,
            CellKind::And(3) | CellKind::Or(3) => 1.67,
            CellKind::And(4) | CellKind::Or(4) => 2.0,
            CellKind::Tie0 | CellKind::Tie1 => 0.33,
            // Fan-ins outside 2–4 are not part of the library.
            CellKind::Nand(n) | CellKind::Nor(n) | CellKind::And(n) | CellKind::Or(n) => {
                panic!("unsupported fan-in {n}")
            }
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

fn and_all(n: usize) -> TruthTable {
    let mut t = TruthTable::one(n);
    for v in 0..n {
        t = t.and(&TruthTable::var(v, n));
    }
    t
}

fn or_all(n: usize) -> TruthTable {
    let mut t = TruthTable::zero(n);
    for v in 0..n {
        t = t.or(&TruthTable::var(v, n));
    }
    t
}

/// Identifier of a cell within a [`Library`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LibCellId(pub u32);

/// One standard cell: kind, function and area.
#[derive(Debug, Clone)]
pub struct LibCell {
    kind: CellKind,
    name: String,
    function: TruthTable,
    area_ge: f64,
}

impl LibCell {
    /// The cell's gate family.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The cell's name (`NAND2`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The nominal function over the cell pins.
    pub fn function(&self) -> &TruthTable {
        &self.function
    }

    /// Number of input pins.
    pub fn n_inputs(&self) -> usize {
        self.kind.n_inputs()
    }

    /// Area in gate equivalents.
    pub fn area_ge(&self) -> f64 {
        self.area_ge
    }
}

/// A standard-cell library: an indexed collection of [`LibCell`]s.
///
/// # Example
///
/// ```
/// use mvf_cells::Library;
///
/// let lib = Library::standard();
/// let nand2 = lib.cell_by_name("NAND2").expect("present");
/// assert_eq!(lib.cell(nand2).area_ge(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Library {
    cells: Vec<LibCell>,
    /// The pin-permutation match index, built on the first
    /// [`Library::match_function`] call.
    matches: OnceLock<MatchIndex>,
}

/// Every function a library cell realizes under some pin permutation,
/// keyed by `(arity, function word)`, with the cell and permutation the
/// standard mapper picks for it.
type MatchIndex = HashMap<(usize, u64), (LibCellId, Vec<usize>)>;

impl Library {
    /// The paper's base library: INV, BUF, NAND2–4, NOR2–4, AND2–4, OR2–4,
    /// TIE0, TIE1.
    pub fn standard() -> Self {
        let mut kinds = vec![CellKind::Inv, CellKind::Buf, CellKind::Tie0, CellKind::Tie1];
        for n in 2..=4u8 {
            kinds.push(CellKind::Nand(n));
            kinds.push(CellKind::Nor(n));
            kinds.push(CellKind::And(n));
            kinds.push(CellKind::Or(n));
        }
        Library {
            cells: kinds
                .into_iter()
                .map(|kind| LibCell {
                    kind,
                    name: kind.name(),
                    function: kind.function(),
                    area_ge: kind.area_ge(),
                })
                .collect(),
            matches: OnceLock::new(),
        }
    }

    /// The cell a subtree function `f` maps onto: among the cells whose
    /// function equals `f.permute(perm)` for some pin permutation `perm`,
    /// the first of least area in [`Library::iter`] order, together with
    /// its first such `perm` in [`all_permutations`] order (data leaf `v`
    /// drives pin `perm[v]`). `None` if no cell matches; tables wider than
    /// 6 variables never match, since no cell has more than 4 pins.
    ///
    /// One hash lookup: the index of all cell functions under all pin
    /// permutations is built on the first call and shared by clones made
    /// afterwards.
    pub fn match_function(&self, f: &TruthTable) -> Option<(LibCellId, &[usize])> {
        if f.n_vars() > 6 {
            return None;
        }
        self.matches
            .get_or_init(|| self.build_match_index())
            .get(&(f.n_vars(), f.as_word()))
            .map(|(id, perm)| (*id, perm.as_slice()))
    }

    /// Builds the [`Library::match_function`] index. `f.permute(perm)`
    /// equals a cell's function exactly when `f` is that function
    /// permuted by `perm`'s inverse, so each cell contributes one key per
    /// permutation. Walking cells in `iter()` order and permutations in
    /// `all_permutations` order, a key moves to a later cell only if that
    /// cell is strictly smaller, and a cell keeps its first permutation:
    /// the tie-breaks of a scan over cells and permutations.
    fn build_match_index(&self) -> MatchIndex {
        let mut index = MatchIndex::new();
        let mut inverse = Vec::new();
        for (id, cell) in self.iter() {
            let f = cell.function();
            for perm in all_permutations(f.n_vars()) {
                inverse.clear();
                inverse.resize(perm.len(), 0);
                for (v, &p) in perm.iter().enumerate() {
                    inverse[p] = v;
                }
                let key_fn = f.permute(&inverse).expect("valid permutation");
                let key = (key_fn.n_vars(), key_fn.as_word());
                let taken = index.get(&key).is_some_and(|&(prev, _)| {
                    prev == id || self.cell(prev).area_ge <= cell.area_ge
                });
                if !taken {
                    index.insert(key, (id, perm));
                }
            }
        }
        index
    }

    /// Number of cells.
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
    pub fn cell(&self, id: LibCellId) -> &LibCell {
        &self.cells[id.0 as usize]
    }

    /// Looks a cell up by name.
    pub fn cell_by_name(&self, name: &str) -> Option<LibCellId> {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(|i| LibCellId(i as u32))
    }

    /// Looks a cell up by kind.
    pub fn cell_by_kind(&self, kind: CellKind) -> Option<LibCellId> {
        self.cells
            .iter()
            .position(|c| c.kind == kind)
            .map(|i| LibCellId(i as u32))
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LibCellId, &LibCell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (LibCellId(i as u32), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_functions_are_correct() {
        // NAND3 truth: 0 only at m = 0b111.
        let f = CellKind::Nand(3).function();
        for m in 0..8 {
            assert_eq!(f.get(m), m != 7, "m={m}");
        }
        // NOR2 truth: 1 only at m = 0.
        let f = CellKind::Nor(2).function();
        for m in 0..4 {
            assert_eq!(f.get(m), m == 0);
        }
        assert!(CellKind::Tie1.function().is_one());
        assert!(CellKind::Tie0.function().is_zero());
        assert_eq!(CellKind::Inv.function(), TruthTable::var(0, 1).not());
    }

    #[test]
    fn ge_normalization() {
        assert_eq!(CellKind::Nand(2).area_ge(), 1.0);
        assert!(CellKind::Inv.area_ge() < 1.0);
        assert!(CellKind::And(4).area_ge() > CellKind::And(2).area_ge());
    }

    #[test]
    fn standard_library_contents() {
        let lib = Library::standard();
        assert_eq!(lib.len(), 16);
        for name in [
            "INV", "BUF", "TIE0", "TIE1", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4",
            "AND2", "AND3", "AND4", "OR2", "OR3", "OR4",
        ] {
            let id = lib
                .cell_by_name(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(lib.cell(id).name(), name);
        }
        assert!(lib.cell_by_name("XOR2").is_none());
    }

    /// The scan [`Library::match_function`] replaced: every permutation
    /// of `f` tried against every cell of its arity, skipping cells no
    /// cheaper than the best match so far. Kept as the oracle of the index.
    fn match_function_reference(lib: &Library, f: &TruthTable) -> Option<(LibCellId, Vec<usize>)> {
        let perms = all_permutations(f.n_vars());
        let permuted: Vec<TruthTable> = perms
            .iter()
            .map(|perm| f.permute(perm).expect("valid permutation"))
            .collect();
        let mut best: Option<(LibCellId, Vec<usize>, f64)> = None;
        for (id, cell) in lib.iter() {
            if cell.n_inputs() != f.n_vars() {
                continue;
            }
            if best.as_ref().is_some_and(|b| b.2 <= cell.area_ge()) {
                continue;
            }
            for (perm, g) in perms.iter().zip(&permuted) {
                if g == cell.function() {
                    best = Some((id, perm.clone(), cell.area_ge()));
                    break;
                }
            }
        }
        best.map(|(id, perm, _)| (id, perm))
    }

    #[test]
    fn match_index_equals_the_scan_on_every_small_function() {
        let lib = Library::standard();
        let mut matched = 0;
        for n in 0..=4usize {
            for bits in 0..(1u64 << (1 << n)) {
                let f = TruthTable::from_word(n, bits).unwrap();
                let got = lib.match_function(&f).map(|(id, perm)| (id, perm.to_vec()));
                assert_eq!(got, match_function_reference(&lib, &f), "f = {f:?}");
                if let Some((id, perm)) = got {
                    assert_eq!(&f.permute(&perm).unwrap(), lib.cell(id).function());
                    matched += 1;
                }
            }
        }
        // Every standard cell function is symmetric in its pins, so each
        // of the 16 cells is matched by exactly one table.
        assert_eq!(matched, lib.len());
        assert!(lib.match_function(&TruthTable::zero(7)).is_none());
    }

    #[test]
    fn lookup_by_kind() {
        let lib = Library::standard();
        let id = lib.cell_by_kind(CellKind::Or(3)).unwrap();
        assert_eq!(lib.cell(id).n_inputs(), 3);
        assert_eq!(lib.cell(id).kind(), CellKind::Or(3));
    }
}
