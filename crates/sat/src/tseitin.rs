//! Input-unrolled, constant-folded CNF encoding of obfuscated netlists.
//!
//! The adversary's plausibility test is a two-level problem:
//! *does there exist* a doping configuration such that *for all* inputs
//! the circuit equals a candidate function ([14] in the paper solves the
//! analogous problem as QBF). For the block sizes in question (4–6 data
//! inputs) the universal quantifier is cheap to unroll: the encoder
//! instantiates the netlist once per input minterm, sharing one set of
//! configuration-selector variables across all rows. Satisfiability over
//! the selectors then decides plausibility exactly.
//!
//! Each row fixes every primary input, so the encoder propagates those
//! constants as it goes and encodes only what a configuration can
//! change. A cell is cofactored on its constant pins: a constant
//! cofactor folds to a constant, a one-pin identity or complement
//! aliases that pin's literal, and only a cell that still depends on two
//! or more configuration-dependent pins gets a variable. An obfuscated
//! site whose choices all agree in a row folds the same way; otherwise
//! it gets one variable, defined by every choice's cofactor over the
//! site's free pins under that choice's selector.
//! Every variable the folding leaves out is a function of the row's
//! inputs, so the formula has exactly the models of the full unrolling
//! over the selectors and the row outputs.

use std::collections::HashMap;

use mvf_cells::{CamoLibrary, Library};
use mvf_logic::TruthTable;
use mvf_netlist::{CellId, CellRef, NetId, Netlist};

use crate::{Lit, Solver, Var};

/// The unrolled encoding: one solver, per-cell configuration selectors and
/// per-row output variables.
#[derive(Debug)]
pub struct CircuitCnf {
    /// The solver holding the encoded constraints.
    pub solver: Solver,
    /// For each camouflaged instance, one selector variable per plausible
    /// function (in the library's `plausible()` order); exactly one is
    /// true in any model.
    pub config_vars: HashMap<CellId, Vec<Var>>,
    /// `row_outputs[m][o]`: the variable of output `o` when the primary
    /// inputs are the bits of minterm `m`. An output that is constant in
    /// row `m` is a variable pinned by a unit clause.
    pub row_outputs: Vec<Vec<Var>>,
}

impl CircuitCnf {
    /// Freezes the encoding's interface against variable elimination:
    /// every configuration selector (read back as the witness) and every
    /// row-output variable (assumed on by plausibility queries). Call
    /// before [`Solver::simplify`], which the sweeps run only when asked
    /// to (their `inprocess` option). The folded encoding has no per-row
    /// input variables, so nothing else needs protection.
    pub fn freeze_interface(&mut self) {
        for vars in self.config_vars.values() {
            for &v in vars {
                self.solver.set_frozen(v, true);
            }
        }
        for row in &self.row_outputs {
            for &v in row {
                self.solver.set_frozen(v, true);
            }
        }
    }
}

/// A net's value in the row being encoded.
#[derive(Debug, Clone, Copy)]
enum NetVal {
    /// Fixed by the row's inputs alone.
    Const(bool),
    /// Configuration-dependent: the value of this literal.
    Lit(Lit),
}

/// Encodes the netlist unrolled over all `2^n_inputs` input rows, folding
/// each row's constants (see the module docs).
///
/// # Panics
///
/// Panics if the netlist has more than [`mvf_logic::MAX_VARS`] inputs
/// (the unrolling would be oversized) or is structurally invalid.
pub fn encode_netlist(nl: &Netlist, lib: &Library, camo: &CamoLibrary) -> CircuitCnf {
    let n_in = nl.inputs().len();
    assert!(
        n_in <= mvf_logic::MAX_VARS,
        "unrolled encoding limited to {} inputs",
        mvf_logic::MAX_VARS
    );
    nl.check_with_camo(lib, Some(camo)).expect("valid netlist");
    let mut solver = Solver::new();

    // Shared configuration selectors.
    let mut config_vars: HashMap<CellId, Vec<Var>> = HashMap::new();
    for (cid, c) in nl.cells() {
        if let CellRef::Camo(id) = c.cell {
            let cell = camo.cell(id);
            let vars: Vec<Var> = cell.plausible().iter().map(|_| solver.new_var()).collect();
            // At least one...
            let alo: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
            solver.add_clause(&alo);
            // ...and at most one.
            for i in 0..vars.len() {
                for j in (i + 1)..vars.len() {
                    solver.add_clause(&[Lit::neg(vars[i]), Lit::neg(vars[j])]);
                }
            }
            config_vars.insert(cid, vars);
        }
    }

    let topo = nl.topo_cells();
    let mut net = vec![NetVal::Const(false); nl.n_nets()];
    let mut pins = Pins::default();
    let mut row_outputs = Vec::with_capacity(1 << n_in);
    for m in 0..(1usize << n_in) {
        for (i, &pi) in nl.inputs().iter().enumerate() {
            net[pi.0 as usize] = NetVal::Const(m & (1 << i) != 0);
        }
        for &cid in &topo {
            let c = nl.cell(cid);
            pins.load(&c.inputs, &net);
            net[c.output.0 as usize] = match c.cell {
                CellRef::Std(id) => pins.fold(&mut solver, lib.cell(id).function()),
                CellRef::Camo(id) => {
                    let choices = camo.cell(id).plausible();
                    match choices.split_first() {
                        Some((first, rest)) if rest.iter().all(|g| pins.agree(first, g)) => {
                            pins.fold(&mut solver, first)
                        }
                        _ => {
                            // One definition per choice over all the free
                            // pins, guarded by the choice's selector.
                            let y = Lit::pos(solver.new_var());
                            let free = (1usize << pins.free.len()) - 1;
                            for (g, &s) in choices.iter().zip(&config_vars[&cid]) {
                                pins.define(&mut solver, g, free, y, Some(Lit::neg(s)));
                            }
                            NetVal::Lit(y)
                        }
                    }
                }
            };
        }
        row_outputs.push(
            nl.outputs()
                .iter()
                .map(|(_, n)| output_var(&mut solver, net[n.0 as usize]))
                .collect(),
        );
    }
    CircuitCnf {
        solver,
        config_vars,
        row_outputs,
    }
}

/// The variable a row output is read through: a positive literal's own
/// variable, else a fresh one pinned to the constant or the complement.
fn output_var(solver: &mut Solver, value: NetVal) -> Var {
    match value {
        NetVal::Lit(l) if !l.is_negative() => l.var(),
        NetVal::Lit(l) => {
            let o = solver.new_var();
            solver.add_clause(&[Lit::neg(o), l]);
            solver.add_clause(&[Lit::pos(o), !l]);
            o
        }
        NetVal::Const(b) => {
            let o = solver.new_var();
            solver.add_clause(&[Lit::with_polarity(o, b)]);
            o
        }
    }
}

/// One cell's pins in the row being encoded: the minterm bits its
/// constant pins fix, and the literals of its free pins. Functions are
/// read as cofactors on the constant pins, over free-pin assignments
/// `s` (bit `k` of `s` is free pin `k`).
#[derive(Debug, Default)]
struct Pins {
    /// Minterm bits of the constant-1 pins.
    base: usize,
    /// `(pin index, literal)` of every free pin, in pin order.
    free: Vec<(usize, Lit)>,
    /// Clause scratch.
    clause: Vec<Lit>,
}

impl Pins {
    fn load(&mut self, inputs: &[NetId], net: &[NetVal]) {
        self.base = 0;
        self.free.clear();
        for (i, n) in inputs.iter().enumerate() {
            match net[n.0 as usize] {
                NetVal::Const(true) => self.base |= 1 << i,
                NetVal::Const(false) => {}
                NetVal::Lit(l) => self.free.push((i, l)),
            }
        }
    }

    /// The cofactor of `f` at free-pin assignment `s`.
    fn eval(&self, f: &TruthTable, s: usize) -> bool {
        let m = self
            .free
            .iter()
            .enumerate()
            .fold(self.base, |m, (k, &(i, _))| m | ((s >> k) & 1) << i);
        f.get(m)
    }

    /// Whether the cofactors of `f` and `g` are the same function.
    fn agree(&self, f: &TruthTable, g: &TruthTable) -> bool {
        (0..1usize << self.free.len()).all(|s| self.eval(f, s) == self.eval(g, s))
    }

    /// The free pins the cofactor of `f` depends on, as a mask over
    /// free-pin positions.
    fn support(&self, f: &TruthTable) -> usize {
        let n = self.free.len();
        (0..n)
            .filter(|&k| {
                (0..1usize << n)
                    .any(|s| (s >> k) & 1 == 0 && self.eval(f, s) != self.eval(f, s | 1 << k))
            })
            .fold(0, |mask, k| mask | 1 << k)
    }

    /// The value of a cell computing `f`: a constant when the cofactor is
    /// constant, a free pin's literal (or its complement) when it is a
    /// one-pin identity (or complement), else a fresh variable defined
    /// over the pins it depends on.
    fn fold(&mut self, solver: &mut Solver, f: &TruthTable) -> NetVal {
        let support = self.support(f);
        if support == 0 {
            return NetVal::Const(self.eval(f, 0));
        }
        if support.is_power_of_two() {
            let l = self.free[support.trailing_zeros() as usize].1;
            return NetVal::Lit(if self.eval(f, support) { l } else { !l });
        }
        let y = Lit::pos(solver.new_var());
        self.define(solver, f, support, y, None);
        NetVal::Lit(y)
    }

    /// Adds `guard → (y ↔ f)` for the cofactor of `f` over the free pins
    /// in `support` (a mask over free-pin positions that holds every pin
    /// the cofactor depends on): one clause per assignment of those pins.
    /// An empty mask gives the single clause `guard → (y = c)`.
    fn define(
        &mut self,
        solver: &mut Solver,
        f: &TruthTable,
        support: usize,
        y: Lit,
        guard: Option<Lit>,
    ) {
        let mut s = 0usize;
        loop {
            let value = self.eval(f, s);
            self.clause.clear();
            self.clause.extend(guard);
            for (k, &(_, l)) in self.free.iter().enumerate() {
                if (support >> k) & 1 == 1 {
                    // Pin pattern: exclude assignments ≠ s.
                    self.clause.push(if (s >> k) & 1 == 1 { !l } else { l });
                }
            }
            self.clause.push(if value { y } else { !y });
            solver.add_clause(&self.clause);
            // Next subset of `support`; wraps to 0 after the last.
            s = s.wrapping_sub(support) & support;
            if s == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_cells::CellKind;

    #[test]
    fn std_netlist_encoding_matches_semantics() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let nand = lib.cell_by_kind(CellKind::Nand(2)).unwrap();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, y) = nl.add_cell("u", nand.into(), vec![a, b]);
        nl.add_output("y", y);
        let mut cnf = encode_netlist(&nl, &lib, &camo);
        assert!(cnf.solver.solve());
        for m in 0..4usize {
            let v = cnf.row_outputs[m][0];
            assert_eq!(cnf.solver.value(v), Some(m != 3), "m={m}");
        }
    }

    #[test]
    fn camo_cell_selector_constrains_output() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let (nand_id, nand) = camo.iter().find(|(_, c)| c.name() == "NAND2").unwrap();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (cid, y) = nl.add_cell("u", nand_id.into(), vec![a, b]);
        nl.add_output("y", y);
        let mut cnf = encode_netlist(&nl, &lib, &camo);
        // Force the output column to be exactly ¬a: must be satisfiable
        // (¬A is plausible for NAND2) and the model must select it.
        let mut assumptions = Vec::new();
        for m in 0..4usize {
            assumptions.push(Lit::with_polarity(cnf.row_outputs[m][0], m & 1 == 0));
        }
        assert!(cnf.solver.solve_with(&assumptions));
        let sels = &cnf.config_vars[&cid];
        let chosen: Vec<usize> = sels
            .iter()
            .enumerate()
            .filter(|(_, &v)| cnf.solver.value(v) == Some(true))
            .map(|(j, _)| j)
            .collect();
        assert_eq!(chosen.len(), 1);
        let f = &nand.plausible()[chosen[0]];
        assert_eq!(f, &mvf_logic::TruthTable::var(0, 2).not());

        // Forcing XOR must be unsatisfiable.
        let mut assumptions = Vec::new();
        for m in 0..4usize {
            let bit = (m & 1 == 1) ^ (m & 2 == 2);
            assumptions.push(Lit::with_polarity(cnf.row_outputs[m][0], bit));
        }
        assert!(!cnf.solver.solve_with(&assumptions));
    }
}
