//! The shared tree-covering dynamic-programming engine.
//!
//! Both mappers classify the subject netlist into fanout-free trees, then
//! run the DP of the paper's Alg. 1: for every cell in topological order,
//! enumerate candidate subtrees rooted at it (bounded depth, bounded data
//! leaves), characterize each subtree by its function set under select
//! abstraction (`ABSFUNC`), ask a matcher for the cheapest library cell
//! covering that set, and keep the cheapest total cover. Chosen covers are
//! then emitted root-by-root into a fresh netlist.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use mvf_cells::{CamoLibrary, Library};
use mvf_logic::{TruthTable, TtArena};
use mvf_netlist::{CellId, CellRef, NetId, Netlist};

/// Reusable engine-level working memory for the covering DP.
///
/// Subtree enumeration and characterization are the per-cell hot loop of
/// both mappers. The seed implementation allocated nested
/// `Vec<Vec<NetId>>` leaf sets and a fresh `HashMap<NetId, TruthTable>`
/// environment per candidate subtree; this scratch flattens both onto
/// reusable arenas — a flat leaf-set pool with `(start, end)` ranges and
/// a [`TtArena`]-backed cone evaluation — so a warm mapping call performs
/// no per-subtree allocation. Reuse never changes a mapping decision.
#[derive(Debug, Default)]
pub struct EngineScratch {
    pub(crate) leaf: LeafScratch,
    pub(crate) cone: ConeScratch,
}

/// Flat leaf-set enumeration state: all candidate sets of the current
/// cell live in one `NetId` pool addressed by ranges.
#[derive(Debug, Default)]
pub(crate) struct LeafScratch {
    /// The leaf-set arena; every set is a contiguous run.
    pool: Vec<NetId>,
    /// All produced sets (raw, pre-dedup) as ranges into `pool`.
    sets: Vec<(u32, u32)>,
    /// The deduplicated, budget-pruned survivors (ranges into `pool`).
    kept: Vec<(u32, u32)>,
    /// Per-input option lists: ranges into `opt_idx`, stack-disciplined
    /// across the enumeration recursion.
    input_opts: Vec<(u32, u32)>,
    /// Flat option storage: indices into `sets`.
    opt_idx: Vec<u32>,
    /// The set under construction during the cross product.
    cur: Vec<NetId>,
    /// Sorted-key arena for dedup (one key per kept set).
    key_pool: Vec<u32>,
    key_ranges: Vec<(u32, u32)>,
    key_buf: Vec<u32>,
}

/// Cone-evaluation state: one [`TtArena`] slot per cone net, grown on
/// demand, plus the reused net→slot bindings.
#[derive(Debug, Default)]
pub(crate) struct ConeScratch {
    arena: TtArena,
    /// `(net, slot)` bindings of the current cone. A cone holds a few
    /// dozen nets at most, so a linear scan beats hashing.
    slots: Vec<(NetId, usize)>,
    /// Stack-disciplined pin-slot buffer for the recursive evaluation.
    pins: Vec<usize>,
    next_slot: usize,
}

impl ConeScratch {
    fn alloc_slot(&mut self) -> usize {
        let s = self.next_slot;
        self.next_slot += 1;
        self.arena.ensure_slots(self.next_slot);
        s
    }
}

/// The covering engine's view of one net, from a dense per-net table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NetKind {
    /// An ordinary data net.
    Plain,
    /// Driven by a tie cell with this value.
    Const(bool),
    /// A select input at this position of the select list (the bit index
    /// of the select value).
    Select(usize),
}

/// Errors reported by the mappers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum MapError {
    /// No candidate subtree at the named cell matched any library cell.
    NoMatch {
        /// The subject-netlist cell that could not be covered.
        cell: String,
    },
    /// The subject netlist failed its structural check.
    BadSubject(String),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::NoMatch { cell } => {
                write!(f, "no library cell covers any subtree rooted at {cell}")
            }
            MapError::BadSubject(e) => write!(f, "subject netlist is malformed: {e}"),
        }
    }
}

impl Error for MapError {}

/// What a matcher proposes for one candidate subtree.
pub(crate) struct Match {
    /// The chosen library cell.
    pub cell: CellRef,
    /// Pin assignment: data leaf `v` connects to pin `perm[v]`.
    pub pin_perm: Vec<usize>,
    /// Required pin-space function per select assignment (length
    /// `2^n_selects`, or 1 when no selects are involved).
    pub funcs_by_assign: Vec<TruthTable>,
    /// Cell area in GE.
    pub area: f64,
    /// The subtree's data leaves must be replaced by this (used by the
    /// constant-with-selects trick, where a camouflaged inverter is fed an
    /// arbitrary net).
    pub override_leaves: Option<Vec<NetId>>,
}

/// One candidate subtree rooted at a cell.
pub(crate) struct Subtree {
    /// Distinct non-select, non-constant leaf nets in first-seen order.
    pub data_leaves: Vec<NetId>,
    /// Distinct select leaf nets in first-seen order.
    pub select_leaves: Vec<NetId>,
    /// The set of functions over the data leaves, one per select
    /// assignment, deduplicated. `funcs[a]` corresponds to assignment `a`
    /// over `select_leaves` *before* dedup — kept per-assignment.
    pub funcs_by_assign: Vec<TruthTable>,
}

/// The chosen cover of one subject cell.
pub(crate) struct Choice {
    pub leaves: Vec<NetId>,
    pub select_leaves: Vec<NetId>,
    pub cell: CellRef,
    pub pin_perm: Vec<usize>,
    pub funcs_by_assign: Vec<TruthTable>,
}

pub(crate) struct Engine<'a> {
    pub nl: &'a Netlist,
    pub lib: &'a Library,
    pub camo: Option<&'a CamoLibrary>,
    /// Per net (indexed by `NetId`): constant, select or plain.
    pub kinds: Vec<NetKind>,
    pub fanouts: Vec<u32>,
    pub max_depth: usize,
    pub max_data_leaves: usize,
    pub max_selects: usize,
}

impl<'a> Engine<'a> {
    pub fn new(
        nl: &'a Netlist,
        lib: &'a Library,
        camo: Option<&'a CamoLibrary>,
        select_inputs: &[usize],
        max_depth: usize,
        max_data_leaves: usize,
        max_selects: usize,
    ) -> Result<Self, MapError> {
        nl.check_with_camo(lib, camo)
            .map_err(|e| MapError::BadSubject(e.to_string()))?;
        let mut kinds = vec![NetKind::Plain; nl.n_nets()];
        for (_, c) in nl.cells() {
            if let CellRef::Std(id) = c.cell {
                let f = lib.cell(id).function();
                if f.n_vars() == 0 {
                    kinds[c.output.0 as usize] = NetKind::Const(f.is_one());
                }
            }
        }
        // Map each select net to its *position* in the select list (bit
        // index of the select value), not its raw input index.
        for (pos, &idx) in select_inputs.iter().enumerate() {
            kinds[nl.inputs()[idx].0 as usize] = NetKind::Select(pos);
        }
        Ok(Engine {
            nl,
            lib,
            camo,
            kinds,
            fanouts: nl.fanout_counts(),
            max_depth,
            max_data_leaves,
            max_selects,
        })
    }

    fn kind(&self, net: NetId) -> NetKind {
        self.kinds[net.0 as usize]
    }

    fn is_const(&self, net: NetId) -> bool {
        matches!(self.kind(net), NetKind::Const(_))
    }

    /// `true` iff the net may be expanded through during subtree
    /// enumeration: cell-driven, single fanout, not constant.
    fn expandable(&self, net: NetId) -> Option<CellId> {
        if self.is_const(net) {
            return None;
        }
        if self.fanouts[net.0 as usize] != 1 {
            return None;
        }
        self.nl.driver(net)
    }

    /// Enumerates the leaf sets of candidate subtrees rooted at `cell`
    /// into the flat scratch: on return, `s.kept` holds the ranges of the
    /// deduplicated, budget-pruned sets inside `s.pool`.
    ///
    /// The produced sets (contents and order) are identical to the seed
    /// nested-`Vec` enumeration; only the storage is flat and reused.
    fn leaf_sets_into(&self, cell: CellId, s: &mut LeafScratch) {
        // Emits the cross product over the per-input option lists
        // `input_opts[opts_base..]`, extending the set under construction
        // in `s.cur` (first-seen order, deduplicated) and writing every
        // completed set into the pool. Input 0 is the outermost loop, so
        // the emission order matches the seed implementation.
        fn product(s: &mut LeafScratch, opts_base: usize, n_inputs: usize, i: usize) {
            if i == n_inputs {
                let start = s.pool.len() as u32;
                for k in 0..s.cur.len() {
                    let n = s.cur[k];
                    s.pool.push(n);
                }
                s.sets.push((start, s.pool.len() as u32));
                return;
            }
            let (os, oe) = s.input_opts[opts_base + i];
            for oi in os..oe {
                let (ps, pe) = s.sets[s.opt_idx[oi as usize] as usize];
                let save = s.cur.len();
                for p in ps..pe {
                    let n = s.pool[p as usize];
                    if !s.cur.contains(&n) {
                        s.cur.push(n);
                    }
                }
                product(s, opts_base, n_inputs, i + 1);
                s.cur.truncate(save);
            }
        }
        // Produces the candidate sets of `cell` at `depth`; returns their
        // index range in `s.sets`. Per-input options are the input net
        // itself plus (when expandable) the child's recursive sets.
        fn rec(eng: &Engine<'_>, cell: CellId, depth: usize, s: &mut LeafScratch) -> (u32, u32) {
            let inputs = &eng.nl.cell(cell).inputs;
            let opts_base = s.input_opts.len();
            let oi_save = s.opt_idx.len();
            for &net in inputs {
                let oi_start = s.opt_idx.len() as u32;
                let p0 = s.pool.len() as u32;
                s.pool.push(net);
                s.sets.push((p0, p0 + 1));
                s.opt_idx.push((s.sets.len() - 1) as u32);
                if depth > 1 {
                    if let Some(child) = eng.expandable(net) {
                        let (cs, ce) = rec(eng, child, depth - 1, s);
                        s.opt_idx.extend(cs..ce);
                    }
                }
                s.input_opts.push((oi_start, s.opt_idx.len() as u32));
            }
            let out_start = s.sets.len() as u32;
            product(s, opts_base, inputs.len(), 0);
            let out_end = s.sets.len() as u32;
            s.input_opts.truncate(opts_base);
            s.opt_idx.truncate(oi_save);
            (out_start, out_end)
        }
        s.pool.clear();
        s.sets.clear();
        s.kept.clear();
        s.key_pool.clear();
        s.key_ranges.clear();
        debug_assert!(s.input_opts.is_empty() && s.opt_idx.is_empty() && s.cur.is_empty());
        let (raw_start, raw_end) = rec(self, cell, self.max_depth, s);
        // Dedup by sorted key and prune by leaf budgets, keeping the
        // first occurrence — exactly the seed `BTreeSet` behavior.
        for si in raw_start..raw_end {
            let (ps, pe) = s.sets[si as usize];
            let mut data = 0usize;
            let mut sel = 0usize;
            for p in ps..pe {
                match self.kind(s.pool[p as usize]) {
                    NetKind::Const(_) => {}
                    NetKind::Select(_) => sel += 1,
                    NetKind::Plain => data += 1,
                }
            }
            if data > self.max_data_leaves || sel > self.max_selects {
                continue;
            }
            s.key_buf.clear();
            for p in ps..pe {
                s.key_buf.push(s.pool[p as usize].0);
            }
            s.key_buf.sort_unstable();
            let duplicate = s
                .key_ranges
                .iter()
                .any(|&(ks, ke)| s.key_pool[ks as usize..ke as usize] == s.key_buf[..]);
            if !duplicate {
                let ks = s.key_pool.len() as u32;
                s.key_pool.extend_from_slice(&s.key_buf);
                s.key_ranges.push((ks, s.key_pool.len() as u32));
                s.kept.push((ps, pe));
            }
        }
    }

    /// Computes the subtree characterization (ABSFUNC) for one leaf set,
    /// evaluating the cone through the scratch [`TtArena`] — one slot per
    /// cone net, no per-net `TruthTable` allocation.
    fn characterize_with(&self, root: CellId, leaves: &[NetId], cone: &mut ConeScratch) -> Subtree {
        let mut data_leaves = Vec::new();
        let mut select_leaves = Vec::new();
        for &n in leaves {
            match self.kind(n) {
                NetKind::Const(_) => {}
                NetKind::Select(_) => select_leaves.push(n),
                NetKind::Plain => data_leaves.push(n),
            }
        }
        let k = data_leaves.len();
        let s = select_leaves.len();
        let n_vars = k + s;
        cone.slots.clear();
        cone.next_slot = 0;
        cone.arena.reset(n_vars, leaves.len() + 2);
        debug_assert!(cone.pins.is_empty());
        for (i, &n) in data_leaves.iter().chain(&select_leaves).enumerate() {
            let slot = cone.alloc_slot();
            cone.arena.write_var(slot, i);
            cone.slots.push((n, slot));
        }
        // One shared minterm-product slot for every composition below.
        let tmp = cone.alloc_slot();
        let root_slot = self.eval_cone_slots(root, tmp, cone);
        let f = cone.arena.to_table(root_slot);
        // ABSFUNC: one function per select assignment, projected onto the
        // data variables. Without selects the cone function already is
        // over exactly the data variables `0..k`.
        let funcs = if s == 0 {
            vec![f]
        } else {
            let data_vars: Vec<usize> = (0..k).collect();
            (0..(1usize << s))
                .map(|a| {
                    let mut g = f.clone();
                    for j in 0..s {
                        g = g.cofactor(k + j, a & (1 << j) != 0);
                    }
                    g.project(&data_vars)
                })
                .collect()
        };
        Subtree {
            data_leaves,
            select_leaves,
            funcs_by_assign: funcs,
        }
    }

    /// Evaluates the function of `root`'s output into a fresh arena slot.
    /// Leaf nets are pre-bound in `cone.slots`; interior nets are bound as
    /// they are computed (memoized across the cone); constants bind
    /// lazily.
    fn eval_cone_slots(&self, root: CellId, tmp: usize, cone: &mut ConeScratch) -> usize {
        let cell = self.nl.cell(root);
        let pin_base = cone.pins.len();
        for &net in &cell.inputs {
            let slot = if let Some(&(_, slot)) = cone.slots.iter().find(|&&(n, _)| n == net) {
                slot
            } else if let NetKind::Const(v) = self.kind(net) {
                let slot = cone.alloc_slot();
                if v {
                    cone.arena.write_one(slot);
                } else {
                    cone.arena.write_zero(slot);
                }
                cone.slots.push((net, slot));
                slot
            } else {
                let child = self
                    .nl
                    .driver(net)
                    .expect("leaf set must cover the cone frontier");
                let slot = self.eval_cone_slots(child, tmp, cone);
                cone.slots.push((net, slot));
                slot
            };
            cone.pins.push(slot);
        }
        let f = match cell.cell {
            CellRef::Std(id) => self.lib.cell(id).function(),
            CellRef::Camo(_) => {
                unreachable!("subject netlists contain standard cells only")
            }
        };
        let dst = cone.alloc_slot();
        // Shannon-style substitution, arena edition: OR over f's minterms
        // of the complement-aware product of the pin slots.
        cone.arena.write_zero(dst);
        for m in 0..f.n_minterms() {
            if !f.get(m) {
                continue;
            }
            cone.arena.write_one(tmp);
            for (i, &p) in cone.pins[pin_base..].iter().enumerate() {
                cone.arena.and_in_place(tmp, p, m & (1 << i) == 0);
            }
            cone.arena.or_in_place(dst, tmp);
        }
        cone.pins.truncate(pin_base);
        dst
    }

    /// Runs the covering DP with the supplied matcher and returns the
    /// chosen cover per cell (indexed by `CellId`; tie cells have none).
    /// The scratch carries the flat enumeration and cone-evaluation arenas
    /// across cells (and, via the mappers' `MatchScratch`, across calls).
    pub fn cover<M>(
        &self,
        mut matcher: M,
        scratch: &mut EngineScratch,
    ) -> Result<Vec<Option<Choice>>, MapError>
    where
        M: FnMut(&Subtree) -> Option<Match>,
    {
        // Dense per-cell tables; a cell not yet covered costs infinity.
        let mut costs = vec![f64::INFINITY; self.nl.n_cells()];
        let mut choices: Vec<Option<Choice>> = Vec::new();
        choices.resize_with(self.nl.n_cells(), || None);
        let EngineScratch { leaf, cone } = scratch;
        for cell in self.nl.topo_cells() {
            let out = self.nl.cell(cell).output;
            if self.is_const(out) {
                continue; // tie cells are emitted directly
            }
            let mut best: Option<(f64, Choice)> = None;
            self.leaf_sets_into(cell, leaf);
            for ki in 0..leaf.kept.len() {
                let (ls, le) = leaf.kept[ki];
                let st = self.characterize_with(cell, &leaf.pool[ls as usize..le as usize], cone);
                let Some(m) = matcher(&st) else { continue };
                let mut cost = m.area;
                for &leaf in &st.data_leaves {
                    if let Some(d) = self.nl.driver(leaf) {
                        if !self.is_const(leaf) && self.fanouts[leaf.0 as usize] == 1 {
                            cost += costs[d.0 as usize];
                        }
                        // Multi-fanout leaves are tree inputs: their
                        // cost is paid once at their own root.
                    }
                }
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((
                        cost,
                        Choice {
                            leaves: m.override_leaves.unwrap_or(st.data_leaves),
                            select_leaves: st.select_leaves,
                            cell: m.cell,
                            pin_perm: m.pin_perm,
                            funcs_by_assign: m.funcs_by_assign,
                        },
                    ));
                }
            }
            let Some((cost, choice)) = best else {
                return Err(MapError::NoMatch {
                    cell: self.nl.cell(cell).name.clone(),
                });
            };
            costs[cell.0 as usize] = cost;
            choices[cell.0 as usize] = Some(choice);
        }
        Ok(choices)
    }

    /// Emits the chosen covers into a fresh netlist. Select inputs are
    /// dropped from the interface when `drop_selects` is set (camouflage
    /// mapping); otherwise they are kept (plain mapping never has any).
    ///
    /// Returns the netlist plus, for every emitted camouflaged cell, its
    /// witness `(mapped cell, select input indices, pin-space function per
    /// select assignment)`.
    pub fn emit(
        &self,
        choices: &[Option<Choice>],
        drop_selects: bool,
        name: &str,
    ) -> (Netlist, Vec<(CellId, Vec<usize>, Vec<TruthTable>)>) {
        let mut out = Netlist::new(name);
        let mut net_map: HashMap<NetId, NetId> = HashMap::new();
        for &pi in self.nl.inputs() {
            if drop_selects && matches!(self.kind(pi), NetKind::Select(_)) {
                continue;
            }
            let mapped = out.add_input(self.nl.net_name(pi).to_string());
            net_map.insert(pi, mapped);
        }
        let mut tie_map: HashMap<bool, NetId> = HashMap::new();
        let mut emitted: HashMap<CellId, NetId> = HashMap::new();
        let mut witnesses = Vec::new();

        // Iterative emission over required nets.
        fn emit_net(
            eng: &Engine<'_>,
            net: NetId,
            out: &mut Netlist,
            net_map: &mut HashMap<NetId, NetId>,
            tie_map: &mut HashMap<bool, NetId>,
            emitted: &mut HashMap<CellId, NetId>,
            choices: &[Option<Choice>],
            witnesses: &mut Vec<(CellId, Vec<usize>, Vec<TruthTable>)>,
        ) -> NetId {
            if let Some(&m) = net_map.get(&net) {
                return m;
            }
            if let NetKind::Const(v) = eng.kind(net) {
                if let Some(&t) = tie_map.get(&v) {
                    net_map.insert(net, t);
                    return t;
                }
                let kind = if v {
                    mvf_cells::CellKind::Tie1
                } else {
                    mvf_cells::CellKind::Tie0
                };
                let id = eng.lib.cell_by_kind(kind).expect("tie cells in library");
                let (_, t) = out.add_cell(format!("tie{}", v as u8), CellRef::Std(id), vec![]);
                tie_map.insert(v, t);
                net_map.insert(net, t);
                return t;
            }
            let driver = eng
                .nl
                .driver(net)
                .expect("net without driver reached during emission");
            if let Some(&t) = emitted.get(&driver) {
                net_map.insert(net, t);
                return t;
            }
            let choice = choices[driver.0 as usize]
                .as_ref()
                .expect("every covered cell has a choice");
            let mut mapped_leaves = Vec::with_capacity(choice.leaves.len());
            for &leaf in &choice.leaves {
                mapped_leaves.push(emit_net(
                    eng, leaf, out, net_map, tie_map, emitted, choices, witnesses,
                ));
            }
            // Pin order: leaf v goes to pin pin_perm[v].
            let n_pins = match choice.cell {
                CellRef::Std(id) => eng.lib.cell(id).n_inputs(),
                CellRef::Camo(id) => eng.camo.expect("camo library present").cell(id).n_inputs(),
            };
            let mut pins = vec![NetId(u32::MAX); n_pins];
            for (v, &leaf) in mapped_leaves.iter().enumerate() {
                pins[choice.pin_perm[v]] = leaf;
            }
            // Unused pins (possible only for the camouflaged-constant
            // trick) are tied to the first mapped leaf or, failing that,
            // the lowest already-emitted net — a deterministic choice, so
            // repeated runs emit identical netlists.
            let filler = mapped_leaves.first().copied().unwrap_or_else(|| {
                net_map
                    .values()
                    .copied()
                    .min_by_key(|n| n.0)
                    .expect("at least one net")
            });
            for p in pins.iter_mut() {
                if p.0 == u32::MAX {
                    *p = filler;
                }
            }
            let inst_name = format!("m{}", out.n_cells());
            let (cid, mapped_out) = out.add_cell(inst_name, choice.cell, pins);
            if matches!(choice.cell, CellRef::Camo(_)) {
                let select_ids: Vec<usize> = choice
                    .select_leaves
                    .iter()
                    .map(|&n| match eng.kind(n) {
                        NetKind::Select(pos) => pos,
                        kind => unreachable!("select leaf {n:?} is {kind:?}"),
                    })
                    .collect();
                witnesses.push((cid, select_ids, choice.funcs_by_assign.clone()));
            }
            emitted.insert(driver, mapped_out);
            net_map.insert(net, mapped_out);
            mapped_out
        }

        for (po_name, po_net) in self.nl.outputs() {
            let mapped = emit_net(
                self,
                *po_net,
                &mut out,
                &mut net_map,
                &mut tie_map,
                &mut emitted,
                choices,
                &mut witnesses,
            );
            out.add_output(po_name.clone(), mapped);
        }
        (out, witnesses)
    }
}

/// Composes `f(pins)` with the pin functions: substitutes `pin_tts[i]` for
/// variable `i` of `f`. The allocating reference implementation of the
/// arena-backed substitution in [`Engine::eval_cone_slots`]; kept as the
/// oracle for the equivalence tests.
#[cfg(test)]
pub(crate) fn compose(f: &TruthTable, pin_tts: &[TruthTable], n_vars: usize) -> TruthTable {
    // Shannon-style substitution: iterate over f's minterms.
    let mut acc = TruthTable::zero(n_vars);
    for m in 0..f.n_minterms() {
        if !f.get(m) {
            continue;
        }
        let mut term = TruthTable::one(n_vars);
        for (i, t) in pin_tts.iter().enumerate() {
            term = if m & (1 << i) != 0 {
                term.and(t)
            } else {
                term.and(&t.not())
            };
        }
        acc = acc.or(&term);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_substitutes_correctly() {
        // f = AND2(x0, x1); pins = (a ∨ b, ¬c) over 3 vars.
        let f = mvf_cells::CellKind::And(2).function();
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let got = compose(&f, &[a.or(&b), c.not()], 3);
        assert_eq!(got, a.or(&b).and(&c.not()));
    }

    #[test]
    fn compose_handles_inverter() {
        let f = mvf_cells::CellKind::Inv.function();
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let got = compose(&f, &[a.xor(&b)], 2);
        assert_eq!(got, a.xor(&b).not());
    }

    #[test]
    fn compose_constant_cell() {
        let f = mvf_cells::CellKind::Tie1.function();
        let got = compose(&f, &[], 2);
        assert!(got.is_one());
    }
}
