//! k-feasible cut enumeration and cut-function computation.
//!
//! A *cut* of node `n` is a set of nodes (leaves) such that every path from
//! `n` to a primary input passes through a leaf. Cuts with at most `k`
//! leaves are the candidate cones considered by the rewriting and
//! refactoring passes.
//!
//! Cuts are stored inline ([`Cut`] is `Copy`: a fixed `[u32; 16]` leaf
//! array plus a 64-bit membership signature) so enumeration performs no
//! per-cut heap allocation, and duplicate / dominated cuts are rejected
//! through the signature before any element-wise comparison. Cut functions
//! are evaluated in a flat [`TtArena`] instead of a map of per-node
//! tables.

use mvf_logic::{TruthTable, TtArena};

use crate::{Aig, NodeId};

/// Maximum number of leaves a [`Cut`] can hold.
pub const MAX_CUT_LEAVES: usize = 16;

/// A cut: sorted leaf node ids, stored inline.
///
/// The `sig` field is a 64-bit Bloom-style membership signature (bit
/// `id % 64` set for every leaf): equal cuts have equal signatures and a
/// subset's signature bits are a subset, so signature tests cheaply
/// pre-filter the exact comparisons. Unused leaf slots are kept at zero,
/// which makes the derived equality and hashing exact.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cut {
    sig: u64,
    len: u8,
    leaves: [u32; MAX_CUT_LEAVES],
}

impl Cut {
    /// The empty cut (constant cone).
    pub fn empty() -> Cut {
        Cut {
            sig: 0,
            len: 0,
            leaves: [0; MAX_CUT_LEAVES],
        }
    }

    /// The trivial cut `{leaf}`.
    pub fn unit(leaf: u32) -> Cut {
        let mut leaves = [0; MAX_CUT_LEAVES];
        leaves[0] = leaf;
        Cut {
            sig: signature_bit(leaf),
            len: 1,
            leaves,
        }
    }

    /// The leaf node ids, ascending.
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` iff the cut has no leaves (constant cone).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` iff `id` is one of the leaves.
    pub fn contains(&self, id: u32) -> bool {
        self.sig & signature_bit(id) != 0 && self.leaves().contains(&id)
    }

    /// Sorted-merge of two cuts, or `None` if the union exceeds `k`
    /// leaves.
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        let sig = self.sig | other.sig;
        // The signature underestimates the union size, so a popcount
        // above k proves infeasibility without touching the arrays.
        if sig.count_ones() as usize > k {
            return None;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut leaves = [0u32; MAX_CUT_LEAVES];
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            if n == k {
                return None;
            }
            leaves[n] = next;
            n += 1;
        }
        Some(Cut {
            sig,
            len: n as u8,
            leaves,
        })
    }

    /// `true` iff `self`'s leaves are a subset of `other`'s.
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.sig & !other.sig != 0 || self.len > other.len {
            return false;
        }
        // Both leaf lists are sorted: one linear sweep.
        let (a, b) = (self.leaves(), other.leaves());
        let mut j = 0usize;
        'outer: for &x in a {
            while j < b.len() {
                match b[j].cmp(&x) {
                    std::cmp::Ordering::Equal => {
                        j += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

impl std::fmt::Debug for Cut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cut{:?}", self.leaves())
    }
}

fn signature_bit(id: u32) -> u64 {
    1u64 << (id & 63)
}

/// Reusable scratch for cut-function evaluation: the cone list, the
/// traversal stack and the truth-table [`TtArena`] keep their allocations
/// across [`cut_function_with`] and [`cut_word_with`] calls.
///
/// Synthesis passes evaluate thousands of small cones per run; a fitness
/// loop that synthesizes one circuit per evaluation shares a single
/// `CutScratch` across every evaluation (see `mvf::EvalContext`).
#[derive(Debug, Default)]
pub struct CutScratch {
    arena: TtArena,
    cone: Vec<u32>,
    stack: Vec<u32>,
}

/// Flat CSR (compressed sparse row) storage of per-node cut lists: one
/// backing [`Cut`] array plus per-node offset ranges.
///
/// Enumeration appends every node's cuts to a single `cuts` vector and
/// records the node's `[start, end)` range in `ranges`, so the whole cut
/// store is two allocations regardless of node count — there are no
/// per-node inner vectors. Capacity is retained across
/// [`enumerate_cuts_into`] calls, so repeated enumeration (a synthesis
/// script, a fitness loop) performs no steady-state allocation.
///
/// # Example
///
/// ```
/// use mvf_aig::cuts::{enumerate_cuts, CutSet};
/// use mvf_aig::Aig;
///
/// let mut g = Aig::new(2);
/// let (a, b) = (g.input(0), g.input(1));
/// let f = g.and(a, b);
/// g.add_output("f", f);
/// let cuts: CutSet = enumerate_cuts(&g, 4, 8);
/// // The AND node's list ends with its trivial cut {node}.
/// let node_cuts = cuts.cuts_of(f.node().0);
/// assert_eq!(node_cuts.last().unwrap().leaves(), [f.node().0]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct CutSet {
    /// All cuts, grouped by node in ascending node-id order.
    cuts: Vec<Cut>,
    /// `ranges[id]..ranges[id + 1]` indexes node `id`'s cuts in `cuts`;
    /// length `n_nodes + 1`.
    ranges: Vec<u32>,
    /// Enumeration scratch (merge products and the dominance-filtered
    /// list), retained across calls.
    merged: Vec<Cut>,
    kept: Vec<Cut>,
}

impl CutSet {
    /// An empty cut store.
    pub fn new() -> CutSet {
        CutSet::default()
    }

    /// Number of nodes the store covers.
    pub fn n_nodes(&self) -> usize {
        self.ranges.len().saturating_sub(1)
    }

    /// Total number of stored cuts across all nodes.
    pub fn n_cuts(&self) -> usize {
        self.cuts.len()
    }

    /// The cut list of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the enumerated graph.
    pub fn cuts_of(&self, id: u32) -> &[Cut] {
        let (a, b) = (
            self.ranges[id as usize] as usize,
            self.ranges[id as usize + 1] as usize,
        );
        &self.cuts[a..b]
    }
}

/// Enumerates up to `max_cuts` k-feasible cuts per node into a fresh
/// [`CutSet`].
///
/// Every node's cut list contains the trivial cut `{node}` last, so it
/// can be used as a fallback.
///
/// # Panics
///
/// Panics if `k == 0` or `k > MAX_CUT_LEAVES`.
pub fn enumerate_cuts(aig: &Aig, k: usize, max_cuts: usize) -> CutSet {
    let mut cuts = CutSet::new();
    enumerate_cuts_into(aig, k, max_cuts, &mut cuts);
    cuts
}

/// [`enumerate_cuts`] into a caller-owned [`CutSet`]: the flat cut array
/// and range table keep their capacity across calls, so repeated
/// enumeration performs no steady-state allocation.
///
/// # Panics
///
/// Panics if `k == 0` or `k > MAX_CUT_LEAVES`.
pub fn enumerate_cuts_into(aig: &Aig, k: usize, max_cuts: usize, out: &mut CutSet) {
    assert!(k > 0, "cut size must be positive");
    assert!(k <= MAX_CUT_LEAVES, "cut size {k} exceeds {MAX_CUT_LEAVES}");
    let CutSet {
        cuts,
        ranges,
        merged,
        kept,
    } = out;
    cuts.clear();
    ranges.clear();
    ranges.push(0);
    // Constant node: single empty cut.
    cuts.push(Cut::empty());
    ranges.push(cuts.len() as u32);
    for i in 0..aig.n_inputs() {
        cuts.push(Cut::unit(i as u32 + 1));
        ranges.push(cuts.len() as u32);
    }
    for id in (aig.n_inputs() as u32 + 1)..aig.n_nodes() as u32 {
        let id = NodeId(id);
        if !aig.is_and(id) {
            // Dangling non-AND slot (possible only pre-compaction): no
            // cuts, empty range.
            ranges.push(cuts.len() as u32);
            continue;
        }
        let (f0, f1) = aig.fanins(id);
        let (n0, n1) = (f0.node().0 as usize, f1.node().0 as usize);
        let (a0, b0) = (ranges[n0] as usize, ranges[n0 + 1] as usize);
        let (a1, b1) = (ranges[n1] as usize, ranges[n1 + 1] as usize);
        merged.clear();
        for ai in a0..b0 {
            for bi in a1..b1 {
                // `Cut` is Copy: fanin ranges are fully built (fanins
                // precede their node), so plain indexed reads suffice.
                let (a, b) = (cuts[ai], cuts[bi]);
                if let Some(c) = a.merge(&b, k) {
                    if !merged.iter().any(|m| m.sig == c.sig && *m == c) {
                        merged.push(c);
                    }
                }
            }
        }
        // Drop dominated cuts (a cut whose leaves are a superset of
        // another's carries no extra information).
        kept.clear();
        merged.sort_by_key(Cut::len);
        for c in merged.iter() {
            if !kept.iter().any(|k2| k2.dominates(c)) {
                kept.push(*c);
            }
        }
        // Keep the widest cut even when truncating: the refactoring pass
        // wants the largest collapsible cone.
        let widest = kept.last().copied();
        kept.truncate(max_cuts.saturating_sub(1).max(1));
        if let Some(w) = widest {
            if !kept.contains(&w) {
                kept.push(w);
            }
        }
        kept.push(Cut::unit(id.0));
        cuts.extend_from_slice(kept);
        ranges.push(cuts.len() as u32);
    }
}

/// Computes the function of `root` over the cut's leaves: variable `i`
/// corresponds to `leaves[i]`.
///
/// The cone above the leaves is evaluated in a single flat [`TtArena`]
/// allocation, in ascending node-id order (which is topological: the
/// graph is append-only, so fanins always precede their node).
///
/// # Panics
///
/// Panics if the leaf set is not a valid cut of `root` (the traversal
/// would reach a primary input or the constant node not in the leaves) or
/// has more than [`mvf_logic::MAX_VARS`] leaves.
pub fn cut_function(aig: &Aig, root: NodeId, leaves: &[u32]) -> TruthTable {
    cut_function_with(aig, root, leaves, &mut CutScratch::default())
}

/// [`cut_function`] evaluated inside a reusable [`CutScratch`]: the cone
/// list, traversal stack and truth-table arena keep their allocations
/// across calls.
///
/// # Panics
///
/// Same as [`cut_function`].
pub fn cut_function_with(
    aig: &Aig,
    root: NodeId,
    leaves: &[u32],
    scratch: &mut CutScratch,
) -> TruthTable {
    let slot = eval_cone(aig, root, leaves, scratch);
    scratch.arena.to_table(slot)
}

/// The function of `root` over a cut of at most 6 leaves as its one
/// truth-table word: `cut_function_with(..).as_word()` without building
/// the table. The two share the cone evaluation.
///
/// # Panics
///
/// Panics if the leaf set is not a valid cut of `root` or has more than
/// 6 leaves.
pub fn cut_word_with(aig: &Aig, root: NodeId, leaves: &[u32], scratch: &mut CutScratch) -> u64 {
    assert!(leaves.len() <= 6, "cut word needs at most 6 leaves");
    let slot = eval_cone(aig, root, leaves, scratch);
    scratch.arena.slot(slot)[0]
}

/// Evaluates the cone of `root` above `leaves` in the scratch arena and
/// returns the slot holding the root's function.
fn eval_cone(aig: &Aig, root: NodeId, leaves: &[u32], scratch: &mut CutScratch) -> usize {
    let k = leaves.len();
    assert!(k <= mvf_logic::MAX_VARS, "cut too wide: {k} leaves");
    // Collect the cone above the leaves (empty when the root is a leaf or
    // the constant).
    let cone = &mut scratch.cone;
    let stack = &mut scratch.stack;
    cone.clear();
    stack.clear();
    stack.push(root.0);
    while let Some(id) = stack.pop() {
        if id == 0 || leaves.contains(&id) || cone.contains(&id) {
            continue;
        }
        assert!(
            aig.is_and(NodeId(id)),
            "leaf set is not a cut: reached non-AND node {id}"
        );
        cone.push(id);
        let (f0, f1) = aig.fanins(NodeId(id));
        stack.push(f0.node().0);
        stack.push(f1.node().0);
    }
    cone.sort_unstable();
    // Slot layout: 0..k leaf variables, k = constant 0, k+1.. cone nodes.
    let arena = &mut scratch.arena;
    arena.reset(k, k + 1 + cone.len());
    for i in 0..k {
        arena.write_var(i, i);
    }
    let slot_of = |id: u32| -> usize {
        if let Some(pos) = leaves.iter().position(|&l| l == id) {
            pos
        } else if id == 0 {
            k
        } else {
            k + 1 + cone.binary_search(&id).expect("cone node")
        }
    };
    for (ci, &id) in cone.iter().enumerate() {
        let (f0, f1) = aig.fanins(NodeId(id));
        arena.and2(
            k + 1 + ci,
            slot_of(f0.node().0),
            f0.is_complement(),
            slot_of(f1.node().0),
            f1.is_complement(),
        );
    }
    slot_of(root.0)
}

/// Number of AND nodes in the cone of `root` above the cut leaves.
///
/// This is the upper bound on nodes freed if the cone is replaced.
pub fn cone_size(aig: &Aig, root: NodeId, leaves: &[u32]) -> usize {
    let mut seen: Vec<u32> = Vec::new();
    let mut stack = vec![root.0];
    let mut count = 0usize;
    while let Some(id) = stack.pop() {
        if leaves.contains(&id) || seen.contains(&id) {
            continue;
        }
        seen.push(id);
        if aig.is_and(NodeId(id)) {
            count += 1;
            let (f0, f1) = aig.fanins(NodeId(id));
            stack.push(f0.node().0);
            stack.push(f1.node().0);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aig() -> (Aig, NodeId) {
        // f = (a·b)·(b·c): reconvergent on b.
        let mut g = Aig::new(3);
        let a = g.input(0);
        let b = g.input(1);
        let c = g.input(2);
        let ab = g.and(a, b);
        let bc = g.and(b, c);
        let f = g.and(ab, bc);
        g.add_output("f", f);
        (g, f.node())
    }

    #[test]
    fn trivial_cuts_present() {
        let (g, root) = sample_aig();
        let cuts = enumerate_cuts(&g, 4, 8);
        let root_cuts = cuts.cuts_of(root.0);
        assert!(root_cuts.iter().any(|c| c.leaves() == [root.0]));
    }

    #[test]
    fn finds_the_three_leaf_cut() {
        let (g, root) = sample_aig();
        let cuts = enumerate_cuts(&g, 4, 8);
        let root_cuts = cuts.cuts_of(root.0);
        // The cut {a, b, c} = node ids {1, 2, 3} must be found.
        assert!(
            root_cuts.iter().any(|c| c.leaves() == [1, 2, 3]),
            "cuts: {root_cuts:?}"
        );
    }

    #[test]
    fn cut_function_on_reconvergence() {
        let (g, root) = sample_aig();
        let f = cut_function(&g, root, &[1, 2, 3]);
        // f = a·b·c over (a, b, c) = vars (0, 1, 2).
        for m in 0..8usize {
            assert_eq!(f.get(m), m == 7);
        }
    }

    #[test]
    fn cut_function_with_complemented_edges() {
        let mut g = Aig::new(2);
        let a = g.input(0);
        let b = g.input(1);
        let f = g.or(a, !b);
        let t = cut_function(&g, f.node(), &[1, 2]);
        // or returns complemented AND internally: check underlying node
        // function is ¬a · b, i.e. f-literal complement handled by caller.
        for m in 0..4usize {
            let (av, bv) = (m & 1 == 1, m & 2 == 2);
            assert_eq!(t.get(m), !av && bv);
        }
    }

    #[test]
    fn cut_function_of_leaf_and_constant() {
        let (g, root) = sample_aig();
        // Root inside the leaf set: projection of its own variable.
        let t = cut_function(&g, NodeId(2), &[1, 2, 3]);
        assert_eq!(t, TruthTable::var(1, 3));
        // Constant root: the zero function.
        assert!(cut_function(&g, NodeId(0), &[1, 2]).is_zero());
        let _ = root;
    }

    #[test]
    fn cut_function_respects_leaf_order() {
        // Variable i corresponds to leaves[i], whatever the slice order.
        let mut g = Aig::new(2);
        let a = g.input(0);
        let b = g.input(1);
        let f = g.or(a, !b); // node function is ¬a·b
        let t = cut_function(&g, f.node(), &[1, 2]);
        let swapped = cut_function(&g, f.node(), &[2, 1]);
        assert_eq!(swapped.permute(&[1, 0]).unwrap(), t);
        assert_ne!(swapped, t, "asymmetric function must change under reorder");
    }

    #[test]
    fn k_limits_cut_width() {
        // 6-input AND tree: with k = 4 no cut may exceed 4 leaves.
        let mut g = Aig::new(6);
        let lits: Vec<_> = (0..6).map(|i| g.input(i)).collect();
        let f = g.and_many(&lits);
        g.add_output("f", f);
        let cuts = enumerate_cuts(&g, 4, 16);
        assert_eq!(cuts.n_nodes(), g.n_nodes());
        for id in 0..cuts.n_nodes() {
            for c in cuts.cuts_of(id as u32) {
                assert!(c.len() <= 4, "node {id} cut {c:?}");
            }
        }
    }

    #[test]
    fn cone_size_counts_inner_ands() {
        let (g, root) = sample_aig();
        assert_eq!(cone_size(&g, root, &[1, 2, 3]), 3);
        // Cone over its own fanins counts only the root.
        let (f0, f1) = g.fanins(root);
        assert_eq!(cone_size(&g, root, &[f0.node().0, f1.node().0]), 1);
    }

    #[test]
    fn dominated_cuts_are_pruned() {
        let (g, root) = sample_aig();
        let cuts = enumerate_cuts(&g, 4, 16);
        let root_cuts = cuts.cuts_of(root.0);
        for (i, a) in root_cuts.iter().enumerate() {
            for (j, b) in root_cuts.iter().enumerate() {
                if i != j && a.leaves() != [root.0] {
                    assert!(
                        !a.dominates(b) || a == b,
                        "dominated cut kept: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn signature_and_membership() {
        let c = Cut::unit(5).merge(&Cut::unit(70), 4).unwrap();
        assert_eq!(c.leaves(), [5, 70]);
        assert!(c.contains(5) && c.contains(70));
        assert!(!c.contains(6));
        // 5 and 69 collide mod 64 with nothing here; a colliding id must
        // still be rejected by the exact check.
        assert!(!c.contains(5 + 64));
        assert!(Cut::empty().is_empty());
    }

    #[test]
    fn merge_rejects_oversized_unions() {
        let a = Cut::unit(1).merge(&Cut::unit(2), 4).unwrap();
        let b = Cut::unit(3).merge(&Cut::unit(4), 4).unwrap();
        let ab = a.merge(&b, 4).unwrap();
        assert_eq!(ab.leaves(), [1, 2, 3, 4]);
        assert!(ab.merge(&Cut::unit(5), 4).is_none());
        // Overlapping unions stay feasible.
        assert_eq!(a.merge(&a, 2).unwrap().leaves(), [1, 2]);
    }
}
