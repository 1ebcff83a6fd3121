use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use mvf_logic::{TruthTable, TtArena};

/// Index of a node in an [`Aig`].
///
/// Node 0 is the constant-false node; nodes `1..=n_inputs` are the primary
/// inputs; higher ids are AND nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A literal: a node with an optional complement.
///
/// # Example
///
/// ```
/// use mvf_aig::Aig;
///
/// let mut aig = Aig::new(1);
/// let a = aig.input(0);
/// assert_ne!(a, !a);
/// assert_eq!(!!a, a);
/// assert!((!a).is_complement());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal.
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node and a complement flag.
    pub fn new(node: NodeId, complement: bool) -> Self {
        Lit((node.0 << 1) | complement as u32)
    }

    /// The underlying node.
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// Whether the literal is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// `true` for the two constant literals.
    pub fn is_const(self) -> bool {
        self.node().0 == 0
    }

    /// XORs the complement flag with `c`.
    #[must_use]
    pub fn xor_sign(self, c: bool) -> Self {
        Lit(self.0 ^ c as u32)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complement() {
            write!(f, "¬n{}", self.node().0)
        } else {
            write!(f, "n{}", self.node().0)
        }
    }
}

/// A hasher for the engine's small integer keys (structural-hash literal
/// pairs, cut-function words): a key of two 32-bit integers is packed
/// into one word exactly, and `finish` applies the SplitMix64 finalizer.
///
/// It costs a few multiplies where the default SipHash runs several
/// rounds per key, and needs no dependency. It does not resist chosen
/// keys, which these maps never see: their keys are literals and truth
/// tables the engine computes itself, and they are only ever probed and
/// inserted, never iterated, so hash order cannot reach a result.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = self.0.rotate_left(32) ^ x;
    }

    fn finish(&self) -> u64 {
        mvf_logic::word::mix64(self.0)
    }
}

/// A hash map keyed through [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Fanins; `Lit::FALSE` placeholders for the constant and PI nodes.
    f0: Lit,
    f1: Lit,
    level: u32,
    is_and: bool,
}

/// An and-inverter graph with structural hashing.
///
/// The graph is append-only: [`Aig::and`] either finds a structurally
/// identical node or creates one, applying the standard one-level
/// simplifications (`x·x = x`, `x·¬x = 0`, constant absorption).
/// Optimization passes produce new, compacted graphs rather than mutating
/// in place.
#[derive(Clone)]
pub struct Aig {
    n_inputs: usize,
    nodes: Vec<Node>,
    strash: WordMap<(Lit, Lit), NodeId>,
    outputs: Vec<(String, Lit)>,
    input_names: Vec<String>,
}

impl Aig {
    /// Creates a graph with `n_inputs` primary inputs named `i0, i1, …`.
    pub fn new(n_inputs: usize) -> Self {
        let mut nodes = Vec::with_capacity(n_inputs + 1);
        // Node 0: constant false.
        nodes.push(Node {
            f0: Lit::FALSE,
            f1: Lit::FALSE,
            level: 0,
            is_and: false,
        });
        for _ in 0..n_inputs {
            nodes.push(Node {
                f0: Lit::FALSE,
                f1: Lit::FALSE,
                level: 0,
                is_and: false,
            });
        }
        Aig {
            n_inputs,
            nodes,
            strash: WordMap::default(),
            outputs: Vec::new(),
            input_names: (0..n_inputs).map(|i| format!("i{i}")).collect(),
        }
    }

    /// Number of primary inputs.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of AND nodes.
    pub fn n_ands(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_and).count()
    }

    /// Total number of nodes including the constant and the inputs.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The literal of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_inputs`.
    pub fn input(&self, i: usize) -> Lit {
        assert!(i < self.n_inputs, "input {i} out of range");
        Lit::new(NodeId(i as u32 + 1), false)
    }

    /// Renames primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_inputs`.
    pub fn set_input_name(&mut self, i: usize, name: impl Into<String>) {
        self.input_names[i] = name.into();
    }

    /// The name of primary input `i`.
    pub fn input_name(&self, i: usize) -> &str {
        &self.input_names[i]
    }

    /// `true` iff `id` is a primary input node.
    pub fn is_input(&self, id: NodeId) -> bool {
        id.0 >= 1 && (id.0 as usize) <= self.n_inputs
    }

    /// `true` iff `id` is an AND node.
    pub fn is_and(&self, id: NodeId) -> bool {
        self.nodes[id.0 as usize].is_and
    }

    /// The fanins of an AND node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an AND node.
    pub fn fanins(&self, id: NodeId) -> (Lit, Lit) {
        let n = &self.nodes[id.0 as usize];
        assert!(n.is_and, "node {id:?} is not an AND");
        (n.f0, n.f1)
    }

    /// The logic level of a node (inputs and constants are level 0).
    pub fn level(&self, id: NodeId) -> u32 {
        self.nodes[id.0 as usize].level
    }

    /// The depth of the graph: maximum output level.
    pub fn depth(&self) -> u32 {
        self.outputs
            .iter()
            .map(|(_, l)| self.level(l.node()))
            .max()
            .unwrap_or(0)
    }

    /// AND of two literals with structural hashing and one-level
    /// simplification rules.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant and trivial cases.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE {
            return a;
        }
        if a == b {
            return a;
        }
        // Canonical order for hashing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(a, b)) {
            return Lit::new(id, false);
        }
        let level = 1 + self.level(a.node()).max(self.level(b.node()));
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            f0: a,
            f1: b,
            level,
            is_and: true,
        });
        self.strash.insert((a, b), id);
        Lit::new(id, false)
    }

    /// Looks up the AND of two literals without inserting: returns the
    /// literal the AND would simplify or hash to, or `None` if a new node
    /// would be created.
    pub fn find_and(&self, a: Lit, b: Lit) -> Option<Lit> {
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Some(Lit::FALSE);
        }
        if a == Lit::TRUE {
            return Some(b);
        }
        if b == Lit::TRUE {
            return Some(a);
        }
        if a == b {
            return Some(a);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.strash.get(&(a, b)).map(|&id| Lit::new(id, false))
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// XOR built from two ANDs and an OR (3 AND nodes).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.and(a, !b);
        let y = self.and(!a, b);
        self.or(x, y)
    }

    /// 2:1 multiplexer: `sel ? t : e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let x = self.and(sel, t);
        let y = self.and(!sel, e);
        self.or(x, y)
    }

    /// N-ary AND over a slice (balanced reduction).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => Lit::TRUE,
            [l] => *l,
            _ => {
                let mid = lits.len() / 2;
                let (lo, hi) = lits.split_at(mid);
                let a = self.and_many(lo);
                let b = self.and_many(hi);
                self.and(a, b)
            }
        }
    }

    /// N-ary OR over a slice (balanced reduction).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => Lit::FALSE,
            [l] => *l,
            _ => {
                let mid = lits.len() / 2;
                let (lo, hi) = lits.split_at(mid);
                let a = self.or_many(lo);
                let b = self.or_many(hi);
                self.or(a, b)
            }
        }
    }

    /// Registers a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, lit: Lit) {
        self.outputs.push((name.into(), lit));
    }

    /// The primary outputs as `(name, literal)` pairs.
    pub fn outputs(&self) -> &[(String, Lit)] {
        &self.outputs
    }

    /// Number of primary outputs.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// All AND node ids in topological (creation) order.
    pub fn and_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(move |&id| self.nodes[id.0 as usize].is_and)
    }

    /// Fanout count per node (number of AND fanin references plus output
    /// references).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            if n.is_and {
                counts[n.f0.node().0 as usize] += 1;
                counts[n.f1.node().0 as usize] += 1;
            }
        }
        for (_, l) in &self.outputs {
            counts[l.node().0 as usize] += 1;
        }
        counts
    }

    /// A compacted copy containing only nodes reachable from the outputs.
    ///
    /// Input count, names and output order are preserved.
    pub fn compact(&self) -> Aig {
        let mut out = Aig::new(self.n_inputs);
        out.input_names = self.input_names.clone();
        // `map[id]`: the node's literal in `out`, once copied.
        let mut map: Vec<Option<Lit>> = vec![None; self.nodes.len()];
        map[0] = Some(Lit::FALSE);
        for i in 0..self.n_inputs {
            map[i + 1] = Some(out.input(i));
        }
        // Iterative DFS to avoid recursion depth issues.
        let mut stack = Vec::new();
        for (name, lit) in &self.outputs {
            stack.push(lit.node());
            while let Some(id) = stack.pop() {
                if map[id.0 as usize].is_some() {
                    continue;
                }
                let (f0, f1) = self.fanins(id);
                let m0 = map[f0.node().0 as usize];
                let m1 = map[f1.node().0 as usize];
                match (m0, m1) {
                    (Some(a), Some(b)) => {
                        let l = out.and(
                            a.xor_sign(f0.is_complement()),
                            b.xor_sign(f1.is_complement()),
                        );
                        map[id.0 as usize] = Some(l);
                    }
                    _ => {
                        stack.push(id);
                        if m0.is_none() {
                            stack.push(f0.node());
                        }
                        if m1.is_none() {
                            stack.push(f1.node());
                        }
                    }
                }
            }
            let l = map[lit.node().0 as usize].expect("output node copied");
            let name = name.clone();
            out.add_output(name, l.xor_sign(lit.is_complement()));
        }
        out
    }

    /// The truth table of every node (indexed by node id) over the primary
    /// inputs.
    ///
    /// For hot paths prefer [`Aig::simulate_arena`], which produces the
    /// same tables without one allocation per node.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than [`mvf_logic::MAX_VARS`] inputs.
    pub fn simulate_nodes(&self) -> Vec<TruthTable> {
        crate::simulate::simulate_nodes(self)
    }

    /// Simulates every node into a flat [`TtArena`] (slot `i` = node `i`)
    /// with a single heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than [`mvf_logic::MAX_VARS`] inputs.
    pub fn simulate_arena(&self) -> TtArena {
        crate::simulate::simulate_arena(self)
    }

    /// The truth tables of the primary outputs.
    pub fn output_functions(&self) -> Vec<TruthTable> {
        let arena = self.simulate_arena();
        self.outputs
            .iter()
            .map(|(_, l)| arena.to_table_compl(l.node().0 as usize, l.is_complement()))
            .collect()
    }

    /// `true` iff `self` and `other` have identical output functions
    /// (same input/output counts, exhaustive comparison).
    pub fn equivalent(&self, other: &Aig) -> bool {
        if self.n_inputs != other.n_inputs || self.outputs.len() != other.outputs.len() {
            return false;
        }
        self.output_functions() == other.output_functions()
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig({} inputs, {} ANDs, {} outputs, depth {})",
            self.n_inputs,
            self.n_ands(),
            self.outputs.len(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let l = Lit::new(NodeId(5), true);
        assert_eq!(l.node(), NodeId(5));
        assert!(l.is_complement());
        assert!(!(!l).is_complement());
        assert_eq!(l.xor_sign(true), !l);
        assert_eq!(Lit::TRUE, !Lit::FALSE);
        assert!(Lit::TRUE.is_const());
    }

    #[test]
    fn and_simplifications() {
        let mut g = Aig::new(2);
        let a = g.input(0);
        let b = g.input(1);
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.n_ands(), 0);
        let ab1 = g.and(a, b);
        let ab2 = g.and(b, a);
        assert_eq!(ab1, ab2, "structural hashing is order-insensitive");
        assert_eq!(g.n_ands(), 1);
    }

    #[test]
    fn or_xor_mux_semantics() {
        let mut g = Aig::new(3);
        let a = g.input(0);
        let b = g.input(1);
        let s = g.input(2);
        let or = g.or(a, b);
        let xor = g.xor(a, b);
        let mux = g.mux(s, a, b);
        g.add_output("or", or);
        g.add_output("xor", xor);
        g.add_output("mux", mux);
        let fs = g.output_functions();
        for m in 0..8usize {
            let (av, bv, sv) = (m & 1 == 1, m & 2 == 2, m & 4 == 4);
            assert_eq!(fs[0].get(m), av | bv);
            assert_eq!(fs[1].get(m), av ^ bv);
            assert_eq!(fs[2].get(m), if sv { av } else { bv });
        }
    }

    #[test]
    fn nary_ops() {
        let mut g = Aig::new(4);
        let lits: Vec<Lit> = (0..4).map(|i| g.input(i)).collect();
        let all = g.and_many(&lits);
        let any = g.or_many(&lits);
        g.add_output("all", all);
        g.add_output("any", any);
        let fs = g.output_functions();
        for m in 0..16usize {
            assert_eq!(fs[0].get(m), m == 15);
            assert_eq!(fs[1].get(m), m != 0);
        }
        assert_eq!(g.and_many(&[]), Lit::TRUE);
        assert_eq!(g.or_many(&[]), Lit::FALSE);
    }

    #[test]
    fn levels_and_depth() {
        let mut g = Aig::new(4);
        let lits: Vec<Lit> = (0..4).map(|i| g.input(i)).collect();
        let f = g.and_many(&lits);
        g.add_output("f", f);
        assert_eq!(g.depth(), 2, "balanced 4-input AND has depth 2");
    }

    #[test]
    fn compact_drops_dangling() {
        let mut g = Aig::new(3);
        let a = g.input(0);
        let b = g.input(1);
        let c = g.input(2);
        let keep = g.and(a, b);
        let _dangling = g.and(b, c);
        let _dangling2 = g.and(keep, c);
        g.add_output("f", !keep);
        let h = g.compact();
        assert_eq!(h.n_ands(), 1);
        assert!(g.equivalent(&h));
        assert_eq!(h.outputs()[0].0, "f");
    }

    #[test]
    fn compact_preserves_output_complement_and_constants() {
        let mut g = Aig::new(1);
        g.add_output("t", Lit::TRUE);
        g.add_output("ni", !g.input(0));
        let h = g.compact();
        assert!(g.equivalent(&h));
        let fs = h.output_functions();
        assert!(fs[0].is_one());
        assert_eq!(fs[1], mvf_logic::TruthTable::var(0, 1).not());
    }

    #[test]
    fn fanout_counts() {
        let mut g = Aig::new(2);
        let a = g.input(0);
        let b = g.input(1);
        let ab = g.and(a, b);
        let f = g.and(ab, !b);
        g.add_output("f", f);
        let counts = g.fanout_counts();
        assert_eq!(counts[a.node().0 as usize], 1);
        assert_eq!(counts[b.node().0 as usize], 2);
        assert_eq!(counts[ab.node().0 as usize], 1);
        assert_eq!(counts[f.node().0 as usize], 1);
    }

    #[test]
    fn equivalence_checks_functions_not_structure() {
        let mut g1 = Aig::new(2);
        let a = g1.input(0);
        let b = g1.input(1);
        let f = g1.or(a, b);
        g1.add_output("f", f);

        // De Morgan variant.
        let mut g2 = Aig::new(2);
        let a = g2.input(0);
        let b = g2.input(1);
        let f = g2.and(!a, !b);
        g2.add_output("f", !f);
        assert!(g1.equivalent(&g2));

        let mut g3 = Aig::new(2);
        let a = g3.input(0);
        let b = g3.input(1);
        let f = g3.and(a, b);
        g3.add_output("f", f);
        assert!(!g1.equivalent(&g3));
    }
}
