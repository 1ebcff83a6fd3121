//! Exhaustive truth-table simulation of an [`Aig`].
//!
//! Simulation is the inner loop of synthesis verification and of every
//! GA fitness evaluation, so it is allocation-free: all node tables live
//! in one flat [`TtArena`] (slot `i` = node `i`) created with a single
//! heap allocation, and each AND node is computed with one fused
//! complement-aware pass over its fanin words — the naive
//! clone-and-complement per fanin is gone.

use mvf_logic::{TruthTable, TtArena};

use crate::{Aig, NodeId};

/// Simulates every node into a flat arena indexed by node id.
///
/// Performs exactly one heap allocation (the arena itself).
///
/// # Panics
///
/// Panics if the graph has more inputs than [`mvf_logic::MAX_VARS`].
pub(crate) fn simulate_arena(aig: &Aig) -> TtArena {
    let n = aig.n_inputs();
    assert!(
        n <= mvf_logic::MAX_VARS,
        "exhaustive simulation limited to {} inputs",
        mvf_logic::MAX_VARS
    );
    let mut arena = TtArena::new(n, aig.n_nodes());
    // Slot 0 is the constant node; arena slots start zeroed.
    for i in 0..n {
        arena.write_var(i + 1, i);
    }
    for id in (n as u32 + 1..aig.n_nodes() as u32).map(NodeId) {
        if !aig.is_and(id) {
            // Defensive: non-AND nodes beyond the inputs cannot occur;
            // their slot stays constant 0.
            continue;
        }
        let (f0, f1) = aig.fanins(id);
        arena.and2(
            id.0 as usize,
            f0.node().0 as usize,
            f0.is_complement(),
            f1.node().0 as usize,
            f1.is_complement(),
        );
    }
    arena
}

/// Computes the truth table of every node over the primary inputs.
pub(crate) fn simulate_nodes(aig: &Aig) -> Vec<TruthTable> {
    let arena = simulate_arena(aig);
    (0..aig.n_nodes()).map(|i| arena.to_table(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_matches_manual_eval() {
        let mut g = Aig::new(3);
        let a = g.input(0);
        let b = g.input(1);
        let c = g.input(2);
        let ab = g.and(a, !b);
        let f = g.or(ab, c);
        g.add_output("f", f);
        let fs = g.output_functions();
        for m in 0..8usize {
            let (av, bv, cv) = (m & 1 == 1, m & 2 == 2, m & 4 == 4);
            assert_eq!(fs[0].get(m), (av && !bv) || cv);
        }
    }

    #[test]
    fn simulation_of_wide_graph() {
        // 10-input parity via xor chain: exercises multi-word tables.
        let mut g = Aig::new(10);
        let mut acc = g.input(0);
        for i in 1..10 {
            let x = g.input(i);
            acc = g.xor(acc, x);
        }
        g.add_output("parity", acc);
        let f = &g.output_functions()[0];
        for m in [0usize, 1, 0b1010101010, 0b1111111111, 0x155] {
            assert_eq!(f.get(m), m.count_ones() % 2 == 1, "m={m:b}");
        }
        assert_eq!(f.count_ones(), 512);
    }

    /// The reference: one fresh `TruthTable` per node, built with plain
    /// `not` and `and`.
    fn per_node_tables(aig: &Aig) -> Vec<TruthTable> {
        let n = aig.n_inputs();
        let mut tables = vec![TruthTable::zero(n)];
        tables.extend((0..n).map(|i| TruthTable::var(i, n)));
        for id in (n as u32 + 1..aig.n_nodes() as u32).map(NodeId) {
            if !aig.is_and(id) {
                tables.push(TruthTable::zero(n));
                continue;
            }
            let fanin = |l: crate::Lit| {
                let t = &tables[l.node().0 as usize];
                if l.is_complement() {
                    t.not()
                } else {
                    t.clone()
                }
            };
            let (f0, f1) = aig.fanins(id);
            let table = fanin(f0).and(&fanin(f1));
            tables.push(table);
        }
        tables
    }

    #[test]
    fn arena_agrees_with_per_node_tables() {
        let mut g = Aig::new(4);
        let lits: Vec<_> = (0..4).map(|i| g.input(i)).collect();
        let x = g.xor(lits[0], lits[1]);
        let y = g.mux(lits[2], x, lits[3]);
        g.add_output("y", y);
        // 16 inputs: 1024 words per slot, many 8-word kernel chunks.
        for g in [g, crate::random_aig(16, 600, 0xA16_0001)] {
            let arena = simulate_arena(&g);
            let tables = per_node_tables(&g);
            assert_eq!(arena.n_slots(), tables.len());
            for (i, t) in tables.iter().enumerate() {
                assert_eq!(&arena.to_table(i), t, "{} inputs, node {i}", g.n_inputs());
            }
        }
    }
}
