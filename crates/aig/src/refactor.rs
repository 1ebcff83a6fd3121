//! Cone refactoring through ISOP covers.
//!
//! The analogue of ABC's `refactor`: larger cones (up to 8 leaves) are
//! collapsed into a truth table, re-expressed as a factored irredundant
//! cover and rebuilt whenever the rebuilt form adds fewer nodes than the
//! cone currently holds. Like [`crate::rewrite`], the pass rebuilds into a
//! fresh graph and is monotone: the result never has more AND nodes.

use crate::cuts::{cut_function_with, enumerate_cuts_into, CutScratch, CutSet};
use crate::rewrite::{exclusive_cone_size, ConeScratch, Recipe};
use crate::{Aig, Lit};

/// Default cut width of the refactoring pass.
pub const DEFAULT_CUT_WIDTH: usize = 8;
/// Default cuts-per-node cap of the refactoring pass.
pub const DEFAULT_MAX_CUTS: usize = 4;

/// One refactoring pass with the default cut width
/// ([`DEFAULT_CUT_WIDTH`]) and cuts-per-node cap ([`DEFAULT_MAX_CUTS`]).
pub fn refactor(aig: &Aig) -> Aig {
    refactor_with_width(aig, DEFAULT_CUT_WIDTH, DEFAULT_MAX_CUTS)
}

/// One refactoring pass with an explicit cut width and cuts-per-node cap.
///
/// # Panics
///
/// Panics if `k == 0` or `k > 16`.
pub fn refactor_with_width(aig: &Aig, k: usize, max_cuts: usize) -> Aig {
    refactor_with_scratch(
        aig,
        k,
        max_cuts,
        &mut CutSet::new(),
        &mut CutScratch::default(),
    )
}

/// [`refactor_with_width`] with caller-owned cut buffers and evaluation
/// scratch, for loops that refactor many graphs.
///
/// # Panics
///
/// Panics if `k == 0` or `k > 16`.
pub fn refactor_with_scratch(
    aig: &Aig,
    k: usize,
    max_cuts: usize,
    cuts: &mut CutSet,
    eval: &mut CutScratch,
) -> Aig {
    assert!(k > 0 && k <= 16, "cut width must be in 1..=16");
    enumerate_cuts_into(aig, k, max_cuts, cuts);
    let fanouts = aig.fanout_counts();
    let mut scratch = ConeScratch::default();
    let mut new = Aig::new(aig.n_inputs());
    for i in 0..aig.n_inputs() {
        new.set_input_name(i, aig.input_name(i).to_string());
    }
    let mut map: Vec<Lit> = Vec::with_capacity(aig.n_nodes());
    map.push(Lit::FALSE);
    for i in 0..aig.n_inputs() {
        map.push(new.input(i));
    }
    for id in aig.and_nodes() {
        let (f0, f1) = aig.fanins(id);
        let a = map[f0.node().0 as usize].xor_sign(f0.is_complement());
        let b = map[f1.node().0 as usize].xor_sign(f1.is_complement());
        let naive = new.and(a, b);
        debug_assert_eq!(map.len(), id.0 as usize);
        map.push(naive);

        let mut best: Option<(usize, Lit)> = None;
        for cut in cuts.cuts_of(id.0) {
            // Refactoring pays off on wider cones; narrow ones are the
            // rewriting pass's job.
            if cut.len() < 3 || cut.leaves() == [id.0] || cut.contains(0) {
                continue;
            }
            let mut f = cut_function_with(aig, id, cut.leaves(), eval);
            let mut leaf_ids: Vec<u32> = cut.leaves().to_vec();
            let support = f.support();
            if support.len() < leaf_ids.len() {
                f = f.project(&support);
                leaf_ids = support.iter().map(|&v| leaf_ids[v]).collect();
            }
            if leaf_ids.is_empty() {
                continue;
            }
            let actual: Vec<Lit> = leaf_ids.iter().map(|&l| map[l as usize]).collect();
            let recipe = Recipe::build(&f);
            let (cost, probed_out) = recipe.probe(&new, &actual, &mut scratch.probe);
            // Skip no-op candidates that resolve to the existing node.
            if probed_out == Some(map[id.0 as usize]) {
                continue;
            }
            let freed = exclusive_cone_size(aig, id, cut.leaves(), &fanouts, &mut scratch);
            // Zero-cost candidates reuse existing structure and never add
            // nodes, so they are always worth taking even when the freed
            // estimate is conservative.
            if cost < freed || cost == 0 {
                let score = (freed + 1).saturating_sub(cost);
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    let lit = recipe.paste(&mut new, &actual);
                    best = Some((score, lit));
                }
            }
        }
        if let Some((_, lit)) = best {
            map[id.0 as usize] = lit;
        }
    }
    for (name, lit) in aig.outputs() {
        let l = map[lit.node().0 as usize].xor_sign(lit.is_complement());
        new.add_output(name.clone(), l);
    }
    let new = new.compact();
    if new.n_ands() < aig.n_ands() {
        new
    } else {
        aig.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(aig: &Aig) -> Aig {
        let out = refactor(aig);
        assert!(aig.equivalent(&out), "refactor changed the function");
        assert!(out.n_ands() <= aig.n_ands(), "refactor grew the graph");
        out
    }

    #[test]
    fn collapses_redundant_wide_cones() {
        // f = maj(a,b,c) built wastefully through XOR scaffolding.
        let mut g = Aig::new(3);
        let a = g.input(0);
        let b = g.input(1);
        let c = g.input(2);
        let ab = g.and(a, b);
        let axb = g.xor(a, b);
        let axbc = g.and(axb, c);
        let f = g.or(ab, axbc); // = majority
        g.add_output("maj", f);
        let before = g.n_ands();
        let out = check(&g);
        assert!(out.n_ands() <= before);
        // Majority is doable in 4 ANDs.
        assert!(out.n_ands() <= 4 + 1, "got {}", out.n_ands());
    }

    #[test]
    fn refactor_preserves_multi_output_sharing() {
        let mut g = Aig::new(4);
        let lits: Vec<Lit> = (0..4).map(|i| g.input(i)).collect();
        let s = g.and_many(&lits);
        let t = g.or_many(&lits);
        g.add_output("and", s);
        g.add_output("or", t);
        check(&g);
    }

    #[test]
    fn refactor_random_graph() {
        let mut g = Aig::new(6);
        let mut lits: Vec<Lit> = (0..6).map(|i| g.input(i)).collect();
        let mut state = 0x12345678u64;
        for _ in 0..80 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let i = (state >> 16) as usize % lits.len();
            let j = (state >> 33) as usize % lits.len();
            let a = lits[i];
            let b = lits[j].xor_sign((state >> 50) & 1 == 1);
            let f = g.and(a, b);
            lits.push(f);
        }
        g.add_output("f", *lits.last().expect("non-empty"));
        g.add_output("g", lits[lits.len() / 2]);
        check(&g.compact());
    }

    #[test]
    #[should_panic(expected = "cut width")]
    fn rejects_zero_width() {
        let g = Aig::new(1);
        let _ = refactor_with_width(&g, 0, 4);
    }
}
