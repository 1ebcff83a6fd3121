//! DAG-aware cut rewriting over NPN classes.
//!
//! This is the workspace's analogue of ABC's `rewrite` command: every AND
//! node's 4-feasible cuts are matched against a cache of pre-optimized
//! implementations of their NPN class; a cone is replaced when the
//! replacement adds fewer nodes (counting structural-hash reuse) than the
//! cone holds. The pass rebuilds into a fresh graph and is kept only if it
//! reduces the AND count, so it is monotone by construction.

use mvf_logic::npn::{npn_canonical, NpnTransform};
use mvf_logic::{word, TruthTable};

use crate::aig::WordMap;
use crate::cuts::{cut_word_with, enumerate_cuts_into, CutScratch, CutSet};
use crate::{build, Aig, Lit, NodeId};

/// Cut width of the rewriting pass: every cut function fits one word.
const CUT_WIDTH: usize = 4;

/// A cached implementation of a canonical function: a miniature AIG over
/// the canonical variables plus its output literal.
#[derive(Debug, Clone)]
pub(crate) struct Recipe {
    aig: Aig,
    out: Lit,
}

impl Recipe {
    pub(crate) fn build(tt: &TruthTable) -> Recipe {
        let n = tt.n_vars();
        let mut aig = Aig::new(n);
        let leaves: Vec<Lit> = (0..n).map(|i| aig.input(i)).collect();
        let out = build::tt_to_aig(&mut aig, tt, &leaves);
        aig.add_output("f", out);
        let aig = aig.compact();
        let out = aig.outputs()[0].1;
        Recipe { aig, out }
    }

    /// Copies the recipe into `target` using the given leaf literals;
    /// returns the output literal.
    pub(crate) fn paste(&self, target: &mut Aig, leaves: &[Lit]) -> Lit {
        let mut map: Vec<Lit> = Vec::with_capacity(self.aig.n_nodes());
        map.push(Lit::FALSE);
        for i in 0..self.aig.n_inputs() {
            map.push(leaves[i]);
        }
        for id in self.aig.and_nodes() {
            let (f0, f1) = self.aig.fanins(id);
            let a = map[f0.node().0 as usize].xor_sign(f0.is_complement());
            let b = map[f1.node().0 as usize].xor_sign(f1.is_complement());
            debug_assert_eq!(map.len(), id.0 as usize);
            map.push(target.and(a, b));
        }
        map[self.out.node().0 as usize].xor_sign(self.out.is_complement())
    }

    /// Counts how many new nodes [`Recipe::paste`] would create, without
    /// mutating `target`. Also returns the output literal the paste would
    /// produce when every node hash-hits (`None` if any node is new).
    /// `map` is the caller's reusable node map.
    pub(crate) fn probe(
        &self,
        target: &Aig,
        leaves: &[Lit],
        map: &mut Vec<Option<Lit>>,
    ) -> (usize, Option<Lit>) {
        // `None` marks a virtual (not-yet-existing) node.
        map.clear();
        map.push(Some(Lit::FALSE));
        for i in 0..self.aig.n_inputs() {
            map.push(Some(leaves[i]));
        }
        let mut added = 0usize;
        for id in self.aig.and_nodes() {
            let (f0, f1) = self.aig.fanins(id);
            let a = map[f0.node().0 as usize].map(|l| l.xor_sign(f0.is_complement()));
            let b = map[f1.node().0 as usize].map(|l| l.xor_sign(f1.is_complement()));
            debug_assert_eq!(map.len(), id.0 as usize);
            let found = match (a, b) {
                (Some(a), Some(b)) => target.find_and(a, b),
                _ => None,
            };
            if found.is_none() {
                added += 1;
            }
            map.push(found);
        }
        let out = map[self.out.node().0 as usize].map(|l| l.xor_sign(self.out.is_complement()));
        (added, out)
    }
}

/// Shared rewriting caches: NPN canonicalization and canonical recipes.
///
/// Every cut function of the pass has at most 4 variables, so its arity
/// and its one truth-table word identify it: the pass computes that word
/// directly and a lookup hashes the pair with the cheap [`WordMap`]
/// hasher, building a [`TruthTable`] only on a miss, for
/// canonicalization. Entries live in flat vectors indexed by first
/// appearance, and a lookup hands out borrows instead of cloning a table
/// and a transform.
#[derive(Default)]
pub(crate) struct RewriteCache {
    /// Cut function `(arity, word)` → entry index.
    entries: WordMap<(usize, u64), usize>,
    /// Per entry: the transform onto the function's NPN canon.
    transforms: Vec<NpnTransform>,
    /// Per entry: the index of the canon's recipe.
    recipe_of: Vec<usize>,
    /// Canon `(arity, word)` → recipe index.
    canons: WordMap<(usize, u64), usize>,
    /// One pre-optimized implementation per NPN class met so far.
    recipes: Vec<Recipe>,
}

impl RewriteCache {
    /// The transform taking the `arity`-variable function `word` onto its
    /// NPN canon, and the canon's recipe; the function is canonicalized on
    /// its first appearance only. Bits of `word` above `2^arity` must be
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `arity > 6`.
    pub(crate) fn lookup(&mut self, arity: usize, word: u64) -> (&NpnTransform, &Recipe) {
        let key = (arity, word);
        let entry = match self.entries.get(&key) {
            Some(&entry) => entry,
            None => {
                let f = TruthTable::from_word(arity, word).expect("at most 6 variables");
                debug_assert_eq!(f.as_word(), word, "bits above the table");
                let (canon, t) = npn_canonical(&f);
                let recipes = &mut self.recipes;
                let recipe = *self
                    .canons
                    .entry((canon.n_vars(), canon.as_word()))
                    .or_insert_with(|| {
                        recipes.push(Recipe::build(&canon));
                        recipes.len() - 1
                    });
                let entry = self.transforms.len();
                self.transforms.push(t);
                self.recipe_of.push(recipe);
                self.entries.insert(key, entry);
                entry
            }
        };
        (
            &self.transforms[entry],
            &self.recipes[self.recipe_of[entry]],
        )
    }
}

/// Instantiation order of cut leaves for a canonical recipe: recipe input
/// `t.perm[v]` receives actual leaf `v`, complemented per the transform.
/// The first `actual.len()` entries of the array are the leaves.
pub(crate) fn transformed_leaves(t: &NpnTransform, actual: &[Lit]) -> ([Lit; CUT_WIDTH], bool) {
    let mut out = [Lit::FALSE; CUT_WIDTH];
    for (v, &p) in t.perm.iter().enumerate() {
        out[p] = actual[v].xor_sign(t.input_neg & (1 << v) != 0);
    }
    (out, t.output_neg)
}

/// One rewriting pass. Returns an equivalent graph with at most as many
/// AND nodes as the input.
pub fn rewrite(aig: &Aig) -> Aig {
    let mut cache = RewriteCache::default();
    rewrite_with_cache(
        aig,
        &mut cache,
        &mut CutSet::new(),
        &mut CutScratch::default(),
    )
}

/// Buffers a rewriting or refactoring pass reuses for every candidate:
/// [`Recipe::probe`]'s node map and [`exclusive_cone_size`]'s lists and
/// per-node reference counts.
#[derive(Default)]
pub(crate) struct ConeScratch {
    pub(crate) probe: Vec<Option<Lit>>,
    cone: Vec<u32>,
    stack: Vec<u32>,
    freed: Vec<u32>,
    frontier: Vec<u32>,
    /// All zeros between calls (see [`exclusive_cone_size`]).
    refs_inside: Vec<u32>,
}

/// Number of cone nodes above `leaves` that would really be freed if
/// `root` were re-expressed: nodes all of whose fanouts lie inside the
/// freed set (an MFFC restricted to the cut).
pub(crate) fn exclusive_cone_size(
    aig: &Aig,
    root: NodeId,
    leaves: &[u32],
    fanouts: &[u32],
    scratch: &mut ConeScratch,
) -> usize {
    let ConeScratch {
        cone,
        stack,
        freed,
        frontier,
        refs_inside,
        ..
    } = scratch;
    // Collect cone nodes (excluding leaves).
    cone.clear();
    stack.clear();
    stack.push(root.0);
    while let Some(id) = stack.pop() {
        if leaves.contains(&id) || cone.contains(&id) {
            continue;
        }
        if aig.is_and(NodeId(id)) {
            cone.push(id);
            let (f0, f1) = aig.fanins(NodeId(id));
            stack.push(f0.node().0);
            stack.push(f1.node().0);
        }
    }
    // Count, per cone node, how many of its fanout references come from
    // freed nodes; a node is freed when that count reaches its total
    // fanout. Iterate from the root downward (cone is in DFS order, but a
    // fixpoint loop is simplest and the cones are tiny). `refs_inside` is
    // all zeros between calls: only cone entries are touched, and they
    // are reset on the way out, so a call costs the cone, not the graph.
    if refs_inside.len() < aig.n_nodes() {
        refs_inside.resize(aig.n_nodes(), 0);
    }
    freed.clear();
    freed.push(root.0);
    frontier.clear();
    frontier.push(root.0);
    while let Some(id) = frontier.pop() {
        let (f0, f1) = aig.fanins(NodeId(id));
        for child in [f0.node().0, f1.node().0] {
            if !cone.contains(&child) || freed.contains(&child) {
                continue;
            }
            refs_inside[child as usize] += 1;
            if refs_inside[child as usize] == fanouts[child as usize] {
                freed.push(child);
                frontier.push(child);
            }
        }
    }
    for &id in cone.iter() {
        refs_inside[id as usize] = 0;
    }
    freed.len()
}

pub(crate) fn rewrite_with_cache(
    aig: &Aig,
    cache: &mut RewriteCache,
    cuts: &mut CutSet,
    eval: &mut CutScratch,
) -> Aig {
    enumerate_cuts_into(aig, CUT_WIDTH, 8, cuts);
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

        // Try to improve with a cut-based replacement.
        let mut best: Option<(usize, Lit)> = None;
        for cut in cuts.cuts_of(id.0) {
            if cut.len() < 2 || cut.leaves() == [id.0] || cut.contains(0) {
                continue;
            }
            let mut bits = cut_word_with(aig, id, cut.leaves(), eval);
            // Support reduction: drop leaves the function ignores.
            let support = word::support(bits, cut.len());
            if support == 0 {
                continue;
            }
            let arity = support.count_ones() as usize;
            if arity < cut.len() {
                bits = word::project(bits, support);
            }
            let mut actual = [Lit::FALSE; CUT_WIDTH];
            let support_leaves = cut
                .leaves()
                .iter()
                .enumerate()
                .filter(|&(v, _)| support & (1 << v) != 0);
            for (slot, (_, &l)) in actual.iter_mut().zip(support_leaves) {
                *slot = map[l as usize];
            }
            let (t, recipe) = cache.lookup(arity, bits);
            let (leaves, out_neg) = transformed_leaves(t, &actual[..arity]);
            let leaves = &leaves[..arity];
            let (cost, probed_out) = recipe.probe(&new, leaves, &mut scratch.probe);
            // A candidate that resolves to the node we already have is a
            // no-op; skip it so it cannot displace real improvements.
            if probed_out.map(|l| l.xor_sign(out_neg)) == Some(map[id.0 as usize]) {
                continue;
            }
            let freed = exclusive_cone_size(aig, id, cut.leaves(), &fanouts, &mut scratch);
            // Zero-cost candidates reuse existing structure and never add
            // nodes, so they are always worth taking even when the freed
            // estimate is conservative.
            if cost < freed || cost == 0 {
                let score = (freed + 1).saturating_sub(cost);
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    let lit = recipe.paste(&mut new, leaves).xor_sign(out_neg);
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

    fn check_rewrite(aig: &Aig) -> Aig {
        let out = rewrite(aig);
        assert!(aig.equivalent(&out), "rewrite changed the function");
        assert!(out.n_ands() <= aig.n_ands(), "rewrite grew the graph");
        out
    }

    #[test]
    fn removes_redundant_structure() {
        // f = (a·b)·(a·(b·c)) == a·b·c: naive structure has 4 ANDs.
        let mut g = Aig::new(3);
        let a = g.input(0);
        let b = g.input(1);
        let c = g.input(2);
        let ab = g.and(a, b);
        let bc = g.and(b, c);
        let abc = g.and(a, bc);
        let f = g.and(ab, abc);
        g.add_output("f", f);
        assert_eq!(g.n_ands(), 4);
        let out = check_rewrite(&g);
        assert!(
            out.n_ands() <= 2,
            "a·b·c needs 2 ANDs, got {}",
            out.n_ands()
        );
    }

    #[test]
    fn rewrite_is_identity_on_optimal_graphs() {
        let mut g = Aig::new(2);
        let a = g.input(0);
        let b = g.input(1);
        let f = g.xor(a, b);
        g.add_output("f", f);
        let out = check_rewrite(&g);
        assert_eq!(out.n_ands(), 3);
    }

    #[test]
    fn rewrite_mux_structures() {
        // Double mux selecting same data collapses; one greedy pass must
        // shrink it, and the full script reaches the 3-AND optimum.
        let mut g = Aig::new(3);
        let s = g.input(0);
        let a = g.input(1);
        let b = g.input(2);
        let m1 = g.mux(s, a, b);
        let m2 = g.mux(s, m1, b); // equivalent to m1
        g.add_output("f", m2);
        let once = check_rewrite(&g);
        assert!(once.n_ands() < g.n_ands(), "got {}", once.n_ands());
        let full = crate::Script::standard().run(&g);
        assert!(full.equivalent(&g));
        assert!(full.n_ands() <= 3, "script got {}", full.n_ands());
    }

    #[test]
    fn recipe_paste_probe_agree() {
        let f = TruthTable::from_fn(4, |m| (m * 11) % 3 == 1);
        let recipe = Recipe::build(&f);
        let mut target = Aig::new(4);
        let leaves: Vec<Lit> = (0..4).map(|i| target.input(i)).collect();
        let mut map = Vec::new();
        let (probed, _) = recipe.probe(&target, &leaves, &mut map);
        let before = target.n_ands();
        let out = recipe.paste(&mut target, &leaves);
        assert_eq!(target.n_ands() - before, probed, "probe must predict paste");
        // Second paste is free: everything hash-hits and the probe
        // resolves the output literal exactly.
        assert_eq!(recipe.probe(&target, &leaves, &mut map), (0, Some(out)));
        let out2 = recipe.paste(&mut target, &leaves);
        assert_eq!(out, out2);
    }

    #[test]
    fn transformed_leaves_semantics() {
        // For any transform and function, pasting the canonical recipe on
        // transformed leaves must reproduce the original function.
        let f = TruthTable::from_fn(3, |m| [0, 1, 1, 0, 1, 0, 0, 0][m] == 1);
        let (canon, t) = npn_canonical(&f);
        let recipe = Recipe::build(&canon);
        let mut aig = Aig::new(3);
        let actual: Vec<Lit> = (0..3).map(|i| aig.input(i)).collect();
        let (leaves, out_neg) = transformed_leaves(&t, &actual);
        let lit = recipe.paste(&mut aig, &leaves[..3]).xor_sign(out_neg);
        aig.add_output("f", lit);
        assert_eq!(aig.output_functions()[0], f);
    }

    /// A deterministic random 8-input graph of 120 AND nodes.
    fn random_graph() -> Aig {
        let mut g = Aig::new(8);
        let mut lits: Vec<Lit> = (0..8).map(|i| g.input(i)).collect();
        let mut state = 0xDEADBEEFu64;
        for _ in 0..120 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (state >> 16) as usize % lits.len();
            let j = (state >> 32) as usize % lits.len();
            let inv = (state >> 48) & 1 == 1;
            let a = lits[i];
            let b = if inv { !lits[j] } else { lits[j] };
            let f = g.and(a, b);
            lits.push(f);
        }
        let f = *lits.last().expect("non-empty");
        g.add_output("f", f);
        g
    }

    #[test]
    fn rewrite_large_random_graph() {
        // Rewrite must preserve the function and never grow.
        check_rewrite(&random_graph());
    }

    #[test]
    fn exclusive_cone_size_reuses_a_zeroed_buffer() {
        // The reused buffers must give the count fresh ones give, and the
        // reference counts must be all zeros again after every call.
        let g = random_graph();
        let mut cuts = CutSet::new();
        enumerate_cuts_into(&g, 4, 8, &mut cuts);
        let fanouts = g.fanout_counts();
        let mut reused = ConeScratch::default();
        for id in g.and_nodes() {
            for cut in cuts.cuts_of(id.0) {
                let warm = exclusive_cone_size(&g, id, cut.leaves(), &fanouts, &mut reused);
                let cold = exclusive_cone_size(
                    &g,
                    id,
                    cut.leaves(),
                    &fanouts,
                    &mut ConeScratch::default(),
                );
                assert_eq!(warm, cold, "node {} cut {:?}", id.0, cut.leaves());
                assert!(reused.refs_inside.iter().all(|&r| r == 0));
            }
        }
    }

    #[test]
    fn cut_word_matches_cut_function() {
        let g = random_graph();
        let mut eval = CutScratch::default();
        for (k, max_cuts) in [(4, 8), (6, 16)] {
            let cuts = crate::cuts::enumerate_cuts(&g, k, max_cuts);
            for id in 0..g.n_nodes() as u32 {
                for cut in cuts.cuts_of(id) {
                    let root = NodeId(id);
                    let table = crate::cuts::cut_function_with(&g, root, cut.leaves(), &mut eval);
                    let word = cut_word_with(&g, root, cut.leaves(), &mut eval);
                    assert_eq!(word, table.as_word(), "node {id} cut {cut:?}");
                }
            }
        }
    }

    #[test]
    fn cache_lookup_matches_direct_canonicalization() {
        // Every entry is what canonicalizing and building would give,
        // whether it is a first appearance or a repeat.
        let mut cache = RewriteCache::default();
        for round in 0..2 {
            for bits in (0..1u64 << 16).step_by(251) {
                let f = TruthTable::from_word(4, bits).unwrap();
                let (canon, t) = npn_canonical(&f);
                let (got_t, recipe) = cache.lookup(4, bits);
                assert_eq!(*got_t, t, "round {round} f = {f:?}");
                assert_eq!(recipe.aig.output_functions()[0], canon);
            }
        }
    }
}
