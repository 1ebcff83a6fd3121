//! SAT-free probabilistic screening: the simulate-first half of the
//! screen-then-solve funnel.
//!
//! Before any plausibility query reaches the solver, the obfuscated
//! netlist is evaluated **once** on a batch of input vectors with every
//! enumerable configuration of its [`ObfuscationSpace`] carried as
//! extra word-parallel variables
//! ([`ObfuscationSpace::eval_vectors`]). Each configuration's output
//! columns on the batch form one tuple, and the screen keeps the set of
//! distinct tuples. A candidate is compared by building its own tuple and
//! testing membership: when no configuration produces it, every
//! configuration disagrees on some sampled vector and the candidate is
//! **refuted with zero SAT calls** — soundly, because the SAT encoding's
//! configuration space is exactly the per-site product the screen
//! enumerates (one independent exactly-one selector group per
//! obfuscated site). The screen never looks at what the sites *mean* —
//! doping-programmable camouflage cells and key gates screen through
//! the identical code path.
//!
//! Because circuit evaluation is permutation-independent, the same
//! cached set serves every candidate of a sweep *and* every orbit point.
//!
//! Two regimes, both verdict-preserving:
//!
//! * **complete** — the vector batch covers all `2^n_in` minterms, so
//!   agreement on the batch *is* functional equality: the screen both
//!   refutes and confirms, and a confirmed orbit representative is the
//!   witness (every smaller representative was exactly refuted first).
//!   Tuples are the packed truth-table keys the orbit pruner computes,
//!   so an orbit point the pruner already keyed is classified from its
//!   key alone;
//! * **sampling** — fewer vectors than minterms (deterministic SplitMix64
//!   stream seeded from the candidate batch): the screen only refutes,
//!   and surviving candidates fall through to SAT unchanged. An orbit
//!   point's tuple is a permuted-index gather against the batch.
//!
//! When the configuration product exceeds [`MAX_SCREEN_CONFIGS`] (real
//! mapped circuits camouflage dozens of cells, each with 3–5 plausible
//! functions) the screen stands down and the sweep is SAT-only —
//! trivially bit-identical to screening disabled.

use mvf_cells::{CamoLibrary, Library};
use mvf_logic::{VectorFunction, MAX_VARS};
use mvf_netlist::Netlist;
use mvf_obfuscate::ObfuscationSpace;

use crate::keys::{KeyLayout, KeyTable};

/// Hard cap on the enumerable configuration product: above this the
/// screen disables itself rather than enumerate an exponential space.
pub const MAX_SCREEN_CONFIGS: usize = 4096;

/// Default screening batch size (vectors per candidate comparison).
/// Overridable per sweep via the options structs and, for the bench
/// harness, the `MVF_SCREEN_VECTORS` env knob.
pub const DEFAULT_SCREEN_VECTORS: usize = 256;

/// One SplitMix64 step — the same generator the workload seeding uses,
/// so screening vectors are deterministic functions of their seed alone.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds the candidate batch's truth-table words into the stream seed:
/// the same sweep over the same candidates screens with the same
/// vectors, regardless of process or host.
fn batch_seed(candidates: &[VectorFunction]) -> u64 {
    let mut seed = 0x5EED_5C2E_E45C_2EE5u64;
    for f in candidates {
        for tt in f.outputs() {
            for &w in tt.words() {
                seed = splitmix64(seed ^ w);
            }
        }
    }
    seed
}

/// What the screen decided for one candidate (or orbit representative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScreenOutcome {
    /// Every enumerated configuration disagreed on a sampled vector:
    /// refuted, no SAT call needed. Sound in both regimes.
    Refuted,
    /// Some configuration agreed on *all* minterms (complete regime
    /// only): plausible, no SAT call needed.
    Confirmed,
    /// Survivors remain but the batch is sampled: the solver decides.
    Unknown,
}

/// The cached batch evaluation shared by every comparison of one sweep.
/// Scheme-generic: configurations come from the sweep's
/// [`ObfuscationSpace`], so the same screen serves camouflage and
/// locking alike.
pub struct ConfigScreen {
    /// The distinct per-configuration output-column tuples. Complete
    /// regime: packed function keys in `packed`'s layout. Sampling: the
    /// `n_out` columns over `vectors`, output-major (bit `b` of word
    /// `o·(vectors/64) + w` is output `o` on input `vectors[64 w + b]`).
    tuples: KeyTable,
    /// `config_tuple[j]`: the tuple entry of configuration `j`.
    config_tuple: Vec<u32>,
    /// The screening input vectors (each below `2^n_in`).
    vectors: Vec<u64>,
    /// The key layout when `vectors` covers every minterm (exact
    /// screening); `None` when sampling.
    packed: Option<KeyLayout>,
    n_out: usize,
}

/// The screen's historical (camouflage-era) name, kept as an alias so
/// existing call sites and test corpora compile unchanged.
pub type CamoScreen = ConfigScreen;

/// Per-candidate scratch for orbit screening: the permuted-index gather
/// is cached per input permutation, the candidate columns per
/// `(input permutation, input negation)` — output permutations only
/// re-place columns and output negations are XOR masks — and everything
/// is reset between candidates.
pub(crate) struct OrbitScreenScratch {
    /// `ys[m]`: the `in_perm`-gathered image of `vectors[m]` in the
    /// candidate's input frame (negation not yet applied).
    ys: Vec<usize>,
    /// `cols[i][w]`: bit `b` is `f.output(i)` evaluated at
    /// `ys[64 w + b] ^ cur_neg`.
    cols: Vec<Vec<u64>>,
    /// Flat orbit rank of the input permutation `ys` was built for
    /// (`u64::MAX` = none yet).
    cur_ip: u64,
    /// Input negation mask `cols` was built for (`u64::MAX` = none yet).
    cur_neg: u64,
    tuple: Vec<u64>,
}

impl OrbitScreenScratch {
    pub(crate) fn new() -> Self {
        OrbitScreenScratch {
            ys: Vec::new(),
            cols: Vec::new(),
            cur_ip: u64::MAX,
            cur_neg: u64::MAX,
            tuple: Vec::new(),
        }
    }

    /// Invalidates the caches (call between candidates).
    pub(crate) fn reset(&mut self) {
        self.cur_ip = u64::MAX;
        self.cur_neg = u64::MAX;
    }
}

impl ConfigScreen {
    /// [`ConfigScreen::build_in`] for the camouflage scheme — the
    /// historical signature, delegating through
    /// [`ObfuscationSpace::camouflage`].
    pub fn build(
        nl: &Netlist,
        lib: &Library,
        camo: &CamoLibrary,
        candidates: &[VectorFunction],
        n_vectors: usize,
    ) -> Option<ConfigScreen> {
        ConfigScreen::build_in(
            &ObfuscationSpace::camouflage(lib, camo),
            nl,
            candidates,
            n_vectors,
        )
    }

    /// Builds the screen for one sweep: enumerates the space's
    /// configuration product (bailing to `None` past
    /// [`MAX_SCREEN_CONFIGS`]), draws the vector batch — all minterms
    /// when they fit (`complete`), a SplitMix64 sample seeded from the
    /// candidate batch otherwise — evaluates the netlist once for every
    /// `(configuration, vector)` pair, and keeps the distinct
    /// per-configuration column tuples.
    pub fn build_in(
        space: &ObfuscationSpace<'_>,
        nl: &Netlist,
        candidates: &[VectorFunction],
        n_vectors: usize,
    ) -> Option<ConfigScreen> {
        let n_in = nl.inputs().len();
        if n_in == 0 || n_in > MAX_VARS {
            return None;
        }
        let configs = space.enumerate_configs(nl, MAX_SCREEN_CONFIGS)?;
        // Normalize the batch size to the simulator's contract: a power
        // of two with at least one full word per configuration block.
        let requested = n_vectors.next_power_of_two().clamp(64, 1usize << MAX_VARS);
        let minterms = 1usize << n_in;
        let n_out = nl.outputs().len();
        let (packed, vectors): (Option<KeyLayout>, Vec<u64>) = if minterms <= requested {
            // Complete regime: cycle the minterms up to word granularity
            // so the batch stays as small as exactness allows.
            let v = minterms.max(64);
            (
                Some(KeyLayout::new(n_in, n_out)),
                (0..v as u64).map(|m| m % minterms as u64).collect(),
            )
        } else {
            let mask = (1u64 << n_in) - 1;
            let seed = batch_seed(candidates);
            (
                None,
                (0..requested as u64)
                    .map(|i| splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask)
                    .collect(),
            )
        };
        let out_words = space
            .eval_vectors(nl, &configs, &vectors)
            .expect("enumerated configurations are plausible by construction");
        let width = packed.map_or(n_out * vectors.len() / 64, |layout| layout.width());
        let mut screen = ConfigScreen {
            tuples: KeyTable::new(width),
            config_tuple: Vec::with_capacity(out_words.len()),
            vectors,
            packed,
            n_out,
        };
        let mut tuple = vec![0; width];
        for cols in &out_words {
            screen.assemble(|o| (o, cols[o].as_slice(), 0), &mut tuple);
            let (entry, _) = screen.tuples.insert(&tuple);
            screen.config_tuple.push(entry);
        }
        Some(screen)
    }

    /// The surviving-config mask of `candidate` under the identity
    /// interpretation: `mask[j]` is `true` iff configuration `j` agrees
    /// with the candidate on every screening vector. Configurations are
    /// indexed over the camouflaged cells in netlist topological order —
    /// the last cell varying fastest — with each cell's plausible set in
    /// its sorted order. Exposed so tests can cross-check the mask
    /// against exhaustive per-configuration circuit evaluation.
    pub fn survivors(&self, candidate: &VectorFunction) -> Vec<bool> {
        let entry = self.tuples.get(&self.identity_tuple(candidate));
        self.config_tuple
            .iter()
            .map(|&t| Some(t) == entry)
            .collect()
    }

    /// Screens `candidate` under the identity interpretation.
    pub(crate) fn classify_identity(&self, candidate: &VectorFunction) -> ScreenOutcome {
        self.classify_tuple(&self.identity_tuple(candidate))
    }

    /// Screens an orbit point by its packed function key
    /// ([`KeyLayout`] of the circuit's shape).
    ///
    /// # Panics
    ///
    /// Panics in the sampling regime, whose tuples are not keys.
    pub(crate) fn classify_key(&self, key: &[u64]) -> ScreenOutcome {
        assert!(
            self.packed.is_some(),
            "keys classify in the complete regime only"
        );
        self.classify_tuple(key)
    }

    /// Screens the NPN orbit point `(in_perm, in_neg, out_perm,
    /// out_neg)` of `candidate`: equivalent to
    /// [`classify_identity`](Self::classify_identity) on
    /// `candidate.negate_inputs(in_neg).permute_inputs(ip)
    /// .permute_outputs(op).negate_outputs(out_neg)`, but served from
    /// the cached batch. The permuted-index gather is cached per
    /// `ip_rank`, candidate columns per `(ip_rank, in_neg)`; output
    /// permutations re-place columns and output negations are XOR
    /// masks, so polarity points cost no re-evaluation of the batch.
    pub(crate) fn classify_orbit(
        &self,
        candidate: &VectorFunction,
        ip_rank: u64,
        in_perm: &[usize],
        in_neg: u32,
        out_perm: &[usize],
        out_neg: u32,
        scratch: &mut OrbitScreenScratch,
    ) -> ScreenOutcome {
        let wpv = self.vectors.len() / 64;
        if scratch.cur_ip != ip_rank {
            // h = f.permute_inputs(ip) means h(x) = f(y) with bit v of
            // y equal to bit ip[v] of x — gather once per in-perm.
            scratch.ys.clear();
            scratch.ys.extend(self.vectors.iter().map(|&x| {
                let mut y = 0usize;
                for (v, &src) in in_perm.iter().enumerate() {
                    y |= (((x >> src) & 1) as usize) << v;
                }
                y
            }));
            scratch.cur_ip = ip_rank;
            scratch.cur_neg = u64::MAX;
        }
        if scratch.cur_neg != u64::from(in_neg) {
            // The gathered y is already in the candidate's input frame,
            // which is exactly where the (pre-permutation) negation
            // mask lives — apply it as a plain XOR and evaluate all
            // outputs in one pass.
            if scratch.cols.len() == self.n_out {
                for col in &mut scratch.cols {
                    col.clear();
                    col.resize(wpv, 0);
                }
            } else {
                scratch.cols.clear();
                scratch.cols.resize_with(self.n_out, || vec![0u64; wpv]);
            }
            for (m, &y) in scratch.ys.iter().enumerate() {
                let e = candidate.eval(y ^ in_neg as usize);
                for (i, col) in scratch.cols.iter_mut().enumerate() {
                    col[m / 64] |= u64::from((e >> i) & 1) << (m % 64);
                }
            }
            scratch.cur_neg = u64::from(in_neg);
        }
        // Output permutation: original output i lands at out_perm[i];
        // output negation flips the landed column. The batch is always a
        // whole number of fully-populated 64-bit words, so an XOR with
        // all-ones is exact.
        scratch.tuple.resize(self.tuples.width(), 0);
        let cols = &scratch.cols;
        self.assemble(
            |i| {
                let o = out_perm[i];
                let flip = if out_neg >> o & 1 == 1 { !0u64 } else { 0 };
                (o, cols[i].as_slice(), flip)
            },
            &mut scratch.tuple,
        );
        self.classify_tuple(&scratch.tuple)
    }

    /// Approximate heap footprint of the cached screen in bytes, for
    /// session-cache accounting.
    pub fn bytes(&self) -> usize {
        self.tuples.bytes()
            + self.config_tuple.len() * std::mem::size_of::<u32>()
            + self.vectors.len() * std::mem::size_of::<u64>()
    }

    /// Whether the batch covers every minterm (the screen is exact).
    pub fn is_complete(&self) -> bool {
        self.packed.is_some()
    }

    /// Vectors per comparison (the batch length).
    pub fn n_vectors(&self) -> usize {
        self.vectors.len()
    }

    /// Writes a comparison tuple in this screen's layout: for every
    /// source output `i`, `col(i)` names its position, its column words
    /// over the batch, and an XOR mask.
    fn assemble<'a>(&self, col: impl Fn(usize) -> (usize, &'a [u64], u64), tuple: &mut [u64]) {
        tuple.fill(0);
        for i in 0..self.n_out {
            let (o, src, flip) = col(i);
            match self.packed {
                Some(layout) => layout.place(o, src, flip, tuple),
                None => {
                    for (dst, &w) in tuple[o * src.len()..].iter_mut().zip(src) {
                        *dst = w ^ flip;
                    }
                }
            }
        }
    }

    /// The candidate's tuple under the identity interpretation.
    fn identity_tuple(&self, candidate: &VectorFunction) -> Vec<u64> {
        let wpv = self.vectors.len() / 64;
        let mut cols = vec![vec![0u64; wpv]; self.n_out];
        for (m, &x) in self.vectors.iter().enumerate() {
            let e = candidate.eval(x as usize);
            for (i, col) in cols.iter_mut().enumerate() {
                col[m / 64] |= u64::from((e >> i) & 1) << (m % 64);
            }
        }
        let mut tuple = vec![0; self.tuples.width()];
        self.assemble(|i| (i, cols[i].as_slice(), 0), &mut tuple);
        tuple
    }

    fn classify_tuple(&self, tuple: &[u64]) -> ScreenOutcome {
        match (self.tuples.get(tuple).is_some(), self.packed.is_some()) {
            (false, _) => ScreenOutcome::Refuted,
            (true, true) => ScreenOutcome::Confirmed,
            (true, false) => ScreenOutcome::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_stream_is_deterministic_and_batch_seeded() {
        let f = VectorFunction::from_lookup_table(3, 3, &[1, 0, 3, 2, 5, 7, 6, 4]).unwrap();
        let g = VectorFunction::from_lookup_table(3, 3, &[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        let one_f = std::slice::from_ref(&f);
        assert_eq!(batch_seed(one_f), batch_seed(one_f));
        assert_ne!(batch_seed(one_f), batch_seed(std::slice::from_ref(&g)));
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn config_enumeration_caps_the_product() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        // An empty netlist has product 1: exactly one (empty) config.
        let mut nl = Netlist::new("wire".to_string());
        let a = nl.add_input("a".to_string());
        nl.add_output("y".to_string(), a);
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let configs = space.enumerate_configs(&nl, MAX_SCREEN_CONFIGS).unwrap();
        assert_eq!(configs.len(), 1);
        assert!(configs[0].is_empty());
    }
}
