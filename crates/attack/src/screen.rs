//! SAT-free probabilistic screening: the simulate-first half of the
//! screen-then-solve funnel.
//!
//! Before any plausibility query reaches the solver, the obfuscated
//! netlist is evaluated on a batch of input vectors with enumerable
//! configurations of its [`ObfuscationSpace`] carried as extra
//! word-parallel variables ([`ObfuscationSpace::eval_vectors`]). The
//! screen keeps, per **output group**, the set of distinct column tuples
//! the group's outputs take over those configurations. A candidate is
//! compared by building its own tuple and testing membership: when some
//! group lacks the candidate's projection, every configuration disagrees
//! on some sampled vector and the candidate is **refuted with zero SAT
//! calls** — soundly, because the SAT encoding's configuration space is
//! exactly the per-site product the screen enumerates (one independent
//! exactly-one selector group per obfuscated site). The screen never
//! looks at what the sites *mean* — doping-programmable camouflage cells
//! and key gates screen through the identical code path.
//!
//! The groups depend on the size of the configuration product:
//!
//! * **whole** — the full product fits [`MAX_SCREEN_CONFIGS`]: one group
//!   holds every output, and its tuples are the whole circuit's columns
//!   under every configuration. This screen refutes and, in the complete
//!   regime below, confirms;
//! * **projected** — past the cap (real mapped circuits camouflage dozens
//!   of cells, each with 3–5 plausible functions), every output whose
//!   fan-in cone's choice product fits the cap gets a group of its own:
//!   the distinct columns that output takes over its cone's
//!   configurations ([`ObfuscationSpace::cone_sites`]). Sites outside
//!   the cone cannot reach the output, so they are left unbound. Every
//!   full configuration restricts to a cone configuration, so a column
//!   missing from a group is missing from the whole product: the
//!   projected screen refutes soundly, but never confirms. When no
//!   output's cone fits the cap, the screen stands down and the sweep is
//!   SAT-only.
//!
//! Either way the configurations stream through one reused evaluation
//! arena in chunks, so the build never holds a whole product.
//!
//! Because circuit evaluation is permutation-independent, the same
//! cached groups serve every candidate of a sweep *and* every orbit
//! point.
//!
//! Two vector regimes, both verdict-preserving:
//!
//! * **complete** — the vector batch covers all `2^n_in` minterms, so
//!   agreement on the batch *is* functional equality: a whole screen
//!   both refutes and confirms, and a confirmed orbit representative is
//!   the witness (every smaller representative was exactly refuted
//!   first). Tuples are the packed truth-table keys the orbit pruner
//!   computes, so an orbit point the pruner already keyed is classified
//!   from its key alone;
//! * **sampling** — fewer vectors than minterms (deterministic SplitMix64
//!   stream seeded from the candidate batch): the screen only refutes,
//!   and surviving candidates fall through to SAT unchanged. An orbit
//!   point's tuple is a permuted-index gather against the batch.

use mvf_logic::word::{splitmix64, SPLITMIX_GAMMA};
use mvf_logic::{TtArena, VectorFunction, MAX_VARS};
use mvf_netlist::Netlist;
use mvf_obfuscate::{ConfigOdometer, ObfuscationSpace};

use crate::keys::{KeyLayout, KeyTable};

/// Hard cap on an enumerated configuration product: past it the screen
/// projects onto output cones rather than enumerate an exponential space,
/// and a cone past it gets no group.
pub const MAX_SCREEN_CONFIGS: usize = 4096;

/// Configurations times vectors per evaluation call: the build streams
/// products through one arena of this many bits per net.
const CHUNK_BITS: usize = 1 << 14;

/// Default screening batch size (vectors per candidate comparison).
/// Overridable per sweep through the options structs' `screen_vectors`;
/// verdicts are identical for every batch size.
pub const DEFAULT_SCREEN_VECTORS: usize = 256;

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
    /// Every configuration disagreed on a sampled vector: refuted, no SAT
    /// call needed. Sound in both regimes and for projected screens.
    Refuted,
    /// Some configuration agreed on *all* minterms (complete regime of a
    /// whole screen only): plausible, no SAT call needed.
    Confirmed,
    /// Survivors remain but the batch is sampled: the solver decides.
    Unknown,
}

/// The cached batch evaluation shared by every comparison of one sweep.
/// Scheme-generic: configurations come from the sweep's
/// [`ObfuscationSpace`], so the same screen serves camouflage and
/// locking alike.
pub struct ConfigScreen {
    /// One group holding every output (whole screen), or one group per
    /// output whose cone fits the cap (projected screen).
    groups: Vec<OutputGroup>,
    /// Whole screens only: `config_tuple[j]` is the entry of
    /// configuration `j`'s tuple in the one group's table.
    config_tuple: Option<Vec<u32>>,
    /// The screening input vectors (each below `2^n_in`).
    vectors: Vec<u64>,
    /// The key layout when `vectors` covers every minterm (exact
    /// screening); `None` when sampling.
    packed: Option<KeyLayout>,
    n_out: usize,
}

/// The distinct tuples some outputs take over the configurations that
/// can reach them. A tuple is laid out as the whole circuit's (complete
/// regime: a packed function key in `packed`'s layout; sampling: the
/// `n_out` columns over `vectors`, output-major, bit `b` of word
/// `o·(vectors/64) + w` being output `o` on input `vectors[64 w + b]`),
/// with every other output's bits cleared.
struct OutputGroup {
    /// The tuple bits of the group's outputs.
    mask: Vec<u64>,
    tuples: KeyTable,
}

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
    /// A tuple projected onto one group's outputs.
    masked: Vec<u64>,
}

impl OrbitScreenScratch {
    pub(crate) fn new() -> Self {
        OrbitScreenScratch {
            ys: Vec::new(),
            cols: Vec::new(),
            cur_ip: u64::MAX,
            cur_neg: u64::MAX,
            tuple: Vec::new(),
            masked: Vec::new(),
        }
    }

    /// Invalidates the caches (call between candidates).
    pub(crate) fn reset(&mut self) {
        self.cur_ip = u64::MAX;
        self.cur_neg = u64::MAX;
    }
}

impl ConfigScreen {
    /// Builds the screen for one sweep: draws the vector batch — all
    /// minterms when they fit (`complete`), a SplitMix64 sample seeded
    /// from the candidate batch otherwise — and streams configurations
    /// through one evaluation arena. When the space's whole product fits
    /// [`MAX_SCREEN_CONFIGS`] it keeps the distinct whole-circuit column
    /// tuples; past the cap it keeps, for every output whose cone
    /// product fits, the distinct columns of that output. `None` when no
    /// group qualifies or the input count is outside `1..=MAX_VARS`.
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
                    .map(|i| splitmix64(seed ^ i.wrapping_mul(SPLITMIX_GAMMA)) & mask)
                    .collect(),
            )
        };
        let mut screen = ConfigScreen {
            groups: Vec::new(),
            config_tuple: None,
            vectors,
            packed,
            n_out,
        };
        let mut arena = TtArena::default();
        let mut tuple = vec![0; screen.width()];
        if let Some(configs) = space.enumerate_configs(nl, &space.sites(nl), MAX_SCREEN_CONFIGS) {
            let outputs: Vec<usize> = (0..n_out).collect();
            let mut group = screen.group(&outputs);
            let mut config_tuple = Vec::new();
            screen.stream(space, nl, &outputs, configs, &mut arena, |cols| {
                screen.assemble(|o| (o, cols[o].as_slice(), 0), &mut tuple);
                config_tuple.push(group.tuples.insert(&tuple).0);
            });
            screen.groups.push(group);
            screen.config_tuple = Some(config_tuple);
        } else {
            for o in 0..n_out {
                let cone = space.cone_sites(nl, o);
                let Some(configs) = space.enumerate_configs(nl, &cone, MAX_SCREEN_CONFIGS) else {
                    continue;
                };
                let mut group = screen.group(&[o]);
                screen.stream(space, nl, &[o], configs, &mut arena, |cols| {
                    tuple.fill(0);
                    screen.place(o, &cols[0], 0, &mut tuple);
                    group.tuples.insert(&tuple);
                });
                screen.groups.push(group);
            }
            if screen.groups.is_empty() {
                return None;
            }
        }
        Some(screen)
    }

    /// An empty group over `outputs`.
    fn group(&self, outputs: &[usize]) -> OutputGroup {
        let ones = vec![u64::MAX; self.vectors.len() / 64];
        let mut mask = vec![0; self.width()];
        for &o in outputs {
            self.place(o, &ones, 0, &mut mask);
        }
        OutputGroup {
            mask,
            tuples: KeyTable::new(self.width()),
        }
    }

    /// Evaluates `outputs` under every configuration of `configs`, a
    /// chunk at a time through `arena`, and hands `visit` each
    /// configuration's columns in order.
    fn stream(
        &self,
        space: &ObfuscationSpace<'_>,
        nl: &Netlist,
        outputs: &[usize],
        mut configs: ConfigOdometer<'_>,
        arena: &mut TtArena,
        mut visit: impl FnMut(&[Vec<u64>]),
    ) {
        let max = (CHUNK_BITS / self.vectors.len()).max(1);
        loop {
            let chunk = configs.next_chunk(max);
            if chunk.is_empty() {
                return;
            }
            let columns = space
                .eval_vectors_with(nl, outputs, chunk, &self.vectors, arena)
                .expect("enumerated configurations are plausible by construction");
            for cols in &columns {
                visit(cols);
            }
        }
    }

    /// The surviving-config mask of `candidate` under the identity
    /// interpretation: `mask[j]` is `true` iff configuration `j` agrees
    /// with the candidate on every screening vector. Configurations are
    /// indexed over the obfuscated sites in netlist topological order —
    /// the last site varying fastest — with each site's choice set in
    /// its sorted order. `None` for a projected screen, which never
    /// enumerates the whole product. Exposed so tests can cross-check
    /// the mask against exhaustive per-configuration circuit evaluation.
    pub fn survivors(&self, candidate: &VectorFunction) -> Option<Vec<bool>> {
        let config_tuple = self.config_tuple.as_ref()?;
        let entry = self.groups[0].tuples.get(&self.identity_tuple(candidate));
        Some(config_tuple.iter().map(|&t| Some(t) == entry).collect())
    }

    /// Screens `candidate` under the identity interpretation — the
    /// reference the orbit and key paths are tested against.
    #[cfg(test)]
    pub(crate) fn classify_identity(&self, candidate: &VectorFunction) -> ScreenOutcome {
        self.classify_tuple(&self.identity_tuple(candidate), &mut Vec::new())
    }

    /// Screens an orbit point by its packed function key
    /// ([`KeyLayout`] of the circuit's shape).
    ///
    /// # Panics
    ///
    /// Panics in the sampling regime, whose tuples are not keys.
    pub(crate) fn classify_key(
        &self,
        key: &[u64],
        scratch: &mut OrbitScreenScratch,
    ) -> ScreenOutcome {
        assert!(
            self.packed.is_some(),
            "keys classify in the complete regime only"
        );
        self.classify_tuple(key, &mut scratch.masked)
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
        scratch.tuple.resize(self.width(), 0);
        let cols = &scratch.cols;
        self.assemble(
            |i| {
                let o = out_perm[i];
                let flip = if out_neg >> o & 1 == 1 { !0u64 } else { 0 };
                (o, cols[i].as_slice(), flip)
            },
            &mut scratch.tuple,
        );
        self.classify_tuple(&scratch.tuple, &mut scratch.masked)
    }

    /// Approximate heap footprint of the cached screen in bytes, every
    /// group included, for session-cache accounting.
    pub fn bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.tuples.bytes() + g.mask.len() * std::mem::size_of::<u64>())
            .sum::<usize>()
            + self
                .config_tuple
                .as_ref()
                .map_or(0, |c| c.len() * std::mem::size_of::<u32>())
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

    /// Tuple length in words.
    fn width(&self) -> usize {
        self.packed
            .map_or(self.n_out * self.vectors.len() / 64, |layout| {
                layout.width()
            })
    }

    /// ORs output `o`'s column words `src`, XORed with `flip`, into its
    /// place in `tuple`.
    fn place(&self, o: usize, src: &[u64], flip: u64, tuple: &mut [u64]) {
        match self.packed {
            Some(layout) => layout.place(o, src, flip, tuple),
            None => {
                for (dst, &w) in tuple[o * src.len()..].iter_mut().zip(src) {
                    *dst |= w ^ flip;
                }
            }
        }
    }

    /// Writes a comparison tuple in this screen's layout: for every
    /// source output `i`, `col(i)` names its position, its column words
    /// over the batch, and an XOR mask.
    fn assemble<'a>(&self, col: impl Fn(usize) -> (usize, &'a [u64], u64), tuple: &mut [u64]) {
        tuple.fill(0);
        for i in 0..self.n_out {
            let (o, src, flip) = col(i);
            self.place(o, src, flip, tuple);
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
        let mut tuple = vec![0; self.width()];
        self.assemble(|i| (i, cols[i].as_slice(), 0), &mut tuple);
        tuple
    }

    /// A whole screen answers from its one table; a projected screen
    /// refutes when some group lacks the tuple's projection onto its
    /// outputs (`masked` is scratch), and otherwise leaves the point to
    /// SAT.
    fn classify_tuple(&self, tuple: &[u64], masked: &mut Vec<u64>) -> ScreenOutcome {
        if self.config_tuple.is_some() {
            return match (self.groups[0].tuples.get(tuple).is_some(), self.packed) {
                (false, _) => ScreenOutcome::Refuted,
                (true, Some(_)) => ScreenOutcome::Confirmed,
                (true, None) => ScreenOutcome::Unknown,
            };
        }
        let missing = |g: &OutputGroup| {
            masked.clear();
            masked.extend(tuple.iter().zip(&g.mask).map(|(&w, &m)| w & m));
            g.tuples.get(masked).is_none()
        };
        if self.groups.iter().any(missing) {
            ScreenOutcome::Refuted
        } else {
            ScreenOutcome::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_cells::{CamoLibrary, Library};

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
        let mut odometer = space
            .enumerate_configs(&nl, &space.sites(&nl), MAX_SCREEN_CONFIGS)
            .unwrap();
        let configs = odometer.next_chunk(usize::MAX);
        assert_eq!(configs.len(), 1);
        assert!(configs[0].is_empty());
    }
}
