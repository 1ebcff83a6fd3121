//! The adversary of the paper's §I: plausibility testing of viable
//! functions against a camouflaged netlist.
//!
//! The attacker has imaged the delayered chip, identified every cell
//! (including the camouflaged look-alikes and their plausible-function
//! sets) and knows a list of viable functions. For each viable function
//! she asks: *is there a doping configuration under which the circuit
//! implements it?* — an ∃∀ query (ref. \[14\]'s QBF formulation) decided
//! here by input-unrolled SAT over the configuration selectors
//! ([`is_plausible`]).
//!
//! Because the designer is also free to permute I/O pins — and to route
//! any pin through an inverter — the adversary must consider a function
//! plausible if **some** input/output interpretation works. Every tier
//! runs through one sweep over an [`ObfuscationSpace`]: one encoding, a
//! lazily enumerated interpretation orbit pruned by packed function keys
//! (pin symmetries collapse whole interpretation classes to one query),
//! and the surviving queries striped over cloned solvers — with verdicts
//! and witness interpretations bit-identical for every shard count. The
//! tier picks the orbit:
//!
//! * [`plausibility_sweep_in`] — the identity interpretation alone, the
//!   one-point orbit;
//! * [`plausibility_sweep_any_io_in`] — the permutation group
//!   `n_in!·n_out!` by default, and the full NPN group
//!   `n_in!·2^n_in·n_out!·2^n_out` with [`AnyIoOptions::npn`].
//!
//! With [`AnyIoOptions::class_share`] the batch is additionally grouped
//! into interpretation classes, so orbit functions shared between
//! candidates are screened and SAT-queried once per batch instead of once
//! per candidate. [`AnyIoJob`] steps the same work list in pausable
//! chunks.
//!
//! Every sweep runs behind a **screen-then-solve funnel** ([`screen`]
//! module): word-parallel batch evaluation of the netlist over
//! enumerable doping configurations refutes the obvious chaff — and, when
//! the whole configuration product is enumerable and the batch covers
//! every minterm, confirms witnesses — before a single SAT query is
//! issued. Past the enumeration cap the screen projects onto each
//! output's fan-in cone: an orbit point whose column for some output is
//! realized by no configuration of that output's cone is refuted just as
//! soundly. Screening never changes a verdict or a witness, only the
//! [`AnyIoVerdict::queries`] count; [`AnyIoVerdict::screened`] reports
//! how much the solver never saw.
//!
//! [`random_camouflage`] builds the paper's strawman — camouflage every
//! gate of a single-function circuit — whose plausible set, while
//! exponentially large, almost never contains the *other* viable
//! functions. The integration tests demonstrate exactly that separation.
//!
//! # Example
//!
//! ```
//! use mvf_attack::{is_plausible, random_camouflage};
//! use mvf_cells::{CamoLibrary, Library};
//! use mvf_sboxes::optimal_sboxes;
//!
//! let lib = Library::standard();
//! let camo = CamoLibrary::from_library(&lib);
//! let f0 = &optimal_sboxes()[0];
//! let circuit = random_camouflage(f0, &lib, &camo)?;
//! // The true function is always plausible for its own camouflaged
//! // netlist.
//! assert!(is_plausible(&circuit, &lib, &camo, f0));
//! # Ok::<(), mvf_attack::AttackError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod keys;
pub mod screen;
pub mod session;

use keys::{KeyLayout, KeyTable};
pub use screen::{ConfigScreen, DEFAULT_SCREEN_VECTORS};
use screen::{OrbitScreenScratch, ScreenOutcome};
pub use session::{AnyIoJob, AnyIoProgress, RestoreError, SweepSession};

pub use mvf_obfuscate::{ObfuscationSpace, SchemeKind};
pub use mvf_sat::SimplifyStats;

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use mvf_cells::{CamoLibrary, Library};
use mvf_logic::npn::{NegationMasks, Permutations};
use mvf_logic::{IoInterpretation, VectorFunction};
use mvf_netlist::{CellRef, Netlist};
use mvf_sat::{Lit, Solver, Var};

/// Rebuilds `out` with the assumptions forcing the encoded circuit to
/// equal `candidate` on every input row: output `o` of row `m` is pinned
/// to bit `o` of `candidate(m)`. Shared by every plausibility query so
/// the encoding contract lives in one place.
pub(crate) fn candidate_assumptions(
    row_outputs: &[Vec<Var>],
    candidate: &VectorFunction,
    out: &mut Vec<Lit>,
) {
    out.clear();
    for (m, row) in row_outputs.iter().enumerate() {
        let want = candidate.eval(m);
        for (o, &v) in row.iter().enumerate() {
            out.push(Lit::with_polarity(v, (want >> o) & 1 == 1));
        }
    }
}

/// Errors from attack-model construction.
#[derive(Debug)]
#[non_exhaustive]
pub enum AttackError {
    /// Building the reference circuit failed.
    Build(String),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Build(e) => write!(f, "building attack target failed: {e}"),
        }
    }
}

impl Error for AttackError {}

/// Decides whether `candidate` is plausible for the camouflaged netlist
/// under the *fixed* (identity) pin interpretation: does some doping
/// configuration make the circuit equal `candidate` on every input?
///
/// The paper's single-candidate question, answered by the identity
/// sweep ([`plausibility_sweep_in`]) over the camouflage space, so it
/// shares the batched path's encoding contract and screen-then-solve
/// funnel.
///
/// # Panics
///
/// Panics if the candidate's shape does not match the netlist.
pub fn is_plausible(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    candidate: &VectorFunction,
) -> bool {
    plausibility_sweep_in(
        &ObfuscationSpace::camouflage(lib, camo),
        nl,
        std::slice::from_ref(candidate),
        &AnyIoOptions::default(),
    )[0]
    .plausible
}

/// Options for every sweep: the identity sweep
/// ([`plausibility_sweep_in`]), the interpretation-freedom sweep
/// ([`plausibility_sweep_any_io_in`]) and their stepped jobs
/// ([`AnyIoJob`]).
///
/// The orbit is always pruned by transformed function: interpretations
/// yielding the same transformed function (equal packed truth-table
/// keys) are queried once, the first in enumeration order representing
/// the whole class.
#[derive(Debug, Clone)]
pub struct AnyIoOptions {
    /// Worker shards striping the surviving work list over
    /// [`mvf_sat::Solver::clone_db`] clones. `0` uses the available
    /// hardware parallelism; `<= 1` runs serially. Verdicts and witness
    /// permutations are bit-identical for every value. Jobs are serial
    /// and ignore it.
    pub shards: usize,
    /// Runs the SAT-free screen in front of the solver
    /// ([`ConfigScreen`]): word-parallel batch evaluation over enumerable
    /// doping configurations refutes orbit representatives before any
    /// SAT query. When the whole configuration product fits
    /// [`screen::MAX_SCREEN_CONFIGS`] the screen also confirms (complete
    /// regime); past it, it refutes from each output's fan-in cone whose
    /// product fits, and stands down only when no cone does. Never
    /// changes a verdict or a witness.
    pub screen: bool,
    /// Screening batch size (normalized to a power of two in
    /// `64 ..= 2^16`); when the batch covers every input minterm the
    /// screen is exact. Larger batches refute more chaff per build at
    /// higher screening cost. Defaults to [`DEFAULT_SCREEN_VECTORS`].
    pub screen_vectors: usize,
    /// Extends the interpretation orbit from the permutation subgroup
    /// (`n_in!·n_out!`) to the full NPN group
    /// (`n_in!·2^n_in·n_out!·2^n_out`): the adversary also considers
    /// every input/output polarity flip. Polarity points are enumerated
    /// in Gray-code order as in-place single-bit flips, and the screen
    /// handles them as XOR masks on its cached word-parallel batches, so
    /// the walk stays allocation-free and SAT-free up front. Witnesses
    /// remain the orbit-minimal satisfying index (identity first).
    ///
    /// Picks the tier of [`plausibility_sweep_any_io_in`] and of
    /// [`AnyIoJob`]s; it does not apply to [`plausibility_sweep_in`],
    /// whose orbit is the identity alone.
    pub npn: bool,
    /// Shares orbit work across the candidate batch by NPN/P class:
    /// candidates that are interpretations of one another walk the same
    /// set of orbit *functions*, so each distinct function is screened
    /// once and SAT-queried once per batch, with verdicts served from a
    /// shared cache afterwards. Verdicts and witnesses are identical to
    /// the unshared sweep (every candidate still walks its own orbit
    /// order); only `queries`/`screened` drop — by about the class
    /// duplication factor. Under the identity sweep a class is a set of
    /// identical candidates.
    pub class_share: bool,
}

impl Default for AnyIoOptions {
    fn default() -> Self {
        AnyIoOptions {
            shards: 1,
            screen: true,
            screen_vectors: DEFAULT_SCREEN_VECTORS,
            npn: false,
            class_share: false,
        }
    }
}

/// The per-candidate result of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnyIoVerdict {
    /// Whether some input/output interpretation makes the candidate
    /// plausible.
    pub plausible: bool,
    /// The witness interpretation when plausible: the orbit-minimal
    /// point (input permutation major; see the orbit layout on
    /// [`AnyIoOptions::npn`]) under which [`is_plausible`] holds for the
    /// transformed candidate. Both polarity masks are `0` when the sweep
    /// runs on the permutation subgroup. Deterministic for every shard
    /// count and for class sharing on/off.
    pub witness: Option<IoInterpretation>,
    /// Size of the full interpretation orbit: `n_in!·n_out!`, or
    /// `n_in!·2^n_in·n_out!·2^n_out` under [`AnyIoOptions::npn`], or 1
    /// for the identity sweep.
    pub orbit: usize,
    /// Orbit representatives after pruning — the queries a
    /// full refutation needs. Equals `orbit` when the candidate has no
    /// pin symmetries.
    pub unique: usize,
    /// Representatives the SAT-free screen settled (refuted, or — by a
    /// whole screen in the complete regime — confirmed as the witness)
    /// before any solver call. `0` when screening is off, or when no
    /// output's configuration product (whole or cone) fits the
    /// enumeration cap. Deterministic for
    /// every shard count: screening runs serially up front. Under
    /// [`AnyIoOptions::class_share`] only *fresh* classifications count;
    /// representatives served from another class member's screen result
    /// are free.
    pub screened: usize,
    /// SAT queries actually issued. For an implausible candidate this is
    /// exactly `unique - screened` (minus cache hits under
    /// [`AnyIoOptions::class_share`]); when a witness exists, early exit
    /// cuts it short and the count may vary with the shard count (the
    /// *verdict* never does).
    pub queries: usize,
    /// The candidate's interpretation-equivalence class within this
    /// batch (dense ids in first-appearance order). Without
    /// [`AnyIoOptions::class_share`] every candidate is its own class.
    pub class: usize,
    /// How many candidates of this batch share [`AnyIoVerdict::class`] —
    /// the duplication factor class sharing removes.
    pub class_size: usize,
}

/// The interpretation-orbit size of an `n_in → n_out` function — the
/// permutation group's `n_in!·n_out!`, times `2^n_in·2^n_out` with
/// `npn` — when it fits the sweeps' `u32` orbit indices, `None`
/// otherwise. Every any-IO sweep and job refuses (panics on) a shape
/// for which this is `None`; services check it up front to turn such
/// workloads away. The identity sweep's one-point orbit never consults
/// it.
pub fn checked_orbit(n_in: usize, n_out: usize, npn: bool) -> Option<u64> {
    let factorial = |n: usize| (1..=n as u64).try_fold(1u64, u64::checked_mul);
    let negations = if npn {
        1u64.checked_shl(n_in as u32 + n_out as u32)?
    } else {
        1
    };
    factorial(n_in)?
        .checked_mul(factorial(n_out)?)?
        .checked_mul(negations)
        .filter(|&o| o <= u64::from(u32::MAX))
}

/// The interpretation group an adversary tier searches: its orbit of a
/// candidate is the set of points [`walk_orbit`] visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Group {
    /// The identity interpretation alone: the one-point orbit, index 0.
    Identity,
    /// Input and output pin permutations.
    Permutation,
    /// Pin permutations and polarity flips on every pin.
    Npn,
}

impl Group {
    /// The any-IO tier `opts` asks for.
    pub(crate) fn any_io(opts: &AnyIoOptions) -> Group {
        if opts.npn {
            Group::Npn
        } else {
            Group::Permutation
        }
    }

    /// Whether orbit indices use the NPN mixed-radix layout.
    fn npn(self) -> bool {
        self == Group::Npn
    }
}

/// Enumerates the candidate's interpretation orbit lazily and calls
/// `visit` with every point's flat index and packed function key
/// ([`KeyLayout`]), in index order.
///
/// The enumeration nests input permutation (major) → input negation →
/// output permutation → output negation, with both negation layers in
/// Gray-code order, so every step is a small in-place edit. Input
/// negation flips variable `ip[v]` of the input-permuted working copy
/// (negating before permuting equals permuting first and flipping the
/// permuted wire); an output permutation packs that copy's tables at
/// their permuted key positions; an output negation complements one
/// packed output. With `npn == false` both negation layers degenerate
/// to the single empty mask and the indices coincide with the
/// historical `ip_rank·n_out! + op_rank` layout. The identity group
/// visits index 0, the candidate itself, alone.
fn walk_orbit(candidate: &VectorFunction, group: Group, mut visit: impl FnMut(u32, &[u64])) {
    let n_in = candidate.n_inputs();
    let n_out = candidate.n_outputs();
    let layout = KeyLayout::new(n_in, n_out);
    let mut key = vec![0u64; layout.width()];
    if group == Group::Identity {
        layout.pack(candidate, &mut key);
        return visit(0, &key);
    }
    let npn = group.npn();
    let mut permuted_in = VectorFunction::new(0, Vec::new());
    let mut index = 0u32;
    let mut in_perms = Permutations::new(n_in);
    let mut in_negs = NegationMasks::new(if npn { n_in } else { 0 });
    let mut out_perms = Permutations::new(n_out);
    let mut out_negs = NegationMasks::new(if npn { n_out } else { 0 });
    while let Some(ip) = in_perms.next() {
        candidate
            .permute_inputs_into(ip, &mut permuted_in)
            .expect("orbit permutation is valid");
        in_negs.reset();
        while let Some((_, in_flip)) = in_negs.next() {
            if let Some(v) = in_flip {
                permuted_in.negate_input_assign(ip[v]);
            }
            out_perms.reset();
            while let Some(op) = out_perms.next() {
                key.fill(0);
                for (t, &o) in permuted_in.outputs().iter().zip(op) {
                    layout.place(o, t.words(), 0, &mut key);
                }
                out_negs.reset();
                while let Some((_, out_flip)) = out_negs.next() {
                    if let Some(o) = out_flip {
                        layout.flip_output(o, &mut key);
                    }
                    visit(index, &key);
                    index += 1;
                }
            }
        }
    }
}

/// Lexicographic permutation unranking (factorial number system): rank 0
/// is the identity, rank `n! - 1` the descending permutation — exactly
/// the order [`Permutations`] streams, so ranks and stream positions
/// coincide.
fn unrank_perm(mut rank: u64, n: usize, scratch: &mut Vec<usize>, out: &mut Vec<usize>) {
    scratch.clear();
    scratch.extend(0..n);
    out.clear();
    let mut fact: u64 = (1..n as u64).product(); // (n-1)!, empty product = 1
    for i in (1..=n).rev() {
        let d = (rank / fact) as usize;
        rank %= fact;
        out.push(scratch.remove(d));
        if i > 1 {
            fact /= (i - 1) as u64;
        }
    }
}

/// Splits a flat orbit index back into its interpretation parts: fills
/// the permutations and returns the `(in_neg, out_neg)` polarity masks
/// (always `0` when `npn` is off).
///
/// The mixed-radix layout is input-permutation major,
/// `((ip_rank·2^n_in + ig_pos)·n_out! + op_rank)·2^n_out + og_pos`, with
/// both negation positions Gray-decoded (`mask = gray_code(pos)`) to
/// match [`walk_orbit`]'s in-place flips; with `npn` off both negation
/// radices are 1 and the layout degenerates to the historical
/// `ip_rank·n_out! + op_rank`.
pub(crate) fn unrank_orbit_index(
    index: u32,
    n_in: usize,
    n_out: usize,
    npn: bool,
    scratch: &mut Vec<usize>,
    in_perm: &mut Vec<usize>,
    out_perm: &mut Vec<usize>,
) -> (u32, u32) {
    let out_fact: u64 = (1..=n_out as u64).product();
    let mut rest = u64::from(index);
    let out_neg = if npn {
        let pos = rest % (1 << n_out);
        rest >>= n_out;
        mvf_logic::npn::gray_code(pos) as u32
    } else {
        0
    };
    unrank_perm(rest % out_fact, n_out, scratch, out_perm);
    rest /= out_fact;
    let in_neg = if npn {
        let pos = rest % (1 << n_in);
        rest >>= n_in;
        mvf_logic::npn::gray_code(pos) as u32
    } else {
        0
    };
    unrank_perm(rest, n_in, scratch, in_perm);
    (in_neg, out_neg)
}

/// Materializes the orbit point `(in_perm, in_neg, out_perm, out_neg)`
/// of `f` into `permuted` (using `permuted_in` as intermediate scratch),
/// allocation-free once the scratch functions are warm. The input
/// negation mask is in `f`'s pre-permutation frame, so it is applied as
/// flips of the already-permuted wires `in_perm[v]`.
pub(crate) fn apply_orbit_point(
    f: &VectorFunction,
    in_perm: &[usize],
    in_neg: u32,
    out_perm: &[usize],
    out_neg: u32,
    permuted_in: &mut VectorFunction,
    permuted: &mut VectorFunction,
) {
    f.permute_inputs_into(in_perm, permuted_in)
        .expect("orbit permutation is valid");
    let mut mask = in_neg;
    while mask != 0 {
        let v = mask.trailing_zeros() as usize;
        permuted_in.negate_input_assign(in_perm[v]);
        mask &= mask - 1;
    }
    permuted_in
        .permute_outputs_into(out_perm, permuted)
        .expect("orbit permutation is valid");
    permuted.negate_outputs_assign(out_neg);
}

/// SAT verdict of a distinct orbit function, shared across the batch
/// under class sharing: `0` unknown, `1` satisfiable, `2` unsatisfiable.
const UID_UNKNOWN: u8 = 0;
const UID_SAT: u8 = 1;
const UID_UNSAT: u8 = 2;

/// The mutable state of a sweep over a planned work list, shared by all
/// of its workers: per-candidate witness bounds and query counts, plus —
/// only when the plan mints uids batch-wide, the one case in which it can
/// hit — the per-uid SAT verdict cache.
///
/// Every access is `Relaxed`: each atomic is a value of its own (a bound,
/// a count, a verdict) that publishes no other data, a stale read only
/// costs a query the skip rule would have saved, and final values are
/// read after the workers are joined.
pub(crate) struct Tally {
    /// `best[c]`: the smallest known satisfying orbit index of candidate
    /// `c` (`usize::MAX` = none yet).
    best: Vec<AtomicUsize>,
    queries: Vec<AtomicUsize>,
    /// Indexed by uid; empty without class sharing.
    resolved: Vec<AtomicU8>,
}

impl Tally {
    /// The state before the first work item.
    pub(crate) fn start(plan: &AnyIoPlan) -> Tally {
        let queries = vec![0; plan.best_init.len()];
        Tally::new(plan, &plan.best_init, &queries, &[])
    }

    /// A state with the given bounds and counts, caching the `resolved`
    /// verdicts when `plan` shares uids. Every uid must be below
    /// `plan.n_uids`.
    pub(crate) fn new(
        plan: &AnyIoPlan,
        best: &[usize],
        queries: &[usize],
        resolved: &[(u32, bool)],
    ) -> Tally {
        let atomics = |v: &[usize]| v.iter().map(|&x| AtomicUsize::new(x)).collect();
        let mut cache = Vec::new();
        if plan.shared {
            cache.resize_with(plan.n_uids, || AtomicU8::new(UID_UNKNOWN));
            for &(uid, sat) in resolved {
                cache[uid as usize] = AtomicU8::new(if sat { UID_SAT } else { UID_UNSAT });
            }
        }
        Tally {
            best: atomics(best),
            queries: atomics(queries),
            resolved: cache,
        }
    }

    /// The state as checkpointable progress at work-list position `pos`;
    /// `resolved` is ascending by uid.
    pub(crate) fn progress(&self, pos: usize) -> AnyIoProgress {
        let load = |v: &[AtomicUsize]| v.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        let resolved = self.resolved.iter().enumerate();
        AnyIoProgress {
            pos,
            best: load(&self.best),
            queries: load(&self.queries),
            resolved: resolved
                .filter_map(|(uid, v)| match v.load(Ordering::Relaxed) {
                    UID_UNKNOWN => None,
                    v => Some((uid as u32, v == UID_SAT)),
                })
                .collect(),
        }
    }
}

/// Answers the `(candidate, orbit index, uid)` work items `items` of
/// `plan` on `solver` — the one loop behind the serial sweep, every
/// sharded stripe and every [`AnyIoJob::step`]. `tally.best` lets a
/// worker skip representatives past a known witness, and because a skip
/// requires an already-found *smaller* satisfying index, the final
/// `fetch_min` result is exactly the orbit's minimal satisfying
/// representative — for any stripe count, including 1, and for any split
/// into steps.
///
/// Under class sharing a hit in the verdict cache applies the recorded
/// verdict (a satisfiable uid still lowers `best`) without a query.
/// Because a verdict is a mathematical fact of the transformed function,
/// a cache hit and a fresh query are interchangeable — witnesses cannot
/// move.
///
/// `last_cand` is the candidate whose search the solver's saved phases
/// come from (`u32::MAX` resets them before the first query); the
/// return value is that candidate after the last query, for the next
/// call on the same solver.
fn answer_work(
    plan: &AnyIoPlan,
    candidates: &[VectorFunction],
    solver: &mut Solver,
    row_outputs: &[Vec<Var>],
    items: impl Iterator<Item = (u32, u32, u32)>,
    tally: &Tally,
    mut last_cand: u32,
) -> u32 {
    let (mut unrank_tmp, mut in_perm, mut out_perm) = (Vec::new(), Vec::new(), Vec::new());
    let mut permuted_in = VectorFunction::new(0, Vec::new());
    let mut permuted = VectorFunction::new(0, Vec::new());
    let mut assumptions = Vec::new();
    for (c, index, uid) in items {
        let cand = c as usize;
        if tally.best[cand].load(Ordering::Relaxed) < index as usize {
            continue; // a smaller witness is already known
        }
        if plan.shared {
            match tally.resolved[uid as usize].load(Ordering::Relaxed) {
                UID_SAT => {
                    tally.best[cand].fetch_min(index as usize, Ordering::Relaxed);
                    continue;
                }
                UID_UNSAT => continue,
                _ => {}
            }
        }
        if c != last_cand {
            // Saved phases are a per-candidate heuristic; do not let one
            // candidate's UNSAT proof steer the next candidate's search.
            solver.reset_phases();
            last_cand = c;
        }
        let f = &candidates[cand];
        let (in_neg, out_neg) = unrank_orbit_index(
            index,
            f.n_inputs(),
            f.n_outputs(),
            plan.group.npn(),
            &mut unrank_tmp,
            &mut in_perm,
            &mut out_perm,
        );
        apply_orbit_point(
            f,
            &in_perm,
            in_neg,
            &out_perm,
            out_neg,
            &mut permuted_in,
            &mut permuted,
        );
        candidate_assumptions(row_outputs, &permuted, &mut assumptions);
        tally.queries[cand].fetch_add(1, Ordering::Relaxed);
        let sat = solver.solve_with(&assumptions);
        if plan.shared {
            let verdict = if sat { UID_SAT } else { UID_UNSAT };
            tally.resolved[uid as usize].store(verdict, Ordering::Relaxed);
        }
        if sat {
            tally.best[cand].fetch_min(index as usize, Ordering::Relaxed);
        }
    }
    last_cand
}

/// Sweeps a list of candidate functions against one obfuscated netlist
/// under the identity pin interpretation: `result[j].plausible` is
/// whether some configuration of `space` makes `nl` equal
/// `candidates[j]` on every input.
///
/// This is the one-point orbit of [`plausibility_sweep_any_io_in`]: one
/// encoding, the SAT-free screen, and the candidates the screen leaves
/// answered by incremental SAT under per-candidate assumptions, serially
/// or striped over cloned solvers. Every verdict has `orbit == unique ==
/// 1`; without class sharing it settles by one screen classification or
/// one query (`screened + queries == 1`), and its witness is the identity
/// interpretation exactly when the candidate is plausible.
/// [`AnyIoOptions::npn`] does not apply to this entry point.
///
/// # Panics
///
/// Panics if any candidate's shape does not match the netlist.
pub fn plausibility_sweep_in(
    space: &ObfuscationSpace<'_>,
    nl: &Netlist,
    candidates: &[VectorFunction],
    opts: &AnyIoOptions,
) -> Vec<AnyIoVerdict> {
    sweep(space, nl, candidates, Group::Identity, opts)
}

/// Sweeps a list of candidate functions against one obfuscated netlist
/// under the paper's full adversary: `result[j]` reports whether
/// `candidates[j]` is plausible under **some** input/output pin
/// interpretation, with the witness interpretation when one exists.
///
/// The netlist is encoded **once**; each candidate's orbit (the
/// permutation group, or the NPN group under [`AnyIoOptions::npn`]) is
/// enumerated lazily and pruned by packed function keys, so
/// interpretations that produce the same transformed function collapse
/// to one query and a refuted representative rules out its entire class.
/// With [`AnyIoOptions::shards`] above 1 the surviving work list is
/// striped over [`mvf_sat::Solver::clone_db`] clones that share
/// per-candidate witness bounds; verdicts **and** witnesses are
/// bit-identical for every shard count.
///
/// Nothing here inspects the scheme: the space supplies the
/// configuration odometer for the screen and the selector-encoded CNF for
/// the solver, so per-cell camouflage and logic locking run through this
/// one body.
///
/// # Panics
///
/// Panics if any candidate's shape does not match the netlist, or if the
/// orbit overflows the sweep's `u32` indices ([`checked_orbit`]).
pub fn plausibility_sweep_any_io_in(
    space: &ObfuscationSpace<'_>,
    nl: &Netlist,
    candidates: &[VectorFunction],
    opts: &AnyIoOptions,
) -> Vec<AnyIoVerdict> {
    sweep(space, nl, candidates, Group::any_io(opts), opts)
}

/// The one sweep body: screen, plan over `group`, then answer the
/// surviving work list — encoding the netlist only when the screen left
/// some item to the solver.
fn sweep(
    space: &ObfuscationSpace<'_>,
    nl: &Netlist,
    candidates: &[VectorFunction],
    group: Group,
    opts: &AnyIoOptions,
) -> Vec<AnyIoVerdict> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let screen = opts
        .screen
        .then(|| ConfigScreen::build_in(space, nl, candidates, opts.screen_vectors))
        .flatten();
    let plan = plan_any_io(nl, candidates, group, opts.class_share, screen.as_ref());
    let tally = Tally::start(&plan);
    if !plan.work.is_empty() {
        let mut cnf = space.encode(nl);
        let shards = match opts.shards {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(plan.work.len());
        let items = |w: usize, stride: usize| plan.work.iter().copied().skip(w).step_by(stride);
        if shards <= 1 {
            let (solver, rows) = (&mut cnf.solver, &cnf.row_outputs);
            answer_work(
                &plan,
                candidates,
                solver,
                rows,
                items(0, 1),
                &tally,
                u32::MAX,
            );
        } else {
            let (plan, tally, cnf) = (&plan, &tally, &cnf);
            std::thread::scope(|scope| {
                for w in 0..shards {
                    scope.spawn(move || {
                        let mut solver = cnf.solver.clone_db();
                        let (rows, items) = (&cnf.row_outputs, items(w, shards));
                        answer_work(plan, candidates, &mut solver, rows, items, tally, u32::MAX);
                    });
                }
            });
        }
    }
    any_io_verdicts(&plan, &tally.progress(plan.work.len()))
}

/// The deterministic prelude of a sweep: orbit
/// representatives, class grouping, screening, and the surviving
/// `(candidate, orbit index, uid)` work list. Built serially, so
/// everything downstream — `screened` counts, initial witness bounds,
/// work order — is identical for every shard count and every
/// pause/resume split.
pub(crate) struct AnyIoPlan {
    pub(crate) n_in: usize,
    pub(crate) n_out: usize,
    /// The interpretation group the orbits range over.
    pub(crate) group: Group,
    /// Surviving work items in enumeration order. The third component is
    /// the distinct-orbit-function id keying the shared verdict cache.
    pub(crate) work: Vec<(u32, u32, u32)>,
    /// Number of distinct orbit-function ids across the batch — the
    /// verdict-cache size.
    pub(crate) n_uids: usize,
    /// Whether uids were assigned batch-wide (class sharing on): only
    /// then can the verdict cache ever hit, so only then is it worth
    /// checkpointing.
    pub(crate) shared: bool,
    /// Initial per-candidate witness bound (`usize::MAX` = none; set by
    /// a complete-regime screen confirmation).
    pub(crate) best_init: Vec<usize>,
    pub(crate) screened: Vec<usize>,
    pub(crate) orbits: Vec<usize>,
    pub(crate) uniques: Vec<usize>,
    /// Per-candidate batch class id (dense, first-appearance order).
    pub(crate) classes: Vec<usize>,
    /// Per-candidate size of its class.
    pub(crate) class_sizes: Vec<usize>,
}

/// The key table of one interpretation class: entry `e` is uid
/// `base + e`.
struct ClassKeys {
    base: u32,
    keys: KeyTable,
}

/// Plans a sweep of `candidates` over `group`'s orbits, with class
/// sharing when `share` is set.
///
/// # Panics
///
/// Panics on a candidate shape that does not match the netlist, and —
/// past the identity group — on an orbit that overflows
/// [`checked_orbit`].
pub(crate) fn plan_any_io(
    nl: &Netlist,
    candidates: &[VectorFunction],
    group: Group,
    share: bool,
    screen: Option<&ConfigScreen>,
) -> AnyIoPlan {
    let n_in = nl.inputs().len();
    let n_out = nl.outputs().len();
    let npn = group.npn();
    // The only structural requirement is that flat orbit indices fit the
    // u32 bookkeeping; asymmetric arities (e.g. 7-in/2-out, orbit
    // 10,080) stay exhaustive-search territory exactly as before. The
    // identity group's one point fits every shape.
    let orbit = if group == Group::Identity {
        1
    } else {
        checked_orbit(n_in, n_out, npn).unwrap_or_else(|| {
            panic!(
                "interpretation-freedom orbit of {n_in} inputs, {n_out} outputs (npn: {npn}) \
                 exceeds the supported size"
            )
        }) as usize
    };
    for candidate in candidates {
        assert_eq!(candidate.n_inputs(), n_in, "input arity mismatch");
        assert_eq!(candidate.n_outputs(), n_out, "output arity mismatch");
    }
    // Everything here is pure CPU (truth-table transforms), built
    // serially up front — which also makes it, and everything derived
    // from it, deterministic by construction.
    //
    // Every distinct transformed function gets one dense uid, in
    // first-appearance order. Group orbits are equal or disjoint, so
    // each class owns one key table: its first member's walk mints the
    // uids of the whole orbit (from `base`, a representative is exactly
    // a newly inserted key), and with class sharing a later member — one
    // whose own function is already in a class table — walks the same
    // functions, resolving every representative to a known uid so the
    // screen/SAT caches keyed by uid do its work for free. Without
    // sharing every candidate opens a class of its own and the previous
    // table is dropped, so caches can never hit across candidates.
    let layout = KeyLayout::new(n_in, n_out);
    let mut class_keys: Vec<ClassKeys> = Vec::new();
    let mut key = vec![0u64; layout.width()];
    let mut n_uids = 0u32;
    let mut n_classes = 0usize;
    // Under sharing, the class entries a joining member has already met
    // (a bitset) and every uid's screen outcome.
    let mut met: Vec<u64> = Vec::new();
    let mut uid_screen: Vec<Option<ScreenOutcome>> = Vec::new();
    let mut reps: Vec<(u32, u32)> = Vec::new();
    let mut scratch = OrbitScreenScratch::new();
    let (mut unrank_tmp, mut ip, mut op) = (Vec::new(), Vec::new(), Vec::new());
    let mut work: Vec<(u32, u32, u32)> = Vec::new();
    let mut screened = vec![0usize; candidates.len()];
    let mut best_init = vec![usize::MAX; candidates.len()];
    let mut uniques = Vec::with_capacity(candidates.len());
    let mut classes = Vec::with_capacity(candidates.len());
    for (c, candidate) in candidates.iter().enumerate() {
        layout.pack(candidate, &mut key);
        let joined = if share {
            class_keys.iter().position(|k| k.keys.get(&key).is_some())
        } else {
            None
        };
        classes.push(joined.unwrap_or(n_classes));
        if joined.is_none() {
            n_classes += 1;
            if !share {
                class_keys.clear();
            }
            class_keys.push(ClassKeys {
                base: n_uids,
                keys: KeyTable::new(layout.width()),
            });
        }
        let slot = joined.unwrap_or(class_keys.len() - 1);
        let ClassKeys { base, keys } = &mut class_keys[slot];
        let base = *base;
        reps.clear();
        if joined.is_some() {
            met.clear();
            met.resize(keys.len().div_ceil(64), 0);
            walk_orbit(candidate, group, |index, key| {
                let entry = keys.get(key).expect("class members walk one orbit");
                let (word, bit) = (entry as usize / 64, 1u64 << (entry % 64));
                if met[word] & bit == 0 {
                    met[word] |= bit;
                    reps.push((index, base + entry));
                }
            });
        } else {
            // Past 2^20 keys the table grows on demand rather than
            // reserving for an orbit that may be mostly duplicates.
            keys.reserve(orbit.min(1 << 20));
            walk_orbit(candidate, group, |index, key| {
                let (entry, fresh) = keys.insert(key);
                if fresh {
                    reps.push((index, base + entry));
                }
            });
            n_uids = base + keys.len() as u32;
        }
        uniques.push(reps.len());
        // The SAT-free screen runs serially up front, right after the
        // walk, so `screened` counts — and the surviving work list — are
        // identical for every shard count. Under sharing, outcomes are
        // cached per uid: a classification is a property of the
        // transformed function alone, so a class member inherits its
        // owner's refutations (and confirmations) without a fresh pass,
        // and only fresh classifications count toward `screened`.
        let Some(screen) = screen else {
            work.extend(reps.iter().map(|&(index, uid)| (c as u32, index, uid)));
            continue;
        };
        if share {
            uid_screen.resize(n_uids as usize, None);
        }
        scratch.reset();
        for &(index, uid) in &reps {
            let cached = if share {
                uid_screen[uid as usize]
            } else {
                None
            };
            let outcome = match cached {
                Some(cached) => cached,
                None => {
                    let outcome = if screen.is_complete() {
                        // Exact screening compares whole functions, and
                        // the walk already keyed this one.
                        screen.classify_key(keys.key(uid - base), &mut scratch)
                    } else {
                        let (in_neg, out_neg) = unrank_orbit_index(
                            index,
                            n_in,
                            n_out,
                            npn,
                            &mut unrank_tmp,
                            &mut ip,
                            &mut op,
                        );
                        screen.classify_orbit(
                            candidate,
                            u64::from(index) / ip_period(n_in, n_out, npn),
                            &ip,
                            in_neg,
                            &op,
                            out_neg,
                            &mut scratch,
                        )
                    };
                    if share {
                        uid_screen[uid as usize] = Some(outcome);
                    }
                    if outcome != ScreenOutcome::Unknown {
                        screened[c] += 1;
                    }
                    outcome
                }
            };
            match outcome {
                ScreenOutcome::Refuted => {}
                ScreenOutcome::Confirmed => {
                    // Complete regime: every smaller representative was
                    // exactly refuted, so this index is the orbit-minimal
                    // witness — done with zero queries.
                    best_init[c] = index as usize;
                    break;
                }
                ScreenOutcome::Unknown => work.push((c as u32, index, uid)),
            }
        }
    }
    let mut class_counts = vec![0usize; n_classes];
    for &k in &classes {
        class_counts[k] += 1;
    }
    let class_sizes: Vec<usize> = classes.iter().map(|&k| class_counts[k]).collect();
    AnyIoPlan {
        n_in,
        n_out,
        group,
        work,
        n_uids: n_uids as usize,
        shared: share,
        best_init,
        screened,
        orbits: vec![orbit; candidates.len()],
        uniques,
        classes,
        class_sizes,
    }
}

/// How many consecutive flat orbit indices share one input permutation:
/// the divisor extracting `ip_rank` from an index.
fn ip_period(n_in: usize, n_out: usize, npn: bool) -> u64 {
    let out_fact: u64 = (1..=n_out as u64).product();
    if npn {
        out_fact << (n_in + n_out)
    } else {
        out_fact
    }
}

/// Folds a finished sweep's witness bounds and query counts into
/// [`AnyIoVerdict`]s.
pub(crate) fn any_io_verdicts(plan: &AnyIoPlan, done: &AnyIoProgress) -> Vec<AnyIoVerdict> {
    let (best, queries) = (&done.best, &done.queries);
    let mut unrank_tmp = Vec::new();
    (0..plan.screened.len())
        .map(|j| {
            let found = best[j];
            let witness = (found != usize::MAX).then(|| {
                let (mut ip, mut op) = (Vec::new(), Vec::new());
                let (in_neg, out_neg) = unrank_orbit_index(
                    found as u32,
                    plan.n_in,
                    plan.n_out,
                    plan.group.npn(),
                    &mut unrank_tmp,
                    &mut ip,
                    &mut op,
                );
                IoInterpretation {
                    in_perm: ip,
                    in_neg,
                    out_perm: op,
                    out_neg,
                }
            });
            AnyIoVerdict {
                plausible: found != usize::MAX,
                witness,
                orbit: plan.orbits[j],
                unique: plan.uniques[j],
                screened: plan.screened[j],
                queries: queries[j],
                class: plan.classes[j],
                class_size: plan.class_sizes[j],
            }
        })
        .collect()
}

/// Builds the paper's baseline: synthesize a *single* function, map it to
/// the standard library, then blindly replace every gate with its
/// camouflaged look-alike. The result has exponentially many plausible
/// functions — but, as the paper argues, almost surely not the *other*
/// viable functions.
///
/// # Errors
///
/// Returns [`AttackError::Build`] if synthesis or mapping fails.
pub fn random_camouflage(
    function: &VectorFunction,
    lib: &Library,
    camo: &CamoLibrary,
) -> Result<Netlist, AttackError> {
    partial_camouflage(function, lib, camo, 1)
}

/// [`random_camouflage`] with a stride: synthesize `function`, map it to
/// the standard library, then replace every `period`-th gate (in
/// topological order) with its camouflaged look-alike. `period == 1`
/// camouflages everything; larger periods leave standard gates between
/// the camouflaged ones — the mixed shape real camouflage-mapped merged
/// circuits have, where only the standard gates downstream of a
/// camouflaged one stay configuration-dependent in the SAT encoding.
///
/// # Errors
///
/// Returns [`AttackError::Build`] if synthesis or mapping fails.
///
/// # Panics
///
/// Panics if `period` is zero.
pub fn partial_camouflage(
    function: &VectorFunction,
    lib: &Library,
    camo: &CamoLibrary,
    period: usize,
) -> Result<Netlist, AttackError> {
    assert!(period > 0, "camouflage period must be at least 1");
    let funcs = vec![function.clone()];
    let assignment = mvf_merge::PinAssignment::identity(&funcs);
    let merged = mvf_merge::build_merged(&funcs, &assignment)
        .map_err(|e| AttackError::Build(e.to_string()))?;
    let synthesized = mvf_aig::Script::fast().run(&merged.aig);
    let subject = mvf_netlist::subject_graph::from_aig(&synthesized, lib);
    let plain = mvf_techmap::map_standard(&subject, lib, &mvf_techmap::MapOptions::default())
        .map_err(|e| AttackError::Build(e.to_string()))?;
    // Replace the selected gates by their look-alike camouflaged variant.
    let suffix = if period == 1 {
        "randcamo".to_string()
    } else {
        format!("camo{period}")
    };
    let mut out = Netlist::new(format!("{}_{suffix}", plain.name()));
    let mut net_map = std::collections::HashMap::new();
    for &pi in plain.inputs() {
        net_map.insert(pi, out.add_input(plain.net_name(pi).to_string()));
    }
    for (i, cid) in plain.topo_cells().into_iter().enumerate() {
        let c = plain.cell(cid);
        let pins: Vec<_> = c.inputs.iter().map(|p| net_map[p]).collect();
        let cell_ref = match c.cell {
            CellRef::Std(id) if i.is_multiple_of(period) => {
                let name = lib.cell(id).name().to_string();
                match camo.iter().find(|(_, cc)| cc.name() == name) {
                    Some((camo_id, _)) => CellRef::Camo(camo_id),
                    None => CellRef::Std(id), // tie cells stay standard
                }
            }
            other => other,
        };
        let (_, y) = out.add_cell(c.name.clone(), cell_ref, pins);
        net_map.insert(c.output, y);
    }
    for (name, net) in plain.outputs() {
        out.add_output(name.clone(), net_map[net]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_sboxes::optimal_sboxes;

    fn setup() -> (Library, CamoLibrary) {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        (lib, camo)
    }

    /// The permutation-tier sweep over the camouflage space.
    fn any_io_sweep(nl: &Netlist, candidates: &[VectorFunction]) -> Vec<AnyIoVerdict> {
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        plausibility_sweep_any_io_in(&space, nl, candidates, &AnyIoOptions::default())
    }

    fn sharded(shards: usize) -> AnyIoOptions {
        AnyIoOptions {
            shards,
            ..AnyIoOptions::default()
        }
    }

    #[test]
    fn true_function_is_plausible_for_its_own_circuit() {
        let (lib, camo) = setup();
        let f0 = &optimal_sboxes()[0];
        let circuit = random_camouflage(f0, &lib, &camo).unwrap();
        assert!(is_plausible(&circuit, &lib, &camo, f0));
    }

    #[test]
    fn sweep_agrees_with_per_candidate_queries() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..4].to_vec();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let swept = plausibility_sweep_in(&space, &circuit, &candidates, &sharded(1));
        assert_eq!(swept.len(), candidates.len());
        for (f, v) in candidates.iter().zip(&swept) {
            assert_eq!(v.plausible, is_plausible(&circuit, &lib, &camo, f));
        }
        assert!(swept[0].plausible, "the true function is always plausible");
    }

    #[test]
    fn sharded_sweep_is_bit_identical_to_serial() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..5].to_vec();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let serial = plausibility_sweep_in(&space, &circuit, &candidates, &sharded(1));
        for shards in [0usize, 1, 2, 3, 4, 8] {
            let got = plausibility_sweep_in(&space, &circuit, &candidates, &sharded(shards));
            assert_eq!(serial, got, "shards = {shards}");
        }
    }

    #[test]
    fn random_camouflage_does_not_cover_other_viable_functions() {
        // The paper's core observation (§I): random camouflaging leaves
        // the other viable functions implausible, so the adversary rules
        // them out without resolving a single cell.
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let mut ruled_out = 0;
        for other in &boxes[1..4] {
            if !is_plausible(&circuit, &lib, &camo, other) {
                ruled_out += 1;
            }
        }
        assert!(
            ruled_out >= 2,
            "random camouflage should rule out most other S-boxes ({ruled_out}/3 ruled out)"
        );
    }

    #[test]
    fn designed_circuit_keeps_all_viable_functions_plausible() {
        // The flow's guarantee, checked through the adversary's own
        // decision procedure.
        let (lib, camo) = setup();
        let funcs = optimal_sboxes()[..2].to_vec();
        let assignment = mvf_merge::PinAssignment::identity(&funcs);
        let merged = mvf_merge::build_merged(&funcs, &assignment).unwrap();
        let synthesized = mvf_aig::Script::fast().run(&merged.aig);
        let subject = mvf_netlist::subject_graph::from_aig(&synthesized, &lib);
        let mapped = mvf_techmap::map_camouflage(
            &subject,
            &lib,
            &camo,
            &merged.select_indices,
            &mvf_techmap::CamoMapOptions::default(),
        )
        .unwrap();
        for (j, f) in merged.functions.iter().enumerate() {
            assert!(
                is_plausible(&mapped.netlist, &lib, &camo, f),
                "viable function {j} must be plausible"
            );
        }
    }

    #[test]
    fn io_permutation_freedom_widens_plausibility() {
        let (lib, camo) = setup();
        let f0 = &optimal_sboxes()[0];
        let circuit = random_camouflage(f0, &lib, &camo).unwrap();
        // A pin-permuted variant of the true function: implausible under
        // the identity interpretation, plausible when the adversary
        // searches interpretations.
        let permuted = f0
            .permute_inputs(&[1, 0, 2, 3])
            .unwrap()
            .permute_outputs(&[0, 1, 3, 2])
            .unwrap();
        if !is_plausible(&circuit, &lib, &camo, &permuted) {
            let verdicts = any_io_sweep(&circuit, std::slice::from_ref(&permuted));
            assert!(verdicts[0].plausible);
        }
    }

    /// A netlist of the given shape for planning without a screen: the
    /// plan reads only the interface widths.
    fn shape_netlist(n_in: usize, n_out: usize) -> Netlist {
        let mut nl = Netlist::new("shape".to_string());
        let ins: Vec<_> = (0..n_in).map(|i| nl.add_input(format!("x{i}"))).collect();
        for o in 0..n_out {
            nl.add_output(format!("y{o}"), ins[o % n_in]);
        }
        nl
    }

    /// Every orbit point of `f` in flat-index order as a lookup table,
    /// materialized through the public [`IoInterpretation::apply`] in the
    /// documented mixed-radix layout
    /// `((ip·2^n_in + ig)·n_out! + op)·2^n_out + og`, with Gray-coded
    /// negation positions.
    fn orbit_tables(f: &VectorFunction, npn: bool) -> Vec<Vec<u16>> {
        use mvf_logic::npn::{all_permutations, gray_code};
        let negations = |n: usize| if npn { 1u64 << n } else { 1 };
        let mut tables = Vec::new();
        for in_perm in all_permutations(f.n_inputs()) {
            for ig in 0..negations(f.n_inputs()) {
                for out_perm in all_permutations(f.n_outputs()) {
                    for og in 0..negations(f.n_outputs()) {
                        let interp = IoInterpretation {
                            in_perm: in_perm.clone(),
                            in_neg: gray_code(ig) as u32,
                            out_perm: out_perm.clone(),
                            out_neg: gray_code(og) as u32,
                        };
                        tables.push(interp.apply(f).unwrap().to_lookup_table());
                    }
                }
            }
        }
        tables
    }

    /// Everything a plan emits, in comparable form.
    #[derive(Debug, PartialEq, Eq, Default)]
    struct PlanSummary {
        work: Vec<(u32, u32, u32)>,
        n_uids: usize,
        best_init: Vec<usize>,
        screened: Vec<usize>,
        orbits: Vec<usize>,
        uniques: Vec<usize>,
        classes: Vec<usize>,
        class_sizes: Vec<usize>,
    }

    fn summary(plan: &AnyIoPlan) -> PlanSummary {
        PlanSummary {
            work: plan.work.clone(),
            n_uids: plan.n_uids,
            best_init: plan.best_init.clone(),
            screened: plan.screened.clone(),
            orbits: plan.orbits.clone(),
            uniques: plan.uniques.clone(),
            classes: plan.classes.clone(),
            class_sizes: plan.class_sizes.clone(),
        }
    }

    /// The brute-force twin of [`plan_any_io`]: uids from a `BTreeMap`
    /// over whole lookup tables in first-appearance order, screen
    /// outcomes from [`ConfigScreen::survivors`] (memoized per table in
    /// `survives`, which must belong to `screen`, a whole screen).
    fn oracle_plan(
        candidates: &[VectorFunction],
        orbits: &[Vec<Vec<u16>>],
        opts: &AnyIoOptions,
        screen: Option<&ConfigScreen>,
        survives: &mut std::collections::BTreeMap<Vec<u16>, bool>,
    ) -> PlanSummary {
        use std::collections::{BTreeMap, BTreeSet};
        let share = opts.class_share;
        let (n_in, n_out) = (candidates[0].n_inputs(), candidates[0].n_outputs());
        let mut uid_of: BTreeMap<&[u16], u32> = BTreeMap::new();
        let mut uid_class: Vec<usize> = Vec::new();
        let mut outcome_of: BTreeMap<u32, ScreenOutcome> = BTreeMap::new();
        let mut n_classes = 0;
        let mut out = PlanSummary::default();
        for (c, (f, tables)) in candidates.iter().zip(orbits).enumerate() {
            if !share {
                uid_of.clear();
            }
            let class = match uid_of.get(f.to_lookup_table().as_slice()) {
                Some(&uid) if share => uid_class[uid as usize],
                _ => {
                    n_classes += 1;
                    n_classes - 1
                }
            };
            let mut met = BTreeSet::new();
            let mut reps = Vec::new();
            for (index, table) in tables.iter().enumerate() {
                let uid = *uid_of.entry(table.as_slice()).or_insert_with(|| {
                    uid_class.push(class);
                    uid_class.len() as u32 - 1
                });
                if met.insert(uid) {
                    reps.push((index as u32, uid, table));
                }
            }
            out.orbits.push(tables.len());
            out.uniques.push(reps.len());
            out.classes.push(class);
            let (mut screened, mut best) = (0, usize::MAX);
            for (index, uid, table) in reps {
                let Some(screen) = screen else {
                    out.work.push((c as u32, index, uid));
                    continue;
                };
                let outcome = match outcome_of.get(&uid) {
                    Some(&cached) if share => cached,
                    _ => {
                        let alive = *survives.entry(table.clone()).or_insert_with(|| {
                            let g = VectorFunction::from_lookup_table(n_in, n_out, table).unwrap();
                            screen
                                .survivors(&g)
                                .expect("the oracle screens whole products")
                                .contains(&true)
                        });
                        let outcome = match (alive, screen.is_complete()) {
                            (false, _) => ScreenOutcome::Refuted,
                            (true, true) => ScreenOutcome::Confirmed,
                            (true, false) => ScreenOutcome::Unknown,
                        };
                        outcome_of.insert(uid, outcome);
                        if outcome != ScreenOutcome::Unknown {
                            screened += 1;
                        }
                        outcome
                    }
                };
                match outcome {
                    ScreenOutcome::Refuted => {}
                    ScreenOutcome::Confirmed => {
                        best = index as usize;
                        break;
                    }
                    ScreenOutcome::Unknown => out.work.push((c as u32, index, uid)),
                }
            }
            out.screened.push(screened);
            out.best_init.push(best);
        }
        out.class_sizes = out
            .classes
            .iter()
            .map(|&k| out.classes.iter().filter(|&&j| j == k).count())
            .collect();
        out.n_uids = uid_class.len();
        out
    }

    fn random_function(state: &mut u64, n_in: usize, n_out: usize) -> VectorFunction {
        let table: Vec<u16> = (0..1usize << n_in)
            .map(|_| {
                *state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((*state >> 33) % (1 << n_out)) as u16
            })
            .collect();
        VectorFunction::from_lookup_table(n_in, n_out, &table).unwrap()
    }

    #[test]
    fn orbit_representatives_collapse_symmetric_candidates() {
        use mvf_logic::TruthTable;
        // Fully symmetric outputs: every input permutation fixes the
        // function, so only the output permutations survive pruning.
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let and3 = a.and(&b).and(&c);
        let xor3 = a.xor(&b).xor(&c);
        let maj = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let sym = VectorFunction::new(3, vec![and3, xor3, maj]);
        // An asymmetric bijection keeps its whole orbit.
        let f = VectorFunction::from_lookup_table(3, 3, &[1, 0, 3, 2, 5, 7, 6, 4]).unwrap();
        let nl = shape_netlist(3, 3);
        let plan = |candidate: &VectorFunction, npn: bool| {
            let opts = AnyIoOptions {
                npn,
                ..AnyIoOptions::default()
            };
            let plan = plan_any_io(
                &nl,
                std::slice::from_ref(candidate),
                Group::any_io(&opts),
                opts.class_share,
                None,
            );
            let orbit = orbit_tables(candidate, npn);
            let want = oracle_plan(
                std::slice::from_ref(candidate),
                std::slice::from_ref(&orbit),
                &opts,
                None,
                &mut Default::default(),
            );
            assert_eq!(summary(&plan), want, "npn {npn}");
            (plan.uniques[0], plan.orbits[0])
        };
        assert_eq!(plan(&sym, false), (6, 36), "only out-perms survive");
        assert_eq!(plan(&f, false), (36, 36));
        // The NPN orbit squares in the polarity dimensions.
        assert_eq!(plan(&f, true).1, 36 * 8 * 8, "3!·2³·3!·2³");
    }

    /// A circuit of the given shape and its true function: output `o`
    /// is a NAND2 of inputs `o` and `o + 1` (mod `n_in`), camouflaged on
    /// even outputs only — at most 25 configurations, and an output
    /// negation lands on a fixed output or a camouflaged one depending on
    /// where the interpretation puts it.
    fn nand_circuit(
        n_in: usize,
        n_out: usize,
        lib: &Library,
        camo: &CamoLibrary,
    ) -> (Netlist, VectorFunction) {
        use mvf_logic::TruthTable;
        let std_nand = lib.iter().find(|(_, c)| c.name() == "NAND2").unwrap().0;
        let camo_nand = camo.iter().find(|(_, c)| c.name() == "NAND2").unwrap().0;
        let mut nl = Netlist::new("nand_circuit".to_string());
        let ins: Vec<_> = (0..n_in).map(|i| nl.add_input(format!("x{i}"))).collect();
        let mut outputs = Vec::new();
        for o in 0..n_out {
            let (a, b) = (o % n_in, (o + 1) % n_in);
            let cell = if o % 2 == 0 {
                CellRef::Camo(camo_nand)
            } else {
                CellRef::Std(std_nand)
            };
            let (_, y) = nl.add_cell(format!("u{o}"), cell, vec![ins[a], ins[b]]);
            nl.add_output(format!("y{o}"), y);
            outputs.push(
                TruthTable::var(a, n_in)
                    .and(&TruthTable::var(b, n_in))
                    .not(),
            );
        }
        (nl, VectorFunction::new(n_in, outputs))
    }

    #[test]
    fn plan_matches_brute_force_oracle() {
        // Every shape against its NAND circuit with the screen off,
        // complete, and (on 7→2, whose 128 minterms exceed a 64-vector
        // batch) sampling. Candidates: the circuit's function, a
        // pin-scrambled copy (same P class), seeded random chaff and —
        // where the NPN tier runs — polarity-scrambled copies of the
        // function and the chaff (same NPN class only). 7→2 keys span
        // two words per output.
        let (lib, camo) = setup();
        let mut state = 0x05EE_D0F0_AC1E_u64;
        for (n_in, n_out) in [(3, 3), (4, 4), (6, 4), (7, 2)] {
            let (nl, truth) = nand_circuit(n_in, n_out, &lib, &camo);
            let chaff = random_function(&mut state, n_in, n_out);
            let rot = |n: usize| (0..n).map(|v| (v + 1) % n).collect::<Vec<_>>();
            let rev = |n: usize| (0..n).rev().collect::<Vec<_>>();
            let scrambled = IoInterpretation::from_perms(rot(n_in), rev(n_out))
                .apply(&truth)
                .unwrap();
            let mut candidates = vec![truth, scrambled, chaff.clone()];
            // The NPN orbit of a 4-input shape is 147,456 points per
            // candidate, of a 6- or 7-input one millions.
            let tiers: &[bool] = if n_in == 3 {
                let npn_scramble = IoInterpretation {
                    in_perm: rev(n_in),
                    in_neg: 1,
                    out_perm: rot(n_out),
                    out_neg: 0b10,
                };
                candidates.push(npn_scramble.apply(&candidates[0]).unwrap());
                candidates.push(npn_scramble.apply(&chaff).unwrap());
                &[false, true]
            } else {
                &[false]
            };
            let space = ObfuscationSpace::camouflage(&lib, &camo);
            let build = |vectors| ConfigScreen::build_in(&space, &nl, &candidates, vectors);
            let mut screens = vec![(None, Default::default())];
            let complete = build(DEFAULT_SCREEN_VECTORS).unwrap();
            assert!(complete.is_complete());
            screens.push((Some(complete), Default::default()));
            if n_in == 7 {
                let sampling = build(64).unwrap();
                assert!(!sampling.is_complete());
                screens.push((Some(sampling), Default::default()));
            }
            for &npn in tiers {
                let orbits: Vec<Vec<Vec<u16>>> =
                    candidates.iter().map(|f| orbit_tables(f, npn)).collect();
                for (screen, survives) in &mut screens {
                    for class_share in [false, true] {
                        let opts = AnyIoOptions {
                            npn,
                            class_share,
                            ..AnyIoOptions::default()
                        };
                        let group = Group::any_io(&opts);
                        let plan =
                            plan_any_io(&nl, &candidates, group, class_share, screen.as_ref());
                        let want =
                            oracle_plan(&candidates, &orbits, &opts, screen.as_ref(), survives);
                        assert_eq!(
                            summary(&plan),
                            want,
                            "{n_in}x{n_out}, npn {npn}, share {class_share}, screen {:?}",
                            screen.as_ref().map(ConfigScreen::is_complete)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn orbit_screening_matches_screening_each_transformed_function() {
        // Plans screen only representatives up to a confirmation, so the
        // orbit paths get a pointwise check: at every orbit point the
        // gather path — and, when complete, the key path — must classify
        // exactly as the identity screen classifies the transformed
        // function itself.
        let (lib, camo) = setup();
        for (n_in, n_out, npn, vectors) in [
            (3, 3, true, DEFAULT_SCREEN_VECTORS),
            (7, 2, false, 64), // sampling: 128 minterms, 64 vectors
        ] {
            let (nl, truth) = nand_circuit(n_in, n_out, &lib, &camo);
            let rot: Vec<usize> = (0..n_in).map(|v| (v + 1) % n_in).collect();
            let scrambled = IoInterpretation::from_perms(rot, (0..n_out).rev().collect())
                .apply(&truth)
                .unwrap();
            let mut candidates = vec![truth.clone(), scrambled];
            if npn {
                // Realized only where an output negation meets a
                // non-identity output permutation.
                candidates.push(
                    IoInterpretation {
                        in_perm: (0..n_in).collect(),
                        in_neg: 0,
                        out_perm: (0..n_out).map(|o| (o + 1) % n_out).collect(),
                        out_neg: 0b011,
                    }
                    .apply(&truth)
                    .unwrap(),
                );
            }
            let space = ObfuscationSpace::camouflage(&lib, &camo);
            let screen = ConfigScreen::build_in(&space, &nl, &candidates, vectors).unwrap();
            let layout = KeyLayout::new(n_in, n_out);
            let mut key = vec![0u64; layout.width()];
            let (mut unrank_tmp, mut ip, mut op) = (Vec::new(), Vec::new(), Vec::new());
            let mut refuted = 0;
            let orbit = checked_orbit(n_in, n_out, npn).unwrap() as u32;
            for f in &candidates {
                let mut scratch = OrbitScreenScratch::new();
                for index in 0..orbit {
                    let (in_neg, out_neg) = unrank_orbit_index(
                        index,
                        n_in,
                        n_out,
                        npn,
                        &mut unrank_tmp,
                        &mut ip,
                        &mut op,
                    );
                    let g = IoInterpretation {
                        in_perm: ip.clone(),
                        in_neg,
                        out_perm: op.clone(),
                        out_neg,
                    }
                    .apply(f)
                    .unwrap();
                    let want = screen.classify_identity(&g);
                    let ip_rank = u64::from(index) / ip_period(n_in, n_out, npn);
                    let got =
                        screen.classify_orbit(f, ip_rank, &ip, in_neg, &op, out_neg, &mut scratch);
                    assert_eq!(got, want, "{n_in}x{n_out}, index {index}");
                    if screen.is_complete() {
                        layout.pack(&g, &mut key);
                        assert_eq!(
                            screen.classify_key(&key, &mut scratch),
                            want,
                            "index {index}"
                        );
                    }
                    refuted += usize::from(want == ScreenOutcome::Refuted);
                }
            }
            let total = candidates.len() * orbit as usize;
            assert!(
                0 < refuted && refuted < total,
                "{n_in}x{n_out}: both outcomes occur"
            );
        }
    }

    /// A seeded 3-input circuit whose full configuration product is past
    /// the screen's cap while its outputs' cones straddle it: `y0` is a
    /// camouflaged NAND2 into a camouflaged INV (15 configurations), `y1`
    /// a chain of `chain` camouflaged NAND2s into a camouflaged INV
    /// (`5^chain · 3`, past the cap from `chain = 5`), and `y2` a
    /// standard NAND2 joining `y0` with the chain's second site, so its
    /// cone (375 configurations) shares sites with both. Returns the
    /// circuit and its function under every site's nominal choice.
    fn straddling_circuit(
        space: &ObfuscationSpace<'_>,
        chain: usize,
        state: &mut u64,
    ) -> (Netlist, VectorFunction) {
        let camo_id = |name: &str| space.choices().iter().find(|(_, c)| c.name() == name);
        let (nand, inv) = (camo_id("NAND2").unwrap().0, camo_id("INV").unwrap().0);
        let std_nand = space
            .library()
            .iter()
            .find(|(_, c)| c.name() == "NAND2")
            .unwrap()
            .0;
        let mut nl = Netlist::new("straddle".to_string());
        let x: Vec<_> = (0..3).map(|i| nl.add_input(format!("x{i}"))).collect();
        let mut pick = || {
            *state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x[(*state >> 33) as usize % 3]
        };
        let (_, a) = nl.add_cell("a0".to_string(), CellRef::Camo(nand), vec![pick(), pick()]);
        let (_, y0) = nl.add_cell("a1".to_string(), CellRef::Camo(inv), vec![a]);
        let (mut t, mut second) = (pick(), None);
        for k in 0..chain {
            let (_, n) = nl.add_cell(format!("b{k}"), CellRef::Camo(nand), vec![t, pick()]);
            if k == 1 {
                second = Some(n);
            }
            t = n;
        }
        let (_, y1) = nl.add_cell("b_inv".to_string(), CellRef::Camo(inv), vec![t]);
        let joined = vec![y0, second.expect("the chain has two sites")];
        let (_, y2) = nl.add_cell("c".to_string(), CellRef::Std(std_nand), joined);
        for (o, y) in [y0, y1, y2].into_iter().enumerate() {
            nl.add_output(format!("y{o}"), y);
        }
        let nominal: std::collections::HashMap<_, _> = space
            .sites(&nl)
            .iter()
            .map(|&(cid, _)| {
                let CellRef::Camo(id) = nl.cell(cid).cell else {
                    unreachable!("sites are camouflaged cells")
                };
                (cid, space.choices().cell(id).nominal().clone())
            })
            .collect();
        let vectors: Vec<u64> = (0..64).map(|m| m % 8).collect();
        let cols = space
            .eval_vectors(&nl, &[0, 1, 2], &[nominal], &vectors)
            .unwrap();
        let table: Vec<u16> = (0..8)
            .map(|m| {
                (0..3)
                    .map(|o| ((cols[0][o][0] >> m) & 1) as u16 * (1 << o))
                    .sum()
            })
            .collect();
        (nl, VectorFunction::from_lookup_table(3, 3, &table).unwrap())
    }

    #[test]
    fn projected_screen_refutes_only_unrealizable_points_and_keeps_every_verdict() {
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let mut state = 0x9E0_3EC7_u64;
        let mut total_screened = 0;
        // Chain 5: the 140,625-configuration product is enumerated by
        // brute force. Chain 6: 703,125, so SAT certifies refutations.
        for chain in [5, 6] {
            let (nl, truth) = straddling_circuit(&space, chain, &mut state);
            let product = |sites: &[(mvf_netlist::CellId, usize)]| -> usize {
                sites.iter().map(|&(_, k)| k).product()
            };
            let cones: Vec<usize> = (0..3).map(|o| product(&space.cone_sites(&nl, o))).collect();
            assert!(product(&space.sites(&nl)) > screen::MAX_SCREEN_CONFIGS);
            assert!(cones.iter().any(|&p| p <= screen::MAX_SCREEN_CONFIGS));
            assert!(cones.iter().any(|&p| p > screen::MAX_SCREEN_CONFIGS));
            let chaff = random_function(&mut state, 3, 3);
            let scramble = IoInterpretation {
                in_perm: vec![2, 0, 1],
                in_neg: 0b101,
                out_perm: vec![1, 2, 0],
                out_neg: 0b010,
            };
            let candidates = vec![
                truth.clone(),
                IoInterpretation::from_perms(vec![1, 2, 0], vec![2, 1, 0])
                    .apply(&truth)
                    .unwrap(),
                scramble.apply(&truth).unwrap(),
                chaff.clone(),
                scramble.apply(&chaff).unwrap(),
            ];
            let screen =
                ConfigScreen::build_in(&space, &nl, &candidates, DEFAULT_SCREEN_VECTORS).unwrap();
            assert!(screen.is_complete());
            assert!(screen.survivors(&truth).is_none(), "a projected screen");
            // Every function some configuration realizes, as a packed
            // key, when the whole product is enumerable; SAT otherwise.
            let realized: Option<std::collections::HashSet<u64>> = (chain == 5).then(|| {
                let sites = space.sites(&nl);
                let mut configs = space.enumerate_configs(&nl, &sites, usize::MAX).unwrap();
                let vectors: Vec<u64> = (0..64).map(|m| m % 8).collect();
                let mut realized = std::collections::HashSet::new();
                loop {
                    let chunk = configs.next_chunk(1024);
                    if chunk.is_empty() {
                        break realized;
                    }
                    for cols in space
                        .eval_vectors(&nl, &[0, 1, 2], chunk, &vectors)
                        .unwrap()
                    {
                        realized.insert((0..3).fold(0, |k, o| k | (cols[o][0] & 0xFF) << (8 * o)));
                    }
                }
            });
            let mut cnf = space.encode(&nl);
            let mut assumptions = Vec::new();
            let layout = KeyLayout::new(3, 3);
            let mut key = vec![0u64; layout.width()];
            let (mut unrank_tmp, mut ip, mut op) = (Vec::new(), Vec::new(), Vec::new());
            for npn in [false, true] {
                let mut refuted = 0;
                for f in &candidates {
                    let mut scratch = OrbitScreenScratch::new();
                    for index in 0..checked_orbit(3, 3, npn).unwrap() as u32 {
                        let (in_neg, out_neg) =
                            unrank_orbit_index(index, 3, 3, npn, &mut unrank_tmp, &mut ip, &mut op);
                        let g = IoInterpretation {
                            in_perm: ip.clone(),
                            in_neg,
                            out_perm: op.clone(),
                            out_neg,
                        }
                        .apply(f)
                        .unwrap();
                        layout.pack(&g, &mut key);
                        let outcome = screen.classify_key(&key, &mut scratch);
                        let ip_rank = u64::from(index) / ip_period(3, 3, npn);
                        assert_eq!(
                            screen.classify_orbit(
                                f,
                                ip_rank,
                                &ip,
                                in_neg,
                                &op,
                                out_neg,
                                &mut scratch
                            ),
                            outcome
                        );
                        assert_eq!(screen.classify_identity(&g), outcome);
                        assert_ne!(
                            outcome,
                            ScreenOutcome::Confirmed,
                            "projections never confirm"
                        );
                        if outcome != ScreenOutcome::Refuted {
                            continue;
                        }
                        refuted += 1;
                        match &realized {
                            Some(realized) => assert!(!realized.contains(&key[0]), "{g:?}"),
                            None => {
                                candidate_assumptions(&cnf.row_outputs, &g, &mut assumptions);
                                assert!(!cnf.solver.solve_with(&assumptions), "{g:?}");
                            }
                        }
                    }
                }
                assert!(
                    refuted > 0,
                    "chain {chain}, npn {npn}: the projection fires"
                );
                // Screening changes no verdict or witness, for every shard
                // count and with class sharing on and off.
                for class_share in [false, true] {
                    let opts = AnyIoOptions {
                        npn,
                        class_share,
                        ..AnyIoOptions::default()
                    };
                    let sweep = |shards, screen| {
                        plausibility_sweep_any_io_in(
                            &space,
                            &nl,
                            &candidates,
                            &AnyIoOptions {
                                shards,
                                screen,
                                ..opts.clone()
                            },
                        )
                    };
                    let off = sweep(1, false);
                    assert!(off[0].plausible && off[1].plausible);
                    for shards in [1, 2, 4] {
                        let on = sweep(shards, true);
                        for (j, (a, b)) in on.iter().zip(&off).enumerate() {
                            assert_eq!(
                                (a.plausible, &a.witness, a.unique),
                                (b.plausible, &b.witness, b.unique),
                                "chain {chain}, npn {npn}, share {class_share}, \
                                 shards {shards}, candidate {j}"
                            );
                        }
                        total_screened += on.iter().map(|v| v.screened).sum::<usize>();
                    }
                }
            }
        }
        assert!(
            total_screened > 0,
            "the projected screen settles orbit points"
        );
    }

    #[test]
    fn npn_walk_matches_interpretation_unranking() {
        // The walk's in-place Gray flips and the index unranking must
        // describe the same orbit point: re-deriving the transformed
        // function from the unranked interpretation reproduces the
        // walk's packed key at every one of the 2304 indices.
        let f = VectorFunction::from_lookup_table(3, 3, &[1, 0, 3, 2, 5, 7, 6, 4]).unwrap();
        let layout = KeyLayout::new(3, 3);
        let mut want = vec![0u64; layout.width()];
        let (mut unrank_tmp, mut ip, mut op) = (Vec::new(), Vec::new(), Vec::new());
        let mut permuted_in = VectorFunction::new(0, Vec::new());
        let mut permuted = VectorFunction::new(0, Vec::new());
        let mut count = 0usize;
        walk_orbit(&f, Group::Npn, |index, key| {
            let (in_neg, out_neg) =
                unrank_orbit_index(index, 3, 3, true, &mut unrank_tmp, &mut ip, &mut op);
            apply_orbit_point(
                &f,
                &ip,
                in_neg,
                &op,
                out_neg,
                &mut permuted_in,
                &mut permuted,
            );
            layout.pack(&permuted, &mut want);
            assert_eq!(want, key, "index {index}");
            // And the public interpretation type agrees with the
            // internal allocation-free pipeline.
            let interp = IoInterpretation {
                in_perm: ip.clone(),
                in_neg,
                out_perm: op.clone(),
                out_neg,
            };
            assert_eq!(interp.apply(&f).unwrap(), permuted, "index {index}");
            count += 1;
        });
        assert_eq!(count, 2304);
        // Index 0 is always the identity interpretation.
        let (in_neg, out_neg) =
            unrank_orbit_index(0, 3, 3, true, &mut unrank_tmp, &mut ip, &mut op);
        assert_eq!((in_neg, out_neg), (0, 0));
        assert!(IoInterpretation {
            in_perm: ip.clone(),
            in_neg,
            out_perm: op.clone(),
            out_neg,
        }
        .is_identity());
    }

    #[test]
    fn unranking_matches_the_permutation_stream() {
        // Orbit indices are defined by the Permutations stream order;
        // unranking must reproduce position r exactly, for every r.
        for n in 0..=5usize {
            let mut perms = Permutations::new(n);
            let (mut scratch, mut out) = (Vec::new(), Vec::new());
            let mut rank = 0u64;
            while let Some(p) = perms.next() {
                unrank_perm(rank, n, &mut scratch, &mut out);
                assert_eq!(out, p, "n = {n}, rank = {rank}");
                rank += 1;
            }
        }
    }

    #[test]
    fn any_io_supports_asymmetric_arities() {
        // 7-in/2-out: orbit 7!·2! = 10,080. The sweep must accept it
        // (only orbits overflowing u32 indices are rejected); the true
        // function early-exits at the identity interpretation, so the
        // run costs one SAT query, not ten thousand.
        let (lib, camo) = setup();
        let table: Vec<u16> = (0..128u16).map(|m| (m * 37 + 11) % 4).collect();
        let f = VectorFunction::from_lookup_table(7, 2, &table).unwrap();
        let circuit = random_camouflage(&f, &lib, &camo).unwrap();
        let verdicts = any_io_sweep(&circuit, &[f]);
        assert!(verdicts[0].plausible);
        assert_eq!(verdicts[0].orbit, 10_080);
        assert_eq!(
            verdicts[0].witness,
            Some(IoInterpretation::from_perms(
                vec![0, 1, 2, 3, 4, 5, 6],
                vec![0, 1]
            ))
        );
        // And the guard itself: factorials that overflow u32 indices.
        assert!(checked_orbit(7, 2, false).is_some());
        assert!(checked_orbit(7, 2, true).is_some(), "5.2M still fits u32");
        assert!(checked_orbit(12, 12, false).is_none());
        assert!(checked_orbit(6, 6, true).is_some(), "2.1B is the NPN edge");
        assert!(checked_orbit(7, 7, true).is_none());
    }

    #[test]
    fn any_io_sweep_agrees_with_single_queries_and_reports_witnesses() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let scrambled = boxes[0]
            .permute_inputs(&[2, 0, 3, 1])
            .unwrap()
            .permute_outputs(&[1, 3, 0, 2])
            .unwrap();
        let candidates = vec![boxes[0].clone(), scrambled, boxes[1].clone()];
        let verdicts = any_io_sweep(&circuit, &candidates);
        assert_eq!(verdicts.len(), candidates.len());
        // The true function is plausible under the identity
        // interpretation, which is orbit index 0 — so it must also be
        // the reported witness.
        assert!(verdicts[0].plausible);
        assert_eq!(verdicts[0].witness, Some(IoInterpretation::identity(4, 4)));
        // A scrambled copy of the true function is plausible under some
        // interpretation by construction.
        assert!(verdicts[1].plausible);
        // Every witness actually satisfies the identity-interpretation
        // test once applied to the candidate.
        for (f, v) in candidates.iter().zip(&verdicts) {
            assert_eq!(v.orbit, 576, "4! · 4!");
            assert!(v.unique <= v.orbit);
            // Without class sharing every candidate is its own class.
            assert_eq!(v.class_size, 1);
            if let Some(interp) = &v.witness {
                let g = interp.apply(f).unwrap();
                assert!(is_plausible(&circuit, &lib, &camo, &g), "witness must hold");
            }
        }
        assert_eq!(
            verdicts.iter().map(|v| v.class).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
