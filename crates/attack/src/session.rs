//! Persistent, resumable sweep sessions.
//!
//! Three pieces turn the one-shot sweeps of the crate root into a
//! long-running audit service's building blocks:
//!
//! * [`SweepSession`] — one obfuscated netlist encoded **once** (the
//!   constant-folded encoding) and kept hot: repeated sweeps against the
//!   same circuit reuse the flat clause arena, accumulate learnt clauses
//!   (warm starts), and share cached [`CamoScreen`](crate::CamoScreen)
//!   vector batches keyed by candidate batch.
//! * [`AnyIoJob`] — a stepped, pausable interpretation-freedom sweep: the
//!   work list is processed in caller-sized chunks, and the complete
//!   mutable state between chunks is a handful of integer vectors
//!   (position, witness bounds, query counts, and — under class sharing —
//!   the resolved orbit-function verdicts).
//! * [`AnyIoProgress`] — that state, exported for checkpointing and
//!   restored bit-identically.
//!
//! Every path here reuses the crate root's planning (`plan_any_io`) and
//! verdict stitching (`any_io_verdicts`), so the invariant the one-shot
//! sweeps establish — verdicts, witnesses and query counts are identical
//! for every execution split — extends to paused/resumed and
//! warm-started runs by construction: SAT answers are mathematically
//! determined (extra learnt clauses and reset phases never flip one),
//! and query counts depend only on the serially-built work list and the
//! `best` skip rule.

use mvf_cells::{CamoLibrary, Library};
use mvf_logic::VectorFunction;
use mvf_netlist::fingerprint::Fnv64;
use mvf_netlist::Netlist;
use mvf_obfuscate::ObfuscationSpace;
use mvf_sat::{CircuitCnf, Solver, Var};

use crate::screen::{ConfigScreen, ScreenOutcome};
use crate::{
    any_io_verdicts, apply_orbit_point, candidate_assumptions, plan_any_io, unrank_orbit_index,
    AnyIoOptions, AnyIoPlan, AnyIoVerdict, SweepOptions, SweepVerdict, UID_SAT, UID_UNKNOWN,
    UID_UNSAT,
};

/// Cached screens kept per session (small: screens are per candidate
/// batch, and a service replays the same batches).
const MAX_CACHED_SCREENS: usize = 4;

/// Serial cursor over a planned work list — the resumable core shared by
/// [`AnyIoJob`] and [`SweepSession::sweep_any_io`]. Mirrors the striped
/// worker loop (`any_io_stripe`) with a stride of one, so driving a
/// cursor to completion issues exactly the queries of the serial sweep.
#[derive(Debug, Clone)]
struct AnyIoCursor {
    pos: usize,
    best: Vec<usize>,
    queries: Vec<usize>,
    /// Per-uid SAT verdict cache (the serial twin of the stripe workers'
    /// shared atomic cache) — this is what lets class sharing skip
    /// repeat queries across a pause/resume split too.
    resolved: Vec<u8>,
    last_cand: u32,
}

impl AnyIoCursor {
    fn new(plan: &AnyIoPlan) -> AnyIoCursor {
        AnyIoCursor {
            pos: 0,
            best: plan.best_init.clone(),
            queries: vec![0; plan.best_init.len()],
            resolved: vec![UID_UNKNOWN; plan.n_uids],
            last_cand: u32::MAX,
        }
    }

    /// Visits up to `max_items` work items (skips count as visits) and
    /// returns how many were visited.
    fn step(
        &mut self,
        plan: &AnyIoPlan,
        candidates: &[VectorFunction],
        solver: &mut Solver,
        row_outputs: &[Vec<Var>],
        max_items: usize,
    ) -> usize {
        let end = plan.work.len().min(self.pos.saturating_add(max_items));
        let start = self.pos;
        let (mut unrank_tmp, mut in_perm, mut out_perm) = (Vec::new(), Vec::new(), Vec::new());
        let mut permuted_in = VectorFunction::new(0, Vec::new());
        let mut permuted = VectorFunction::new(0, Vec::new());
        let mut assumptions = Vec::new();
        while self.pos < end {
            let (c, index, uid) = plan.work[self.pos];
            self.pos += 1;
            let cand = c as usize;
            if self.best[cand] < index as usize {
                continue; // a smaller witness is already known
            }
            match self.resolved[uid as usize] {
                UID_SAT => {
                    // A class sibling already proved this orbit function
                    // satisfiable; the verdict transfers without a query.
                    self.best[cand] = self.best[cand].min(index as usize);
                    continue;
                }
                UID_UNSAT => continue,
                _ => {}
            }
            if c != self.last_cand {
                // Saved phases are a per-candidate heuristic; do not let
                // one candidate's UNSAT proof steer the next candidate's
                // search. (A resumed cursor resets on its first item —
                // phases are heuristics, so answers cannot change.)
                solver.reset_phases();
                self.last_cand = c;
            }
            let f = &candidates[cand];
            let (in_neg, out_neg) = unrank_orbit_index(
                index,
                f.n_inputs(),
                f.n_outputs(),
                plan.npn,
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
            self.queries[cand] += 1;
            let sat = solver.solve_with(&assumptions);
            if plan.shared {
                // Without batch-wide uids the cache can never hit — skip
                // the store so checkpoints stay free of dead weight.
                self.resolved[uid as usize] = if sat { UID_SAT } else { UID_UNSAT };
            }
            if sat {
                self.best[cand] = self.best[cand].min(index as usize);
            }
        }
        self.pos - start
    }
}

/// Exported progress of an [`AnyIoJob`] — everything a checkpoint needs.
///
/// The plan itself (work list, screening results) is *not* part of the
/// progress: it is rebuilt deterministically from the same netlist and
/// candidate batch on resume, and [`AnyIoJob::restore`] re-attaches this
/// state to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnyIoProgress {
    /// Work items already visited (next item index).
    pub pos: usize,
    /// Per-candidate smallest known satisfying orbit index
    /// (`usize::MAX` = none yet).
    pub best: Vec<usize>,
    /// Per-candidate SAT queries issued so far.
    pub queries: Vec<usize>,
    /// Resolved orbit-function verdicts `(uid, satisfiable)`, ascending
    /// by uid — the class-sharing verdict cache. Empty whenever class
    /// sharing is off (every uid is then visited at most once, so there
    /// is nothing a later item could reuse) and on pre-NPN checkpoints,
    /// which restore exactly as before.
    pub resolved: Vec<(u32, bool)>,
}

/// A pausable interpretation-freedom sweep: the planned work list is
/// processed serially in caller-sized chunks via [`step`](Self::step),
/// progress snapshots out through [`progress`](Self::progress), and a
/// rebuilt job resumes bit-identically via [`restore`](Self::restore).
///
/// Driven to completion in one go, a job issues exactly the queries of
/// [`plausibility_sweep_any_io_with`](crate::plausibility_sweep_any_io_with)
/// with `shards = 1`, and returns identical verdicts — paused and
/// resumed anywhere, still identical: every answer is mathematically
/// determined, and the visit order plus the `best` skip rule fix the
/// query counts.
pub struct AnyIoJob {
    plan: AnyIoPlan,
    candidates: Vec<VectorFunction>,
    solver: Solver,
    row_outputs: Vec<Vec<Var>>,
    cursor: AnyIoCursor,
}

impl AnyIoJob {
    /// Plans and encodes a standalone job (cold start — no session).
    ///
    /// `opts.shards` is ignored: a job is a serial cursor by design (its
    /// point is checkpointability, and serial visits make the resumed
    /// query counts exact).
    ///
    /// # Panics
    ///
    /// As [`plausibility_sweep_any_io`](crate::plausibility_sweep_any_io):
    /// candidate shape mismatches or an oversized orbit.
    pub fn new(
        nl: &Netlist,
        lib: &Library,
        camo: &CamoLibrary,
        candidates: Vec<VectorFunction>,
        opts: &AnyIoOptions,
    ) -> AnyIoJob {
        AnyIoJob::new_in(
            &ObfuscationSpace::camouflage(lib, camo),
            nl,
            candidates,
            opts,
        )
    }

    /// [`AnyIoJob::new`] over any [`ObfuscationSpace`] — the scheme-
    /// generic cold start; locking audits plan their jobs through here.
    ///
    /// # Panics
    ///
    /// See [`AnyIoJob::new`].
    pub fn new_in(
        space: &ObfuscationSpace<'_>,
        nl: &Netlist,
        candidates: Vec<VectorFunction>,
        opts: &AnyIoOptions,
    ) -> AnyIoJob {
        let screen = opts
            .screen
            .then(|| ConfigScreen::build_in(space, nl, &candidates, opts.screen_vectors))
            .flatten();
        let plan = plan_any_io(nl, &candidates, opts, screen.as_ref());
        let cnf = space.encode(nl);
        AnyIoJob::from_parts(plan, candidates, cnf.solver, cnf.row_outputs)
    }

    /// The solver's clause-database counters — the learnt-DB reductions
    /// run on this job's solver (warm-started jobs inherit the session
    /// solver's counters through [`Solver::clone_db`]).
    pub fn sat_stats(&self) -> mvf_sat::SimplifyStats {
        self.solver.simplify_stats()
    }

    pub(crate) fn from_parts(
        plan: AnyIoPlan,
        candidates: Vec<VectorFunction>,
        solver: Solver,
        row_outputs: Vec<Vec<Var>>,
    ) -> AnyIoJob {
        let cursor = AnyIoCursor::new(&plan);
        AnyIoJob {
            plan,
            candidates,
            solver,
            row_outputs,
            cursor,
        }
    }

    /// Total planned work items (screen survivors).
    pub fn total_work(&self) -> usize {
        self.plan.work.len()
    }

    /// Work items already visited.
    pub fn position(&self) -> usize {
        self.cursor.pos
    }

    /// Whether every work item has been visited.
    pub fn is_done(&self) -> bool {
        self.cursor.pos >= self.plan.work.len()
    }

    /// Visits up to `max_items` further work items (skipped items count)
    /// and returns how many were visited — `0` exactly when the job is
    /// done. Chunk size never affects the outcome.
    pub fn step(&mut self, max_items: usize) -> usize {
        self.cursor.step(
            &self.plan,
            &self.candidates,
            &mut self.solver,
            &self.row_outputs,
            max_items,
        )
    }

    /// Snapshots the complete resumable state.
    pub fn progress(&self) -> AnyIoProgress {
        AnyIoProgress {
            pos: self.cursor.pos,
            best: self.cursor.best.clone(),
            queries: self.cursor.queries.clone(),
            resolved: self
                .cursor
                .resolved
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != UID_UNKNOWN)
                .map(|(uid, &v)| (uid as u32, v == UID_SAT))
                .collect(),
        }
    }

    /// Re-attaches checkpointed progress to a freshly rebuilt job.
    /// Stepping on resumes the uninterrupted run bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if the progress does not fit this job's plan (wrong
    /// candidate count or a position past the work list) — the usual
    /// cause is a checkpoint from a different workload.
    pub fn restore(&mut self, progress: &AnyIoProgress) {
        assert_eq!(
            progress.best.len(),
            self.candidates.len(),
            "checkpoint candidate count does not match the job"
        );
        assert_eq!(
            progress.queries.len(),
            self.candidates.len(),
            "checkpoint candidate count does not match the job"
        );
        assert!(
            progress.pos <= self.plan.work.len(),
            "checkpoint position is past the job's work list"
        );
        self.cursor.pos = progress.pos;
        self.cursor.best = progress.best.clone();
        self.cursor.queries = progress.queries.clone();
        self.cursor.resolved = vec![UID_UNKNOWN; self.plan.n_uids];
        for &(uid, sat) in &progress.resolved {
            let slot = self
                .cursor
                .resolved
                .get_mut(uid as usize)
                .expect("checkpoint uid is past the job's verdict cache");
            *slot = if sat { UID_SAT } else { UID_UNSAT };
        }
        // Force a phase reset on the first resumed item: the fresh
        // solver's phase state differs from the interrupted run's, but
        // phases are heuristics — answers, and therefore verdicts and
        // query counts, are unaffected.
        self.cursor.last_cand = u32::MAX;
    }

    /// Stitches the final verdicts.
    ///
    /// # Panics
    ///
    /// Panics if the job is not [`is_done`](Self::is_done).
    pub fn verdicts(&self) -> Vec<AnyIoVerdict> {
        assert!(self.is_done(), "job has unvisited work items");
        any_io_verdicts(&self.plan, &self.cursor.best, &self.cursor.queries)
    }
}

/// One obfuscated netlist kept encoded across submissions.
///
/// A session pins the circuit by content fingerprint
/// ([`ObfuscationSpace::fingerprint`] — netlist structure, both
/// libraries' content **and the scheme tag**, so camouflage and locking
/// audits of byte-identical netlists never share a session), encodes it
/// once, and serves repeated sweeps from the same solver: learnt
/// clauses accumulate across calls (warm starts), and screen vector
/// batches are cached per candidate batch. Warm results are identical
/// to cold ones — including query counts — because screens are
/// rebuilt-or-cached deterministically and SAT answers are
/// mathematically determined.
pub struct SweepSession {
    key: u64,
    cnf: CircuitCnf,
    /// Recently used screens, most recent last, keyed by candidate
    /// batch + vector count.
    screens: Vec<(u64, ConfigScreen)>,
}

impl SweepSession {
    /// [`SweepSession::new_in`] for the camouflage scheme — the
    /// historical signature.
    pub fn new(nl: &Netlist, lib: &Library, camo: &CamoLibrary) -> SweepSession {
        SweepSession::new_in(&ObfuscationSpace::camouflage(lib, camo), nl)
    }

    /// Encodes `nl` once and fingerprints the space's `(scheme,
    /// netlist, libraries)` content as the session key.
    ///
    /// Warm starts served from this session (including
    /// [`SweepSession::any_io_job`] clones) report the same verdicts,
    /// witnesses and query counts as their cold counterparts, because
    /// SAT answers are mathematically determined.
    pub fn new_in(space: &ObfuscationSpace<'_>, nl: &Netlist) -> SweepSession {
        let cnf = space.encode(nl);
        SweepSession {
            key: space.fingerprint(nl),
            cnf,
            screens: Vec::new(),
        }
    }

    /// The session's content fingerprint.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Whether this session was built from exactly this circuit under
    /// the camouflage scheme.
    pub fn matches(&self, nl: &Netlist, lib: &Library, camo: &CamoLibrary) -> bool {
        self.matches_in(&ObfuscationSpace::camouflage(lib, camo), nl)
    }

    /// Whether this session was built from exactly this circuit under
    /// exactly this space (scheme tag included).
    pub fn matches_in(&self, space: &ObfuscationSpace<'_>, nl: &Netlist) -> bool {
        self.key == space.fingerprint(nl)
    }

    /// Approximate heap footprint of the retained state (clause arena,
    /// watch lists, learnt metadata, cached screens), for cache byte
    /// budgets.
    pub fn db_bytes(&self) -> usize {
        self.cnf.solver.db_bytes() + self.screens.iter().map(|(_, s)| s.bytes()).sum::<usize>()
    }

    /// Identity-interpretation sweep on the session solver — the warm
    /// equivalent of
    /// [`plausibility_sweep_with`](crate::plausibility_sweep_with) with
    /// `shards = 1`; learnt clauses persist into later calls.
    ///
    /// # Panics
    ///
    /// Panics on candidate shape mismatches or a circuit that does not
    /// match the session fingerprint.
    pub fn sweep_identity(
        &mut self,
        nl: &Netlist,
        lib: &Library,
        camo: &CamoLibrary,
        candidates: &[VectorFunction],
        opts: &SweepOptions,
    ) -> Vec<SweepVerdict> {
        self.sweep_identity_in(
            &ObfuscationSpace::camouflage(lib, camo),
            nl,
            candidates,
            opts,
        )
    }

    /// [`SweepSession::sweep_identity`] over any [`ObfuscationSpace`].
    ///
    /// # Panics
    ///
    /// As [`SweepSession::sweep_identity`].
    pub fn sweep_identity_in(
        &mut self,
        space: &ObfuscationSpace<'_>,
        nl: &Netlist,
        candidates: &[VectorFunction],
        opts: &SweepOptions,
    ) -> Vec<SweepVerdict> {
        self.check(space, nl);
        for candidate in candidates {
            assert_eq!(
                candidate.n_inputs(),
                nl.inputs().len(),
                "input arity mismatch"
            );
            assert_eq!(
                candidate.n_outputs(),
                nl.outputs().len(),
                "output arity mismatch"
            );
        }
        let mut verdicts: Vec<Option<SweepVerdict>> = vec![None; candidates.len()];
        let mut pending: Vec<usize> = Vec::new();
        let screen = opts
            .screen
            .then(|| self.screen_for(space, nl, candidates, opts.screen_vectors))
            .flatten();
        if let Some(screen) = screen {
            for (j, candidate) in candidates.iter().enumerate() {
                match screen.classify_identity(candidate) {
                    ScreenOutcome::Refuted => {
                        verdicts[j] = Some(SweepVerdict {
                            plausible: false,
                            screened: true,
                        });
                    }
                    ScreenOutcome::Confirmed => {
                        verdicts[j] = Some(SweepVerdict {
                            plausible: true,
                            screened: true,
                        });
                    }
                    ScreenOutcome::Unknown => pending.push(j),
                }
            }
        } else {
            pending.extend(0..candidates.len());
        }
        let mut assumptions = Vec::new();
        for &j in &pending {
            // Per-candidate phase hygiene, exactly as the one-shot sweep.
            self.cnf.solver.reset_phases();
            candidate_assumptions(&self.cnf.row_outputs, &candidates[j], &mut assumptions);
            verdicts[j] = Some(SweepVerdict {
                plausible: self.cnf.solver.solve_with(&assumptions),
                screened: false,
            });
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every candidate is resolved by screen or solver"))
            .collect()
    }

    /// Interpretation-freedom sweep on the session solver — the warm
    /// equivalent of
    /// [`plausibility_sweep_any_io_with`](crate::plausibility_sweep_any_io_with)
    /// with `shards = 1` (`opts.shards` is ignored); learnt clauses
    /// persist into later calls.
    ///
    /// # Panics
    ///
    /// As [`plausibility_sweep_any_io`](crate::plausibility_sweep_any_io),
    /// plus a circuit that does not match the session fingerprint.
    pub fn sweep_any_io(
        &mut self,
        nl: &Netlist,
        lib: &Library,
        camo: &CamoLibrary,
        candidates: &[VectorFunction],
        opts: &AnyIoOptions,
    ) -> Vec<AnyIoVerdict> {
        self.sweep_any_io_in(
            &ObfuscationSpace::camouflage(lib, camo),
            nl,
            candidates,
            opts,
        )
    }

    /// [`SweepSession::sweep_any_io`] over any [`ObfuscationSpace`].
    ///
    /// # Panics
    ///
    /// As [`SweepSession::sweep_any_io`].
    pub fn sweep_any_io_in(
        &mut self,
        space: &ObfuscationSpace<'_>,
        nl: &Netlist,
        candidates: &[VectorFunction],
        opts: &AnyIoOptions,
    ) -> Vec<AnyIoVerdict> {
        self.check(space, nl);
        if candidates.is_empty() {
            return Vec::new();
        }
        let plan = self.plan(space, nl, candidates, opts);
        let mut cursor = AnyIoCursor::new(&plan);
        cursor.step(
            &plan,
            candidates,
            &mut self.cnf.solver,
            &self.cnf.row_outputs,
            usize::MAX,
        );
        any_io_verdicts(&plan, &cursor.best, &cursor.queries)
    }

    /// Plans a detachable [`AnyIoJob`] warm-started from this session:
    /// the job's solver is a [`Solver::clone_db`] clone, so it carries
    /// every learnt clause the session has accumulated, and the screen
    /// comes from the session cache. The session itself stays available.
    ///
    /// # Panics
    ///
    /// As [`sweep_any_io`](Self::sweep_any_io).
    pub fn any_io_job(
        &mut self,
        nl: &Netlist,
        lib: &Library,
        camo: &CamoLibrary,
        candidates: &[VectorFunction],
        opts: &AnyIoOptions,
    ) -> AnyIoJob {
        self.any_io_job_in(
            &ObfuscationSpace::camouflage(lib, camo),
            nl,
            candidates,
            opts,
        )
    }

    /// [`SweepSession::any_io_job`] over any [`ObfuscationSpace`].
    ///
    /// # Panics
    ///
    /// As [`SweepSession::any_io_job`].
    pub fn any_io_job_in(
        &mut self,
        space: &ObfuscationSpace<'_>,
        nl: &Netlist,
        candidates: &[VectorFunction],
        opts: &AnyIoOptions,
    ) -> AnyIoJob {
        self.check(space, nl);
        let plan = self.plan(space, nl, candidates, opts);
        AnyIoJob::from_parts(
            plan,
            candidates.to_vec(),
            self.cnf.solver.clone_db(),
            self.cnf.row_outputs.clone(),
        )
    }

    fn check(&self, space: &ObfuscationSpace<'_>, nl: &Netlist) {
        assert!(
            self.matches_in(space, nl),
            "circuit does not match the session fingerprint"
        );
    }

    fn plan(
        &mut self,
        space: &ObfuscationSpace<'_>,
        nl: &Netlist,
        candidates: &[VectorFunction],
        opts: &AnyIoOptions,
    ) -> AnyIoPlan {
        let screen = opts
            .screen
            .then(|| self.screen_for(space, nl, candidates, opts.screen_vectors))
            .flatten();
        plan_any_io(nl, candidates, opts, screen)
    }

    /// The cached screen for this candidate batch, building (and
    /// evicting the least recently used entry) on a miss. Sound because
    /// [`ConfigScreen::build_in`] is deterministic in `(circuit,
    /// candidates, n_vectors)` — a hit returns exactly what a rebuild
    /// would.
    fn screen_for(
        &mut self,
        space: &ObfuscationSpace<'_>,
        nl: &Netlist,
        candidates: &[VectorFunction],
        n_vectors: usize,
    ) -> Option<&ConfigScreen> {
        let key = screen_key(candidates, n_vectors);
        if let Some(i) = self.screens.iter().position(|(k, _)| *k == key) {
            let hit = self.screens.remove(i);
            self.screens.push(hit);
        } else {
            let built = ConfigScreen::build_in(space, nl, candidates, n_vectors)?;
            self.screens.push((key, built));
            if self.screens.len() > MAX_CACHED_SCREENS {
                self.screens.remove(0);
            }
        }
        Some(&self.screens.last().expect("just pushed or moved").1)
    }
}

/// Content key of a screen: the candidate batch's lookup tables plus the
/// requested vector count (both of which `CamoScreen::build` is a pure
/// function of, given the session's fixed circuit).
fn screen_key(candidates: &[VectorFunction], n_vectors: usize) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(n_vectors);
    h.write_usize(candidates.len());
    for c in candidates {
        h.write_usize(c.n_inputs());
        h.write_usize(c.n_outputs());
        for t in c.outputs() {
            for &w in t.words() {
                h.write_u64(w);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        plausibility_sweep_any_io_with, plausibility_sweep_with, random_camouflage, SweepOptions,
    };
    use mvf_sboxes::optimal_sboxes;

    fn setup() -> (Library, CamoLibrary) {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        (lib, camo)
    }

    #[test]
    fn session_identity_sweep_matches_one_shot_warm_and_cold() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..5].to_vec();
        let opts = SweepOptions::default();
        let cold = plausibility_sweep_with(&circuit, &lib, &camo, &candidates, &opts);
        let mut session = SweepSession::new(&circuit, &lib, &camo);
        let first = session.sweep_identity(&circuit, &lib, &camo, &candidates, &opts);
        assert_eq!(first, cold, "cold session sweep differs from one-shot");
        // Second pass: warm solver, cached screen — identical verdicts.
        let second = session.sweep_identity(&circuit, &lib, &camo, &candidates, &opts);
        assert_eq!(second, cold, "warm session sweep differs from one-shot");
    }

    #[test]
    fn session_any_io_sweep_matches_one_shot_warm_and_cold() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..3].to_vec();
        let opts = AnyIoOptions::default();
        let cold = plausibility_sweep_any_io_with(&circuit, &lib, &camo, &candidates, &opts);
        let mut session = SweepSession::new(&circuit, &lib, &camo);
        let first = session.sweep_any_io(&circuit, &lib, &camo, &candidates, &opts);
        assert_eq!(first, cold, "cold session sweep differs from one-shot");
        let second = session.sweep_any_io(&circuit, &lib, &camo, &candidates, &opts);
        assert_eq!(
            second, cold,
            "warm session sweep differs from one-shot (queries included)"
        );
    }

    #[test]
    fn job_run_to_completion_matches_serial_sweep() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..3].to_vec();
        let opts = AnyIoOptions::default();
        let serial = plausibility_sweep_any_io_with(&circuit, &lib, &camo, &candidates, &opts);
        let mut job = AnyIoJob::new(&circuit, &lib, &camo, candidates, &opts);
        while job.step(7) > 0 {}
        assert!(job.is_done());
        assert_eq!(job.verdicts(), serial);
    }

    #[test]
    fn job_resumed_at_every_boundary_is_bit_identical() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..2].to_vec();
        let opts = AnyIoOptions::default();
        let mut reference = AnyIoJob::new(&circuit, &lib, &camo, candidates.clone(), &opts);
        reference.step(usize::MAX);
        let expected = reference.verdicts();
        let total = reference.total_work();
        // Kill after every possible chunk boundary (chunk size 3), throw
        // the job away, rebuild from scratch, restore, finish.
        let mut killed = AnyIoJob::new(&circuit, &lib, &camo, candidates.clone(), &opts);
        let mut boundaries = 0;
        loop {
            let advanced = killed.step(3) > 0;
            boundaries += 1;
            let checkpoint = killed.progress();
            let mut resumed = AnyIoJob::new(&circuit, &lib, &camo, candidates.clone(), &opts);
            resumed.restore(&checkpoint);
            assert_eq!(resumed.position(), killed.position());
            resumed.step(usize::MAX);
            assert_eq!(
                resumed.verdicts(),
                expected,
                "resume at position {} of {total} diverged",
                checkpoint.pos
            );
            if !advanced {
                break;
            }
        }
        assert!(boundaries >= 2, "corpus too small to exercise resume");
    }

    #[test]
    fn warm_job_from_session_matches_cold_job() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..2].to_vec();
        let opts = AnyIoOptions::default();
        let mut cold = AnyIoJob::new(&circuit, &lib, &camo, candidates.clone(), &opts);
        cold.step(usize::MAX);
        let mut session = SweepSession::new(&circuit, &lib, &camo);
        // Heat the session up first; the job still matches the cold run.
        session.sweep_identity(&circuit, &lib, &camo, &candidates, &SweepOptions::default());
        let mut warm = session.any_io_job(&circuit, &lib, &camo, &candidates, &opts);
        warm.step(usize::MAX);
        assert_eq!(warm.verdicts(), cold.verdicts());
    }

    #[test]
    fn session_rejects_a_different_circuit() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let other = random_camouflage(&boxes[1], &lib, &camo).unwrap();
        let mut session = SweepSession::new(&circuit, &lib, &camo);
        assert!(session.matches(&circuit, &lib, &camo));
        assert!(!session.matches(&other, &lib, &camo));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.sweep_identity(&other, &lib, &camo, &boxes[..1], &SweepOptions::default())
        }));
        assert!(result.is_err(), "mismatched circuit must be rejected");
    }

    #[test]
    fn session_reports_a_nonzero_footprint() {
        let (lib, camo) = setup();
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let mut session = SweepSession::new(&circuit, &lib, &camo);
        let fresh = session.db_bytes();
        assert!(fresh > 0);
        session.sweep_identity(&circuit, &lib, &camo, &boxes[..3], &SweepOptions::default());
        assert!(
            session.db_bytes() >= fresh,
            "sweeping must not shrink the accounted footprint"
        );
    }
}
