//! Persistent, resumable sweep sessions.
//!
//! Three pieces turn the one-shot sweeps of the crate root into a
//! long-running audit service's building blocks:
//!
//! * [`SweepSession`] — one obfuscated netlist encoded **once** (the
//!   constant-folded encoding) and kept hot: every job it plans starts
//!   from a [`Solver::clone_db`] clone of the session solver instead of a
//!   fresh encoding, and cached [`ConfigScreen`]s keyed by candidate
//!   batch are shared between those jobs. Jobs never write back, so the
//!   session solver stays exactly as encoded.
//! * [`AnyIoJob`] — a stepped, pausable sweep: the work list is processed
//!   in caller-sized chunks, and the complete mutable state between
//!   chunks is a handful of integer vectors (position, witness bounds,
//!   query counts, and — under class sharing — the resolved
//!   orbit-function verdicts).
//! * [`AnyIoProgress`] — that state, exported for checkpointing and
//!   restored bit-identically.
//!
//! Every path here reuses the crate root's planning (`plan_any_io`), work
//! loop (`answer_work`) and verdict stitching (`any_io_verdicts`), so the
//! invariant the one-shot sweeps establish — verdicts, witnesses and
//! query counts are identical for every execution split — extends to
//! paused/resumed and warm-started runs by construction: SAT answers are
//! mathematically determined (cloned solvers and reset phases never flip
//! one), and query counts depend only on the serially-built work list and
//! the `best` skip rule.

use std::error::Error;
use std::fmt;

use mvf_logic::VectorFunction;
use mvf_netlist::fingerprint::Fnv64;
use mvf_netlist::Netlist;
use mvf_obfuscate::ObfuscationSpace;
use mvf_sat::{CircuitCnf, Solver, Var};

use crate::screen::ConfigScreen;
use crate::{
    answer_work, any_io_verdicts, plan_any_io, AnyIoOptions, AnyIoPlan, AnyIoVerdict, Group, Tally,
};

/// Cached screens kept per session (small: screens are per candidate
/// batch, and a service replays the same batches).
const MAX_CACHED_SCREENS: usize = 4;

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

/// Why [`AnyIoJob::restore`] refused a checkpoint's progress: it does not
/// fit the rebuilt plan. The usual cause is a checkpoint from another
/// workload, or from a build whose planning differs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// The witness bounds or query counts cover another number of
    /// candidates than the job has.
    CandidateCount {
        /// The job's candidate count.
        job: usize,
        /// Entries in [`AnyIoProgress::best`].
        best: usize,
        /// Entries in [`AnyIoProgress::queries`].
        queries: usize,
    },
    /// [`AnyIoProgress::pos`] is past the end of the job's work list.
    PositionPastWorkList {
        /// The checkpointed position.
        pos: usize,
        /// The job's work-list length.
        work: usize,
    },
    /// A resolved uid is past the job's verdict cache.
    UidPastVerdictCache {
        /// The checkpointed uid.
        uid: u32,
        /// The job's verdict-cache size.
        n_uids: usize,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::CandidateCount { job, best, queries } => write!(
                f,
                "checkpoint covers {best} witness bounds and {queries} query counts, \
                 the job has {job} candidates"
            ),
            RestoreError::PositionPastWorkList { pos, work } => write!(
                f,
                "checkpoint position {pos} is past the job's {work} work items"
            ),
            RestoreError::UidPastVerdictCache { uid, n_uids } => write!(
                f,
                "checkpoint uid {uid} is past the job's {n_uids} orbit functions"
            ),
        }
    }
}

impl Error for RestoreError {}

/// A pausable sweep: the planned work list is processed serially in
/// caller-sized chunks via [`step`](Self::step), progress snapshots out
/// through [`progress`](Self::progress), and a rebuilt job resumes
/// bit-identically via [`restore`](Self::restore).
///
/// A job sweeps the interpretation orbit [`AnyIoOptions::npn`] picks,
/// exactly as
/// [`plausibility_sweep_any_io_in`](crate::plausibility_sweep_any_io_in)
/// does: driven to completion it issues the queries of that sweep with
/// `shards = 1` — the same loop over the same work list — and returns
/// identical verdicts. Paused and resumed anywhere, still identical:
/// every answer is mathematically determined, and the visit order plus
/// the `best` skip rule fix the query counts.
pub struct AnyIoJob {
    plan: AnyIoPlan,
    candidates: Vec<VectorFunction>,
    solver: Solver,
    row_outputs: Vec<Vec<Var>>,
    /// Work items already visited.
    pos: usize,
    tally: Tally,
    /// The candidate whose search the solver's saved phases come from
    /// (`u32::MAX` = none, so the next query resets them).
    last_cand: u32,
}

impl AnyIoJob {
    /// Plans and encodes a standalone job over any [`ObfuscationSpace`]
    /// (cold start — no session); locking audits plan their jobs
    /// through here too.
    ///
    /// `opts.shards` is ignored: a job is serial by design (its point is
    /// checkpointability, and serial visits make the resumed query
    /// counts exact).
    ///
    /// # Panics
    ///
    /// As
    /// [`plausibility_sweep_any_io_in`](crate::plausibility_sweep_any_io_in):
    /// candidate shape mismatches or an oversized orbit.
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
        let group = Group::any_io(opts);
        let plan = plan_any_io(nl, &candidates, group, opts.class_share, screen.as_ref());
        let cnf = space.encode(nl);
        AnyIoJob::from_parts(plan, candidates, cnf.solver, cnf.row_outputs)
    }

    /// The solver's clause-database counters — the learnt-DB reductions
    /// run on this job's solver (warm-started jobs inherit the session
    /// solver's counters through [`Solver::clone_db`]).
    pub fn sat_stats(&self) -> mvf_sat::SimplifyStats {
        self.solver.simplify_stats()
    }

    fn from_parts(
        plan: AnyIoPlan,
        candidates: Vec<VectorFunction>,
        solver: Solver,
        row_outputs: Vec<Vec<Var>>,
    ) -> AnyIoJob {
        let tally = Tally::start(&plan);
        AnyIoJob {
            plan,
            candidates,
            solver,
            row_outputs,
            pos: 0,
            tally,
            last_cand: u32::MAX,
        }
    }

    /// Total planned work items (screen survivors).
    pub fn total_work(&self) -> usize {
        self.plan.work.len()
    }

    /// Work items already visited.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether every work item has been visited.
    pub fn is_done(&self) -> bool {
        self.pos >= self.plan.work.len()
    }

    /// Visits up to `max_items` further work items (skipped items count)
    /// and returns how many were visited — `0` exactly when the job is
    /// done. Chunk size never affects the outcome.
    pub fn step(&mut self, max_items: usize) -> usize {
        let start = self.pos;
        self.pos = self.plan.work.len().min(start.saturating_add(max_items));
        self.last_cand = answer_work(
            &self.plan,
            &self.candidates,
            &mut self.solver,
            &self.row_outputs,
            self.plan.work[start..self.pos].iter().copied(),
            &self.tally,
            self.last_cand,
        );
        self.pos - start
    }

    /// Snapshots the complete resumable state.
    pub fn progress(&self) -> AnyIoProgress {
        self.tally.progress(self.pos)
    }

    /// Re-attaches checkpointed progress to a freshly rebuilt job.
    /// Stepping on resumes the uninterrupted run bit-identically.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] when the progress does not fit this job's plan:
    /// another candidate count, a position past the work list, or a
    /// resolved uid past the verdict cache. The job is left unchanged.
    pub fn restore(&mut self, progress: &AnyIoProgress) -> Result<(), RestoreError> {
        let job = self.candidates.len();
        if progress.best.len() != job || progress.queries.len() != job {
            return Err(RestoreError::CandidateCount {
                job,
                best: progress.best.len(),
                queries: progress.queries.len(),
            });
        }
        if progress.pos > self.plan.work.len() {
            return Err(RestoreError::PositionPastWorkList {
                pos: progress.pos,
                work: self.plan.work.len(),
            });
        }
        let n_uids = self.plan.n_uids;
        if let Some(&(uid, _)) = progress
            .resolved
            .iter()
            .find(|&&(uid, _)| uid as usize >= n_uids)
        {
            return Err(RestoreError::UidPastVerdictCache { uid, n_uids });
        }
        self.pos = progress.pos;
        self.tally = Tally::new(
            &self.plan,
            &progress.best,
            &progress.queries,
            &progress.resolved,
        );
        // Force a phase reset on the first resumed item: the fresh
        // solver's phase state differs from the interrupted run's, but
        // phases are heuristics — answers, and therefore verdicts and
        // query counts, are unaffected.
        self.last_cand = u32::MAX;
        Ok(())
    }

    /// Stitches the final verdicts.
    ///
    /// # Panics
    ///
    /// Panics if the job is not [`is_done`](Self::is_done).
    pub fn verdicts(&self) -> Vec<AnyIoVerdict> {
        assert!(self.is_done(), "job has unvisited work items");
        any_io_verdicts(&self.plan, &self.progress())
    }
}

/// One obfuscated netlist kept encoded across submissions.
///
/// A session pins the circuit by content fingerprint
/// ([`ObfuscationSpace::fingerprint`] — netlist structure, both
/// libraries' content **and the scheme tag**, so camouflage and locking
/// audits of byte-identical netlists never share a session), encodes it
/// once, and plans jobs from it ([`SweepSession::any_io_job_in`]): each
/// job sweeps a clone of the session solver, and screen vector batches
/// are cached per candidate batch. Warm results are identical to cold
/// ones — including query counts — because screens are rebuilt-or-cached
/// deterministically and SAT answers are mathematically determined.
pub struct SweepSession {
    key: u64,
    cnf: CircuitCnf,
    /// Recently used screens, most recent last, keyed by candidate
    /// batch + vector count.
    screens: Vec<(u64, ConfigScreen)>,
}

impl SweepSession {
    /// Encodes `nl` once and fingerprints the space's `(scheme,
    /// netlist, libraries)` content as the session key.
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

    /// Plans a detachable [`AnyIoJob`] warm-started from this session:
    /// the job's solver is a [`Solver::clone_db`] clone of the session
    /// solver, so no re-encoding is needed, and the screen comes from the
    /// session cache. The session itself stays available and unchanged.
    ///
    /// # Panics
    ///
    /// As [`AnyIoJob::new_in`], plus a circuit that does not match the
    /// session fingerprint.
    pub fn any_io_job_in(
        &mut self,
        space: &ObfuscationSpace<'_>,
        nl: &Netlist,
        candidates: &[VectorFunction],
        opts: &AnyIoOptions,
    ) -> AnyIoJob {
        assert!(
            self.matches_in(space, nl),
            "circuit does not match the session fingerprint"
        );
        let screen = opts
            .screen
            .then(|| self.screen_for(space, nl, candidates, opts.screen_vectors))
            .flatten();
        let group = Group::any_io(opts);
        let plan = plan_any_io(nl, candidates, group, opts.class_share, screen);
        AnyIoJob::from_parts(
            plan,
            candidates.to_vec(),
            self.cnf.solver.clone_db(),
            self.cnf.row_outputs.clone(),
        )
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
/// requested vector count (both of which [`ConfigScreen::build_in`] is a
/// pure function of, given the session's fixed circuit).
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
    use crate::{plausibility_sweep_any_io_in, random_camouflage};
    use mvf_cells::{CamoLibrary, Library};
    use mvf_sboxes::optimal_sboxes;

    fn setup() -> (Library, CamoLibrary) {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        (lib, camo)
    }

    /// Steps `job` to completion in chunks of `chunk` items.
    fn finish(mut job: AnyIoJob, chunk: usize) -> Vec<AnyIoVerdict> {
        while job.step(chunk) > 0 {}
        assert!(job.is_done());
        job.verdicts()
    }

    #[test]
    fn session_any_io_sweep_matches_one_shot_warm_and_cold() {
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..3].to_vec();
        let opts = AnyIoOptions::default();
        let cold = plausibility_sweep_any_io_in(&space, &circuit, &candidates, &opts);
        let mut session = SweepSession::new_in(&space, &circuit);
        let first = session.any_io_job_in(&space, &circuit, &candidates, &opts);
        assert_eq!(finish(first, usize::MAX), cold, "cold session job differs");
        // Second job: cached screen, a fresh clone of the session solver.
        let second = session.any_io_job_in(&space, &circuit, &candidates, &opts);
        assert_eq!(
            finish(second, usize::MAX),
            cold,
            "warm session job differs from one-shot (queries included)"
        );
    }

    #[test]
    fn job_run_to_completion_matches_serial_sweep() {
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..3].to_vec();
        let opts = AnyIoOptions::default();
        let serial = plausibility_sweep_any_io_in(&space, &circuit, &candidates, &opts);
        let job = AnyIoJob::new_in(&space, &circuit, candidates, &opts);
        assert_eq!(finish(job, 7), serial);
    }

    #[test]
    fn job_resumed_at_every_boundary_is_bit_identical() {
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..2].to_vec();
        let opts = AnyIoOptions::default();
        let new_job = || AnyIoJob::new_in(&space, &circuit, candidates.clone(), &opts);
        let reference = new_job();
        let total = reference.total_work();
        let expected = finish(reference, usize::MAX);
        // Kill after every possible chunk boundary (chunk size 3), throw
        // the job away, rebuild from scratch, restore, finish.
        let mut killed = new_job();
        let mut boundaries = 0;
        loop {
            let advanced = killed.step(3) > 0;
            boundaries += 1;
            let checkpoint = killed.progress();
            let mut resumed = new_job();
            resumed
                .restore(&checkpoint)
                .expect("the checkpoint fits the plan");
            assert_eq!(resumed.position(), killed.position());
            assert_eq!(
                finish(resumed, usize::MAX),
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
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let candidates = boxes[..2].to_vec();
        let opts = AnyIoOptions::default();
        let cold = finish(
            AnyIoJob::new_in(&space, &circuit, candidates.clone(), &opts),
            usize::MAX,
        );
        let mut session = SweepSession::new_in(&space, &circuit);
        // Heat the session up first with a job over another batch; the
        // next job still matches the cold run.
        let heat = session.any_io_job_in(&space, &circuit, &boxes[2..5], &opts);
        finish(heat, usize::MAX);
        let warm = session.any_io_job_in(&space, &circuit, &candidates, &opts);
        assert_eq!(finish(warm, usize::MAX), cold);
    }

    #[test]
    fn session_rejects_a_different_circuit() {
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let other = random_camouflage(&boxes[1], &lib, &camo).unwrap();
        let mut session = SweepSession::new_in(&space, &circuit);
        assert!(session.matches_in(&space, &circuit));
        assert!(!session.matches_in(&space, &other));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.any_io_job_in(&space, &other, &boxes[..1], &AnyIoOptions::default())
        }));
        assert!(result.is_err(), "mismatched circuit must be rejected");
    }

    #[test]
    fn session_reports_a_nonzero_footprint() {
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let mut session = SweepSession::new_in(&space, &circuit);
        let fresh = session.db_bytes();
        assert!(fresh > 0);
        let job = session.any_io_job_in(&space, &circuit, &boxes[..3], &AnyIoOptions::default());
        finish(job, usize::MAX);
        assert!(
            session.db_bytes() >= fresh,
            "planning jobs must not shrink the accounted footprint"
        );
    }
}
