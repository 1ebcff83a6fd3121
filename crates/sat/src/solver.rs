//! A compact CDCL solver: two-watched literals, first-UIP clause learning,
//! VSIDS activities, phase saving and EMA-driven stabilizing restarts.
//!
//! The clause database is a single flat `u32` arena (splr/minisat style):
//! every clause is a `[len, lit0, lit1, ...]` block and a clause reference
//! is the `u32` offset of its header word. Watch lists index into the
//! arena, conflict analysis walks clause blocks in place, and the learnt-
//! clause and seen-marker scratch buffers are reused across conflicts, so
//! the steady-state solving loop performs no per-clause or per-conflict
//! heap allocation. The database persists across [`Solver::solve_with`]
//! calls, which is what makes batched assumption queries (the
//! plausibility sweep) cheap: one encoding, one arena, many verdicts.
//!
//! Two further mechanisms keep long query sequences fast and bounded:
//!
//! * **Order-heap decisions** — unassigned variables live in a binary
//!   max-heap keyed on VSIDS activity ([`VarOrder`]), so picking a
//!   decision variable is `O(log n)`. Ties break toward the lowest
//!   variable index, which keeps runs reproducible.
//! * **Learnt-DB reduction** — learnt clauses carry an activity, an
//!   LBD (literal block distance) and a tier in arrays parallel to the
//!   arena. When the learnt count passes a (configurable) threshold,
//!   [`reduce_db`] drops the cold half, compacts the arena in place and
//!   remaps every clause reference in the watch lists and reason array,
//!   so arena growth stays bounded across arbitrarily long sweeps.
//!
//! [`reduce_db`]: Solver::set_learnt_limit

use crate::{Lit, Var};

/// Sentinel clause reference: "no reason" / "no clause".
pub(crate) const NO_CLAUSE: u32 = u32::MAX;

/// Sentinel heap position: "not in the heap".
const NOT_IN_HEAP: u32 = u32::MAX;

/// A binary max-heap of variables keyed on VSIDS activity — the
/// minisat-style variable order. `heap` holds variable indices in heap
/// order; `index[v]` is `v`'s position in `heap` (or [`NOT_IN_HEAP`]).
///
/// The comparison is total: higher activity wins, and equal activities
/// break toward the lower variable index, which keeps solver runs
/// reproducible.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarOrder {
    heap: Vec<u32>,
    index: Vec<u32>,
}

impl VarOrder {
    /// `true` iff `a` is strictly preferred over `b` as the next decision.
    #[inline]
    fn better(act: &[f64], a: u32, b: u32) -> bool {
        let (aa, ab) = (act[a as usize], act[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    /// Registers a new variable slot (not yet in the heap).
    fn push_slot(&mut self) {
        self.index.push(NOT_IN_HEAP);
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.index[v as usize] != NOT_IN_HEAP
    }

    /// Inserts `v` unless it is already present.
    fn insert(&mut self, v: u32, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        let i = self.heap.len();
        self.heap.push(v);
        self.index[v as usize] = i as u32;
        self.sift_up(i, act);
    }

    /// Restores the heap property upward from position `i`.
    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let p = (i - 1) / 2;
            let pv = self.heap[p];
            if Self::better(act, v, pv) {
                self.heap[i] = pv;
                self.index[pv as usize] = i as u32;
                i = p;
            } else {
                break;
            }
        }
        self.heap[i] = v;
        self.index[v as usize] = i as u32;
    }

    /// Restores the heap property downward from position `i`.
    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        let len = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let c = if r < len && Self::better(act, self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            let cv = self.heap[c];
            if Self::better(act, cv, v) {
                self.heap[i] = cv;
                self.index[cv as usize] = i as u32;
                i = c;
            } else {
                break;
            }
        }
        self.heap[i] = v;
        self.index[v as usize] = i as u32;
    }

    /// Removes and returns the best variable, or `None` when empty.
    fn pop(&mut self, act: &[f64]) -> Option<u32> {
        let v = *self.heap.first()?;
        self.index[v as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("checked non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(v)
    }

    /// Re-establishes `v`'s position after its activity *increased*.
    #[inline]
    fn update(&mut self, v: u32, act: &[f64]) {
        let i = self.index[v as usize];
        if i != NOT_IN_HEAP {
            self.sift_up(i as usize, act);
        }
    }
}

/// Slack, in percent of the kept entries, that watch-pool compaction
/// reserves per list (see [`WatchLists::retain_map`]).
const WATCH_SLACK_PCT: u32 = 50;

/// The two-watched-literal occurrence lists, flattened into one CSR-style
/// pool: list `c` (a literal code) occupies `data[start[c]..start[c] +
/// len[c]]` with `cap[c]` slots reserved. A list that outgrows its
/// capacity relocates to the end of the pool with doubled capacity (its
/// old slots become dead words, reclaimed by [`WatchLists::retain_map`]'s
/// compaction pass, which the learnt-DB reduction already runs).
///
/// Flattening matters for [`Solver::clone_db`]: per-literal
/// `Vec<Vec<u32>>` lists would need one heap allocation per literal (two
/// per variable) on every clone, which dominated sharded-sweep worker
/// startup; the CSR block clones as a strict handful of `memcpy`s.
#[derive(Debug, Clone, Default)]
pub(crate) struct WatchLists {
    /// Flat pool.
    data: Vec<u32>,
    /// Per-list offsets, live lengths and reserved capacities, indexed by
    /// literal code.
    start: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    /// Compaction scratch, reused across passes.
    compact_tmp: Vec<u32>,
}

impl WatchLists {
    /// Approximate heap bytes of the watch structures (the pool plus the
    /// offset arrays).
    fn pool_bytes(&self) -> usize {
        (self.data.len() + self.start.len() + self.len.len() + self.cap.len())
            * std::mem::size_of::<u32>()
    }

    /// Registers one new (empty) list.
    fn push_list(&mut self) {
        self.start.push(0);
        self.len.push(0);
        self.cap.push(0);
    }

    #[inline]
    pub(crate) fn len_of(&self, code: usize) -> usize {
        self.len[code] as usize
    }

    #[inline]
    pub(crate) fn get(&self, code: usize, i: usize) -> u32 {
        debug_assert!(i < self.len[code] as usize);
        self.data[self.start[code] as usize + i]
    }

    #[inline]
    pub(crate) fn push(&mut self, code: usize, cr: u32) {
        if self.len[code] == self.cap[code] {
            // Relocate to the end of the pool with doubled capacity; the
            // old slots become dead words. Other lists' offsets are
            // untouched, so relocation is safe mid-propagation.
            let new_cap = (self.cap[code] * 2).max(4);
            let new_start = self.data.len() as u32;
            let s = self.start[code] as usize;
            let l = self.len[code] as usize;
            self.data.extend_from_within(s..s + l);
            self.data.resize(new_start as usize + new_cap as usize, 0);
            self.start[code] = new_start;
            self.cap[code] = new_cap;
        }
        self.data[(self.start[code] + self.len[code]) as usize] = cr;
        self.len[code] += 1;
    }

    #[inline]
    pub(crate) fn swap_remove(&mut self, code: usize, i: usize) {
        let s = self.start[code] as usize;
        let last = self.len[code] as usize - 1;
        self.data.swap(s + i, s + last);
        self.len[code] = last as u32;
    }

    /// Applies `f` to every stored clause ref: `None` drops the entry,
    /// `Some(r)` rewrites it. The pool is compacted afterwards (this runs
    /// from the learnt-DB reduction, the natural point to reclaim
    /// relocation garbage). Each non-empty list keeps
    /// [`WATCH_SLACK_PCT`]% slack capacity: propagation moves watches on
    /// the very next conflict, and compacting *tight* would force every
    /// first push to relocate its list to the pool end — undoing the
    /// compaction immediately.
    pub(crate) fn retain_map(&mut self, mut f: impl FnMut(u32) -> Option<u32>) {
        let mut pool = std::mem::take(&mut self.compact_tmp);
        pool.clear();
        for c in 0..self.start.len() {
            let s = self.start[c] as usize;
            let l = self.len[c] as usize;
            self.start[c] = pool.len() as u32;
            for i in 0..l {
                if let Some(r) = f(self.data[s + i]) {
                    pool.push(r);
                }
            }
            let kept = pool.len() as u32 - self.start[c];
            let cap = if kept == 0 {
                0
            } else {
                kept + kept * WATCH_SLACK_PCT / 100 + 1
            };
            pool.resize(self.start[c] as usize + cap as usize, 0);
            self.len[c] = kept;
            self.cap[c] = cap;
        }
        self.compact_tmp = std::mem::replace(&mut self.data, pool);
    }
}

/// The SAT solver.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Solver {
    /// Flat clause arena: `[len, lit codes...]` blocks, problem and learnt
    /// clauses alike. A clause reference is the offset of its `len` word.
    pub(crate) arena: Vec<u32>,
    /// Number of clauses stored in the arena.
    pub(crate) n_clauses: usize,
    /// Watch lists indexed by literal code: clause refs watching that
    /// literal, flattened into a CSR pool (see [`WatchLists`]).
    pub(crate) watches: WatchLists,
    /// Current assignment per variable.
    pub(crate) assign: Vec<Option<bool>>,
    /// Saved phase per variable.
    pub(crate) phase: Vec<bool>,
    /// Decision level per assigned variable.
    pub(crate) level: Vec<u32>,
    /// Reason clause ref per assigned variable (implied literals only).
    pub(crate) reason: Vec<u32>,
    /// Assignment trail and per-level start indices.
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    /// Propagation queue head.
    pub(crate) qhead: usize,
    /// VSIDS activity and bump increment.
    pub(crate) activity: Vec<f64>,
    pub(crate) act_inc: f64,
    /// Activity-ordered decision heap; contains a superset of the
    /// unassigned variables (assigned entries are skipped lazily).
    pub(crate) order: VarOrder,
    /// Learnt-clause refs in ascending arena order, with activity, LBD
    /// and tier in parallel arrays — the metadata `reduce_db` ranks by.
    pub(crate) learnt_refs: Vec<u32>,
    pub(crate) learnt_act: Vec<f64>,
    pub(crate) learnt_lbd: Vec<u32>,
    /// Learnt tier per clause: 0 = core (learn-time LBD ≤ 2, never
    /// dropped), 1 = mid, 2 = local.
    pub(crate) learnt_tier: Vec<u8>,
    /// Learnt-clause activity bump increment.
    pub(crate) cla_inc: f64,
    /// User learnt cap (`0` = adaptive) and the current reduce threshold.
    pub(crate) learnt_limit: usize,
    pub(crate) max_learnts: usize,
    /// Completed `reduce_db` passes.
    pub(crate) n_reductions: u64,
    /// LBD computation scratch: per-level stamps and the current stamp key.
    pub(crate) lbd_stamp: Vec<u64>,
    pub(crate) lbd_key: u64,
    /// Set when an empty clause is added.
    pub(crate) unsat: bool,
    /// Conflict-analysis scratch: the learnt clause under construction
    /// (asserting literal first) and per-variable seen marks. Reused
    /// across conflicts; `seen` is all-false between analyses.
    pub(crate) learnt: Vec<Lit>,
    pub(crate) seen: Vec<bool>,
    /// Clause-construction scratch for [`Solver::add_clause`].
    pub(crate) add_tmp: Vec<Lit>,
    /// Arena-compaction scratch (dead clause refs and the word-shift
    /// prefix sums), reused across reductions.
    pub(crate) dead_refs: Vec<u32>,
    pub(crate) dead_shift: Vec<u32>,
    pub(crate) rank_tmp: Vec<u32>,
    /// Fast/slow LBD exponential moving averages and the stabilizing
    /// restart mode state (see `restart.rs`). Cloned with the solver so
    /// sharded sweeps stay deterministic.
    pub(crate) ema_fast: f64,
    pub(crate) ema_slow: f64,
    pub(crate) restart_stable: bool,
    pub(crate) mode_conflicts: u64,
    pub(crate) stable_period: u64,
}

/// Counters of the solver's clause-database work, read by the service's
/// `status` response and the benchmark's `sat.*` columns. Purely
/// observational — reading them never affects solving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Always 0: the solver has no clause vivification. Kept so the
    /// reports that carry it keep their shape.
    pub n_vivified: u64,
    /// Always 0: the solver has no variable elimination. Kept so the
    /// reports that carry it keep their shape.
    pub n_eliminated: u64,
    /// Completed learnt-DB reduction passes.
    pub n_reductions: u64,
}

impl Default for Solver {
    /// Identical to [`Solver::new`]: the activity increments start at
    /// 1, which a derived `Default` would zero.
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: Vec::new(),
            n_clauses: 0,
            watches: WatchLists::default(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            act_inc: 1.0,
            order: VarOrder::default(),
            learnt_refs: Vec::new(),
            learnt_act: Vec::new(),
            learnt_lbd: Vec::new(),
            learnt_tier: Vec::new(),
            cla_inc: 1.0,
            learnt_limit: 0,
            max_learnts: 0,
            n_reductions: 0,
            lbd_stamp: Vec::new(),
            lbd_key: 0,
            unsat: false,
            learnt: Vec::new(),
            seen: Vec::new(),
            add_tmp: Vec::new(),
            dead_refs: Vec::new(),
            dead_shift: Vec::new(),
            rank_tmp: Vec::new(),
            ema_fast: 0.0,
            ema_slow: 0.0,
            restart_stable: false,
            mode_conflicts: 0,
            stable_period: crate::restart::STABLE_PERIOD_INIT,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(None);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_CLAUSE);
        self.activity.push(0.0);
        self.seen.push(false);
        self.lbd_stamp.push(0);
        self.watches.push_list(); // positive literal
        self.watches.push_list(); // negative literal
        self.order.push_slot();
        self.order.insert(v.0, &self.activity);
        v
    }

    /// Resets every saved phase to the initial polarity (`false`).
    ///
    /// Phase saving is a per-*query* heuristic: the polarities a long
    /// UNSAT proof settles into are tuned to refuting *that* candidate,
    /// and letting them leak into the next assumption query of a
    /// plausibility sweep steers the new search toward the old
    /// candidate's corner of the space. Sweeps call this between
    /// candidates; verdicts are unaffected (they are mathematically
    /// determined), only the search trajectory changes.
    pub fn reset_phases(&mut self) {
        self.phase.fill(false);
    }

    /// The clause-database counters of this solver (monotone over its
    /// lifetime, carried across [`Solver::clone_db`]).
    pub fn simplify_stats(&self) -> SimplifyStats {
        SimplifyStats {
            n_vivified: 0,
            n_eliminated: 0,
            n_reductions: self.n_reductions,
        }
    }

    /// Caps the learnt-clause count: once more than `limit` learnt
    /// clauses are live, the solver runs [`reduce_db`] (dropping the cold
    /// half and compacting the arena) instead of growing the database
    /// further. `0` (the default) selects an adaptive threshold that
    /// starts near `n_clauses / 3` and grows geometrically.
    ///
    /// Glue clauses (LBD ≤ 2) and clauses locked as reasons are always
    /// kept, so the live count can sit slightly above the cap.
    ///
    /// [`reduce_db`]: Solver::set_learnt_limit
    pub fn set_learnt_limit(&mut self, limit: usize) {
        self.learnt_limit = limit;
        self.max_learnts = 0; // re-derive on the next solve
    }

    /// Number of live learnt clauses.
    pub fn n_learnts(&self) -> usize {
        self.learnt_refs.len()
    }

    /// Number of completed learnt-DB reductions.
    pub fn n_reductions(&self) -> u64 {
        self.n_reductions
    }

    /// A snapshot of the whole solver — clause arena, watch lists, VSIDS
    /// state and learnt metadata. The flat clause arena *and* the flat
    /// CSR watch pool make this a strict handful of `memcpy`s (no
    /// per-literal allocations); sharded sweeps clone one encoded solver
    /// per worker and query the clones independently, and every job a
    /// warm sweep session plans starts from one (see `mvf_attack`'s
    /// `AnyIoOptions::shards` and `SweepSession::any_io_job_in`).
    pub fn clone_db(&self) -> Solver {
        self.clone()
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (including learnt).
    pub fn n_clauses(&self) -> usize {
        self.n_clauses
    }

    /// Size of the flat clause arena in `u32` words (header words
    /// included) — the solver's whole clause-database footprint.
    pub fn arena_words(&self) -> usize {
        self.arena.len()
    }

    /// Approximate heap footprint of the solver state in bytes: the
    /// clause arena, the watch pool and the per-variable arrays — the
    /// quantities [`Solver::clone_db`] copies. Session caches use this
    /// for LRU byte accounting; it is an estimate for budgeting, not an
    /// allocator-exact measurement.
    pub fn db_bytes(&self) -> usize {
        let per_var = std::mem::size_of::<Option<bool>>() // assign
            + std::mem::size_of::<bool>()                 // phase
            + std::mem::size_of::<u32>()                  // level
            + std::mem::size_of::<u32>()                  // reason
            + std::mem::size_of::<f64>()                  // activity
            + std::mem::size_of::<u64>(); // lbd_stamp
        let word = std::mem::size_of::<u32>();
        self.arena.len() * word
            + self.watches.pool_bytes()
            + self.n_vars() * per_var
            + self.learnt_refs.len()
                * (std::mem::size_of::<u32>() * 2
                    + std::mem::size_of::<f64>()
                    + std::mem::size_of::<u8>()) // + tier
    }

    /// Appends a clause block for the literals in `self.add_tmp` /
    /// `self.learnt` semantics: caller passes the literal list through a
    /// field to keep borrows disjoint. Returns the clause ref and hooks
    /// the first two literals into the watch lists.
    pub(crate) fn attach_from(arena: &mut Vec<u32>, watches: &mut WatchLists, lits: &[Lit]) -> u32 {
        debug_assert!(lits.len() >= 2, "unit clauses are enqueued, not stored");
        let cr = arena.len() as u32;
        arena.push(lits.len() as u32);
        for &l in lits {
            arena.push(l.code() as u32);
        }
        watches.push(lits[0].code(), cr);
        watches.push(lits[1].code(), cr);
        cr
    }

    /// Adds a clause. Duplicated literals are merged; tautologies are
    /// dropped; empty clauses make the instance trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if called after a failed [`Solver::solve`] left assignments
    /// (call sites in this workspace always add clauses up front) or if a
    /// literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at decision level 0"
        );
        let mut c = std::mem::take(&mut self.add_tmp);
        c.clear();
        for &l in lits {
            assert!((l.var().0 as usize) < self.n_vars(), "unknown variable");
            if c.contains(&!l) {
                self.add_tmp = c;
                return; // tautology
            }
            if !c.contains(&l) {
                c.push(l);
            }
        }
        // Remove literals already false at level 0; satisfied clauses are
        // dropped.
        c.retain(|&l| self.lit_value(l) != Some(false));
        if c.iter().any(|&l| self.lit_value(l) == Some(true)) {
            self.add_tmp = c;
            return;
        }
        match c.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(c[0], NO_CLAUSE) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                Self::attach_from(&mut self.arena, &mut self.watches, &c);
                self.n_clauses += 1;
            }
        }
        self.add_tmp = c;
    }

    pub(crate) fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().0 as usize].map(|v| v ^ l.is_negative())
    }

    /// The model value of `v` after a successful [`Solver::solve`].
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assign[v.0 as usize]
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    pub(crate) fn enqueue(&mut self, l: Lit, reason: u32) -> bool {
        match self.lit_value(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = l.var().0 as usize;
                self.assign[v] = Some(!l.is_negative());
                self.phase[v] = !l.is_negative();
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause ref if any.
    pub(crate) fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let falsified = !p;
            let fc = falsified.code();
            let falsified_code = fc as u32;
            // Walk the falsified literal's list in place. Mid-walk pushes
            // only ever target *other* literals' lists (the replacement
            // watch is non-false, the falsified literal is false), and a
            // CSR relocation of another list never moves this one, so the
            // `(start, index)` cursor stays valid throughout.
            let mut i = 0;
            while i < self.watches.len_of(fc) {
                let cr = self.watches.get(fc, i) as usize;
                // Ensure the falsified literal is at position 1.
                if self.arena[cr + 1] == falsified_code {
                    self.arena.swap(cr + 1, cr + 2);
                }
                let w0 = Lit::from_code(self.arena[cr + 1]);
                if self.lit_value(w0) == Some(true) {
                    i += 1;
                    continue; // clause satisfied; keep watching
                }
                // Look for a new literal to watch.
                let len = self.arena[cr] as usize;
                let mut moved = false;
                for k in 2..len {
                    let l = Lit::from_code(self.arena[cr + 1 + k]);
                    if self.lit_value(l) != Some(false) {
                        self.arena.swap(cr + 2, cr + 1 + k);
                        self.watches.push(l.code(), cr as u32);
                        self.watches.swap_remove(fc, i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflicting.
                if !self.enqueue(w0, cr as u32) {
                    self.qhead = self.trail.len();
                    return Some(cr as u32);
                }
                i += 1;
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.act_inc;
        if *a > 1e100 {
            // Rescaling multiplies every activity by the same factor, so
            // the heap's relative order — and therefore every stored heap
            // position — survives unchanged.
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
        // The bumped variable may only have become *more* attractive.
        self.order.update(v.0, &self.activity);
    }

    /// Bumps a learnt clause's activity (it participated in a conflict).
    fn bump_clause(&mut self, cr: u32) {
        // Learnt refs are kept sorted ascending (the arena only appends,
        // and compaction preserves order), so ordinal lookup is a binary
        // search — no per-clause hash map.
        let Ok(i) = self.learnt_refs.binary_search(&cr) else {
            return; // a problem clause
        };
        // A local clause that keeps producing conflicts earns mid-tier
        // residency.
        if self.learnt_tier[i] == 2 {
            self.learnt_tier[i] = 1;
        }
        self.learnt_act[i] += self.cla_inc;
        if self.learnt_act[i] > 1e20 {
            for a in &mut self.learnt_act {
                *a *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// The LBD (literal block distance) of the clause in `self.learnt`:
    /// the number of distinct non-zero decision levels among its
    /// literals. Computed with per-level stamps, no allocation.
    fn lbd_of_learnt(&mut self) -> u32 {
        self.lbd_key += 1;
        let key = self.lbd_key;
        let mut lbd = 0u32;
        for l in &self.learnt {
            let lv = self.level[l.var().0 as usize] as usize;
            // Levels run 1..=n_vars; stamp slot `lv - 1` keeps the array
            // exactly n_vars long.
            if lv > 0 && self.lbd_stamp[lv - 1] != key {
                self.lbd_stamp[lv - 1] = key;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis. Fills `self.learnt` (asserting
    /// literal first) and returns the backjump level. The per-variable
    /// `seen` marks are restored to all-false before returning.
    fn analyze(&mut self, mut confl: u32) -> u32 {
        self.learnt.clear();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        loop {
            // Learnt clauses that keep producing conflicts are the ones
            // worth keeping through DB reductions.
            self.bump_clause(confl);
            let cr = confl as usize;
            let len = self.arena[cr] as usize;
            for k in 0..len {
                let q = Lit::from_code(self.arena[cr + 1 + k]);
                // Skip the implied literal whose reason we are expanding.
                if p == Some(q) {
                    continue;
                }
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(q.var());
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Find the next marked literal on the trail.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().0 as usize] {
                    break;
                }
            }
            let q = self.trail[idx];
            let v = q.var().0 as usize;
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                self.learnt.insert(0, !q);
                break;
            }
            p = Some(q);
            confl = self.reason[v];
            debug_assert_ne!(confl, NO_CLAUSE, "implied literal must have a reason");
        }
        // Restore the seen marks (non-asserting learnt literals are the
        // only ones still set: every current-level mark was consumed from
        // the trail above).
        let mut back = 0u32;
        for l in &self.learnt[1..] {
            let v = l.var().0 as usize;
            self.seen[v] = false;
            back = back.max(self.level[v]);
        }
        back
    }

    pub(crate) fn cancel_until(&mut self, lvl: u32) {
        while self.decision_level() > lvl {
            let start = self.trail_lim.pop().expect("level exists");
            while self.trail.len() > start {
                let l = self.trail.pop().expect("non-empty");
                let v = l.var().0 as usize;
                self.assign[v] = None;
                self.reason[v] = NO_CLAUSE;
                // Lazy heap maintenance: a variable re-enters the order
                // only when it actually becomes undecided again.
                self.order.insert(v as u32, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    /// `true` iff `cr` is the reason of a currently assigned variable.
    /// The implied literal of a reason clause always sits at watch
    /// position 1 or 2 (propagation never moves a true watched literal
    /// deeper), so two probes suffice.
    pub(crate) fn is_locked(&self, cr: u32) -> bool {
        (1..=2).any(|k| {
            let v = Lit::from_code(self.arena[cr as usize + k]).var().0 as usize;
            self.reason[v] == cr
        })
    }

    fn decide(&mut self) -> Option<Lit> {
        // Pop until an unassigned variable surfaces. Assigned entries
        // dropped here are re-inserted by `cancel_until` when (and if)
        // they become undecided again.
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v as usize].is_none() {
                return Some(Lit::with_polarity(Var(v), self.phase[v as usize]));
            }
        }
        None
    }

    /// Decides satisfiability. On `true`, a full model is available via
    /// [`Solver::value`].
    pub fn solve(&mut self) -> bool {
        self.solve_with(&[])
    }

    /// Decides satisfiability under assumptions (each forced true).
    ///
    /// The clause database (arena, watch lists, learnt clauses) is kept
    /// across calls, so a sequence of assumption queries over one
    /// encoding reuses all prior work.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> bool {
        if self.unsat {
            return false;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return false;
        }
        // Assumption levels.
        for &a in assumptions {
            match self.lit_value(a) {
                Some(true) => continue,
                Some(false) => {
                    self.cancel_until(0);
                    return false;
                }
                None => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(a, NO_CLAUSE);
                    if self.propagate().is_some() {
                        self.cancel_until(0);
                        return false;
                    }
                }
            }
        }
        let assumption_level = self.decision_level();
        if self.max_learnts == 0 {
            // (Re-)derive the reduction threshold: the user cap verbatim,
            // or an adaptive start proportional to the problem size.
            self.max_learnts = if self.learnt_limit > 0 {
                self.learnt_limit
            } else {
                (self.n_clauses / 3).max(2000)
            };
        }
        // Conflicts since the last restart (see `restart.rs`).
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                conflicts += 1;
                if self.decision_level() <= assumption_level {
                    self.cancel_until(0);
                    if assumption_level == 0 {
                        self.unsat = true;
                    }
                    return false;
                }
                let back = self.analyze(confl).max(assumption_level);
                self.cancel_until(back);
                let assert_lit = self.learnt[0];
                let lbd = if self.learnt.len() == 1 {
                    // A unit learnt asserts at one level; its LBD is 1.
                    1
                } else {
                    self.lbd_of_learnt()
                };
                if self.learnt.len() == 1 {
                    // Unit learnt clause: assert directly at the backjump
                    // level (level 0, or the assumption level).
                    let ok = self.enqueue(assert_lit, NO_CLAUSE);
                    debug_assert!(ok);
                } else {
                    let cr = Self::attach_from(&mut self.arena, &mut self.watches, &self.learnt);
                    self.n_clauses += 1;
                    self.learnt_refs.push(cr);
                    self.learnt_act.push(self.cla_inc);
                    self.learnt_lbd.push(lbd);
                    self.learnt_tier.push(crate::reduce::tier_of(lbd));
                    let ok = self.enqueue(assert_lit, cr);
                    debug_assert!(ok);
                }
                self.ema_note_conflict(lbd);
                self.act_inc *= 1.05;
                self.cla_inc *= 1.001;
                if self.learnt_refs.len() >= self.max_learnts {
                    self.reduce_db();
                }
                if self.ema_wants_restart(conflicts) {
                    conflicts = 0;
                    self.cancel_until(assumption_level);
                }
            } else {
                match self.decide() {
                    None => return true,
                    Some(d) => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(d, NO_CLAUSE);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(s.solve());
        assert_eq!(s.value(v[0]), Some(true));

        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0])]);
        assert!(!s.solve());
    }

    #[test]
    fn unit_propagation_chain() {
        // x0 -> x1 -> x2 -> x3, with x0 asserted.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        for w in v.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(s.solve());
        for &x in &v {
            assert_eq!(s.value(x), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: vars p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for i in 0..3 {
            for j in 0..2 {
                p[i][j] = s.new_var();
            }
        }
        for i in 0..3 {
            s.add_clause(&[Lit::pos(p[i][0]), Lit::pos(p[i][1])]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause(&[Lit::neg(p[a][j]), Lit::neg(p[b][j])]);
                }
            }
        }
        assert!(!s.solve());
    }

    #[test]
    fn xor_chain_sat_with_model_check() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x0 = 1 ⇒ x2 = 1.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(s.solve());
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.value(v[1]), Some(false));
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn assumptions_work_and_are_undone() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert!(s.solve_with(&[Lit::neg(v[0])]));
        assert_eq!(s.value(v[1]), Some(true));
        // Contradictory assumptions: unsat under them, sat afterwards.
        assert!(!s.solve_with(&[Lit::neg(v[0]), Lit::neg(v[1])]));
        assert!(s.solve());
    }

    #[test]
    fn random_instances_match_brute_force() {
        // Deterministic pseudo-random 3-CNFs over 8 vars, cross-checked
        // against exhaustive enumeration.
        let mut state = 0x853C49E6748FEA9Bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..25 {
            let n_vars = 8usize;
            let n_clauses = 3 + (next() % 30) as usize;
            let mut clauses = Vec::new();
            for _ in 0..n_clauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % n_vars as u64) as u32;
                    let neg = next() & 1 == 1;
                    c.push(if neg {
                        Lit::neg(Var(v))
                    } else {
                        Lit::pos(Var(v))
                    });
                }
                clauses.push(c);
            }
            // Brute force.
            let brute = (0..(1u32 << n_vars)).any(|m| {
                clauses.iter().all(|c| {
                    c.iter().any(|l| {
                        let val = (m >> l.var().0) & 1 == 1;
                        val != l.is_negative()
                    })
                })
            });
            let mut s = Solver::new();
            for _ in 0..n_vars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let got = s.solve();
            assert_eq!(got, brute, "round {round}: clauses {clauses:?}");
            if got {
                // Model must satisfy all clauses.
                for c in &clauses {
                    assert!(
                        c.iter()
                            .any(|l| s.value(l.var()).expect("assigned") != l.is_negative()),
                        "model violates {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]); // tautology: ignored
        assert!(s.solve());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 1);
        s.add_clause(&[]);
        assert!(!s.solve());
    }

    /// Deterministic xorshift for in-module randomized tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_3cnf(state: &mut u64, n_vars: usize, n_clauses: usize) -> Vec<Vec<Lit>> {
        (0..n_clauses)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let v = Var((xorshift(state) % n_vars as u64) as u32);
                        if xorshift(state) & 1 == 1 {
                            Lit::neg(v)
                        } else {
                            Lit::pos(v)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn reduce_db_keeps_verdicts_and_bounds_learnts() {
        // Pigeonhole 6-into-5 forces heavy learning; a tiny learnt cap
        // forces many reductions mid-search without changing the verdict.
        let build = |limit: usize| {
            let mut s = Solver::new();
            if limit > 0 {
                s.set_learnt_limit(limit);
            }
            let mut p = vec![[Var(0); 5]; 6];
            for row in p.iter_mut() {
                for slot in row.iter_mut() {
                    *slot = s.new_var();
                }
            }
            for row in &p {
                let lits: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
                s.add_clause(&lits);
            }
            for j in 0..5 {
                for a in 0..6 {
                    for b in (a + 1)..6 {
                        s.add_clause(&[Lit::neg(p[a][j]), Lit::neg(p[b][j])]);
                    }
                }
            }
            s
        };
        let mut unlimited = build(0);
        let mut capped = build(20);
        assert!(!unlimited.solve());
        assert!(!capped.solve());
        assert!(capped.n_reductions() > 0, "the cap must force reductions");
        assert!(
            capped.arena_words() <= unlimited.arena_words(),
            "reduction must not grow the arena: {} vs {}",
            capped.arena_words(),
            unlimited.arena_words()
        );
    }

    #[test]
    fn phase_resets_keep_verdicts() {
        // reset_phases between queries never changes answers.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert!(s.solve_with(&[Lit::neg(v[0])]));
        s.reset_phases();
        assert!(s.solve_with(&[Lit::neg(v[1])]));
        s.reset_phases();
        assert!(!s.solve_with(&[Lit::neg(v[0]), Lit::neg(v[1])]));
    }

    #[test]
    fn clone_db_snapshots_answer_independently() {
        let mut state = 0xC10E_0001u64;
        let n_vars = 9usize;
        let clauses = random_3cnf(&mut state, n_vars, 30);
        let mut s = Solver::new();
        for _ in 0..n_vars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        let _ = s.solve_with(&[Lit::pos(Var(0))]); // leave residue state
        let mut a = s.clone_db();
        let mut b = s.clone_db();
        for q in 0..n_vars {
            let assumption = [Lit::neg(Var(q as u32))];
            assert_eq!(
                a.solve_with(&assumption),
                s.solve_with(&assumption),
                "clone diverges on query {q}"
            );
        }
        // The second clone is untouched by the first clone's queries.
        assert_eq!(b.solve(), s.solve());
    }

    #[test]
    fn arena_layout_matches_clause_count() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        assert_eq!(s.n_clauses(), 2);
        // Two blocks: (1 header + 2 lits) + (1 header + 3 lits).
        assert_eq!(s.arena_words(), 3 + 4);
        assert!(s.solve());
    }

    #[test]
    fn learnt_clauses_grow_the_arena_only() {
        // A small unsat-core-rich instance: solving under failing
        // assumptions learns clauses into the same arena; the solver must
        // stay reusable afterwards.
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        for w in v.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        let before = s.arena_words();
        assert!(!s.solve_with(&[Lit::pos(v[0]), Lit::neg(v[5])]));
        assert!(s.solve_with(&[Lit::pos(v[0])]));
        assert_eq!(s.value(v[5]), Some(true));
        assert!(s.arena_words() >= before);
    }
}
