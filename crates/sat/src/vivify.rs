//! Clause vivification (distillation): shrink problem clauses by
//! re-propagating their literals under the level-0 trail.
//!
//! For a clause `C = l₁ ∨ … ∨ lₙ` (detached so it cannot propagate
//! itself), literals are probed in clause order against the rest of the
//! formula:
//!
//! * `lᵢ` false under the accumulated propagations — `F\C ∧ ¬prefix ⊢
//!   ¬lᵢ`, so `lᵢ` is redundant: drop it.
//! * `lᵢ` true — `F\C ∧ ¬prefix ⊢ lᵢ`, so `prefix ∨ lᵢ` is implied:
//!   replace `C` with it and stop.
//! * otherwise decide `¬lᵢ` and propagate; a conflict means `F\C ∧
//!   ¬prefix ∧ ¬lᵢ ⊢ ⊥`, the same strengthening: stop.
//!
//! Every rewrite replaces `C` by a clause that is implied by `F\C` and
//! implies `C`, so the formula stays *equivalent* (not merely
//! equisatisfiable) — no model reconstruction is needed, and verdicts
//! and witnesses are mathematically unchanged. Clauses satisfied at
//! level 0 are entailed by the permanent trail and removed outright
//! (level-0 reason clauses excepted, so reasons never dangle).
//! Shrinking happens
//! in place in the flat arena; the tail gap is disguised as a dead
//! pseudo-block and queued for the next compaction.
//!
//! Vivification runs exhaustively from [`Solver::simplify`] and on a
//! deterministic budget at assumption-free restart boundaries: every
//! [`RESTART_PERIOD`]-th restart probes [`RESTART_BUDGET`] clauses,
//! continuing round-robin from a persistent cursor (cloned with the
//! solver, so sharded sweeps stay bit-reproducible).

use crate::solver::{Solver, NO_CLAUSE};
use crate::Lit;

/// Restarts between budgeted in-solve vivification passes.
pub(crate) const RESTART_PERIOD: u32 = 16;
/// Clauses probed per in-solve pass.
const RESTART_BUDGET: usize = 128;

impl Solver {
    /// Removes `cr`'s two watch entries (positions 1 and 2 of its
    /// block). After this the clause is invisible to propagation; its
    /// arena block is still readable.
    pub(crate) fn detach(&mut self, cr: u32) {
        for k in 1..=2 {
            let code = self.arena[cr as usize + k] as usize;
            for i in 0..self.watches.len_of(code) {
                if self.watches.get(code, i) == cr {
                    self.watches.swap_remove(code, i);
                    break;
                }
            }
        }
    }

    /// The restart-boundary hook: counts down [`RESTART_PERIOD`]
    /// restarts, then runs one budgeted vivification pass. Caller
    /// guarantees an assumption-free, level-0 trail.
    pub(crate) fn vivify_at_restart(&mut self) {
        if self.vivify_countdown > 0 {
            self.vivify_countdown -= 1;
            return;
        }
        self.vivify_countdown = RESTART_PERIOD;
        self.vivify_round(RESTART_BUDGET);
    }

    /// Probes up to `budget` problem clauses (capped at the live count),
    /// round-robin from the persistent cursor. Must be called at
    /// decision level 0 with no pending propagations. May set `unsat`.
    pub(crate) fn vivify_round(&mut self, budget: usize) {
        debug_assert!(self.trail_lim.is_empty(), "vivify runs at level 0");
        if self.unsat {
            return;
        }
        let mut left = budget.min(self.clause_refs.len());
        let mut idx = self.vivify_head;
        while left > 0 && !self.clause_refs.is_empty() {
            if idx >= self.clause_refs.len() {
                idx = 0;
            }
            if self.vivify_one(idx) {
                idx += 1;
            }
            if self.unsat {
                return;
            }
            left -= 1;
        }
        self.vivify_head = idx;
    }

    /// Vivifies the clause at `clause_refs[idx]`. Returns `true` when
    /// the clause survives (cursor should advance), `false` when it was
    /// removed from the index.
    fn vivify_one(&mut self, idx: usize) -> bool {
        let cr = self.clause_refs[idx] as usize;
        let orig_len = self.arena[cr] as usize;
        let mut lits = std::mem::take(&mut self.viv_tmp);
        lits.clear();
        for k in 0..orig_len {
            lits.push(Lit::from_code(self.arena[cr + 1 + k]));
        }
        // Clauses satisfied at level 0 are entailed by the permanent
        // trail: drop them outright. The one exception is a clause
        // serving as a level-0 reason — removing it would dangle
        // `reason[]`, so it stays.
        if lits.iter().any(|&l| self.lit_value(l) == Some(true)) {
            if self.is_locked(cr as u32) {
                self.viv_tmp = lits;
                return true;
            }
            self.detach(cr as u32);
            self.n_vivified += 1;
            self.stat_literals_removed += orig_len as u64;
            self.remove_problem_clause(idx, cr as u32);
            self.viv_tmp = lits;
            return false;
        }
        // Detach so the clause cannot propagate against itself.
        self.detach(cr as u32);
        // Probe in clause order; `w` is the surviving prefix length.
        let mut w = 0usize;
        for i in 0..lits.len() {
            let l = lits[i];
            match self.lit_value(l) {
                Some(false) => {} // redundant: drop
                Some(true) => {
                    // prefix ∨ l is implied: stop and strengthen.
                    lits[w] = l;
                    w += 1;
                    break;
                }
                None => {
                    self.trail_lim.push(self.trail.len());
                    let ok = self.enqueue(!l, NO_CLAUSE);
                    debug_assert!(ok);
                    let conflict = self.propagate().is_some();
                    lits[w] = l;
                    w += 1;
                    if conflict {
                        break;
                    }
                }
            }
        }
        self.cancel_until(0);
        lits.truncate(w);
        if w == orig_len {
            // Nothing learned: reattach the original watches.
            self.watches.push(lits[0].code(), cr as u32);
            self.watches.push(lits[1].code(), cr as u32);
            self.viv_tmp = lits;
            return true;
        }
        self.n_vivified += 1;
        self.stat_literals_removed += (orig_len - w) as u64;
        match w {
            0 => {
                // Every literal was level-0 false: the instance is
                // unsatisfiable (propagation would have found this; be
                // safe regardless).
                self.unsat = true;
                self.remove_problem_clause(idx, cr as u32);
                self.viv_tmp = lits;
                false
            }
            1 => {
                // Shrunk to a unit: assert it at level 0 and drop the
                // clause entirely.
                let unit = lits[0];
                self.remove_problem_clause(idx, cr as u32);
                if !self.enqueue(unit, NO_CLAUSE) || self.propagate().is_some() {
                    self.unsat = true;
                }
                self.viv_tmp = lits;
                false
            }
            _ => {
                // Rewrite the block in place; the tail gap becomes a
                // dead pseudo-block reclaimed by the next compaction.
                self.arena[cr] = w as u32;
                for (k, &l) in lits.iter().enumerate() {
                    self.arena[cr + 1 + k] = l.code() as u32;
                }
                let gap = orig_len - w;
                if gap > 0 {
                    let gap_ref = (cr + 1 + w) as u32;
                    self.arena[gap_ref as usize] = gap as u32 - 1;
                    self.dead_problem.push(gap_ref);
                }
                self.watches.push(lits[0].code(), cr as u32);
                self.watches.push(lits[1].code(), cr as u32);
                self.viv_tmp = lits;
                true
            }
        }
    }

    /// Drops the (already detached) problem clause `cr` at index
    /// position `idx`: unindexes it, queues its block for compaction
    /// and updates the counters.
    pub(crate) fn remove_problem_clause(&mut self, idx: usize, cr: u32) {
        debug_assert_eq!(self.clause_refs[idx], cr);
        self.clause_refs.remove(idx);
        self.dead_problem.push(cr);
        self.n_clauses -= 1;
        self.stat_clauses_removed += 1;
    }
}
