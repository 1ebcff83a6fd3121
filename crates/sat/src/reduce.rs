//! Learnt-DB reduction and flat-arena compaction.
//!
//! [`Solver::reduce_db`] drops cold learnt clauses once the live count
//! passes the reduction threshold, then compacts the arena in place.
//! Learnts live in three tiers assigned at learn time — core (LBD ≤ 2,
//! never dropped), mid (LBD ≤ 6) and local — and locals are promoted to
//! mid when they keep producing conflicts (see `Solver::bump_clause`).
//! Reduction drops locals before mids, so a clause that proved itself
//! outlives a one-conflict wonder of equal LBD; within a tier, higher
//! LBD and then lower activity go first.
//!
//! [`compact_arena`] slides live blocks over dead ones with
//! `copy_within` and remaps every clause reference — watch lists,
//! reasons and the learnt metadata — through dead-block prefix sums, so
//! arena growth stays bounded across arbitrarily long sweeps.
//!
//! [`compact_arena`]: Solver::compact_arena

use crate::solver::{Solver, NO_CLAUSE};

/// The learn-time tier of a clause with LBD `lbd`: 0 = core, 1 = mid,
/// 2 = local.
pub(crate) fn tier_of(lbd: u32) -> u8 {
    match lbd {
        0..=2 => 0,
        3..=6 => 1,
        _ => 2,
    }
}

impl Solver {
    /// Learnt-DB reduction: drops the cold half of the learnt clauses
    /// (ranked as the [module docs](self) describe) and compacts the
    /// flat arena in place. Safe at any decision level.
    pub(crate) fn reduce_db(&mut self) {
        let n = self.learnt_refs.len();
        if n == 0 {
            return;
        }
        // Rank the removable learnts worst-first. Glue (learn-time
        // LBD ≤ 2 ⟺ tier 0) and locked clauses are never candidates.
        let mut cand = std::mem::take(&mut self.rank_tmp);
        cand.clear();
        for i in 0..n {
            if self.learnt_lbd[i] > 2 && !self.is_locked(self.learnt_refs[i]) {
                cand.push(i as u32);
            }
        }
        cand.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            self.learnt_tier[b]
                .cmp(&self.learnt_tier[a])
                .then(self.learnt_lbd[b].cmp(&self.learnt_lbd[a]))
                .then(self.learnt_act[a].total_cmp(&self.learnt_act[b]))
                .then(self.learnt_refs[a].cmp(&self.learnt_refs[b]))
        });
        let n_remove = cand.len().min(n / 2);
        if n_remove == 0 {
            // Everything is glue or locked: raise the threshold so the
            // trigger does not fire on every conflict.
            self.max_learnts += self.max_learnts / 2 + 1;
            self.rank_tmp = cand;
            return;
        }
        // Dead refs ascending.
        let mut dead = std::mem::take(&mut self.dead_refs);
        dead.clear();
        dead.extend(
            cand[..n_remove]
                .iter()
                .map(|&i| self.learnt_refs[i as usize]),
        );
        dead.sort_unstable();
        self.dead_refs = dead;
        self.rank_tmp = cand;
        self.compact_arena();
        self.n_clauses -= n_remove;
        self.n_reductions += 1;
        if self.learnt_limit == 0 {
            // Adaptive mode grows the threshold geometrically; a user cap
            // stays fixed so long sweeps remain bounded — snap back any
            // transient slack the all-glue escape path above granted.
            self.max_learnts += self.max_learnts / 10 + 1;
        } else {
            self.max_learnts = self.learnt_limit;
        }
    }

    /// Compacts the arena over the dead learnt blocks listed (sorted
    /// ascending, non-empty, duplicate-free) in `self.dead_refs`, then
    /// remaps every clause reference: watch lists, reasons and the learnt
    /// metadata (entries for dead refs are dropped). Safe at any
    /// decision level. `n_clauses` is the caller's business.
    fn compact_arena(&mut self) {
        let dead = std::mem::take(&mut self.dead_refs);
        if dead.is_empty() {
            self.dead_refs = dead;
            return;
        }
        debug_assert!(dead.windows(2).all(|w| w[0] < w[1]), "dead refs sorted");
        // Cumulative word shifts: a live ref `r` moves to
        // `r - shift[#dead blocks before r]`.
        let mut shift = std::mem::take(&mut self.dead_shift);
        shift.clear();
        let mut acc = 0u32;
        for &d in &dead {
            acc += self.arena[d as usize] + 1;
            shift.push(acc);
        }
        // Slide the live spans between dead blocks down in place. Each
        // destination range ends strictly before the next dead header, so
        // headers are always read before they can be overwritten.
        {
            let mut write = dead[0] as usize;
            let mut read = write + self.arena[write] as usize + 1;
            for &d in &dead[1..] {
                let d = d as usize;
                let span = d - read;
                self.arena.copy_within(read..d, write);
                write += span;
                read = d + self.arena[d] as usize + 1;
            }
            let len = self.arena.len();
            self.arena.copy_within(read..len, write);
            self.arena.truncate(write + (len - read));
        }
        let remap = |r: u32| -> u32 {
            let i = dead.partition_point(|&d| d < r);
            if i == 0 {
                r
            } else {
                r - shift[i - 1]
            }
        };
        // Watch lists: drop watchers of dead clauses, remap the rest
        // (this pass also compacts the CSR watch pool).
        self.watches.retain_map(|r| {
            if dead.binary_search(&r).is_ok() {
                None
            } else {
                Some(remap(r))
            }
        });
        // Reasons: locked learnts are never dropped, so every reason
        // stays live.
        for r in &mut self.reason {
            if *r != NO_CLAUSE {
                debug_assert!(dead.binary_search(r).is_err(), "reason clause dropped");
                *r = remap(*r);
            }
        }
        // Learnt metadata: drop dead entries, remap the rest.
        let mut w = 0usize;
        for i in 0..self.learnt_refs.len() {
            let r = self.learnt_refs[i];
            if dead.binary_search(&r).is_ok() {
                continue;
            }
            self.learnt_refs[w] = remap(r);
            self.learnt_act[w] = self.learnt_act[i];
            self.learnt_lbd[w] = self.learnt_lbd[i];
            self.learnt_tier[w] = self.learnt_tier[i];
            w += 1;
        }
        self.learnt_refs.truncate(w);
        self.learnt_act.truncate(w);
        self.learnt_lbd.truncate(w);
        self.learnt_tier.truncate(w);
        self.dead_refs = dead;
        self.dead_shift = shift;
    }
}
