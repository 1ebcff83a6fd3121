//! EMA-driven stabilizing restarts.
//!
//! The solver keeps two exponential moving averages of learnt-clause
//! LBD: a fast one (recent conflicts) and a slow one (the whole run).
//! When the fast average rises well above the slow one, the search is
//! producing worse clauses than its historical norm — a restart is
//! likely to help. Search alternates between two modes, both driven by
//! solver-owned deterministic counters (cloned with the solver, so
//! sharded sweeps and warm-started sessions stay bit-reproducible):
//!
//! * **Focused** — agile restarts: restart as soon as at least
//!   [`MIN_RESTART_CONFLICTS`] conflicts have accumulated since the
//!   last restart *and* `ema_fast > 1.25 · ema_slow`.
//! * **Stable** — long, fixed restart intervals that let phase saving
//!   settle into one region of the space; good for satisfiable
//!   instances the agile mode keeps abandoning. Stable periods grow
//!   geometrically (×2) each time the mode recurs.
//!
//! This is the solver's only restart schedule.

use crate::solver::Solver;

/// Fast-EMA smoothing factor (per conflict).
const ALPHA_FAST: f64 = 1.0 / 32.0;
/// Slow-EMA smoothing factor (per conflict).
const ALPHA_SLOW: f64 = 1.0 / 4096.0;
/// Focused mode: minimum conflicts between restarts.
const MIN_RESTART_CONFLICTS: u64 = 50;
/// Focused mode: restart when `ema_fast > THRESHOLD * ema_slow`.
const THRESHOLD: f64 = 1.25;
/// Conflicts spent in focused mode before switching to stable.
const FOCUSED_LEN: u64 = 5000;
/// Initial stable-phase restart interval (doubles per stable phase).
pub(crate) const STABLE_PERIOD_INIT: u64 = 1000;

impl Solver {
    /// Advances the LBD EMAs and the mode clock by one conflict.
    pub(crate) fn ema_note_conflict(&mut self, lbd: u32) {
        let lbd = lbd as f64;
        self.ema_fast += ALPHA_FAST * (lbd - self.ema_fast);
        self.ema_slow += ALPHA_SLOW * (lbd - self.ema_slow);
        self.mode_conflicts += 1;
    }

    /// The restart decision, given the conflicts accumulated since
    /// the last restart. Also performs the focused/stable mode switches
    /// (those depend only on the mode clock, not on restarting).
    pub(crate) fn ema_wants_restart(&mut self, since_restart: u64) -> bool {
        if self.restart_stable {
            // Stable phase: long fixed intervals, phases double in
            // length each time stability recurs.
            if self.mode_conflicts >= 2 * self.stable_period {
                self.restart_stable = false;
                self.stable_period *= 2;
                self.mode_conflicts = 0;
                return true;
            }
            since_restart >= self.stable_period
        } else {
            if self.mode_conflicts >= FOCUSED_LEN {
                self.restart_stable = true;
                self.mode_conflicts = 0;
                return true;
            }
            since_restart >= MIN_RESTART_CONFLICTS && self.ema_fast > THRESHOLD * self.ema_slow
        }
    }
}
