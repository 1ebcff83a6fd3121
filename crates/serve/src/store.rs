//! A bounded, byte-accounted cache of warm [`SweepSession`]s.
//!
//! The service audits many circuits over its lifetime, but tends to see
//! the same few repeatedly (the same obfuscated design re-submitted with
//! new candidate batches). [`SessionStore`] keeps the expensive part —
//! the encoded SAT instance, plus cached screen batches — alive between
//! submissions, keyed by the circuit's content fingerprint, and evicts
//! least-recently-used sessions once the retained state exceeds a byte
//! budget. Each job sweeps a clone of its session's solver, so learnt
//! clauses never carry from one submission to the next: a warm start
//! saves the encoding and the screen build, not search.
//!
//! Caching is invisible in the results: a warm session answers every
//! sweep identically to a cold one (verdicts, witnesses *and* query
//! counts), so eviction only ever costs time, never correctness — the
//! store's tests assert exactly that under a budget small enough to
//! evict on every access.

use mvf::netlist::Netlist;
use mvf::ObfuscationSpace;
use mvf_attack::SweepSession;

/// A byte-budgeted LRU cache of [`SweepSession`]s keyed by circuit
/// content fingerprint.
pub struct SessionStore {
    /// Byte budget for retained sessions (approximate, from
    /// [`SweepSession::db_bytes`]).
    budget: usize,
    /// Monotone access clock for LRU ordering.
    tick: u64,
    entries: Vec<Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct Entry {
    key: u64,
    session: SweepSession,
    last_used: u64,
}

impl SessionStore {
    /// A store that retains at most `budget` bytes of session state
    /// (approximately — the session in use is never evicted, so one
    /// oversized circuit still works, it just caches nothing else).
    pub fn new(budget: usize) -> SessionStore {
        SessionStore {
            budget,
            tick: 0,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The warm session for this circuit under this obfuscation space,
    /// creating (and evicting) on a miss. The cache key commits to the
    /// scheme as well as the circuit, so a camouflage session and a
    /// locking session over the same netlist never collide. The
    /// returned session is pinned for this call: eviction to meet the
    /// budget never removes it.
    pub fn session_in(&mut self, space: &ObfuscationSpace<'_>, nl: &Netlist) -> &mut SweepSession {
        let key = space.fingerprint(nl);
        self.tick += 1;
        let tick = self.tick;
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            self.hits += 1;
            self.entries[i].last_used = tick;
            return &mut self.entries[i].session;
        }
        self.misses += 1;
        self.entries.push(Entry {
            key,
            session: SweepSession::new_in(space, nl),
            last_used: tick,
        });
        self.shrink_to_budget(key);
        let i = self
            .entries
            .iter()
            .position(|e| e.key == key)
            .expect("the just-inserted session is never evicted");
        &mut self.entries[i].session
    }

    /// Evicts least-recently-used sessions until the budget holds,
    /// always keeping `pinned`.
    fn shrink_to_budget(&mut self, pinned: u64) {
        while self.bytes() > self.budget && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.key != pinned)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    self.entries.remove(i);
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Approximate bytes retained across all cached sessions.
    pub fn bytes(&self) -> usize {
        self.entries.iter().map(|e| e.session.db_bytes()).sum()
    }

    /// Cached sessions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from a warm session.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that built a fresh session.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Sessions evicted to meet the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf::cells::{CamoLibrary, Library};
    use mvf_attack::{random_camouflage, AnyIoOptions, AnyIoVerdict};
    use mvf_logic::VectorFunction;
    use mvf_sboxes::optimal_sboxes;

    fn setup() -> (Library, CamoLibrary) {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        (lib, camo)
    }

    /// Runs a job from the store's session for `nl` to completion.
    fn sweep(
        store: &mut SessionStore,
        space: &ObfuscationSpace<'_>,
        nl: &Netlist,
        candidates: &[VectorFunction],
    ) -> Vec<AnyIoVerdict> {
        let opts = AnyIoOptions::default();
        let mut job = store
            .session_in(space, nl)
            .any_io_job_in(space, nl, candidates, &opts);
        job.step(usize::MAX);
        job.verdicts()
    }

    #[test]
    fn repeated_lookups_hit_the_same_session() {
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let boxes = optimal_sboxes();
        let circuit = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let mut store = SessionStore::new(usize::MAX);
        let key = store.session_in(&space, &circuit).key();
        assert_eq!(store.session_in(&space, &circuit).key(), key);
        assert_eq!(store.len(), 1);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn distinct_circuits_get_distinct_sessions() {
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let boxes = optimal_sboxes();
        let a = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let b = random_camouflage(&boxes[1], &lib, &camo).unwrap();
        let mut store = SessionStore::new(usize::MAX);
        let ka = store.session_in(&space, &a).key();
        let kb = store.session_in(&space, &b).key();
        assert_ne!(ka, kb);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn distinct_schemes_over_one_netlist_never_share_a_session() {
        let (lib, camo) = setup();
        let lock = mvf::lock_library(&lib);
        // A plain standard-cell circuit is valid under both families, so
        // only the scheme commitment keeps their cache keys apart.
        let nand = lib.cell_by_name("NAND2").unwrap();
        let mut circuit = Netlist::new("plain");
        let a = circuit.add_input("a");
        let b = circuit.add_input("b");
        let (_, ab) = circuit.add_cell("g0", mvf::netlist::CellRef::Std(nand), vec![a, b]);
        circuit.add_output("y", ab);
        let camo_space = ObfuscationSpace::camouflage(&lib, &camo);
        let lock_space = ObfuscationSpace::locking(&lib, &lock);
        assert_ne!(
            camo_space.fingerprint(&circuit),
            lock_space.fingerprint(&circuit),
            "the session key must commit to the scheme, not just the netlist"
        );
        let mut store = SessionStore::new(usize::MAX);
        store.session_in(&camo_space, &circuit);
        store.session_in(&lock_space, &circuit);
        assert_eq!(store.len(), 2, "one netlist, two schemes, two sessions");
        assert_eq!(store.misses(), 2);
        assert_eq!(store.hits(), 0);
    }

    #[test]
    fn a_tiny_budget_evicts_but_never_changes_verdicts() {
        let (lib, camo) = setup();
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        let boxes = optimal_sboxes();
        let a = random_camouflage(&boxes[0], &lib, &camo).unwrap();
        let b = random_camouflage(&boxes[1], &lib, &camo).unwrap();
        let candidates = boxes[..3].to_vec();
        // Reference verdicts from an unbounded store.
        let mut big = SessionStore::new(usize::MAX);
        let want_a = sweep(&mut big, &space, &a, &candidates);
        let want_b = sweep(&mut big, &space, &b, &candidates);
        // A budget of one byte cannot hold any session: every alternating
        // access rebuilds cold. Results must not move.
        let mut tiny = SessionStore::new(1);
        for _ in 0..2 {
            assert_eq!(sweep(&mut tiny, &space, &a, &candidates), want_a);
            assert_eq!(sweep(&mut tiny, &space, &b, &candidates), want_b);
        }
        assert_eq!(tiny.len(), 1, "over-budget sessions must not pile up");
        assert!(tiny.evictions() >= 3, "evictions: {}", tiny.evictions());
        assert_eq!(tiny.hits(), 0, "a one-byte budget can never serve warm");
    }
}
