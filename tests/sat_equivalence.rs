//! Equivalence corpus for the arena-backed SAT solver.
//!
//! The clause database was repacked from per-clause `Vec`s into a single
//! flat `u32` arena; these tests pin the observable behavior to the seed
//! solver's contract: identical SAT/UNSAT verdicts (cross-checked against
//! brute force), models that satisfy every clause, assumption queries that
//! are fully undone, identical identity-sweep output across the attack
//! test corpus, and a propagation-heavy stress case that leans on the
//! in-place database reuse across queries.
//!
//! The scaling layers ride the same corpus: learnt-DB reduction under a
//! tiny cap must leave every verdict unchanged while bounding arena
//! growth, a pigeonhole refutation under assumptions must drive the
//! solver through restarts and reductions at its default learnt limit
//! and leave it able to find a model afterwards, and the sharded
//! parallel sweep must be bit-identical to the serial sweep for every
//! shard count.
//!
//! Every sweep verdict is checked against `sat_oracle`, which shares
//! only the encoder and the solver with the sweeps (no screen, plan,
//! orbit walk or work loop); both are pinned on their own by the
//! brute-force CNF cases above and the encoding-versus-simulation case
//! below. The identity sweep is the one-point orbit of the any-IO sweep,
//! and a corpus of its own checks exactly that across every screen
//! regime and a shape whose permutation orbit overflows.
//!
//! The interpretation-freedom layer gets its own corpus: the any-IO
//! sweep (serial and sharded 1/2/4) must match brute-force permutation
//! enumeration on 3-bit blocks, fully and partially camouflaged —
//! verdicts *and* witness interpretations — and signature pruning
//! (P-equivalence dedup of permuted candidates) must never change an
//! answer while strictly cutting queries on symmetric candidates.
//!
//! The NPN completion extends that corpus to the full 2304-point
//! 3-bit orbit: the sweep must match a batched brute-force oracle
//! built from public logic primitives — verdicts *and* witness
//! transforms — and cross-candidate class sharing must be
//! answer-invisible while cutting work by at least the duplication
//! factor, for every shard count.
//!
//! The screen-then-solve funnel rides both corpora and two hand-built
//! circuits whose doping-configuration product is enumerable: screening
//! on must equal screening off *and* brute force — verdicts and
//! witnesses — on every sweep entry point; the surviving-config masks
//! must match exhaustive per-configuration circuit evaluation; a
//! complete screen must settle every orbit representative with zero SAT
//! queries and stay bit-identical across shard counts; and the sampling
//! regime (more minterms than vectors) must refute chaff SAT-free
//! without ever changing an identity-sweep verdict.
//!
//! The constant-folded encoding is checked against simulation: on
//! seeded netlists of both obfuscation families, every configuration's
//! selectors must be satisfiable with row outputs equal to
//! `ObfuscationSpace::eval_vectors`, and a netlist without sites must
//! encode to unit-pinned row outputs only.

use mvf_attack::{
    checked_orbit, plausibility_sweep_any_io_in, plausibility_sweep_in, random_camouflage,
    AnyIoOptions, AnyIoVerdict, ConfigScreen, ObfuscationSpace, DEFAULT_SCREEN_VECTORS,
};
use mvf_cells::{CamoLibrary, Library};
use mvf_logic::npn::all_permutations;
use mvf_logic::{IoInterpretation, VectorFunction};
use mvf_netlist::Netlist;
use mvf_sat::{Lit, Solver, Var};
use mvf_sboxes::optimal_sboxes;

/// The independent plausibility oracle: encodes `nl` under `space` once
/// and, for each function `g`, pins every row output `row_outputs[m][o]`
/// to bit `o` of `g(m)` and asks the solver. It shares only the encoder
/// and the solver with the sweeps.
fn sat_oracle(
    space: &ObfuscationSpace<'_>,
    nl: &Netlist,
    functions: &[VectorFunction],
) -> Vec<bool> {
    let mut cnf = space.encode(nl);
    functions
        .iter()
        .map(|g| {
            let mut assumptions = Vec::new();
            for (m, row) in cnf.row_outputs.iter().enumerate() {
                let want = g.eval(m);
                for (o, &v) in row.iter().enumerate() {
                    assumptions.push(Lit::with_polarity(v, (want >> o) & 1 == 1));
                }
            }
            cnf.solver.solve_with(&assumptions)
        })
        .collect()
}

/// Options with `shards` and every other field at its default.
fn sharded(shards: usize) -> AnyIoOptions {
    AnyIoOptions {
        shards,
        ..AnyIoOptions::default()
    }
}

/// Deterministic xorshift stream for reproducible random instances.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn random_lit(rng: &mut XorShift, n_vars: usize) -> Lit {
    let v = Var((rng.next() % n_vars as u64) as u32);
    if rng.next() & 1 == 1 {
        Lit::neg(v)
    } else {
        Lit::pos(v)
    }
}

fn random_cnf(
    rng: &mut XorShift,
    n_vars: usize,
    n_clauses: usize,
    max_width: usize,
) -> Vec<Vec<Lit>> {
    let mut clauses = Vec::with_capacity(n_clauses);
    for _ in 0..n_clauses {
        let width = 1 + (rng.next() as usize) % max_width;
        let mut c = Vec::with_capacity(width);
        for _ in 0..width {
            c.push(random_lit(rng, n_vars));
        }
        clauses.push(c);
    }
    clauses
}

/// Brute-force satisfiability of `clauses ∪ units` over `n_vars`.
fn brute_force(clauses: &[Vec<Lit>], units: &[Lit], n_vars: usize) -> bool {
    (0..(1u32 << n_vars)).any(|m| {
        let sat = |l: &Lit| ((m >> l.var().0) & 1 == 1) != l.is_negative();
        units.iter().all(sat) && clauses.iter().all(|c| c.iter().any(sat))
    })
}

fn model_satisfies(s: &Solver, clauses: &[Vec<Lit>]) -> bool {
    clauses.iter().all(|c| {
        c.iter()
            .any(|l| s.value(l.var()).expect("full model") != l.is_negative())
    })
}

#[test]
fn verdicts_and_models_match_brute_force_on_random_cnfs() {
    let mut rng = XorShift(0x5EED_CAFE_F00D_D00D);
    for round in 0..60 {
        let n_vars = 4 + (rng.next() as usize) % 9; // 4..=12
        let n_clauses = 2 + (rng.next() as usize) % 40;
        let clauses = random_cnf(&mut rng, n_vars, n_clauses, 4);
        let mut s = Solver::new();
        for _ in 0..n_vars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        let got = s.solve();
        let want = brute_force(&clauses, &[], n_vars);
        assert_eq!(got, want, "round {round}: {clauses:?}");
        if got {
            assert!(model_satisfies(&s, &clauses), "round {round}");
        }
    }
}

#[test]
fn assumption_queries_match_brute_force_and_are_undone() {
    let mut rng = XorShift(0xA550_F1EA_5000_0001);
    for round in 0..30 {
        let n_vars = 6 + (rng.next() as usize) % 5; // 6..=10
        let n_clauses = 3 + (rng.next() as usize) % 25;
        let clauses = random_cnf(&mut rng, n_vars, n_clauses, 3);
        let mut s = Solver::new();
        for _ in 0..n_vars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        let base = brute_force(&clauses, &[], n_vars);
        // A run of assumption queries against one solver: each verdict
        // must match brute force with the assumptions as unit clauses,
        // and the final no-assumption verdict must be unchanged.
        for _ in 0..8 {
            let n_assumptions = 1 + (rng.next() as usize) % 3;
            let mut assumptions = Vec::with_capacity(n_assumptions);
            for _ in 0..n_assumptions {
                assumptions.push(random_lit(&mut rng, n_vars));
            }
            let got = s.solve_with(&assumptions);
            let want = brute_force(&clauses, &assumptions, n_vars);
            assert_eq!(got, want, "round {round}, assumptions {assumptions:?}");
            if got {
                assert!(model_satisfies(&s, &clauses));
                for a in &assumptions {
                    assert_eq!(s.value(a.var()), Some(!a.is_negative()));
                }
            }
        }
        assert_eq!(s.solve(), base, "round {round}: assumptions must be undone");
    }
}

#[test]
fn reduce_db_under_assumptions_keeps_verdicts_and_bounds_the_arena() {
    // A capped solver is forced through many learnt-DB reductions while
    // answering assumption queries; every verdict must equal both the
    // uncapped solver's and brute force, and the capped arena must stay
    // within a fixed envelope of the problem clauses while the uncapped
    // one grows monotonically.
    let mut rng = XorShift(0x2ED0_CEDB_0000_0007);
    for round in 0..8 {
        let n_vars = 10 + (rng.next() as usize) % 3; // 10..=12
        let n_clauses = 38 + (rng.next() as usize) % 18;
        let clauses = random_cnf(&mut rng, n_vars, n_clauses, 3);
        let mut capped = Solver::new();
        capped.set_learnt_limit(8);
        let mut free = Solver::new();
        for _ in 0..n_vars {
            capped.new_var();
            free.new_var();
        }
        for c in &clauses {
            capped.add_clause(c);
            free.add_clause(c);
        }
        let problem_words = capped.arena_words();
        for q in 0..25 {
            let n_assumptions = 1 + (rng.next() as usize) % 4;
            let mut assumptions = Vec::with_capacity(n_assumptions);
            for _ in 0..n_assumptions {
                assumptions.push(random_lit(&mut rng, n_vars));
            }
            let vc = capped.solve_with(&assumptions);
            assert_eq!(
                vc,
                free.solve_with(&assumptions),
                "round {round}, query {q}: capped and uncapped verdicts differ"
            );
            assert_eq!(
                vc,
                brute_force(&clauses, &assumptions, n_vars),
                "round {round}, query {q}: wrong verdict"
            );
            if vc {
                assert!(model_satisfies(&capped, &clauses));
            }
        }
        // The cap is on cold learnts (glue and locked clauses are
        // exempt), so the envelope is the problem size plus a fixed
        // learnt allowance — far below unbounded growth.
        assert!(
            capped.arena_words() <= problem_words + 64 * (n_vars + 1),
            "round {round}: capped arena grew to {} words ({} problem)",
            capped.arena_words(),
            problem_words
        );
        if free.n_learnts() > 16 {
            assert!(
                capped.n_reductions() > 0,
                "round {round}: the cap never triggered a reduction"
            );
            assert!(
                capped.arena_words() < free.arena_words(),
                "round {round}: reduction did not shrink the arena ({} vs {})",
                capped.arena_words(),
                free.arena_words()
            );
        }
    }
}

#[test]
fn pigeonhole_8_into_8_with_a_closed_hole_is_unsat_then_sat() {
    // Pigeonhole 8-into-8 with the last hole closed by eight assumptions
    // is pigeonhole 8-into-7: unsatisfiable by counting, and conflict-
    // heavy enough to take the solver at its default learnt limit
    // through both phases of its EMA restart schedule and through
    // learnt-DB reductions. Without the assumptions every pigeon has a
    // hole of its own, so the same solver must then find a model.
    const N: usize = 8;
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..N)
        .map(|_| (0..N).map(|_| s.new_var()).collect())
        .collect();
    let mut clauses: Vec<Vec<Lit>> = p
        .iter()
        .map(|row| row.iter().map(|&v| Lit::pos(v)).collect())
        .collect();
    for j in 0..N {
        for a in 0..N {
            for b in (a + 1)..N {
                clauses.push(vec![Lit::neg(p[a][j]), Lit::neg(p[b][j])]);
            }
        }
    }
    for c in &clauses {
        s.add_clause(c);
    }
    let last_hole_closed: Vec<Lit> = p.iter().map(|row| Lit::neg(row[N - 1])).collect();
    assert!(
        !s.solve_with(&last_hole_closed),
        "8 pigeons cannot sit alone in 7 holes"
    );
    assert!(
        s.n_reductions() > 0,
        "the refutation must reduce the learnt DB at the default limit"
    );
    assert!(s.solve(), "8 pigeons fit 8 holes once the assumptions go");
    assert!(model_satisfies(&s, &clauses), "model violates a clause");
}

#[test]
fn sharded_sweep_matches_serial_for_every_shard_count() {
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let present = optimal_sboxes();
    let circuit = random_camouflage(&present[0], &lib, &camo).expect("buildable");
    let candidates = &present[..5];
    let serial = plausibility_sweep_in(&space, &circuit, candidates, &sharded(1));
    for shards in [1usize, 2, 4] {
        let got = plausibility_sweep_in(&space, &circuit, candidates, &sharded(shards));
        assert_eq!(
            serial, got,
            "sharded sweep with {shards} shards diverged from serial"
        );
    }
}

#[test]
fn plausibility_sweep_matches_per_candidate_queries_on_attack_corpus() {
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let present = optimal_sboxes();
    // The batched incremental-solver verdicts must equal fresh
    // per-candidate encodings.
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let circuit = random_camouflage(&present[0], &lib, &camo).expect("buildable");
    let candidates = &present[..5];
    let swept = plausibility_sweep_in(&space, &circuit, candidates, &AnyIoOptions::default());
    assert_eq!(swept.len(), candidates.len());
    for (j, (f, verdict)) in candidates.iter().zip(&swept).enumerate() {
        assert_eq!(
            verdict.plausible,
            sat_oracle(&space, &circuit, std::slice::from_ref(f))[0],
            "PRESENT candidate {j}"
        );
    }
    assert!(swept[0].plausible, "the true function is always plausible");
    // A second sweep over a fresh encoding of the same netlist must agree
    // verdict for verdict (the learnt clauses kept in the arena across
    // queries never change answers).
    let again = plausibility_sweep_in(&space, &circuit, candidates, &AnyIoOptions::default());
    assert_eq!(swept, again, "sweeps over one netlist are deterministic");
}

#[test]
fn designed_circuit_sweep_is_all_true() {
    // The full designed flow (merge → synthesize → camouflage-map) must
    // keep every viable function plausible under the batched adversary.
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let funcs = optimal_sboxes()[..2].to_vec();
    let assignment = mvf_merge::PinAssignment::identity(&funcs);
    let merged = mvf_merge::build_merged(&funcs, &assignment).expect("mergeable");
    let synthesized = mvf_aig::Script::fast().run(&merged.aig);
    let subject = mvf_netlist::subject_graph::from_aig(&synthesized, &lib);
    let mapped = mvf_techmap::map_camouflage(
        &subject,
        &lib,
        &camo,
        &merged.select_indices,
        &mvf_techmap::CamoMapOptions::default(),
    )
    .expect("mappable");
    let verdicts = plausibility_sweep_in(
        &space,
        &mapped.netlist,
        &merged.functions,
        &AnyIoOptions::default(),
    );
    assert!(
        verdicts.iter().all(|v| v.plausible),
        "verdicts: {verdicts:?}"
    );
}

/// The 3-bit any-IO corpus: a camouflaged netlist plus candidates that
/// exercise every verdict shape — a scrambled variant of the true
/// function (plausible under a non-identity interpretation), the true
/// function itself (identity witness), an input-symmetric candidate
/// (pruning collapses whole permutation classes) and an implausible one
/// (full orbit refutation).
fn any_io_corpus() -> (
    Library,
    CamoLibrary,
    mvf_netlist::Netlist,
    Vec<VectorFunction>,
) {
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let lut3 = |t: &[u16; 8]| VectorFunction::from_lookup_table(3, 3, t).unwrap();
    let f = lut3(&[1, 0, 3, 2, 5, 7, 6, 4]);
    let circuit = random_camouflage(&f, &lib, &camo).expect("buildable");
    let scrambled = f
        .permute_inputs(&[1, 2, 0])
        .unwrap()
        .permute_outputs(&[2, 0, 1])
        .unwrap();
    let sym = {
        use mvf_logic::TruthTable;
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        VectorFunction::new(
            3,
            vec![
                a.and(&b).and(&c),
                a.xor(&b).xor(&c),
                TruthTable::from_fn(3, |m| m.count_ones() >= 2),
            ],
        )
    };
    let candidates = vec![scrambled, f, sym, lut3(&[0, 1, 2, 3, 4, 5, 6, 7])];
    (lib, camo, circuit, candidates)
}

/// Brute-force interpretation freedom: materialize every `(in_perm,
/// out_perm)` pair (input-permutation major, lexicographic — the sweep's
/// enumeration order), settle each transformed function with
/// [`sat_oracle`], and report the first satisfying pair.
fn brute_force_any_io(
    nl: &Netlist,
    lib: &Library,
    camo: &CamoLibrary,
    candidate: &VectorFunction,
) -> (bool, Option<IoInterpretation>) {
    let mut interps = Vec::new();
    let mut transformed = Vec::new();
    for ip in all_permutations(candidate.n_inputs()) {
        for op in all_permutations(candidate.n_outputs()) {
            let g = candidate.permute_inputs(&ip).unwrap();
            transformed.push(g.permute_outputs(&op).unwrap());
            interps.push(IoInterpretation::from_perms(ip.clone(), op));
        }
    }
    let space = ObfuscationSpace::camouflage(lib, camo);
    let first = sat_oracle(&space, nl, &transformed).iter().position(|&p| p);
    (first.is_some(), first.map(|i| interps[i].clone()))
}

/// Every NPN interpretation in the sweep's enumeration order: input
/// permutations outermost, then input negation masks along the Gray
/// code, then output permutations, then output negation masks (Gray
/// again) — the flat-index layout the orbit walk commits to.
fn npn_interpretations(n_in: usize, n_out: usize) -> Vec<IoInterpretation> {
    let gray = |p: u32| p ^ (p >> 1);
    let mut all = Vec::new();
    for ip in all_permutations(n_in) {
        for ig in 0..1u32 << n_in {
            for op in all_permutations(n_out) {
                for og in 0..1u32 << n_out {
                    all.push(IoInterpretation {
                        in_perm: ip.clone(),
                        in_neg: gray(ig),
                        out_perm: op.clone(),
                        out_neg: gray(og),
                    });
                }
            }
        }
    }
    all
}

#[test]
fn any_io_sweep_matches_brute_force_and_every_shard_count() {
    let (lib, camo, full_circuit, candidates) = any_io_corpus();
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    // The fully camouflaged corpus circuit, and a mixed one of the same
    // function with standard gates between the camouflaged ones (every
    // third gate camouflaged).
    let mixed_circuit =
        mvf_attack::partial_camouflage(&candidates[1], &lib, &camo, 3).expect("buildable");
    for (name, circuit) in [("full", full_circuit), ("mixed", mixed_circuit)] {
        let serial = plausibility_sweep_any_io_in(&space, &circuit, &candidates, &sharded(1));
        assert_eq!(serial.len(), candidates.len());
        // Serial sweep vs. brute-force permutation enumeration: verdict
        // and witness must coincide exactly (the sweep's witness is
        // defined as the first satisfying pair in the same enumeration
        // order).
        for (j, (f, v)) in candidates.iter().zip(&serial).enumerate() {
            let (want, want_witness) = brute_force_any_io(&circuit, &lib, &camo, f);
            assert_eq!(v.plausible, want, "{name}, candidate {j}: verdict");
            assert_eq!(v.witness, want_witness, "{name}, candidate {j}: witness");
            assert_eq!(v.orbit, 36, "{name}, candidate {j}: 3! · 3! orbit");
            assert!(v.unique <= v.orbit);
            if !v.plausible {
                assert_eq!(
                    v.queries + v.screened,
                    v.unique,
                    "{name}, candidate {j}: a refutation must cover every \
                     representative (screened SAT-free or queried)"
                );
            }
        }
        // The corpus covers both polarities.
        assert!(serial[0].plausible, "{name}: scrambled true function");
        assert!(
            serial[1].plausible,
            "{name}: true function, identity witness"
        );
        assert_eq!(
            serial[1].witness,
            Some(IoInterpretation::from_perms(vec![0, 1, 2], vec![0, 1, 2])),
            "{name}: identity interpretation is orbit index 0"
        );
        assert!(
            !serial[3].plausible,
            "{name}: the identity LUT is not in the orbit"
        );
        // Sharded sweeps: bit-identical verdicts *and* witnesses for
        // every shard count (queries may differ — early exit is
        // cooperative).
        let key = |vs: &[AnyIoVerdict]| -> Vec<(bool, Option<IoInterpretation>)> {
            vs.iter()
                .map(|v| (v.plausible, v.witness.clone()))
                .collect()
        };
        for shards in [1usize, 2, 4] {
            let got = plausibility_sweep_any_io_in(&space, &circuit, &candidates, &sharded(shards));
            assert_eq!(key(&serial), key(&got), "{name}, shards = {shards}");
        }
    }
}

#[test]
fn any_io_pruning_never_changes_a_verdict_and_strictly_cuts_queries() {
    let (lib, camo, circuit, candidates) = any_io_corpus();
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    // Screening off: this test isolates the effect of signature pruning
    // on the SAT query count.
    let pruned = plausibility_sweep_any_io_in(
        &space,
        &circuit,
        &candidates,
        &AnyIoOptions {
            shards: 1,
            screen: false,
            ..AnyIoOptions::default()
        },
    );
    for (j, (f, p)) in candidates.iter().zip(&pruned).enumerate() {
        let (want, want_witness) = brute_force_any_io(&circuit, &lib, &camo, f);
        assert_eq!(p.plausible, want, "candidate {j}: verdict");
        assert_eq!(p.witness, want_witness, "candidate {j}: witness");
    }
    // The input-symmetric candidate (index 2) collapses its 36-point
    // orbit to the 6 output permutations — strictly fewer queries than
    // the brute force's one per orbit point on this ≥3-input block.
    assert_eq!(pruned[2].unique, 6, "input symmetry leaves only out-perms");
    assert!(
        pruned[2].queries < pruned[2].orbit,
        "pruning must issue strictly fewer queries ({} vs {})",
        pruned[2].queries,
        pruned[2].orbit
    );
}

#[test]
fn any_io_witnesses_satisfy_their_interpretation() {
    let (lib, camo, circuit, candidates) = any_io_corpus();
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let verdicts = plausibility_sweep_any_io_in(&space, &circuit, &candidates, &sharded(2));
    let mut witnessed = 0;
    for (f, v) in candidates.iter().zip(&verdicts) {
        if let Some(w) = &v.witness {
            assert!(v.plausible, "witness implies plausible");
            let g = w.apply(f).unwrap();
            assert!(
                sat_oracle(&space, &circuit, &[g])[0],
                "reported witness must satisfy the identity-interpretation test"
            );
            witnessed += 1;
        }
    }
    assert!(witnessed >= 2, "the corpus has plausible candidates");
}

/// The 3-bit NPN corpus: the camouflaged netlist of one function plus
/// candidates covering every verdict shape under the *complete* NPN
/// group — an NPN-transformed copy of the true function (plausible with
/// a negation-bearing witness), the true function itself (identity
/// witness), and a function outside every realizable NPN class (full
/// 2304-point refutation; verified against brute force below).
fn npn_corpus() -> (
    Library,
    CamoLibrary,
    mvf_netlist::Netlist,
    Vec<VectorFunction>,
) {
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let lut3 = |t: &[u16; 8]| VectorFunction::from_lookup_table(3, 3, t).unwrap();
    let f = lut3(&[1, 0, 3, 2, 5, 7, 6, 4]);
    let circuit = random_camouflage(&f, &lib, &camo).expect("buildable");
    let transform = IoInterpretation {
        in_perm: vec![1, 2, 0],
        in_neg: 0b101,
        out_perm: vec![2, 0, 1],
        out_neg: 0b011,
    };
    let candidates = vec![
        transform.apply(&f).unwrap(),
        f,
        lut3(&[7, 1, 0, 2, 4, 3, 6, 5]),
    ];
    (lib, camo, circuit, candidates)
}

#[test]
fn npn_sweep_matches_batched_brute_force_on_the_full_orbit() {
    // The oracle enumerates all 3!·2³·3!·2³ = 2304 NPN interpretations
    // with public logic primitives in the layout order the sweep commits
    // to, materializes every transformed function, and settles them with
    // `sat_oracle` — an independent code path (no screen, orbit walk,
    // unranking or work loop). Verdict AND witness transform must
    // coincide exactly: the sweep's witness is defined as the first
    // satisfying interpretation in this order.
    let (lib, camo, circuit, candidates) = npn_corpus();
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let interps = npn_interpretations(3, 3);
    assert_eq!(interps.len(), 2304, "3! · 2^3 · 3! · 2^3");
    let opts = AnyIoOptions {
        npn: true,
        ..AnyIoOptions::default()
    };
    let serial = plausibility_sweep_any_io_in(&space, &circuit, &candidates, &opts);
    for (j, (f, v)) in candidates.iter().zip(&serial).enumerate() {
        let orbit_fns: Vec<VectorFunction> = interps.iter().map(|t| t.apply(f).unwrap()).collect();
        let oracle = sat_oracle(&space, &circuit, &orbit_fns);
        let want = oracle.iter().position(|&p| p);
        assert_eq!(v.plausible, want.is_some(), "candidate {j}: verdict");
        assert_eq!(
            v.witness,
            want.map(|i| interps[i].clone()),
            "candidate {j}: witness transform"
        );
        assert_eq!(v.orbit, 2304, "candidate {j}: full NPN orbit");
        assert!(v.unique <= v.orbit);
        if !v.plausible {
            assert_eq!(
                v.queries + v.screened,
                v.unique,
                "candidate {j}: a refutation must cover every representative"
            );
        }
    }
    assert!(serial[0].plausible, "NPN-transformed true function");
    assert!(serial[1].plausible, "true function");
    assert!(
        serial[1]
            .witness
            .as_ref()
            .is_some_and(IoInterpretation::is_identity),
        "the identity interpretation is NPN orbit index 0"
    );
    let w0 = serial[0].witness.as_ref().expect("plausible has a witness");
    assert!(
        w0.in_neg != 0 || w0.out_neg != 0,
        "the transformed copy needs a polarity flip: {w0:?}"
    );
    assert!(!serial[2].plausible, "outside every realizable NPN class");
    // Sharded sweeps: identical verdicts and witnesses for every shard
    // count (query counts may differ — early exit is cooperative).
    let key = |vs: &[AnyIoVerdict]| -> Vec<(bool, Option<IoInterpretation>)> {
        vs.iter()
            .map(|v| (v.plausible, v.witness.clone()))
            .collect()
    };
    for shards in [1usize, 2, 4] {
        let sharded = plausibility_sweep_any_io_in(
            &space,
            &circuit,
            &candidates,
            &AnyIoOptions {
                shards,
                ..opts.clone()
            },
        );
        assert_eq!(key(&serial), key(&sharded), "shards = {shards}");
    }
}

#[test]
fn npn_class_sharing_never_changes_answers_and_cuts_work_by_the_class_size() {
    // A duplicate-seeded batch: one NPN-implausible function plus two
    // NPN-transformed copies — three members of one interpretation
    // class, each of which would refute the same 1152 orbit functions.
    // Class sharing must leave every verdict and witness untouched while
    // cutting total work (SAT queries + screen passes) by at least the
    // duplication factor: the first member pays for the class, the
    // others resolve every representative from the shared verdict cache.
    let (lib, camo, circuit, _) = npn_corpus();
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let c = VectorFunction::from_lookup_table(3, 3, &[7, 1, 0, 2, 4, 3, 6, 5]).unwrap();
    let t1 = IoInterpretation {
        in_perm: vec![1, 2, 0],
        in_neg: 0b011,
        out_perm: vec![2, 0, 1],
        out_neg: 0b100,
    };
    let t2 = IoInterpretation {
        in_perm: vec![2, 0, 1],
        in_neg: 0b110,
        out_perm: vec![1, 2, 0],
        out_neg: 0b001,
    };
    let trio = vec![c.clone(), t1.apply(&c).unwrap(), t2.apply(&c).unwrap()];
    let npn = AnyIoOptions {
        npn: true,
        ..AnyIoOptions::default()
    };
    let solo = plausibility_sweep_any_io_in(&space, &circuit, &trio, &npn);
    let shared = plausibility_sweep_any_io_in(
        &space,
        &circuit,
        &trio,
        &AnyIoOptions {
            class_share: true,
            ..npn.clone()
        },
    );
    for (j, (a, b)) in solo.iter().zip(&shared).enumerate() {
        assert_eq!(a.plausible, b.plausible, "member {j}: verdict");
        assert_eq!(a.witness, b.witness, "member {j}: witness");
        assert!(!b.plausible, "member {j}: the whole class is implausible");
        assert_eq!(a.unique, b.unique, "member {j}: dedup is share-independent");
        // Without sharing every candidate is its own class; with it the
        // batch collapses into one class of three.
        assert_eq!((a.class, a.class_size), (j, 1), "member {j}: solo class");
        assert_eq!((b.class, b.class_size), (0, 3), "member {j}: shared class");
    }
    // Later class members inherit the first member's refutations without
    // issuing a single SAT query of their own.
    assert_eq!(shared[1].queries, 0, "member 1 rides the verdict cache");
    assert_eq!(shared[2].queries, 0, "member 2 rides the verdict cache");
    let cost = |vs: &[AnyIoVerdict]| -> usize { vs.iter().map(|v| v.queries + v.screened).sum() };
    let (solo_cost, shared_cost) = (cost(&solo), cost(&shared));
    assert!(shared_cost > 0, "the class owner still pays");
    assert!(
        solo_cost >= 3 * shared_cost,
        "sharing must cut work by at least the duplication factor \
         ({solo_cost} solo vs {shared_cost} shared)"
    );
}

#[test]
fn npn_sharded_sweep_with_sharing_is_consistent() {
    // Everything on at once: the full NPN orbit, cross-candidate class
    // sharing, and 1/2/4 shards must all agree on every verdict and
    // witness (query counts may differ under sharded sharing — cache
    // races are benign).
    let (lib, camo, circuit, candidates) = npn_corpus();
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let opts = AnyIoOptions {
        npn: true,
        class_share: true,
        ..AnyIoOptions::default()
    };
    let serial = plausibility_sweep_any_io_in(&space, &circuit, &candidates, &opts);
    // The transformed copy walks the true function's whole orbit, so the
    // true function itself joins its class.
    assert_eq!(
        (serial[0].class, serial[0].class_size),
        (0, 2),
        "transform and original share a class"
    );
    assert_eq!((serial[1].class, serial[1].class_size), (0, 2));
    assert_eq!((serial[2].class, serial[2].class_size), (1, 1));
    let key = |vs: &[AnyIoVerdict]| -> Vec<(bool, Option<IoInterpretation>)> {
        vs.iter()
            .map(|v| (v.plausible, v.witness.clone()))
            .collect()
    };
    for shards in [1usize, 2, 4] {
        let sharded = plausibility_sweep_any_io_in(
            &space,
            &circuit,
            &candidates,
            &AnyIoOptions {
                shards,
                ..opts.clone()
            },
        );
        assert_eq!(key(&serial), key(&sharded), "shards = {shards}");
    }
}

#[test]
fn propagation_heavy_stress() {
    // A 20k-variable implication chain: every query triggers a full-length
    // unit-propagation cascade through the arena's watch lists, and the
    // same database answers many assumption queries in place.
    const N: usize = 20_000;
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..N).map(|_| s.new_var()).collect();
    for w in vars.windows(2) {
        s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
    }
    // Forward chain: assuming the head forces the whole chain true.
    assert!(s.solve_with(&[Lit::pos(vars[0])]));
    assert_eq!(s.value(vars[N - 1]), Some(true));
    // Contradictory endpoints are refuted by pure propagation.
    assert!(!s.solve_with(&[Lit::pos(vars[0]), Lit::neg(vars[N - 1])]));
    // Mid-chain assumptions, repeated to exercise database reuse.
    for k in [1usize, N / 2, N - 2] {
        assert!(s.solve_with(&[Lit::pos(vars[k])]));
        assert_eq!(s.value(vars[N - 1]), Some(true));
    }
    // The instance without assumptions stays satisfiable.
    assert!(s.solve());

    // A conflict-heavy UNSAT core on the same solver style: pigeonhole
    // 5 into 4 forces real clause learning and restarts.
    let mut s = Solver::new();
    let mut p = vec![[Var(0); 4]; 5];
    for row in p.iter_mut() {
        for slot in row.iter_mut() {
            *slot = s.new_var();
        }
    }
    for row in &p {
        let lits: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        s.add_clause(&lits);
    }
    #[allow(clippy::needless_range_loop)]
    for j in 0..4 {
        for a in 0..5 {
            for b in (a + 1)..5 {
                s.add_clause(&[Lit::neg(p[a][j]), Lit::neg(p[b][j])]);
            }
        }
    }
    let before = s.n_clauses();
    assert!(!s.solve());
    assert!(
        s.n_clauses() > before,
        "conflict learning must grow the clause arena"
    );
}

/// The screening demo circuit: three camouflaged cells (NAND2(a,b) → y0,
/// INV(c) → y1, AND2(y0,y1) → y2) keep the doping-configuration product
/// at 5 · 3 · 5 = 75 — enumerable, so the screen engages — and three
/// inputs keep the batch complete (every minterm covered), so the screen
/// is exact. Returns the library pair, the netlist and its true function
/// under the look-alike reading.
fn screen_demo() -> (Library, CamoLibrary, mvf_netlist::Netlist, VectorFunction) {
    use mvf_netlist::{CellRef, Netlist};
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let camo_id = |name: &str| {
        camo.iter()
            .find(|(_, cc)| cc.name() == name)
            .expect("camouflaged cell exists")
            .0
    };
    let mut nl = Netlist::new("screen_demo".to_string());
    let a = nl.add_input("a".to_string());
    let b = nl.add_input("b".to_string());
    let c = nl.add_input("c".to_string());
    let (_, y0) = nl.add_cell(
        "u0".to_string(),
        CellRef::Camo(camo_id("NAND2")),
        vec![a, b],
    );
    let (_, y1) = nl.add_cell("u1".to_string(), CellRef::Camo(camo_id("INV")), vec![c]);
    let (_, y2) = nl.add_cell(
        "u2".to_string(),
        CellRef::Camo(camo_id("AND2")),
        vec![y0, y1],
    );
    nl.add_output("y0".to_string(), y0);
    nl.add_output("y1".to_string(), y1);
    nl.add_output("y2".to_string(), y2);
    let table: Vec<u16> = (0..8u16)
        .map(|m| {
            let (a, b, c) = (m & 1, (m >> 1) & 1, (m >> 2) & 1);
            let y0 = 1 - (a & b);
            let y1 = 1 - c;
            y0 | (y1 << 1) | ((y0 & y1) << 2)
        })
        .collect();
    let truth = VectorFunction::from_lookup_table(3, 3, &table).unwrap();
    (lib, camo, nl, truth)
}

#[test]
fn any_io_screening_never_changes_a_verdict_or_witness() {
    // On the random-camouflage corpus the configuration product exceeds
    // the screening cap, so the screen projects onto the output cones
    // that fit it and refutes from those — the screened path must still
    // be bit-identical to the SAT-only sweep there too.
    let (lib, camo, circuit, candidates) = any_io_corpus();
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let on = plausibility_sweep_any_io_in(&space, &circuit, &candidates, &AnyIoOptions::default());
    let off = plausibility_sweep_any_io_in(
        &space,
        &circuit,
        &candidates,
        &AnyIoOptions {
            screen: false,
            ..AnyIoOptions::default()
        },
    );
    for (j, (von, voff)) in on.iter().zip(&off).enumerate() {
        assert_eq!(von.plausible, voff.plausible, "candidate {j}: verdict");
        assert_eq!(von.witness, voff.witness, "candidate {j}: witness");
        assert_eq!(
            von.unique, voff.unique,
            "candidate {j}: pruning is screen-independent"
        );
        assert_eq!(von.orbit, voff.orbit, "candidate {j}: orbit size");
    }
    // Screened counts are computed serially up front, so they are
    // deterministic for every shard count (queries may differ — the
    // plausible early exit is cooperative).
    for shards in [2usize, 4] {
        let sharded = plausibility_sweep_any_io_in(
            &space,
            &circuit,
            &candidates,
            &AnyIoOptions {
                shards,
                ..AnyIoOptions::default()
            },
        );
        for (j, (a, b)) in on.iter().zip(&sharded).enumerate() {
            assert_eq!(
                (a.plausible, &a.witness, a.screened, a.unique, a.orbit),
                (b.plausible, &b.witness, b.screened, b.unique, b.orbit),
                "candidate {j}: shards = {shards}"
            );
        }
    }
}

#[test]
fn complete_screen_matches_brute_force_with_zero_sat_queries() {
    let (lib, camo, nl, truth) = screen_demo();
    let lut3 = |t: &[u16; 8]| VectorFunction::from_lookup_table(3, 3, t).unwrap();
    let candidates = vec![
        truth.clone(),
        // Pin-scrambled copy: plausible with a mid-orbit witness.
        truth
            .permute_inputs(&[2, 0, 1])
            .unwrap()
            .permute_outputs(&[1, 2, 0])
            .unwrap(),
        lut3(&[0, 1, 2, 3, 4, 5, 6, 7]),
        lut3(&[1, 0, 3, 2, 5, 7, 6, 4]),
    ];
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let screen = ConfigScreen::build_in(&space, &nl, &candidates, DEFAULT_SCREEN_VECTORS)
        .expect("the 75-configuration product is enumerable");
    assert!(screen.is_complete(), "8 minterms fit in any batch");
    assert_eq!(
        screen.n_vectors(),
        64,
        "minterms cycled up to word granularity"
    );
    let on = plausibility_sweep_any_io_in(&space, &nl, &candidates, &AnyIoOptions::default());
    let off = plausibility_sweep_any_io_in(
        &space,
        &nl,
        &candidates,
        &AnyIoOptions {
            screen: false,
            ..AnyIoOptions::default()
        },
    );
    for (j, (f, (von, voff))) in candidates.iter().zip(on.iter().zip(&off)).enumerate() {
        let (want, want_witness) = brute_force_any_io(&nl, &lib, &camo, f);
        assert_eq!(von.plausible, want, "candidate {j}: verdict (screen on)");
        assert_eq!(
            von.witness, want_witness,
            "candidate {j}: witness (screen on)"
        );
        assert_eq!(voff.plausible, want, "candidate {j}: verdict (screen off)");
        assert_eq!(
            voff.witness, want_witness,
            "candidate {j}: witness (screen off)"
        );
        // A complete screen is exact: it settles every orbit
        // representative — confirmations and refutations — SAT-free.
        assert_eq!(
            von.queries, 0,
            "candidate {j}: complete screen needs no SAT"
        );
        if von.plausible {
            assert!(
                von.screened >= 1,
                "candidate {j}: the witness was confirmed SAT-free"
            );
        } else {
            assert_eq!(
                von.screened, von.unique,
                "candidate {j}: a refutation covers every representative"
            );
        }
    }
    assert!(on[0].plausible, "the true function is plausible");
    assert!(on[1].plausible, "the scrambled copy is plausible");
    // With every representative settled up front and zero SAT queries,
    // whole verdicts — counters included — are shard-invariant.
    for shards in [2usize, 4] {
        let sharded = plausibility_sweep_any_io_in(
            &space,
            &nl,
            &candidates,
            &AnyIoOptions {
                shards,
                ..AnyIoOptions::default()
            },
        );
        assert_eq!(on, sharded, "shards = {shards}");
    }
}

#[test]
fn surviving_config_masks_match_exhaustive_enumeration() {
    let (lib, camo, nl, truth) = screen_demo();
    let lut3 = |t: &[u16; 8]| VectorFunction::from_lookup_table(3, 3, t).unwrap();
    let candidates = vec![
        truth,
        lut3(&[0, 1, 2, 3, 4, 5, 6, 7]),
        lut3(&[1, 0, 3, 2, 5, 7, 6, 4]),
        lut3(&[7, 7, 7, 7, 0, 0, 0, 0]),
    ];
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let screen = ConfigScreen::build_in(&space, &nl, &candidates, DEFAULT_SCREEN_VECTORS)
        .expect("the 75-configuration product is enumerable");
    assert!(screen.is_complete());
    // Mirror the documented configuration order: camouflaged cells in
    // netlist topological order, the last cell varying fastest, each
    // cell's plausible set in its sorted order.
    let mut cells = Vec::new();
    for cid in nl.topo_cells() {
        if let mvf_netlist::CellRef::Camo(id) = nl.cell(cid).cell {
            cells.push((cid, camo.cell(id).plausible().to_vec()));
        }
    }
    let n_cfg: usize = cells.iter().map(|(_, p)| p.len()).product();
    assert_eq!(n_cfg, 75, "NAND2 x INV x AND2 = 5 * 3 * 5");
    for (j, f) in candidates.iter().enumerate() {
        let mask = screen.survivors(f).expect("a whole-product screen");
        assert_eq!(
            mask.len(),
            n_cfg,
            "candidate {j}: one mask bit per configuration"
        );
        let mut odometer = vec![0usize; cells.len()];
        for (cfg_idx, &survives) in mask.iter().enumerate() {
            let config: std::collections::HashMap<_, _> = cells
                .iter()
                .zip(&odometer)
                .map(|((cid, p), &d)| (*cid, p[d].clone()))
                .collect();
            let outs = mvf_sim::eval_camo_netlist(&nl, &lib, &camo, &config)
                .expect("enumerated bindings are plausible");
            let agrees = (0..8usize).all(|m| {
                let want = f.eval(m);
                outs.iter()
                    .enumerate()
                    .all(|(o, tt)| tt.get(m) == ((want >> o) & 1 == 1))
            });
            assert_eq!(
                survives, agrees,
                "candidate {j}, configuration {cfg_idx}: the mask must equal \
                 exhaustive per-configuration evaluation"
            );
            // Advance the odometer, last cell fastest.
            let mut pos = cells.len();
            while pos > 0 {
                pos -= 1;
                odometer[pos] += 1;
                if odometer[pos] < cells[pos].1.len() {
                    break;
                }
                odometer[pos] = 0;
            }
        }
        // A complete screen's survivor set is exactly the SAT question:
        // does some configuration realize the candidate?
        assert_eq!(
            mask.iter().any(|&s| s),
            sat_oracle(&space, &nl, std::slice::from_ref(f))[0],
            "candidate {j}: any surviving configuration == identity plausibility"
        );
    }
}

/// A 7-input, 5-camo-cell circuit for the sampling regime: 2^7 = 128
/// minterms exceed a 64-vector batch, so the screen samples (SplitMix64)
/// and can only refute, never confirm. The configuration product
/// 5^5 = 3125 still fits the enumeration cap.
fn sampling_demo() -> (Library, CamoLibrary, mvf_netlist::Netlist, VectorFunction) {
    use mvf_netlist::{CellRef, Netlist};
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let camo_id = |name: &str| {
        camo.iter()
            .find(|(_, cc)| cc.name() == name)
            .expect("camouflaged cell exists")
            .0
    };
    let mut nl = Netlist::new("sampling_demo".to_string());
    let ins: Vec<_> = ["a", "b", "c", "d", "e", "f", "g"]
        .iter()
        .map(|n| nl.add_input((*n).to_string()))
        .collect();
    let nand2 = camo_id("NAND2");
    let and2 = camo_id("AND2");
    let (_, u0) = nl.add_cell("u0".to_string(), CellRef::Camo(nand2), vec![ins[0], ins[1]]);
    let (_, u1) = nl.add_cell("u1".to_string(), CellRef::Camo(nand2), vec![ins[2], ins[3]]);
    let (_, u2) = nl.add_cell("u2".to_string(), CellRef::Camo(nand2), vec![ins[4], ins[5]]);
    let (_, u3) = nl.add_cell("u3".to_string(), CellRef::Camo(and2), vec![u0, u1]);
    let (_, u4) = nl.add_cell("u4".to_string(), CellRef::Camo(and2), vec![u2, ins[6]]);
    nl.add_output("y0".to_string(), u3);
    nl.add_output("y1".to_string(), u4);
    let table: Vec<u16> = (0..128u16)
        .map(|m| {
            let bit = |i: u16| (m >> i) & 1;
            let y0 = (1 - (bit(0) & bit(1))) & (1 - (bit(2) & bit(3)));
            let y1 = (1 - (bit(4) & bit(5))) & bit(6);
            y0 | (y1 << 1)
        })
        .collect();
    let truth = VectorFunction::from_lookup_table(7, 2, &table).unwrap();
    (lib, camo, nl, truth)
}

#[test]
fn sampling_screen_refutes_chaff_without_changing_verdicts() {
    let (lib, camo, nl, truth) = sampling_demo();
    // A near-miss (one output bit flipped) plus deterministic chaff.
    let near_miss = {
        let mut table: Vec<u16> = (0..128usize).map(|m| truth.eval(m)).collect();
        table[0] ^= 1;
        VectorFunction::from_lookup_table(7, 2, &table).unwrap()
    };
    let mut rng = XorShift(0x5C2E_E45C);
    let mut random_fn = || {
        let table: Vec<u16> = (0..128).map(|_| (rng.next() % 4) as u16).collect();
        VectorFunction::from_lookup_table(7, 2, &table).unwrap()
    };
    let candidates = vec![truth.clone(), near_miss, random_fn(), random_fn()];
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let screen = ConfigScreen::build_in(&space, &nl, &candidates, 64)
        .expect("the 5^5 = 3125 configuration product is enumerable");
    assert!(
        !screen.is_complete(),
        "128 minterms exceed the 64-vector batch"
    );
    assert_eq!(screen.n_vectors(), 64);
    let sampled = |shards| AnyIoOptions {
        shards,
        screen_vectors: 64,
        ..AnyIoOptions::default()
    };
    let on = plausibility_sweep_in(&space, &nl, &candidates, &sampled(1));
    let off = plausibility_sweep_in(
        &space,
        &nl,
        &candidates,
        &AnyIoOptions {
            screen: false,
            ..AnyIoOptions::default()
        },
    );
    for (j, (von, voff)) in on.iter().zip(&off).enumerate() {
        assert_eq!(von.plausible, voff.plausible, "candidate {j}: verdict");
        assert_eq!(voff.screened, 0, "screen off never screens");
    }
    assert!(on[0].plausible, "the true function is plausible");
    assert_eq!(
        on[0].screened, 0,
        "a sampling screen never confirms — the true function goes to SAT"
    );
    assert!(
        on[2].screened == 1 && on[3].screened == 1 && !on[2].plausible && !on[3].plausible,
        "the deterministic batch refutes random chaff SAT-free"
    );
    // Sharded identity sweeps with sampling screening stay bit-identical.
    for shards in [2usize, 4] {
        let got = plausibility_sweep_in(&space, &nl, &candidates, &sampled(shards));
        assert_eq!(on, got, "shards = {shards}");
    }
    // Any-IO through the sampling screen: an early-witness candidate
    // (outputs swapped — witness at orbit index 1) must report the same
    // verdict and witness with and without screening.
    let swapped = truth.permute_outputs(&[1, 0]).unwrap();
    let von =
        plausibility_sweep_any_io_in(&space, &nl, std::slice::from_ref(&swapped), &sampled(1));
    let voff = plausibility_sweep_any_io_in(
        &space,
        &nl,
        std::slice::from_ref(&swapped),
        &AnyIoOptions {
            screen: false,
            ..AnyIoOptions::default()
        },
    );
    assert!(von[0].plausible && voff[0].plausible);
    assert_eq!(
        von[0].witness, voff[0].witness,
        "witness is screen-independent"
    );
    assert_eq!(
        von[0].witness,
        Some(IoInterpretation::from_perms(
            vec![0, 1, 2, 3, 4, 5, 6],
            vec![1, 0]
        )),
        "identity inputs, swapped outputs"
    );
}

/// A 13-input, 1-output netlist whose one camouflaged NAND2 reads inputs
/// 0 and 12. Its permutation orbit, 13!·1!, overflows the sweeps' `u32`
/// orbit indices; its identity orbit is one point. Returns the netlist
/// and its function under the look-alike reading.
fn wide_nand(camo: &CamoLibrary) -> (Netlist, VectorFunction) {
    use mvf_logic::TruthTable;
    let nand2 = camo
        .iter()
        .find(|(_, cc)| cc.name() == "NAND2")
        .expect("camouflaged cell exists")
        .0;
    let mut nl = Netlist::new("wide_nand");
    let ins: Vec<_> = (0..13).map(|i| nl.add_input(format!("x{i}"))).collect();
    let (_, y) = nl.add_cell(
        "u0",
        mvf_netlist::CellRef::Camo(nand2),
        vec![ins[0], ins[12]],
    );
    nl.add_output("y", y);
    let nand = TruthTable::var(0, 13).and(&TruthTable::var(12, 13)).not();
    (nl, VectorFunction::new(13, vec![nand]))
}

#[test]
fn identity_sweep_is_the_one_point_orbit() {
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let mut cases: Vec<(&str, Netlist, Vec<VectorFunction>, usize)> = Vec::new();
    // Projected screen: the any-IO corpus refutes all but its true
    // function from the output cones.
    let (_, _, circuit, candidates) = any_io_corpus();
    cases.push(("projected", circuit, candidates, DEFAULT_SCREEN_VECTORS));
    // No cone fits the cap: the screen stands down, every candidate goes
    // to SAT.
    let boxes = optimal_sboxes();
    let present = random_camouflage(&boxes[0], &lib, &camo).expect("buildable");
    cases.push((
        "stand-down",
        present,
        boxes[..4].to_vec(),
        DEFAULT_SCREEN_VECTORS,
    ));
    // A whole, complete screen settles every candidate.
    let (_, _, nl, truth) = screen_demo();
    let lut3 = |t: &[u16; 8]| VectorFunction::from_lookup_table(3, 3, t).unwrap();
    let chaff = vec![
        lut3(&[0, 1, 2, 3, 4, 5, 6, 7]),
        lut3(&[1, 0, 3, 2, 5, 7, 6, 4]),
    ];
    cases.push((
        "complete",
        nl,
        [vec![truth], chaff].concat(),
        DEFAULT_SCREEN_VECTORS,
    ));
    // A sampling screen refutes chaff and leaves the true function to SAT.
    let (_, _, nl, truth) = sampling_demo();
    let mut rng = XorShift(0x0AE0_1D00);
    let mut random_fn = || {
        let table: Vec<u16> = (0..128).map(|_| (rng.next() % 4) as u16).collect();
        VectorFunction::from_lookup_table(7, 2, &table).unwrap()
    };
    let candidates = vec![truth, random_fn(), random_fn()];
    cases.push(("sampling", nl, candidates, 64));
    // Past the orbit bound: a sweep that sized the identity orbit by
    // `checked_orbit` would refuse this shape.
    let (nl, truth) = wide_nand(&camo);
    assert!(checked_orbit(13, 1, false).is_none(), "13! overflows u32");
    let xor = truth
        .output(0)
        .not()
        .xor(&mvf_logic::TruthTable::var(5, 13));
    let wide = vec![truth.clone(), VectorFunction::new(13, vec![xor])];
    cases.push(("wide", nl, wide, DEFAULT_SCREEN_VECTORS));

    for (name, nl, candidates, vectors) in &cases {
        let screen = ConfigScreen::build_in(&space, nl, candidates, *vectors);
        let regime = match &screen {
            None => "stand-down",
            Some(s) if s.survivors(&candidates[0]).is_none() => "projected",
            Some(s) if s.is_complete() => "complete",
            Some(_) => "sampling",
        };
        assert_eq!(regime, if *name == "wide" { "sampling" } else { *name });
        let opts = |shards, screen| AnyIoOptions {
            shards,
            screen,
            screen_vectors: *vectors,
            ..AnyIoOptions::default()
        };
        let serial = plausibility_sweep_in(&space, nl, candidates, &opts(1, true));
        let oracle = sat_oracle(&space, nl, candidates);
        let identity = IoInterpretation::identity(nl.inputs().len(), nl.outputs().len());
        for (j, (v, &want)) in serial.iter().zip(&oracle).enumerate() {
            assert_eq!(v.plausible, want, "{name}, candidate {j}: verdict");
            assert_eq!((v.orbit, v.unique), (1, 1), "{name}, candidate {j}");
            assert_eq!(v.screened + v.queries, 1, "{name}, candidate {j}");
            assert_eq!(
                v.witness,
                want.then(|| identity.clone()),
                "{name}, candidate {j}: witness"
            );
        }
        assert!(
            oracle.contains(&true) && oracle.contains(&false),
            "{name}: both verdicts occur"
        );
        let screened = serial.iter().filter(|v| v.screened == 1).count();
        match regime {
            "stand-down" => assert_eq!(screened, 0, "{name}: every candidate goes to SAT"),
            "complete" => assert_eq!(screened, candidates.len(), "{name}: SAT-free"),
            _ => assert!(screened > 0, "{name}: the screen refutes chaff"),
        }
        for shards in [2, 4] {
            let got = plausibility_sweep_in(&space, nl, candidates, &opts(shards, true));
            assert_eq!(got, serial, "{name}, shards = {shards}");
        }
        let off = plausibility_sweep_in(&space, nl, candidates, &opts(1, false));
        for (j, (a, b)) in serial.iter().zip(&off).enumerate() {
            assert_eq!(
                (a.plausible, &a.witness, a.orbit, a.unique),
                (b.plausible, &b.witness, b.orbit, b.unique),
                "{name}, candidate {j}: screen on vs off"
            );
            assert_eq!((b.screened, b.queries), (0, 1), "{name}, candidate {j}");
        }
    }
}

/// A seeded netlist over `n_in` inputs: `n_std` random standard cells
/// with `n_sites` sites drawn from `site_cells` interleaved among them,
/// followed by the shapes constant folding must get right — BUF/INV
/// chains over a site output and over an input, an output driven
/// straight by a primary input, two outputs on one net, and an output
/// that is constant in every row where input 0 is 0. The first site's
/// first two pins read inputs 0 and 1, so a MUX key gate there has
/// agreeing choices in the rows where the two are equal.
fn folding_netlist(
    rng: &mut XorShift,
    lib: &Library,
    site_cells: &[mvf_cells::CamoCellId],
    choices: &CamoLibrary,
    n_in: usize,
    n_std: usize,
    n_sites: usize,
) -> mvf_netlist::Netlist {
    use mvf_cells::CellKind;
    use mvf_netlist::{CellRef, Netlist};
    let std_cells: Vec<_> = lib.iter().map(|(id, _)| id).collect();
    let cell = |kind| CellRef::Std(lib.cell_by_kind(kind).expect("standard cell"));
    let mut nl = Netlist::new("folding");
    let mut pool: Vec<_> = (0..n_in).map(|i| nl.add_input(format!("a{i}"))).collect();
    let inputs = pool.clone();
    let mut site_slots: Vec<usize> = Vec::new();
    while site_slots.len() < n_sites {
        let slot = (rng.next() as usize) % (n_std + n_sites);
        if !site_slots.contains(&slot) {
            site_slots.push(slot);
        }
    }
    let mut last_site = None;
    for slot in 0..(n_std + n_sites) {
        let (cell_ref, n_pins) = if site_slots.contains(&slot) {
            let id = site_cells[(rng.next() as usize) % site_cells.len()];
            (CellRef::Camo(id), choices.cell(id).n_inputs())
        } else {
            let id = std_cells[(rng.next() as usize) % std_cells.len()];
            (CellRef::Std(id), lib.cell(id).n_inputs())
        };
        let first_site = last_site.is_none() && matches!(cell_ref, CellRef::Camo(_));
        let pins = (0..n_pins)
            .map(|p| {
                if first_site && p < 2 {
                    inputs[p]
                } else {
                    pool[(rng.next() as usize) % pool.len()]
                }
            })
            .collect();
        let (_, y) = nl.add_cell(format!("u{slot}"), cell_ref, pins);
        if matches!(cell_ref, CellRef::Camo(_)) {
            last_site = Some(y);
        }
        pool.push(y);
    }
    let site = last_site.expect("at least one site");
    let (_, c0) = nl.add_cell("c0", cell(CellKind::Inv), vec![site]);
    let (_, c1) = nl.add_cell("c1", cell(CellKind::Buf), vec![c0]);
    let (_, c2) = nl.add_cell("c2", cell(CellKind::Inv), vec![c1]);
    let (_, k0) = nl.add_cell("k0", cell(CellKind::Inv), vec![inputs[0]]);
    let (_, k1) = nl.add_cell("k1", cell(CellKind::Buf), vec![k0]);
    let (_, gated) = nl.add_cell("g", cell(CellKind::And(2)), vec![inputs[0], site]);
    nl.add_output("chain", c2);
    nl.add_output("chain_inv", c1);
    nl.add_output("const_chain", k1);
    nl.add_output("input", inputs[n_in - 1]);
    let shared = pool[n_in + (rng.next() as usize) % (pool.len() - n_in)];
    nl.add_output("shared0", shared);
    nl.add_output("shared1", shared);
    nl.add_output("gated", gated);
    nl
}

/// Checks the encoding of `nl` against simulation: for every
/// configuration, assuming its selectors is satisfiable, the model's row
/// outputs equal `eval_vectors`, and forcing any one row output to the
/// other value is unsatisfiable.
fn check_encoding_against_simulation(
    space: &mvf_obfuscate::ObfuscationSpace<'_>,
    nl: &mvf_netlist::Netlist,
    rng: &mut XorShift,
) {
    let mut cnf = space.encode(nl);
    let configs = space
        .enumerate_configs(nl, &space.sites(nl), 4096)
        .expect("enumerable configuration product")
        .next_chunk(usize::MAX)
        .to_vec();
    let rows = 1usize << nl.inputs().len();
    // Batches hold at least 64 vectors: repeat the rows to fill one.
    let vectors: Vec<u64> = (0..rows.max(64) as u64).map(|v| v % rows as u64).collect();
    let n_out = nl.outputs().len();
    let outputs: Vec<usize> = (0..n_out).collect();
    let want = space
        .eval_vectors(nl, &outputs, &configs, &vectors)
        .expect("enumerated configurations are valid");
    let bit = |j: usize, o: usize, m: usize| (want[j][o][m / 64] >> (m % 64)) & 1 == 1;
    for (j, config) in configs.iter().enumerate() {
        let mut assumptions: Vec<Lit> = config
            .iter()
            .map(|(cid, f)| {
                let mvf_netlist::CellRef::Camo(id) = nl.cell(*cid).cell else {
                    unreachable!("configurations bind sites only")
                };
                let k = space
                    .choices()
                    .cell(id)
                    .plausible()
                    .iter()
                    .position(|g| g == f)
                    .expect("bound choice is in the site's choice set");
                Lit::pos(cnf.config_vars[cid][k])
            })
            .collect();
        assert!(cnf.solver.solve_with(&assumptions), "configuration {j}");
        for m in 0..rows {
            for o in 0..n_out {
                assert_eq!(
                    cnf.solver.value(cnf.row_outputs[m][o]),
                    Some(bit(j, o, m)),
                    "configuration {j}, row {m}, output {o}"
                );
            }
        }
        let (m, o) = ((rng.next() as usize) % rows, (rng.next() as usize) % n_out);
        assumptions.push(Lit::with_polarity(cnf.row_outputs[m][o], !bit(j, o, m)));
        assert!(
            !cnf.solver.solve_with(&assumptions),
            "configuration {j} fixes row {m}, output {o}"
        );
    }
}

#[test]
fn folded_encoding_matches_simulation_under_both_families() {
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let lock = mvf_obfuscate::lock_library(&lib);
    // Camouflaged sites with at most two pins keep three sites' product
    // small (3 or 5 choices each); the lock library's two key gates are
    // both used.
    let camo_sites: Vec<_> = camo
        .iter()
        .filter(|(_, c)| c.n_inputs() <= 2)
        .map(|(id, _)| id)
        .collect();
    let lock_sites: Vec<_> = lock.iter().map(|(id, _)| id).collect();
    let mkey = lock
        .iter()
        .find(|(_, c)| c.name() == mvf_obfuscate::MKEY_NAME)
        .map(|(id, _)| id)
        .expect("MUX key gate");
    let spaces = [
        (
            mvf_obfuscate::ObfuscationSpace::camouflage(&lib, &camo),
            camo_sites,
        ),
        (
            mvf_obfuscate::ObfuscationSpace::locking(&lib, &lock),
            lock_sites,
        ),
    ];
    let mut rng = XorShift(0xF01D_ED0E_C0DE_0001);
    for (space, site_cells) in &spaces {
        for round in 0..24 {
            let n_in = 2 + round % 3;
            let n_sites = 1 + round % 3;
            let nl = folding_netlist(
                &mut rng,
                &lib,
                site_cells,
                space.choices(),
                n_in,
                4 + round,
                n_sites,
            );
            check_encoding_against_simulation(space, &nl, &mut rng);
        }
    }
    // A MUX key gate on inputs 0 and 1: its choices agree in the rows
    // where the two are equal, so those rows fold it like a wire.
    let (lock_space, _) = &spaces[1];
    let nl = folding_netlist(&mut rng, &lib, &[mkey], &lock, 3, 3, 1);
    check_encoding_against_simulation(lock_space, &nl, &mut rng);
}

#[test]
fn a_netlist_without_sites_encodes_to_pinned_outputs_only() {
    // Every net of a site-free netlist is a constant in every row, so
    // the folded encoding is one unit-pinned variable per row output
    // and stores no clause at all.
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let space = mvf_obfuscate::ObfuscationSpace::camouflage(&lib, &camo);
    let std_cells: Vec<_> = lib.iter().map(|(id, _)| id).collect();
    let mut rng = XorShift(0x51DE_F4EE_0000_0003);
    for n_in in 1..=4usize {
        let mut nl = mvf_netlist::Netlist::new("site_free");
        let mut pool: Vec<_> = (0..n_in).map(|i| nl.add_input(format!("a{i}"))).collect();
        for u in 0..8 {
            let id = std_cells[(rng.next() as usize) % std_cells.len()];
            let pins = (0..lib.cell(id).n_inputs())
                .map(|_| pool[(rng.next() as usize) % pool.len()])
                .collect();
            let (_, y) = nl.add_cell(format!("u{u}"), id.into(), pins);
            pool.push(y);
        }
        for (o, &net) in pool.iter().rev().take(3).enumerate() {
            nl.add_output(format!("y{o}"), net);
        }
        nl.add_output("a0", pool[0]);
        let n_out = nl.outputs().len();
        let cnf = space.encode(&nl);
        assert_eq!(cnf.solver.n_vars(), (1 << n_in) * n_out, "n_in = {n_in}");
        assert_eq!(cnf.solver.n_clauses(), 0, "n_in = {n_in}");
        check_encoding_against_simulation(&space, &nl, &mut rng);
    }
}
