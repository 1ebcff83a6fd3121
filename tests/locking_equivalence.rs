//! Logic-locking corpus: the scheme-generic attack layer against
//! brute-force key enumeration.
//!
//! Camouflage has `tests/sat_equivalence.rs` pinning every sweep to a
//! brute-force enumeration of doping configurations. This file is the
//! same contract for the second obfuscation family: on locked circuits
//! produced by the real flow, the identity sweep and the any-IO sweep
//! (verdicts AND witnesses) must agree exactly with enumerating the
//! key space — every key value, evaluate, compare — and must be
//! invariant to shard count and to the SAT-free screen.

use mvf::sim::ValidationError;
use mvf::{Flow, FlowResult, Ga, LockOptions, SchemeKind, Workload};
use mvf_attack::{plausibility_sweep_any_io_in, plausibility_sweep_in, AnyIoOptions, AnyIoVerdict};
use mvf_ga::GaConfig;
use mvf_logic::{TruthTable, TtArena, VectorFunction};
use mvf_sboxes::optimal_sboxes;
use mvf_serve::wire::encode_report_in;
use mvf_serve::{audit, run_audit, AuditOutcome, Checkpoint, Control, ServeConfig};

/// A locking flow over two PRESENT S-boxes, small enough to enumerate
/// the full key space in-test.
fn locked_flow(seed: u64) -> (Flow<Ga>, FlowResult) {
    let functions = optimal_sboxes()[..2].to_vec();
    let flow = Flow::builder()
        .ga(GaConfig {
            population: 4,
            generations: 1,
            seed,
            ..GaConfig::default()
        })
        .scheme(SchemeKind::Locking)
        .lock_options(LockOptions {
            n_xor: 3,
            n_mux: 1,
            ..LockOptions::default()
        })
        .build();
    let result = flow.run(&functions).expect("locking flow succeeds");
    (flow, result)
}

/// Every function the locked netlist can compute, one entry per key
/// value (`2^key_bits` total), in key-counter order.
fn functions_by_key(flow: &Flow<Ga>, result: &FlowResult) -> Vec<Vec<TruthTable>> {
    let locked = result.locked.as_ref().expect("locking flow carries a key");
    let nl = &result.mapped.netlist;
    let bits = locked.key_bits();
    assert!(bits <= 16, "key space too large to enumerate in-test");
    (0..1usize << bits)
        .map(|k| {
            let key: Vec<bool> = (0..bits).map(|b| (k >> b) & 1 == 1).collect();
            mvf::sim::eval_camo_netlist(
                nl,
                flow.library(),
                flow.choice_library(),
                &locked.config_for_key(&key),
            )
            .expect("every key value is a valid configuration")
        })
        .collect()
}

fn computes(per_key: &[Vec<TruthTable>], candidate: &VectorFunction) -> bool {
    per_key.iter().any(|outs| outs == candidate.outputs())
}

#[test]
fn identity_sweep_equals_key_enumeration() {
    let (flow, result) = locked_flow(11);
    let space = flow.obfuscation_space();
    let nl = &result.mapped.netlist;
    let per_key = functions_by_key(&flow, &result);
    // Candidates: the two viable functions (plausible by construction)
    // plus decoys that no key can reach.
    let mut candidates = result.merged.functions.clone();
    candidates.extend(optimal_sboxes()[2..5].iter().cloned());
    let verdicts = plausibility_sweep_in(&space, nl, &candidates, &AnyIoOptions::default());
    assert_eq!(verdicts.len(), candidates.len());
    for (candidate, verdict) in candidates.iter().zip(&verdicts) {
        assert_eq!(
            verdict.plausible,
            computes(&per_key, candidate),
            "identity sweep disagrees with brute-force key enumeration"
        );
    }
    assert!(verdicts[0].plausible && verdicts[1].plausible);
    // The sweep quantifies over exactly the key space: the config
    // odometer and the key counter enumerate the same set.
    let mut configs = space
        .enumerate_configs(nl, &space.sites(nl), 1 << 16)
        .expect("config product fits the cap");
    assert_eq!(configs.next_chunk(usize::MAX).len(), per_key.len());
}

#[test]
fn any_io_sweep_matches_key_enumeration_with_witnesses() {
    let (flow, result) = locked_flow(12);
    let space = flow.obfuscation_space();
    let nl = &result.mapped.netlist;
    let per_key = functions_by_key(&flow, &result);
    let candidates = result.merged.functions.clone();
    let verdicts = plausibility_sweep_any_io_in(&space, nl, &candidates, &AnyIoOptions::default());
    for (candidate, verdict) in candidates.iter().zip(&verdicts) {
        assert!(verdict.plausible, "viable functions stay plausible");
        let witness = verdict
            .witness
            .as_ref()
            .expect("plausible verdicts carry a witness");
        let transformed = witness.apply(candidate).expect("witness shapes match");
        assert!(
            computes(&per_key, &transformed),
            "the witness interpretation must be realized by some key value"
        );
    }
}

#[test]
fn locking_sweeps_are_shard_and_screen_invariant() {
    let (flow, result) = locked_flow(13);
    let space = flow.obfuscation_space();
    let nl = &result.mapped.netlist;
    let mut candidates = result.merged.functions.clone();
    candidates.push(optimal_sboxes()[6].clone());
    let sweep = |shards: usize, screen: bool| -> Vec<AnyIoVerdict> {
        plausibility_sweep_any_io_in(
            &space,
            nl,
            &candidates,
            &AnyIoOptions {
                shards,
                screen,
                ..AnyIoOptions::default()
            },
        )
    };
    let want = sweep(1, true);
    for shards in [2, 4] {
        assert_eq!(sweep(shards, true), want, "shards={shards} diverged");
    }
    // Screen off: verdicts and witnesses identical; only the screen and
    // query counters move.
    let unscreened = sweep(1, false);
    for (a, b) in want.iter().zip(&unscreened) {
        assert_eq!(a.plausible, b.plausible);
        assert_eq!(a.witness, b.witness);
        assert_eq!(a.orbit, b.orbit);
        assert_eq!(a.unique, b.unique);
        assert_eq!(b.screened, 0, "screen off settles nothing");
    }
}

#[test]
fn flow_validation_covers_every_select_key() {
    // `validate: true` (the default) already ran inside `locked_flow`;
    // re-check here against an independent evaluation so the corpus does
    // not depend on the flow's own validator.
    let (flow, result) = locked_flow(14);
    let locked = result.locked.as_ref().unwrap();
    let nl = &result.mapped.netlist;
    for (j, f) in result.merged.functions.iter().enumerate() {
        let key = locked.key_for_select(j);
        let outs = mvf::sim::eval_camo_netlist(
            nl,
            flow.library(),
            flow.choice_library(),
            &locked.config_for_key(&key),
        )
        .unwrap();
        assert_eq!(&outs, f.outputs(), "select key {j} computes function {j}");
    }
}

#[test]
fn locked_validation_rejects_swapped_functions() {
    // A locked result is validated by the same check as a camouflaged
    // one, under each select key's configuration. With the viable
    // functions swapped, select key 0 computes the other function.
    let (flow, result) = locked_flow(14);
    let locked = result.locked.as_ref().unwrap();
    let functions = &result.merged.functions;
    let configs: Vec<_> = (0..functions.len())
        .map(|j| locked.config_for_key(&locked.key_for_select(j)))
        .collect();
    let validate = |viable: &[VectorFunction]| {
        mvf::sim::validate_configs(
            &locked.netlist,
            flow.library(),
            flow.choice_library(),
            viable,
            &configs,
            &mut TtArena::default(),
        )
    };
    validate(functions).expect("the flow's own functions validate");
    let swapped = [functions[1].clone(), functions[0].clone()];
    assert!(matches!(
        validate(&swapped),
        Err(ValidationError::FunctionMismatch { function: 0, .. })
    ));
}

// ---------------------------------------------------------------------------
// Serve: kill/resume of a locking audit

fn locking_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.flow.ga.population = 4;
    cfg.flow.ga.generations = 3;
    cfg.checkpoint_steps = 1;
    cfg.sweep_chunk = 5;
    cfg.attack_screen = false;
    cfg.scheme = SchemeKind::Locking;
    cfg.lock = LockOptions {
        n_xor: 3,
        n_mux: 1,
        ..LockOptions::default()
    };
    cfg
}

const SEED: u64 = 0x10CA;

fn encode(cfg: &ServeConfig, report: &mvf::WorkloadReport) -> String {
    let lib = mvf::cells::Library::standard();
    let lock = mvf::lock_library(&lib);
    let space = mvf::ObfuscationSpace::with_kind(cfg.scheme, &lib, &lock);
    encode_report_in(&space, report).to_string()
}

#[test]
fn locking_audit_killed_at_every_boundary_resumes_bit_identically() {
    let cfg = locking_cfg();
    let w = Workload::new("PRESENT x2 locked", optimal_sboxes()[..2].to_vec());
    let mut boundaries: Vec<String> = Vec::new();
    let reference = match run_audit(&cfg, &w, SEED, None, &mut |cp| {
        boundaries.push(cp.to_json());
        Control::Continue
    }) {
        AuditOutcome::Finished { report, .. } => *report,
        AuditOutcome::Paused(_) | AuditOutcome::Failed(_) => unreachable!(),
    };
    let want = encode(&cfg, &reference);
    assert!(want.contains("\"scheme\":\"locking\""));
    assert!(
        boundaries.len() >= 3,
        "expected mid-GA and mid-sweep boundaries, got {}",
        boundaries.len()
    );
    // The service's current scheme knob must NOT matter on resume: the
    // checkpoint carries the family.
    let mut camo_cfg = cfg.clone();
    camo_cfg.scheme = SchemeKind::Camouflage;
    for (i, serialized) in boundaries.iter().enumerate() {
        assert!(serialized.contains("\"scheme\":\"locking\""));
        let cp = Checkpoint::from_json(serialized).expect("boundary checkpoint parses");
        assert_eq!(cp.scheme, SchemeKind::Locking);
        let resumed = match mvf_serve::resume_audit(&camo_cfg, cp, None, &mut |_| Control::Continue)
        {
            AuditOutcome::Finished { report, .. } => *report,
            AuditOutcome::Paused(_) | AuditOutcome::Failed(_) => unreachable!(),
        };
        assert_eq!(
            encode(&cfg, &resumed),
            want,
            "resume from boundary {i}/{} diverged",
            boundaries.len()
        );
    }
}

#[test]
fn locking_audit_matches_run_many() {
    let cfg = locking_cfg();
    let w = Workload::new("PRESENT x2 locked", optimal_sboxes()[..2].to_vec()).with_seed(SEED);
    let report = audit(&cfg, &w, SEED, None);
    let flow = Flow::builder()
        .config(cfg.flow.clone())
        .scheme(cfg.scheme)
        .lock_options(cfg.lock)
        .workload_threads(1)
        .attack_sweep(true)
        .attack_interpretation_freedom(true)
        .attack_screen(cfg.attack_screen)
        .attack_npn(cfg.attack_npn)
        .attack_class_share(cfg.attack_class_share)
        .attack_shards(1)
        .build();
    let batch = flow.run_many(std::slice::from_ref(&w));
    assert_eq!(
        encode(&cfg, &report),
        encode(&cfg, &batch[0]),
        "the stepped locking audit must reproduce the batch report exactly"
    );
}
