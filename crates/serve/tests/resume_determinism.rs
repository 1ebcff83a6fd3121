//! Kill/resume determinism of the audit service's jobs.
//!
//! The service's core promise: a job killed at ANY checkpoint boundary
//! and resumed from the serialized checkpoint finishes with a
//! [`mvf::WorkloadReport`] **bit-identical** to the uninterrupted run's
//! — and both equal what `Flow::run_many` reports for the same workload
//! and seed. Reports are compared through their canonical wire encoding
//! (fixed field order, bit-exact floats), so string equality is
//! field-wise equality.

use mvf::{Flow, Workload};
use mvf_logic::{IoInterpretation, VectorFunction};
use mvf_serve::checkpoint::CheckpointPhase;
use mvf_serve::wire::encode_report;
use mvf_serve::{
    audit, resume_audit, run_audit, AuditOutcome, Checkpoint, Control, ServeConfig, SessionStore,
};

fn tiny_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.flow.ga.population = 4;
    cfg.flow.ga.generations = 3;
    cfg.checkpoint_steps = 1;
    cfg.sweep_chunk = 5;
    // Screen off: every orbit representative reaches the SAT phase, so
    // the sweep has work items and mid-sweep boundaries to kill at.
    cfg.attack_screen = false;
    cfg
}

fn workload() -> Workload {
    Workload::new("PRESENT x2", mvf_sboxes::optimal_sboxes()[..2].to_vec())
}

const SEED: u64 = 0xA17D;

fn encode(report: &mvf::WorkloadReport) -> String {
    let lib = mvf::cells::Library::standard();
    let camo = mvf::cells::CamoLibrary::from_library(&lib);
    encode_report(report, &lib, &camo).to_string()
}

#[test]
fn uninterrupted_audit_matches_run_many() {
    let cfg = tiny_cfg();
    let w = workload().with_seed(SEED);
    let report = audit(&cfg, &w, SEED, None);
    let flow = Flow::builder()
        .config(cfg.flow.clone())
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
        encode(&report),
        encode(&batch[0]),
        "the stepped audit job must reproduce the batch report exactly"
    );
}

#[test]
fn killed_and_resumed_at_every_boundary_is_bit_identical() {
    let cfg = tiny_cfg();
    let w = workload();
    // Reference run: never pause, but record every boundary checkpoint
    // through its JSON serialization (so resume also exercises the
    // file-format round trip).
    let mut boundaries: Vec<String> = Vec::new();
    let reference = match run_audit(&cfg, &w, SEED, None, &mut |cp| {
        boundaries.push(cp.to_json());
        Control::Continue
    }) {
        AuditOutcome::Finished { report: r, .. } => *r,
        AuditOutcome::Paused(_) | AuditOutcome::Failed(_) => unreachable!(),
    };
    let want = encode(&reference);
    let ga_boundaries = boundaries
        .iter()
        .filter(|b| b.contains("\"phase\":\"ga\""))
        .count();
    let sweep_boundaries = boundaries.len() - ga_boundaries;
    assert!(
        ga_boundaries >= 1,
        "expected at least one mid-GA boundary, got {ga_boundaries}"
    );
    assert!(
        sweep_boundaries >= 2,
        "expected mid-sweep boundaries, got {sweep_boundaries}"
    );
    for (i, serialized) in boundaries.iter().enumerate() {
        let cp = Checkpoint::from_json(serialized).expect("boundary checkpoint parses");
        let resumed = match resume_audit(&cfg, cp, None, &mut |_| Control::Continue) {
            AuditOutcome::Finished { report: r, .. } => *r,
            AuditOutcome::Paused(_) | AuditOutcome::Failed(_) => unreachable!(),
        };
        assert_eq!(
            encode(&resumed),
            want,
            "resume from boundary {i}/{} diverged",
            boundaries.len()
        );
    }
}

#[test]
fn pause_mid_ga_then_resume_matches() {
    let cfg = tiny_cfg();
    let w = workload();
    let want = encode(&audit(&cfg, &w, SEED, None));
    // Kill at the FIRST boundary (mid-GA: generation 1 of 3).
    let paused = run_audit(&cfg, &w, SEED, None, &mut |_| Control::Pause);
    let AuditOutcome::Paused(cp) = paused else {
        panic!("the job must pause at the first boundary");
    };
    assert!(
        matches!(cp.phase, CheckpointPhase::Ga(_)),
        "the first boundary is mid-GA"
    );
    let resumed = match resume_audit(&cfg, *cp, None, &mut |_| Control::Continue) {
        AuditOutcome::Finished { report: r, .. } => *r,
        AuditOutcome::Paused(_) | AuditOutcome::Failed(_) => unreachable!(),
    };
    assert_eq!(encode(&resumed), want);
}

#[test]
fn pause_mid_sweep_then_resume_matches() {
    let cfg = tiny_cfg();
    let w = workload();
    let want = encode(&audit(&cfg, &w, SEED, None));
    // Kill at the first SWEEP boundary (GA complete, cursor mid-list).
    let mut outcome = run_audit(&cfg, &w, SEED, None, &mut |cp| match cp.phase {
        CheckpointPhase::Ga(_) => Control::Continue,
        CheckpointPhase::Sweep { .. } => Control::Pause,
    });
    let AuditOutcome::Paused(cp) = outcome else {
        panic!("the job must pause at the first sweep boundary");
    };
    let CheckpointPhase::Sweep { ref progress, .. } = cp.phase else {
        panic!("paused checkpoint is not mid-sweep");
    };
    assert!(progress.pos > 0, "the cursor advanced before the boundary");
    // Resume, and kill again at the next sweep boundary — a double kill
    // must still converge to the identical report.
    outcome = resume_audit(&cfg, *cp, None, &mut |_| Control::Pause);
    let second = match outcome {
        AuditOutcome::Paused(cp) => *cp,
        AuditOutcome::Finished { report: r, .. } => {
            // The remaining work fit one chunk; the single kill already
            // proves the mid-sweep case.
            assert_eq!(encode(&r), want);
            return;
        }
        AuditOutcome::Failed(e) => panic!("resume failed: {e}"),
    };
    let resumed = match resume_audit(&cfg, second, None, &mut |_| Control::Continue) {
        AuditOutcome::Finished { report: r, .. } => *r,
        AuditOutcome::Paused(_) | AuditOutcome::Failed(_) => unreachable!(),
    };
    assert_eq!(encode(&resumed), want);
}

#[test]
fn warm_session_store_never_changes_reports() {
    let cfg = tiny_cfg();
    let w = workload();
    let cold = encode(&audit(&cfg, &w, SEED, None));
    let mut store = SessionStore::new(usize::MAX);
    let first = encode(&audit(&cfg, &w, SEED, Some(&mut store)));
    // Second submission of the same circuit hits the warm session (the
    // solver has learnt clauses now); the report — query counts
    // included — must not move.
    let second = encode(&audit(&cfg, &w, SEED, Some(&mut store)));
    assert_eq!(first, cold, "a store-backed run must equal a cold run");
    assert_eq!(second, cold, "a warm run must equal a cold run");
    assert!(store.hits() >= 1, "the second run must hit the session");
}

#[test]
fn failing_workloads_report_errors_not_panics() {
    let cfg = tiny_cfg();
    let w = Workload::new("empty", Vec::new());
    let report = audit(&cfg, &w, SEED, None);
    assert!(report.outcome.is_err());
    assert!(report.plausibility.is_none());
    let flow = Flow::builder()
        .config(cfg.flow.clone())
        .workload_threads(1)
        .attack_sweep(true)
        .attack_interpretation_freedom(true)
        .attack_screen(cfg.attack_screen)
        .attack_npn(cfg.attack_npn)
        .attack_class_share(cfg.attack_class_share)
        .attack_shards(1)
        .build();
    let batch = flow.run_many(&[w.with_seed(SEED)]);
    assert_eq!(encode(&report), encode(&batch[0]));
}

/// The NPN configuration: full orbit, cross-candidate class sharing,
/// and a chunk size that parks checkpoint boundaries deep inside the
/// orbit — far past its 3! · 3! = 36 pure-permutation points, so a kill
/// there lands among negation-mask representatives and the resumed
/// cursor must re-enter the Gray-code walk mid-block.
fn npn_cfg() -> ServeConfig {
    let mut cfg = tiny_cfg();
    cfg.attack_npn = true;
    cfg.attack_class_share = true;
    cfg.sweep_chunk = 700;
    cfg
}

/// Two 3-bit functions from one NPN class: the merged design keeps the
/// audit demo-sized (2304-point orbit per candidate) while class
/// sharing has real cross-candidate work to cache — so checkpoints
/// carry a non-empty resolved-verdict vector.
fn npn_workload() -> Workload {
    let f = VectorFunction::from_lookup_table(3, 3, &[1, 0, 3, 2, 5, 7, 6, 4]).unwrap();
    let t = IoInterpretation {
        in_perm: vec![1, 2, 0],
        in_neg: 0b101,
        out_perm: vec![2, 0, 1],
        out_neg: 0b011,
    };
    Workload::new("npn pair", vec![f.clone(), t.apply(&f).unwrap()])
}

#[test]
fn npn_audit_matches_run_many() {
    let cfg = npn_cfg();
    let w = npn_workload().with_seed(SEED);
    let report = audit(&cfg, &w, SEED, None);
    let flow = Flow::builder()
        .config(cfg.flow.clone())
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
        encode(&report),
        encode(&batch[0]),
        "the stepped NPN audit must reproduce the batch report exactly"
    );
}

#[test]
fn killed_inside_a_negation_mask_block_resumes_bit_identically() {
    let cfg = npn_cfg();
    let w = npn_workload();
    // Reference run, recording every boundary through its JSON
    // serialization (resume exercises the version-2 checkpoint format,
    // resolved-verdict cache included).
    let mut boundaries: Vec<String> = Vec::new();
    let reference = match run_audit(&cfg, &w, SEED, None, &mut |cp| {
        boundaries.push(cp.to_json());
        Control::Continue
    }) {
        AuditOutcome::Finished { report: r, .. } => *r,
        AuditOutcome::Paused(_) | AuditOutcome::Failed(_) => unreachable!(),
    };
    let want = encode(&reference);
    // At least one boundary must sit mid-sweep, past every
    // pure-permutation point, with shared verdicts already cached.
    let mut mid_npn = 0usize;
    for serialized in &boundaries {
        let cp = Checkpoint::from_json(serialized).expect("boundary checkpoint parses");
        if let CheckpointPhase::Sweep { ref progress, .. } = cp.phase {
            assert!(progress.pos > 0, "the cursor advanced before the boundary");
            if progress.pos > 36 {
                mid_npn += 1;
                assert!(
                    !progress.resolved.is_empty(),
                    "class sharing was on and the cursor already solved \
                     representatives, so the checkpoint must carry their verdicts"
                );
            }
        }
        let resumed = match resume_audit(&cfg, cp, None, &mut |_| Control::Continue) {
            AuditOutcome::Finished { report: r, .. } => *r,
            AuditOutcome::Paused(_) | AuditOutcome::Failed(_) => unreachable!(),
        };
        assert_eq!(encode(&resumed), want, "resume diverged from {serialized}");
    }
    assert!(
        mid_npn >= 1,
        "expected a checkpoint inside the negation-mask span of the orbit \
         (got {} boundaries)",
        boundaries.len()
    );
}
