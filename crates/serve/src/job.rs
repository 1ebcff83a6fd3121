//! The checkpointable audit job: one workload driven end to end.
//!
//! [`run_audit`] executes the same pipeline as
//! [`Flow::run_many`] for a single workload with the full adversary
//! enabled — Phase I–III search, then the interpretation-freedom sweep —
//! but stepped: an observer callback fires at every safe boundary (each
//! `checkpoint_steps` GA generations, each `sweep_chunk` sweep items)
//! with a complete [`Checkpoint`], and may pause the job there.
//! [`resume_audit`] picks a paused job back up from its checkpoint and
//! finishes **bit-identically** to the run that was never interrupted:
//! the GA state carries the exact RNG stream position and scored
//! population, the sweep progress carries the exact cursor, and
//! everything else is recomputed deterministically.
//!
//! The produced [`WorkloadReport`] equals what
//! `Flow::run_many` reports for the same workload and seed with
//! `attack_sweep + attack_interpretation_freedom + attack_shards(1)`
//! (plus `attack_npn` / `attack_class_share` when the service config
//! sets them) — the crate's integration tests compare the canonical
//! wire encodings byte for byte.

use mvf::{
    Flow, FlowBuilder, FlowConfig, Ga, PinObjective, PlausibilityVerdict, SchemeKind,
    SearchStrategy, Workload, WorkloadReport,
};
use mvf_attack::{AnyIoJob, AnyIoOptions, SimplifyStats};
use mvf_ga::{GaConfig, GeneticAlgorithm, ObjectiveRunner};

use crate::checkpoint::{Checkpoint, CheckpointPhase, GaFinal};
use crate::store::SessionStore;
use crate::ServeConfig;

/// The observer's verdict at a checkpoint boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep running.
    Continue,
    /// Stop here; the job returns [`AuditOutcome::Paused`] with this
    /// boundary's checkpoint.
    Pause,
}

/// How an audit job ended.
pub enum AuditOutcome {
    /// Ran to completion.
    Finished {
        /// The audit report, byte-identical on the wire to the
        /// corresponding `Flow::run_many` entry.
        report: Box<WorkloadReport>,
        /// The sweep solver's counters (all zero when the flow failed
        /// before any sweep ran; `n_vivified` and `n_eliminated` are
        /// always zero, since the solver has no inprocessing).
        /// Reported by the service's `status` response;
        /// never part of the report itself, so resume bit-identity is
        /// unaffected.
        sat: SimplifyStats,
    },
    /// Paused by the observer; resume later with [`resume_audit`].
    Paused(Box<Checkpoint>),
}

/// Runs one workload from the start. See the module docs.
///
/// `seed` is the resolved search seed (use
/// [`Workload::resolve_seed`] to match a `run_many` batch position).
/// `store` optionally warm-starts the sweep from a cached session;
/// results are identical with or without it.
pub fn run_audit(
    cfg: &ServeConfig,
    workload: &Workload,
    seed: u64,
    store: Option<&mut SessionStore>,
    observer: &mut dyn FnMut(&Checkpoint) -> Control,
) -> AuditOutcome {
    drive(cfg, workload, seed, cfg.scheme, 0, None, store, observer)
}

/// Resumes a paused job from its checkpoint. The checkpoint's scheme
/// tag wins over [`ServeConfig::scheme`]: a job resumed after the
/// service's `MVF_SCHEME` knob changed still finishes bit-identically
/// under its original family. See the module docs.
pub fn resume_audit(
    cfg: &ServeConfig,
    checkpoint: Checkpoint,
    store: Option<&mut SessionStore>,
    observer: &mut dyn FnMut(&Checkpoint) -> Control,
) -> AuditOutcome {
    let Checkpoint {
        workload,
        seed,
        scheme,
        failed_evaluations,
        phase,
    } = checkpoint;
    drive(
        cfg,
        &workload,
        seed,
        scheme,
        failed_evaluations,
        Some(phase),
        store,
        observer,
    )
}

/// Convenience wrapper: runs (or resumes) to completion, never pausing.
pub fn audit(
    cfg: &ServeConfig,
    workload: &Workload,
    seed: u64,
    store: Option<&mut SessionStore>,
) -> WorkloadReport {
    match run_audit(cfg, workload, seed, store, &mut |_| Control::Continue) {
        AuditOutcome::Finished { report, .. } => *report,
        AuditOutcome::Paused(_) => unreachable!("the observer never pauses"),
    }
}

#[allow(clippy::too_many_arguments)]
fn drive(
    cfg: &ServeConfig,
    workload: &Workload,
    seed: u64,
    scheme: SchemeKind,
    failed_base: usize,
    phase: Option<CheckpointPhase>,
    store: Option<&mut SessionStore>,
    observer: &mut dyn FnMut(&Checkpoint) -> Control,
) -> AuditOutcome {
    let ga_cfg = GaConfig {
        seed,
        ..cfg.flow.ga.clone()
    };
    let flow: Flow<Ga> = FlowBuilder::new()
        .config(FlowConfig {
            ga: ga_cfg.clone(),
            ..cfg.flow.clone()
        })
        .scheme(scheme)
        .lock_options(cfg.lock)
        .build();
    let strategy_name = flow.strategy().name();
    let checkpoint_steps = cfg.checkpoint_steps.max(1);
    let sweep_chunk = cfg.sweep_chunk.max(1);

    // Phase II: the GA, stepped one generation at a time. A checkpoint
    // in this phase is the engine's own search state.
    let (ga_final, failed_total, resume_sweep) = match phase {
        Some(CheckpointPhase::Sweep { ga, progress }) => (ga, failed_base, Some(progress)),
        ga_phase => {
            let objective = PinObjective::new(
                &workload.functions,
                &flow.config().script,
                flow.library(),
                &flow.config().map,
            );
            let engine = GeneticAlgorithm::new(ga_cfg);
            let mut runner = match ga_phase {
                Some(CheckpointPhase::Ga(state)) => {
                    ObjectiveRunner::resume(engine, &objective, state)
                }
                _ => ObjectiveRunner::start(engine, &objective),
            };
            let mut since_checkpoint = 0usize;
            while runner.step() {
                since_checkpoint += 1;
                if since_checkpoint >= checkpoint_steps && !runner.is_done() {
                    since_checkpoint = 0;
                    let cp = Checkpoint {
                        workload: workload.clone(),
                        seed,
                        scheme,
                        failed_evaluations: failed_base + objective.failed_evaluations(),
                        phase: CheckpointPhase::Ga(runner.state().clone()),
                    };
                    if observer(&cp) == Control::Pause {
                        return AuditOutcome::Paused(Box::new(cp));
                    }
                }
            }
            let state = runner.state();
            let ga_final = GaFinal {
                best: state.best.0.clone(),
                history: state.history.clone(),
                evaluations: state.evaluations,
            };
            (ga_final, failed_base + objective.failed_evaluations(), None)
        }
    };

    // Phases I+III for the winning assignment (deterministic — safe to
    // redo on every resume; only the search and the sweep carry state).
    let outcome = flow.finish_with(
        &workload.functions,
        ga_final.best.clone(),
        ga_final.history.clone(),
        ga_final.evaluations,
        failed_total,
    );
    let result = match outcome {
        Err(_) => {
            // A failed flow has nothing to sweep; the report carries the
            // error, exactly as a `run_many` batch entry would.
            return AuditOutcome::Finished {
                report: Box::new(WorkloadReport {
                    name: workload.name.clone(),
                    seed,
                    strategy: strategy_name,
                    outcome,
                    plausibility: None,
                }),
                sat: SimplifyStats::default(),
            };
        }
        Ok(result) => result,
    };

    // The red-team sweep, stepped in `sweep_chunk` work items. A
    // checkpoint in this phase is the GA outcome plus the sweep cursor.
    let opts = AnyIoOptions {
        shards: 1,
        screen: cfg.attack_screen,
        npn: cfg.attack_npn,
        class_share: cfg.attack_class_share,
        ..AnyIoOptions::default()
    };
    let space = flow.obfuscation_space();
    let mut job = match store {
        Some(store) => store
            .session_in(&space, &result.mapped.netlist)
            .any_io_job_in(
                &space,
                &result.mapped.netlist,
                &result.merged.functions,
                &opts,
            ),
        None => AnyIoJob::new_in(
            &space,
            &result.mapped.netlist,
            result.merged.functions.clone(),
            &opts,
        ),
    };
    if let Some(progress) = &resume_sweep {
        job.restore(progress);
    }
    while !job.is_done() {
        job.step(sweep_chunk);
        if !job.is_done() {
            let cp = Checkpoint {
                workload: workload.clone(),
                seed,
                scheme,
                failed_evaluations: failed_total,
                phase: CheckpointPhase::Sweep {
                    ga: ga_final.clone(),
                    progress: job.progress(),
                },
            };
            if observer(&cp) == Control::Pause {
                return AuditOutcome::Paused(Box::new(cp));
            }
        }
    }
    let sat = job.sat_stats();
    let plausibility = PlausibilityVerdict::from_any_io(job.verdicts());
    AuditOutcome::Finished {
        report: Box::new(WorkloadReport {
            name: workload.name.clone(),
            seed,
            strategy: strategy_name,
            outcome: Ok(result),
            plausibility: Some(plausibility),
        }),
        sat,
    }
}
