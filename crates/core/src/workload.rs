//! Batched multi-workload runs.
//!
//! The paper evaluates its flow on a table of S-box workloads (Table I);
//! the production goal is to serve many such workloads fast. A
//! [`Workload`] names one obfuscation job — a set of viable functions
//! plus an optional seed — and [`Flow::run_many`] executes a batch of
//! them across the worker thread pool, each with a deterministic
//! per-workload seed, returning one [`WorkloadReport`] per entry in
//! input order.
//!
//! Batch runs are reproducible by construction: the per-workload seed is
//! either the workload's own or derived from the strategy seed and the
//! workload's batch index, and the underlying searches are bit-identical
//! for every thread count. So `run_many(&ws)[i]` equals
//! `flow.run_seeded(&ws[i].functions, reports[i].seed)` exactly.

use std::fmt;

use mvf_ga::{resolve_threads, SearchStrategy};
use mvf_logic::{IoInterpretation, VectorFunction};

use crate::error::MvfError;
use crate::flow::{Flow, FlowResult};

/// One obfuscation job for [`Flow::run_many`].
#[derive(Debug, Clone)]
pub struct Workload {
    /// A label carried into the report ("PRESENT x4", "DES x2", …).
    pub name: String,
    /// The viable functions to merge and camouflage.
    pub functions: Vec<VectorFunction>,
    /// Optional seed override; when `None`, a deterministic seed is
    /// derived from the strategy seed and the workload's batch index.
    pub seed: Option<u64>,
}

impl Workload {
    /// A workload with a derived seed.
    pub fn new(name: impl Into<String>, functions: Vec<VectorFunction>) -> Self {
        Workload {
            name: name.into(),
            functions,
            seed: None,
        }
    }

    /// Pins this workload's search seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The seed this workload uses at batch position `index` under a
    /// strategy seeded `strategy_seed` — the workload's own override, or
    /// the same derivation [`Flow::run_many`] applies. Exposed so
    /// external drivers (checkpointed audit jobs) reproduce batch
    /// reports exactly.
    pub fn resolve_seed(&self, strategy_seed: u64, index: u64) -> u64 {
        self.seed
            .unwrap_or_else(|| derive_seed(strategy_seed, index))
    }
}

/// One viable function's red-team verdict from the SAT adversary, as
/// attached to [`WorkloadReport::plausibility`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlausibilityVerdict {
    /// Plausible under the **identity** pin interpretation (the
    /// adversary reads each wire as the logical pin it was mapped to).
    /// A correct flow yields `true` for every viable function.
    pub identity: bool,
    /// Plausible under **some** input/output pin interpretation — the
    /// paper's full adversary: every pin permutation, plus every
    /// polarity flip when the flow was built with
    /// [`FlowBuilder::attack_npn`](crate::FlowBuilder::attack_npn).
    /// Present when the flow was built with
    /// [`FlowBuilder::attack_interpretation_freedom`](crate::FlowBuilder::attack_interpretation_freedom);
    /// implied `true` whenever `identity` is `true` (the identity is one
    /// of the interpretations searched).
    pub any_io: Option<bool>,
    /// The witness interpretation behind a `true` `any_io` verdict: the
    /// orbit-minimal [`IoInterpretation`] under which the transformed
    /// function is plausible (negation masks are `0` unless the NPN
    /// orbit was searched). Deterministic for every shard count.
    pub witness: Option<IoInterpretation>,
    /// Queries the SAT-free screen settled before any solver call
    /// ([`FlowBuilder::attack_screen`](crate::FlowBuilder::attack_screen)):
    /// orbit representatives for the full adversary, `0` or `1` for the
    /// identity-only sweep. `0` when screening is off or stood down.
    pub screened: usize,
    /// SAT queries actually issued for this function's verdict.
    pub queries: usize,
}

/// The per-workload result of a [`Flow::run_many`] batch.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The workload's label.
    pub name: String,
    /// The seed the search actually used (workload override or derived).
    pub seed: u64,
    /// The search strategy's name.
    pub strategy: &'static str,
    /// The flow result, or the error that stopped this workload. Other
    /// workloads in the batch are unaffected.
    pub outcome: Result<FlowResult, MvfError>,
    /// Red-team verdicts from the SAT adversary, present when the flow
    /// was built with
    /// [`FlowBuilder::attack_sweep`](crate::FlowBuilder::attack_sweep)
    /// and the workload succeeded: `plausibility[j]` reports viable
    /// function `j` (in its pin-permuted, mapped-circuit form) against
    /// the camouflaged netlist. A correct flow keeps every
    /// [`PlausibilityVerdict::identity`] `true`; any `false` is a red
    /// flag, and the interpretation-freedom fields tell the auditor
    /// whether *any* pin reading rescues the function.
    pub plausibility: Option<Vec<PlausibilityVerdict>>,
}

impl PlausibilityVerdict {
    /// Folds interpretation-freedom verdicts into report verdicts. The
    /// identity interpretation is orbit index 0 of the any-IO search and
    /// can never be skipped, so identity plausibility is derivable from
    /// the witness: the witness *is* the identity interpretation. This
    /// is exactly the mapping [`Flow::run_many`] applies, exposed so
    /// externally driven sweeps (checkpointed audit jobs) produce
    /// identical reports.
    pub fn from_any_io(verdicts: Vec<mvf_attack::AnyIoVerdict>) -> Vec<PlausibilityVerdict> {
        verdicts
            .into_iter()
            .map(|v| PlausibilityVerdict {
                identity: v
                    .witness
                    .as_ref()
                    .is_some_and(IoInterpretation::is_identity),
                any_io: Some(v.plausible),
                witness: v.witness,
                screened: v.screened,
                queries: v.queries,
            })
            .collect()
    }

    /// Folds identity-interpretation verdicts into report verdicts — the
    /// [`Flow::run_many`] mapping for flows without interpretation
    /// freedom.
    pub fn from_identity(verdicts: &[mvf_attack::SweepVerdict]) -> Vec<PlausibilityVerdict> {
        verdicts
            .iter()
            .map(|v| PlausibilityVerdict {
                identity: v.plausible,
                any_io: None,
                witness: None,
                screened: usize::from(v.screened),
                queries: usize::from(!v.screened),
            })
            .collect()
    }
}

impl WorkloadReport {
    /// The successful result, if any.
    pub fn result(&self) -> Option<&FlowResult> {
        self.outcome.as_ref().ok()
    }
}

impl fmt::Display for WorkloadReport {
    /// One stable summary line per report:
    /// `name [strategy, seed 0x…]: ok, area A GE, evals E, plausible
    /// k/n, any-io k/n, screened S, queries Q` (the plausibility tail
    /// appears only when a sweep ran, the any-io field only under
    /// interpretation freedom), or `name [strategy, seed 0x…]: error: …`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}, seed {:#018x}]: ",
            self.name, self.strategy, self.seed
        )?;
        match &self.outcome {
            Err(e) => write!(f, "error: {e}"),
            Ok(r) => {
                write!(
                    f,
                    "ok, area {:.1} GE, evals {}",
                    r.mapped_area_ge, r.evaluations
                )?;
                if let Some(vs) = &self.plausibility {
                    let identity = vs.iter().filter(|v| v.identity).count();
                    write!(f, ", plausible {identity}/{}", vs.len())?;
                    if vs.iter().any(|v| v.any_io.is_some()) {
                        let any = vs.iter().filter(|v| v.any_io == Some(true)).count();
                        write!(f, ", any-io {any}/{}", vs.len())?;
                    }
                    let screened: usize = vs.iter().map(|v| v.screened).sum();
                    let queries: usize = vs.iter().map(|v| v.queries).sum();
                    write!(f, ", screened {screened}, queries {queries}")?;
                }
                Ok(())
            }
        }
    }
}

/// SplitMix64: derives decorrelated per-workload seeds from the strategy
/// seed and the batch index.
fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<S: SearchStrategy> Flow<S> {
    /// Runs a batch of workloads, each through the full three-phase flow
    /// with its own deterministic seed, and returns one report per
    /// workload in input order.
    ///
    /// With the `parallel` feature, workloads are distributed across the
    /// worker thread pool ([`FlowBuilder::workload_threads`](crate::FlowBuilder::workload_threads),
    /// `MVF_THREADS`, or all cores, in that order) and each workload's
    /// inner search runs serially; a batch of one falls back to
    /// parallelism *inside* the search. Either way the reports are
    /// bit-identical to running every workload serially.
    pub fn run_many(&self, workloads: &[Workload]) -> Vec<WorkloadReport> {
        let seeds: Vec<u64> = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                w.seed
                    .unwrap_or_else(|| derive_seed(self.strategy.seed(), i as u64))
            })
            .collect();

        #[cfg(feature = "parallel")]
        {
            let total = resolve_threads(self.workload_threads);
            let pool = total.min(workloads.len());
            if pool > 1 {
                // Striped assignment (worker w takes indices w, w+pool, …)
                // so heavy workloads spread across workers instead of
                // clustering in one contiguous chunk; each worker's inner
                // searches split the remaining cores so small batches
                // still use the whole machine without oversubscribing it.
                // Reports are re-stitched by index, so ordering (and the
                // per-index seeds) are unaffected — and searches are
                // bit-identical for every thread count.
                let inner = (total / pool).max(1);
                let mut reports: Vec<Option<WorkloadReport>> =
                    (0..workloads.len()).map(|_| None).collect();
                std::thread::scope(|scope| {
                    let seeds = &seeds;
                    let handles: Vec<_> = (0..pool)
                        .map(|w| {
                            scope.spawn(move || {
                                workloads
                                    .iter()
                                    .enumerate()
                                    .skip(w)
                                    .step_by(pool)
                                    .map(|(i, wl)| (i, self.run_workload(wl, seeds[i], inner)))
                                    .collect::<Vec<(usize, WorkloadReport)>>()
                            })
                        })
                        .collect();
                    for h in handles {
                        for (i, r) in h.join().expect("workload worker panicked") {
                            reports[i] = Some(r);
                        }
                    }
                });
                return reports
                    .into_iter()
                    .map(|r| r.expect("every workload index is assigned to one worker"))
                    .collect();
            }
        }
        #[cfg(not(feature = "parallel"))]
        let _ = resolve_threads(self.workload_threads);

        workloads
            .iter()
            .zip(&seeds)
            .map(|(w, &seed)| self.run_workload(w, seed, self.strategy.threads()))
            .collect()
    }

    fn run_workload(&self, workload: &Workload, seed: u64, threads: usize) -> WorkloadReport {
        let strategy = self.strategy.reconfigured(seed, threads);
        let outcome = self.run_with_strategy(&workload.functions, &strategy);
        let plausibility = match &outcome {
            Ok(result) if self.attack_sweep => {
                // The sweep shards over the same thread share the
                // workload's inner search uses, unless the builder pinned
                // an explicit shard count. Verdicts are bit-identical to
                // the serial sweep either way.
                let shards = if self.attack_shards > 0 {
                    self.attack_shards
                } else {
                    resolve_threads(threads)
                };
                // The sweep runs through the flow's obfuscation space, so
                // camouflage and locking workloads take the identical
                // scheme-blind path.
                let space = self.obfuscation_space();
                if self.attack_interpretation_freedom {
                    // One sweep (one encoding) answers both the any-IO
                    // and the identity question — see
                    // [`PlausibilityVerdict::from_any_io`].
                    let any_io = mvf_attack::plausibility_sweep_any_io_in(
                        &space,
                        &result.mapped.netlist,
                        &result.merged.functions,
                        &mvf_attack::AnyIoOptions {
                            shards,
                            npn: self.attack_npn,
                            class_share: self.attack_class_share,
                            screen: self.attack_screen,
                            ..mvf_attack::AnyIoOptions::default()
                        },
                    );
                    Some(PlausibilityVerdict::from_any_io(any_io))
                } else {
                    let identity = mvf_attack::plausibility_sweep_in(
                        &space,
                        &result.mapped.netlist,
                        &result.merged.functions,
                        &mvf_attack::SweepOptions {
                            shards,
                            screen: self.attack_screen,
                            ..mvf_attack::SweepOptions::default()
                        },
                    );
                    Some(PlausibilityVerdict::from_identity(&identity))
                }
            }
            _ => None,
        };
        WorkloadReport {
            name: workload.name.clone(),
            seed,
            strategy: strategy.name(),
            outcome,
            plausibility,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_decorrelated_and_stable() {
        let a = derive_seed(0xC0FFEE, 0);
        let b = derive_seed(0xC0FFEE, 1);
        assert_ne!(a, b);
        assert_eq!(a, derive_seed(0xC0FFEE, 0), "derivation is pure");
        assert_ne!(a, derive_seed(0xC0FFEF, 0), "base seed matters");
    }

    #[test]
    fn workload_builder_carries_seed() {
        let w = Workload::new("empty", Vec::new()).with_seed(42);
        assert_eq!(w.seed, Some(42));
        assert_eq!(w.name, "empty");
    }

    #[test]
    fn resolve_seed_matches_run_many_derivation() {
        let w = Workload::new("w", Vec::new());
        assert_eq!(w.resolve_seed(0xC0FFEE, 3), derive_seed(0xC0FFEE, 3));
        let pinned = w.with_seed(7);
        assert_eq!(pinned.resolve_seed(0xC0FFEE, 3), 7);
    }

    #[test]
    fn report_display_is_a_stable_one_liner() {
        let report = WorkloadReport {
            name: "PRESENT x2".into(),
            seed: 0xA77,
            strategy: "ga",
            outcome: Err(MvfError::Merge(mvf_merge::MergeError::NoFunctions)),
            plausibility: None,
        };
        let line = report.to_string();
        assert!(
            line.starts_with("PRESENT x2 [ga, seed 0x0000000000000a77]: error:"),
            "{line}"
        );
        assert!(!line.contains('\n'), "summary must be one line: {line}");
    }

    #[test]
    fn empty_function_list_reports_an_error_not_a_panic() {
        let flow = Flow::builder().workload_threads(1).build();
        let reports = flow.run_many(&[Workload::new("empty", Vec::new())]);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].outcome.is_err());
        assert!(reports[0].result().is_none());
        assert!(reports[0].plausibility.is_none());
    }

    #[test]
    fn attack_sweep_attaches_all_true_verdicts() {
        use mvf_ga::GaConfig;
        let funcs = mvf_sboxes::optimal_sboxes()[..2].to_vec();
        let ga = GaConfig {
            population: 4,
            generations: 1,
            seed: 0xA77,
            ..GaConfig::default()
        };
        let flow = Flow::builder()
            .ga(ga.clone())
            .validate(false)
            .workload_threads(1)
            .attack_sweep(true)
            .attack_shards(2)
            .build();
        let reports = flow.run_many(&[Workload::new("PRESENT x2", funcs.clone())]);
        let verdicts = reports[0].plausibility.as_ref().expect("sweep attached");
        assert_eq!(verdicts.len(), funcs.len());
        assert!(
            verdicts.iter().all(|v| v.identity),
            "every viable function must stay plausible: {verdicts:?}"
        );
        // Interpretation freedom is opt-in; the plain sweep leaves the
        // any-IO fields empty.
        assert!(verdicts.iter().all(|v| v.any_io.is_none()));
        assert!(verdicts.iter().all(|v| v.witness.is_none()));
        // The red-team pass is opt-in: off by default.
        let flow = Flow::builder()
            .ga(ga)
            .validate(false)
            .workload_threads(1)
            .build();
        let reports = flow.run_many(&[Workload::new("PRESENT x2", funcs)]);
        assert!(reports[0].outcome.is_ok());
        assert!(reports[0].plausibility.is_none());
    }

    #[test]
    fn interpretation_freedom_attaches_any_io_verdicts() {
        use mvf_ga::GaConfig;
        let funcs = mvf_sboxes::optimal_sboxes()[..2].to_vec();
        let flow = Flow::builder()
            .ga(GaConfig {
                population: 4,
                generations: 1,
                seed: 0xA78,
                ..GaConfig::default()
            })
            .validate(false)
            .workload_threads(1)
            .attack_sweep(true)
            .attack_shards(2)
            .attack_interpretation_freedom(true)
            .build();
        let reports = flow.run_many(&[Workload::new("PRESENT x2", funcs.clone())]);
        let verdicts = reports[0].plausibility.as_ref().expect("sweep attached");
        assert_eq!(verdicts.len(), funcs.len());
        for v in verdicts {
            assert!(v.identity, "designed circuits keep identity plausibility");
            // Identity plausibility implies any-IO plausibility, and the
            // reported witness must then be the identity interpretation
            // (orbit index 0).
            assert_eq!(v.any_io, Some(true));
            let w = v.witness.as_ref().expect("witness for plausible");
            assert!(w.is_identity(), "witness must be the identity: {w:?}");
            assert_eq!(w.in_perm.as_slice(), &[0, 1, 2, 3]);
            assert_eq!(w.out_perm.as_slice(), &[0, 1, 2, 3]);
        }
    }
}
