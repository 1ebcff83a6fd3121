//! The end-to-end obfuscation flow: builder, configuration and results.

use mvf_aig::Script;
use mvf_cells::{CamoLibrary, Library};
use mvf_ga::{Ga, GaConfig, GenStats, SearchOutcome, SearchStrategy};
use mvf_logic::VectorFunction;
use mvf_merge::{build_merged, MergedCircuit, PinAssignment};
use mvf_netlist::subject_graph;
use mvf_obfuscate::{
    lock_library, lock_merged_netlist, LockOptions, LockedNetlist, ObfuscationSpace, SchemeKind,
};
use mvf_sim::ValidationError;
use mvf_techmap::{map_standard, CamoMapOptions, CamoMappedCircuit, CamoWitness, MapOptions};

use crate::error::MvfError;
use crate::eval::{EvalContext, PinObjective};

/// Configuration of the three-phase flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Synthesis script (used for fitness evaluation and the final
    /// circuit alike, as in the paper's single ABC script).
    pub script: Script,
    /// Genetic-algorithm settings (Phase II) — used by the default
    /// [`Ga`] strategy; ignored when [`FlowBuilder::build_with`] installs
    /// a different [`SearchStrategy`].
    pub ga: GaConfig,
    /// Plain-mapping options (area fitness).
    pub map: MapOptions,
    /// Camouflage-mapping options (Phase III).
    pub camo_map: CamoMapOptions,
    /// Validate the final circuit exhaustively (ModelSim substitute).
    pub validate: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            script: Script::fast(),
            ga: GaConfig::default(),
            map: MapOptions::default(),
            camo_map: CamoMapOptions::default(),
            validate: true,
        }
    }
}

/// Output of [`Flow::run`].
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The best pin assignment found by the search strategy.
    pub assignment: PinAssignment,
    /// The merged circuit for that assignment (synthesized).
    pub merged: MergedCircuit,
    /// Phase-II area: GE after synthesis + standard mapping ("GA" in
    /// Table I).
    pub synthesized_area_ge: f64,
    /// The obfuscated circuit ("GA+TM" in Table I): camouflage-mapped
    /// under [`SchemeKind::Camouflage`], key-gate-locked (with an empty
    /// doping witness) under [`SchemeKind::Locking`]. Either way the
    /// netlist is select-free and every viable function stays plausible.
    pub mapped: CamoMappedCircuit,
    /// Its GE area.
    pub mapped_area_ge: f64,
    /// The locking secret — sites and correct key — when the flow was
    /// built with [`FlowBuilder::scheme`]`(SchemeKind::Locking)`; `None`
    /// for camouflage flows. Key bits `0..n_selects` carry the select
    /// value: [`LockedNetlist::key_for_select`]`(j)` realizes viable
    /// function `j`.
    pub locked: Option<LockedNetlist>,
    /// Search statistics per batch (Fig. 4b; empty for strategies
    /// without a trajectory).
    pub ga_history: Vec<GenStats>,
    /// Total fitness evaluations spent by the search.
    pub evaluations: usize,
    /// Fitness evaluations that failed (merge/map error) and were scored
    /// as [`f64::INFINITY`]. Zero in a healthy run: the variation
    /// operators only produce valid assignments.
    pub failed_evaluations: usize,
}

/// Random-search baseline over pin assignments (Fig. 4a / Table I
/// "Random" columns).
#[derive(Debug, Clone)]
pub struct RandomBaseline {
    /// Mean sampled area.
    pub avg_area_ge: f64,
    /// Best sampled area.
    pub best_area_ge: f64,
    /// The best assignment found.
    pub best_assignment: PinAssignment,
    /// Every sampled area (histogram data for Fig. 4a).
    pub samples: Vec<f64>,
    /// Samples that failed to evaluate (scored [`f64::INFINITY`]).
    pub failed_evaluations: usize,
}

/// Builder for a [`Flow`]: cell libraries, synthesis script, mapper
/// options and search strategy are all pluggable.
///
/// # Example
///
/// ```
/// use mvf::{Flow, FlowBuilder};
/// use mvf_ga::{GaConfig, HillClimb};
/// use mvf_sboxes::optimal_sboxes;
///
/// let functions = optimal_sboxes()[..2].to_vec();
///
/// // Default GA strategy, custom budget:
/// let flow = Flow::builder()
///     .ga(GaConfig { population: 8, generations: 3, ..GaConfig::default() })
///     .build();
/// let result = flow.run(&functions)?;
/// assert!(result.mapped_area_ge > 0.0);
///
/// // Same pipeline, different search policy:
/// let flow = FlowBuilder::new()
///     .build_with(HillClimb { restarts: 1, steps: 4, batch: 4, ..HillClimb::default() });
/// let result = flow.run(&functions)?;
/// assert_eq!(result.failed_evaluations, 0);
/// # Ok::<(), mvf::MvfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowBuilder {
    config: FlowConfig,
    lib: Option<Library>,
    camo: Option<CamoLibrary>,
    scheme: SchemeKind,
    lock_opts: LockOptions,
    workload_threads: usize,
    attack_sweep: bool,
    attack_shards: usize,
    attack_interpretation_freedom: bool,
    attack_npn: bool,
    attack_class_share: bool,
    attack_screen: bool,
}

impl Default for FlowBuilder {
    fn default() -> Self {
        FlowBuilder {
            config: FlowConfig::default(),
            lib: None,
            camo: None,
            scheme: SchemeKind::Camouflage,
            lock_opts: LockOptions::default(),
            workload_threads: 0,
            attack_sweep: false,
            attack_shards: 0,
            attack_interpretation_freedom: false,
            // NPN completion and cross-candidate class sharing multiply
            // the orbit by 2^(n_in + n_out); strictly audit-tier, so
            // opt-in on top of interpretation freedom.
            attack_npn: false,
            attack_class_share: false,
            // The screen-then-solve funnel never changes a verdict, so
            // it is on unless an audit explicitly wants SAT-only runs.
            attack_screen: true,
        }
    }
}

impl FlowBuilder {
    /// A builder with the default configuration (standard library,
    /// derived camouflaged library, fast script, default GA).
    pub fn new() -> Self {
        FlowBuilder::default()
    }

    /// Replaces the whole [`FlowConfig`].
    #[must_use]
    pub fn config(mut self, config: FlowConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the synthesis script.
    #[must_use]
    pub fn script(mut self, script: Script) -> Self {
        self.config.script = script;
        self
    }

    /// Sets the GA engine settings used by the default [`Ga`] strategy.
    #[must_use]
    pub fn ga(mut self, ga: GaConfig) -> Self {
        self.config.ga = ga;
        self
    }

    /// Sets the plain-mapping (fitness) options.
    #[must_use]
    pub fn map(mut self, map: MapOptions) -> Self {
        self.config.map = map;
        self
    }

    /// Sets the camouflage-mapping (Phase III) options.
    #[must_use]
    pub fn camo_map(mut self, camo_map: CamoMapOptions) -> Self {
        self.config.camo_map = camo_map;
        self
    }

    /// Enables or disables exhaustive validation of the final circuit.
    #[must_use]
    pub fn validate(mut self, validate: bool) -> Self {
        self.config.validate = validate;
        self
    }

    /// Uses a custom standard-cell library instead of
    /// [`Library::standard`]. Unless [`FlowBuilder::camo_library`] is
    /// also given, the camouflaged library is derived from it.
    #[must_use]
    pub fn library(mut self, lib: Library) -> Self {
        self.lib = Some(lib);
        self
    }

    /// Uses a custom camouflaged-cell library instead of deriving one
    /// from the standard library.
    #[must_use]
    pub fn camo_library(mut self, camo: CamoLibrary) -> Self {
        self.camo = Some(camo);
        self
    }

    /// Selects the obfuscation family Phase III emits (default:
    /// [`SchemeKind::Camouflage`], the paper's flow). Under
    /// [`SchemeKind::Locking`] the standard-mapped merged circuit is
    /// key-gate-locked instead of camouflage-mapped: every select input
    /// is bound to a key bit and [`FlowBuilder::lock_options`] extra key
    /// gates are inserted, so the multiple-viable-function property is
    /// carried by the key rather than by doping choices.
    #[must_use]
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Key-gate insertion options for [`SchemeKind::Locking`] flows
    /// (ignored under camouflage).
    #[must_use]
    pub fn lock_options(mut self, opts: LockOptions) -> Self {
        self.lock_opts = opts;
        self
    }

    /// Worker threads for [`Flow::run_many`]'s workload-level
    /// parallelism (`0` = auto, `1` = serial). Results are identical for
    /// every setting.
    #[must_use]
    pub fn workload_threads(mut self, threads: usize) -> Self {
        self.workload_threads = threads;
        self
    }

    /// Enables the opt-in red-team pass of [`Flow::run_many`]: every
    /// successful workload's camouflaged netlist is swept through the SAT
    /// adversary ([`mvf_attack::plausibility_sweep`]) and the per-viable-
    /// function verdict vector is attached to its
    /// [`WorkloadReport::plausibility`](crate::WorkloadReport::plausibility).
    #[must_use]
    pub fn attack_sweep(mut self, enabled: bool) -> Self {
        self.attack_sweep = enabled;
        self
    }

    /// Worker shards for the red-team pass
    /// ([`mvf_attack::plausibility_sweep_sharded`]): each workload's
    /// candidate sweep clones the encoded solver per shard and answers
    /// queries in parallel. `0` (the default) gives every sweep the
    /// workload's inner thread share; verdicts are bit-identical for
    /// every shard count.
    #[must_use]
    pub fn attack_shards(mut self, shards: usize) -> Self {
        self.attack_shards = shards;
        self
    }

    /// Upgrades the red-team pass to the paper's **full** adversary: in
    /// addition to the identity-interpretation sweep, every viable
    /// function is tested for plausibility under *some* input/output pin
    /// permutation ([`mvf_attack::plausibility_sweep_any_io_sharded`],
    /// sharded per [`FlowBuilder::attack_shards`]), and the witness
    /// interpretation is attached to the report
    /// ([`PlausibilityVerdict::witness`](crate::PlausibilityVerdict)).
    ///
    /// Only meaningful together with [`FlowBuilder::attack_sweep`]. The
    /// orbit search costs up to `n_in! · n_out!` SAT queries per
    /// candidate (pruned by pin-symmetry signatures), so enable it for
    /// audit runs rather than every batch.
    #[must_use]
    pub fn attack_interpretation_freedom(mut self, enabled: bool) -> Self {
        self.attack_interpretation_freedom = enabled;
        self
    }

    /// Extends the full adversary's orbit from pin permutations to the
    /// complete NPN group: every viable function is additionally tested
    /// under all `2^n_in · 2^n_out` input/output polarity flips
    /// ([`mvf_attack::AnyIoOptions::npn`]), and the reported witness
    /// carries the negation masks. Only meaningful together with
    /// [`FlowBuilder::attack_interpretation_freedom`]; multiplies the
    /// orbit by `2^(n_in + n_out)`, so this is an audit-tier knob.
    #[must_use]
    pub fn attack_npn(mut self, enabled: bool) -> Self {
        self.attack_npn = enabled;
        self
    }

    /// Enables cross-candidate orbit-class sharing in the full adversary
    /// ([`mvf_attack::AnyIoOptions::class_share`]): candidates whose
    /// orbits coincide (same NPN/P class) share one screen pass and one
    /// SAT verdict cache, so each distinct transformed function is
    /// queried once per batch instead of once per candidate. Verdicts
    /// and witnesses are bit-identical with sharing off; only
    /// [`PlausibilityVerdict::queries`](crate::PlausibilityVerdict) and
    /// `screened` counts drop.
    #[must_use]
    pub fn attack_class_share(mut self, enabled: bool) -> Self {
        self.attack_class_share = enabled;
        self
    }

    /// Enables or disables the red-team pass's SAT-free screen (the
    /// screen-then-solve funnel, on by default): a word-parallel batch
    /// simulation over all enumerable doping configurations refutes —
    /// and, when the batch covers every minterm, confirms — candidates
    /// before any SAT query. Verdicts and witness permutations are
    /// bit-identical either way; only the
    /// [`PlausibilityVerdict::queries`](crate::PlausibilityVerdict)
    /// count changes. Disable for SAT-only audit baselines.
    #[must_use]
    pub fn attack_screen(mut self, enabled: bool) -> Self {
        self.attack_screen = enabled;
        self
    }

    /// Builds a flow with the default [`Ga`] strategy configured from
    /// [`FlowConfig::ga`].
    pub fn build(self) -> Flow<Ga> {
        let strategy = Ga::new(self.config.ga.clone());
        self.build_with(strategy)
    }

    /// Builds a flow with an explicit [`SearchStrategy`] for Phase II.
    pub fn build_with<S: SearchStrategy>(self, strategy: S) -> Flow<S> {
        let lib = self.lib.unwrap_or_else(Library::standard);
        let camo = self.camo.unwrap_or_else(|| CamoLibrary::from_library(&lib));
        let lock = lock_library(&lib);
        Flow {
            config: self.config,
            lib,
            camo,
            lock,
            scheme: self.scheme,
            lock_opts: self.lock_opts,
            strategy,
            workload_threads: self.workload_threads,
            attack_sweep: self.attack_sweep,
            attack_shards: self.attack_shards,
            attack_interpretation_freedom: self.attack_interpretation_freedom,
            attack_npn: self.attack_npn,
            attack_class_share: self.attack_class_share,
            attack_screen: self.attack_screen,
        }
    }
}

/// The end-to-end obfuscation flow (Phases I–III), generic over the
/// Phase-II [`SearchStrategy`] (default: the paper's [`Ga`]).
///
/// Construct with [`Flow::builder`].
#[derive(Debug, Clone)]
pub struct Flow<S = Ga> {
    pub(crate) config: FlowConfig,
    pub(crate) lib: Library,
    pub(crate) camo: CamoLibrary,
    pub(crate) lock: CamoLibrary,
    pub(crate) scheme: SchemeKind,
    pub(crate) lock_opts: LockOptions,
    pub(crate) strategy: S,
    pub(crate) workload_threads: usize,
    pub(crate) attack_sweep: bool,
    pub(crate) attack_shards: usize,
    pub(crate) attack_interpretation_freedom: bool,
    pub(crate) attack_npn: bool,
    pub(crate) attack_class_share: bool,
    pub(crate) attack_screen: bool,
}

impl Flow {
    /// Starts building a flow.
    pub fn builder() -> FlowBuilder {
        FlowBuilder::new()
    }
}

impl<S> Flow<S> {
    /// The configuration in use.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The standard library in use.
    pub fn library(&self) -> &Library {
        &self.lib
    }

    /// The camouflaged library in use.
    pub fn camo_library(&self) -> &CamoLibrary {
        &self.camo
    }

    /// The obfuscation family Phase III emits.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// The key-gate insertion options a locking flow uses.
    pub fn lock_options(&self) -> &LockOptions {
        &self.lock_opts
    }

    /// The choice-set library of the active scheme: the camouflaged
    /// library under [`SchemeKind::Camouflage`], the key-gate library
    /// under [`SchemeKind::Locking`]. This is the library the mapped
    /// netlist's `Camo` cell references index, and the one every
    /// attack-layer call must be handed.
    pub fn choice_library(&self) -> &CamoLibrary {
        match self.scheme {
            SchemeKind::Camouflage => &self.camo,
            SchemeKind::Locking => &self.lock,
        }
    }

    /// The [`ObfuscationSpace`] of this flow's outputs — the seam the
    /// attack layer and the audit service consume.
    pub fn obfuscation_space(&self) -> ObfuscationSpace<'_> {
        ObfuscationSpace::with_kind(self.scheme, &self.lib, self.choice_library())
    }

    /// The Phase-II search strategy in use.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Completes the flow for a fixed assignment (used for baselines and
    /// internally by [`Flow::run`]).
    ///
    /// # Errors
    ///
    /// Same as [`Flow::run`].
    pub fn finish(
        &self,
        functions: &[VectorFunction],
        assignment: PinAssignment,
        ga_history: Vec<GenStats>,
        evaluations: usize,
    ) -> Result<FlowResult, MvfError> {
        self.complete(functions, assignment, ga_history, evaluations, 0)
    }

    /// [`Flow::finish`] with an explicit failed-evaluation tally, for
    /// externally driven searches (checkpointed or stepped runners) that
    /// track their own failure count instead of going through
    /// [`Flow::run`].
    ///
    /// # Errors
    ///
    /// Same as [`Flow::run`].
    pub fn finish_with(
        &self,
        functions: &[VectorFunction],
        assignment: PinAssignment,
        ga_history: Vec<GenStats>,
        evaluations: usize,
        failed_evaluations: usize,
    ) -> Result<FlowResult, MvfError> {
        self.complete(
            functions,
            assignment,
            ga_history,
            evaluations,
            failed_evaluations,
        )
    }

    pub(crate) fn complete(
        &self,
        functions: &[VectorFunction],
        assignment: PinAssignment,
        ga_history: Vec<GenStats>,
        evaluations: usize,
        failed_evaluations: usize,
    ) -> Result<FlowResult, MvfError> {
        let mut merged = build_merged(functions, &assignment)?;
        merged.aig = self.config.script.run(&merged.aig);
        let subject = subject_graph::from_aig(&merged.aig, &self.lib);
        let plain = map_standard(&subject, &self.lib, &self.config.map)?;
        let synthesized_area = plain.area_ge(&self.lib, None);
        // One context carries the Phase-III scratch (camouflage matcher
        // tables, widened validation arena) through mapping *and*
        // validation.
        let mut ctx = EvalContext::new();
        let (mapped, locked) = match self.scheme {
            SchemeKind::Camouflage => {
                let mapped = ctx.map_camouflage(
                    &subject,
                    &self.lib,
                    &self.camo,
                    &merged.select_indices,
                    &self.config.camo_map,
                )?;
                (mapped, None)
            }
            SchemeKind::Locking => {
                // Phase III by key-gate insertion: the select inputs of
                // the standard-mapped merged circuit become key bits, so
                // the interface matches the camouflage path (select-free)
                // and every viable function stays reachable under its
                // select key.
                let locked = lock_merged_netlist(
                    &plain,
                    &self.lib,
                    &self.lock,
                    &merged.select_indices,
                    &self.lock_opts,
                )?;
                let mapped = CamoMappedCircuit {
                    netlist: locked.netlist.clone(),
                    witness: CamoWitness { cells: Vec::new() },
                };
                (mapped, Some(locked))
            }
        };
        let mapped_area = mapped
            .netlist
            .area_ge(&self.lib, Some(self.choice_library()));
        if self.config.validate {
            match &locked {
                None => ctx.validate_mapped(&mapped, &self.lib, &self.camo, &merged.functions)?,
                Some(locked) => self.validate_locked(locked, &merged.functions)?,
            }
        }
        Ok(FlowResult {
            assignment,
            merged,
            synthesized_area_ge: synthesized_area,
            mapped,
            mapped_area_ge: mapped_area,
            locked,
            ga_history,
            evaluations,
            failed_evaluations,
        })
    }

    /// Exhaustive locking validation (the ModelSim substitute of the
    /// locking path): under every select key the locked circuit must
    /// compute exactly that viable function.
    fn validate_locked(
        &self,
        locked: &LockedNetlist,
        functions: &[VectorFunction],
    ) -> Result<(), MvfError> {
        for (j, f) in functions.iter().enumerate() {
            let cfg = locked.config_for_key(&locked.key_for_select(j));
            let got = mvf_sim::eval_camo_netlist(&locked.netlist, &self.lib, &self.lock, &cfg)?;
            if got.len() != f.outputs().len() {
                return Err(ValidationError::ShapeMismatch(format!(
                    "locked circuit has {} outputs, function {j} expects {}",
                    got.len(),
                    f.outputs().len()
                ))
                .into());
            }
            for (output, (g, want)) in got.iter().zip(f.outputs()).enumerate() {
                if g != want {
                    return Err(ValidationError::FunctionMismatch {
                        function: j,
                        output,
                    }
                    .into());
                }
            }
        }
        Ok(())
    }
}

impl<S: SearchStrategy> Flow<S> {
    /// Runs Phases I–III on the viable functions.
    ///
    /// # Errors
    ///
    /// Returns an [`MvfError`] on merge/map failure, or a validation
    /// error if the mapped circuit cannot realize every viable function
    /// (which would indicate a bug, and is checked exhaustively when
    /// `config.validate` is set).
    pub fn run(&self, functions: &[VectorFunction]) -> Result<FlowResult, MvfError> {
        self.run_with_strategy(functions, &self.strategy)
    }

    /// [`Flow::run`] with the strategy reseeded to `seed` — the serial
    /// equivalent of one [`Flow::run_many`] batch entry.
    ///
    /// # Errors
    ///
    /// Same as [`Flow::run`].
    pub fn run_seeded(
        &self,
        functions: &[VectorFunction],
        seed: u64,
    ) -> Result<FlowResult, MvfError> {
        let strategy = self.strategy.reconfigured(seed, self.strategy.threads());
        self.run_with_strategy(functions, &strategy)
    }

    pub(crate) fn run_with_strategy(
        &self,
        functions: &[VectorFunction],
        strategy: &S,
    ) -> Result<FlowResult, MvfError> {
        let objective =
            PinObjective::new(functions, &self.config.script, &self.lib, &self.config.map);
        let SearchOutcome {
            best_genome,
            history,
            evaluations,
            ..
        } = strategy.search(&objective);
        self.complete(
            functions,
            best_genome,
            history,
            evaluations,
            objective.failed_evaluations(),
        )
    }

    /// Runs the equal-budget random baseline: `n_evals` random pin
    /// assignments evaluated with the same fitness as the search, using
    /// the strategy's worker thread-count.
    pub fn random_baseline(
        &self,
        functions: &[VectorFunction],
        n_evals: usize,
        seed: u64,
    ) -> RandomBaseline {
        let objective =
            PinObjective::new(functions, &self.config.script, &self.lib, &self.config.map);
        let rs =
            mvf_ga::random_search_objective(n_evals, seed, self.strategy.threads(), &objective);
        RandomBaseline {
            avg_area_ge: rs.avg_fitness,
            best_area_ge: rs.best_fitness,
            best_assignment: rs.best_genome,
            samples: rs.samples,
            failed_evaluations: objective.failed_evaluations(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{random_assignment, EvalContext};
    use mvf_sboxes::optimal_sboxes;

    fn tiny_flow() -> Flow<Ga> {
        Flow::builder()
            .ga(GaConfig {
                population: 6,
                generations: 2,
                seed: 7,
                ..GaConfig::default()
            })
            .build()
    }

    #[test]
    fn fitness_is_finite_and_positive() {
        let funcs = optimal_sboxes()[..2].to_vec();
        let flow = Flow::builder().build();
        let a = PinAssignment::identity(&funcs);
        let area = EvalContext::new()
            .synthesized_area_ge(
                &funcs,
                &a,
                &flow.config().script,
                flow.library(),
                &flow.config().map,
            )
            .expect("fitness");
        assert!(area.is_finite() && area > 0.0, "area = {area}");
    }

    #[test]
    fn small_flow_end_to_end() {
        let funcs = optimal_sboxes()[..2].to_vec();
        let flow = tiny_flow();
        let result = flow.run(&funcs).expect("flow succeeds");
        assert!(result.mapped_area_ge > 0.0);
        assert!(
            result.mapped_area_ge <= result.synthesized_area_ge,
            "TM must not grow area: {} vs {}",
            result.mapped_area_ge,
            result.synthesized_area_ge
        );
        assert_eq!(result.ga_history.len(), 3);
        assert_eq!(result.failed_evaluations, 0);
        // The mapped netlist has no select inputs.
        assert_eq!(result.mapped.netlist.inputs().len(), 4);
    }

    #[test]
    fn baseline_matches_sample_statistics() {
        let funcs = optimal_sboxes()[..2].to_vec();
        let flow = Flow::builder().build();
        let base = flow.random_baseline(&funcs, 5, 3);
        assert_eq!(base.samples.len(), 5);
        assert_eq!(base.failed_evaluations, 0);
        let min = base.samples.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((base.best_area_ge - min).abs() < 1e-9);
        assert!(base.best_area_ge <= base.avg_area_ge);
    }

    #[test]
    fn builder_accepts_custom_libraries_and_options() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let flow = Flow::builder()
            .library(lib)
            .camo_library(camo)
            .script(Script::fast())
            .map(MapOptions::default())
            .camo_map(CamoMapOptions::default())
            .validate(false)
            .workload_threads(1)
            .build();
        assert!(!flow.config().validate);
        let funcs = optimal_sboxes()[..2].to_vec();
        let a = PinAssignment::identity(&funcs);
        let result = flow
            .finish(&funcs, a, Vec::new(), 0)
            .expect("finish succeeds");
        assert!(result.mapped_area_ge > 0.0);
    }

    #[test]
    fn run_seeded_overrides_the_strategy_seed() {
        let funcs = optimal_sboxes()[..2].to_vec();
        let flow = tiny_flow();
        let a = flow.run_seeded(&funcs, 0xFEED).expect("flow succeeds");
        let b = flow.run_seeded(&funcs, 0xFEED).expect("flow succeeds");
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(
            a.synthesized_area_ge.to_bits(),
            b.synthesized_area_ge.to_bits()
        );
    }

    #[test]
    fn hill_climb_strategy_runs_the_flow() {
        use mvf_ga::HillClimb;
        let funcs = optimal_sboxes()[..2].to_vec();
        let flow = FlowBuilder::new().build_with(HillClimb {
            restarts: 1,
            steps: 2,
            batch: 4,
            seed: 2,
            threads: 0,
        });
        let result = flow.run(&funcs).expect("flow succeeds");
        assert_eq!(result.evaluations, flow.strategy().evaluation_budget());
        assert_eq!(result.failed_evaluations, 0);
        assert!(result.mapped_area_ge > 0.0);
    }

    #[test]
    fn locking_flow_end_to_end() {
        let funcs = optimal_sboxes()[..2].to_vec();
        let flow = Flow::builder()
            .ga(GaConfig {
                population: 4,
                generations: 1,
                seed: 9,
                ..GaConfig::default()
            })
            .scheme(SchemeKind::Locking)
            .build();
        assert_eq!(flow.scheme(), SchemeKind::Locking);
        assert_eq!(flow.obfuscation_space().kind(), SchemeKind::Locking);
        // validate defaults to true: `run` exhaustively checks every
        // select key realizes its viable function before returning.
        let result = flow.run(&funcs).expect("locking flow succeeds");
        let locked = result
            .locked
            .as_ref()
            .expect("locking flow carries the key");
        assert_eq!(locked.n_selects, 1, "two functions need one select bit");
        assert_eq!(
            locked.key_bits(),
            1 + flow.lock_options().n_xor + flow.lock_options().n_mux
        );
        // Same select-free interface as the camouflage path, but the
        // witness is carried by the key, not by doping choices.
        assert_eq!(result.mapped.netlist.inputs().len(), 4);
        assert!(result.mapped.witness.cells.is_empty());
        assert!(
            result.mapped_area_ge > result.synthesized_area_ge,
            "key gates add area on top of the plain mapping"
        );
    }

    #[test]
    fn random_assignments_are_valid() {
        use rand::SeedableRng;
        let funcs = optimal_sboxes()[..4].to_vec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let a = random_assignment(&funcs, &mut rng);
            build_merged(&funcs, &a).expect("valid random assignment");
        }
    }
}
