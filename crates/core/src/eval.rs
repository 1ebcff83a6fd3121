//! Reusable fitness evaluation: the Phase-II objective and its context.
//!
//! One Phase-II fitness call is a full `merge → synthesize → tech-map`
//! pipeline. Run cold, every call reallocates synthesis caches, cut
//! buffers, subject-graph maps and matcher tables; a GA run performs
//! thousands of such calls. [`EvalContext`] owns all of that state and
//! is threaded through the [`Objective`] machinery so each worker thread
//! reuses one context across its whole batch — identical results,
//! far fewer allocations, and a synthesis-level NPN/recipe cache that
//! stays warm across evaluations.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::Rng;

use mvf_aig::{Script, SynthScratch};
use mvf_cells::Library;
use mvf_ga::permutation::{pmx, random_permutation, swap_mutation};
use mvf_ga::Objective;
use mvf_logic::VectorFunction;
use mvf_merge::{build_merged, PinAssignment};
use mvf_netlist::subject_graph::{self, SubjectScratch};
use mvf_techmap::{map_standard_with, MapOptions, MatchScratch};

use crate::error::MvfError;

/// Reusable evaluation state for repeated Phase-II fitness calls.
///
/// Holds the synthesis scratch (NPN-canonicalization and recipe caches,
/// cut buffers, truth-table arena), the AIG→subject-graph lowering maps
/// and the standard mapper's covering arena; standard-cell matching goes
/// through the library's own match index. Phase III (camouflage mapping
/// and validation) runs once per workload in [`crate::Flow::finish_with`],
/// so it keeps no state here. Reuse never changes results: every cached
/// entry equals what recomputation would produce.
///
/// # Example
///
/// ```
/// use mvf::EvalContext;
/// use mvf_aig::Script;
/// use mvf_cells::Library;
/// use mvf_merge::PinAssignment;
/// use mvf_sboxes::optimal_sboxes;
/// use mvf_techmap::MapOptions;
///
/// let functions = optimal_sboxes()[..2].to_vec();
/// let lib = Library::standard();
/// let mut ctx = EvalContext::new();
/// let a = PinAssignment::identity(&functions);
/// let area = ctx.synthesized_area_ge(
///     &functions,
///     &a,
///     &Script::fast(),
///     &lib,
///     &MapOptions::default(),
/// )?;
/// assert!(area > 0.0);
/// # Ok::<(), mvf::MvfError>(())
/// ```
#[derive(Debug, Default)]
pub struct EvalContext {
    synth: SynthScratch,
    subject: SubjectScratch,
    matcher: MatchScratch,
}

impl EvalContext {
    /// A fresh, empty context.
    pub fn new() -> Self {
        EvalContext::default()
    }

    /// The Phase-II fitness: merge under `assignment`, synthesize with
    /// `script`, map onto `lib` and return the GE area — with every
    /// scratch structure reused from this context.
    ///
    /// # Errors
    ///
    /// Returns an [`MvfError`] if merging or mapping fails.
    pub fn synthesized_area_ge(
        &mut self,
        functions: &[VectorFunction],
        assignment: &PinAssignment,
        script: &Script,
        lib: &Library,
        map: &MapOptions,
    ) -> Result<f64, MvfError> {
        let merged = build_merged(functions, assignment)?;
        let synthesized = script.run_with(&merged.aig, &mut self.synth);
        let subject = subject_graph::from_aig_with(&synthesized, lib, &mut self.subject);
        let mapped = map_standard_with(&subject, lib, map, &mut self.matcher)?;
        Ok(mapped.area_ge(lib, None))
    }
}

/// Draws a uniformly random pin assignment for the given functions.
pub fn random_assignment(functions: &[VectorFunction], rng: &mut StdRng) -> PinAssignment {
    PinAssignment {
        input_perms: functions
            .iter()
            .map(|f| random_permutation(f.n_inputs(), rng))
            .collect(),
        output_perms: functions
            .iter()
            .map(|f| random_permutation(f.n_outputs(), rng))
            .collect(),
    }
}

/// Mutation: swap two pins in one random permutation of the genotype.
pub(crate) fn mutate_assignment(g: &mut PinAssignment, rng: &mut StdRng) {
    let n = g.input_perms.len();
    if n == 0 {
        // Degenerate genome (empty workload): nothing to mutate; the
        // merge step reports the real error.
        return;
    }
    // Function 0's pins can stay fixed (a global relabeling is free), but
    // keeping all functions mutable matches the paper's genotype.
    let j = rng.gen_range(0..n);
    if rng.gen_bool(0.5) {
        swap_mutation(&mut g.input_perms[j], rng);
    } else {
        swap_mutation(&mut g.output_perms[j], rng);
    }
}

/// Crossover: per-function PMX on input and output permutations.
pub(crate) fn crossover_assignment(
    a: &PinAssignment,
    b: &PinAssignment,
    rng: &mut StdRng,
) -> PinAssignment {
    let input_perms = a
        .input_perms
        .iter()
        .zip(&b.input_perms)
        .map(|(x, y)| {
            if rng.gen_bool(0.5) {
                pmx(x, y, rng)
            } else {
                x.clone()
            }
        })
        .collect();
    let output_perms = a
        .output_perms
        .iter()
        .zip(&b.output_perms)
        .map(|(x, y)| {
            if rng.gen_bool(0.5) {
                pmx(x, y, rng)
            } else {
                x.clone()
            }
        })
        .collect();
    PinAssignment {
        input_perms,
        output_perms,
    }
}

/// The paper's Phase-II search problem as an [`Objective`]: genomes are
/// [`PinAssignment`]s, variation is pin-swap mutation and per-function
/// PMX crossover, and fitness is the synthesized GE area evaluated
/// through a reusable [`EvalContext`].
///
/// Merge/map failures (which cannot occur for well-formed assignments,
/// but the search must stay total) score as [`f64::INFINITY`] and are
/// counted; [`PinObjective::failed_evaluations`] reports the count, which
/// flows into [`crate::FlowResult::failed_evaluations`].
pub struct PinObjective<'a> {
    functions: &'a [VectorFunction],
    script: &'a Script,
    lib: &'a Library,
    map: &'a MapOptions,
    failures: AtomicUsize,
}

impl<'a> PinObjective<'a> {
    /// An objective over the given viable functions and evaluation
    /// settings.
    pub fn new(
        functions: &'a [VectorFunction],
        script: &'a Script,
        lib: &'a Library,
        map: &'a MapOptions,
    ) -> Self {
        PinObjective {
            functions,
            script,
            lib,
            map,
            failures: AtomicUsize::new(0),
        }
    }

    /// Number of fitness evaluations that failed (merge or map error) and
    /// were scored as [`f64::INFINITY`] so far.
    pub fn failed_evaluations(&self) -> usize {
        self.failures.load(Ordering::Relaxed)
    }
}

impl Objective for PinObjective<'_> {
    type Genome = PinAssignment;
    type Ctx = EvalContext;

    fn new_ctx(&self) -> EvalContext {
        EvalContext::new()
    }

    fn init(&self, rng: &mut StdRng) -> PinAssignment {
        random_assignment(self.functions, rng)
    }

    fn mutate(&self, genome: &mut PinAssignment, rng: &mut StdRng) {
        mutate_assignment(genome, rng);
    }

    fn crossover(&self, a: &PinAssignment, b: &PinAssignment, rng: &mut StdRng) -> PinAssignment {
        crossover_assignment(a, b, rng)
    }

    fn evaluate(&self, ctx: &mut EvalContext, genome: &PinAssignment) -> f64 {
        ctx.synthesized_area_ge(self.functions, genome, self.script, self.lib, self.map)
            .unwrap_or_else(|_| {
                self.failures.fetch_add(1, Ordering::Relaxed);
                f64::INFINITY
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_sboxes::optimal_sboxes;
    use rand::SeedableRng;

    #[test]
    fn context_reuse_is_bit_identical_to_cold_calls() {
        let funcs = optimal_sboxes()[..2].to_vec();
        let lib = Library::standard();
        let script = Script::fast();
        let map = MapOptions::default();
        let mut rng = StdRng::seed_from_u64(17);
        let mut ctx = EvalContext::new();
        for _ in 0..4 {
            let a = random_assignment(&funcs, &mut rng);
            let warm = ctx
                .synthesized_area_ge(&funcs, &a, &script, &lib, &map)
                .expect("fitness");
            let cold = EvalContext::new()
                .synthesized_area_ge(&funcs, &a, &script, &lib, &map)
                .expect("fitness");
            assert_eq!(warm.to_bits(), cold.to_bits());
        }
    }

    #[test]
    fn objective_counts_no_failures_on_valid_assignments() {
        let funcs = optimal_sboxes()[..2].to_vec();
        let lib = Library::standard();
        let script = Script::fast();
        let map = MapOptions::default();
        let obj = PinObjective::new(&funcs, &script, &lib, &map);
        let mut ctx = mvf_ga::Objective::new_ctx(&obj);
        let mut rng = StdRng::seed_from_u64(5);
        let g = mvf_ga::Objective::init(&obj, &mut rng);
        let f = mvf_ga::Objective::evaluate(&obj, &mut ctx, &g);
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(obj.failed_evaluations(), 0);
    }

    #[test]
    fn mutation_and_crossover_keep_assignments_valid() {
        let funcs = optimal_sboxes()[..4].to_vec();
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = random_assignment(&funcs, &mut rng);
        let b = random_assignment(&funcs, &mut rng);
        for _ in 0..50 {
            mutate_assignment(&mut a, &mut rng);
            let c = crossover_assignment(&a, &b, &mut rng);
            // Validity is enforced by build_merged; it must not error.
            build_merged(&funcs, &c).expect("valid child");
        }
        build_merged(&funcs, &a).expect("valid mutant");
    }
}
