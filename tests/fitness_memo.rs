//! The fitness memo at the paper's budget: counts and bits, pinned.
//!
//! A GA scores each distinct pin assignment once per search and answers
//! repeats from its memo. At the paper's nominal budget (population 24,
//! 442 generations: 9,748 fitness calls) the GA of PRESENT x2 and x4
//! meets only a few hundred distinct assignments. This test runs that
//! search through a [`PinObjective`] wrapper that counts the evaluations
//! reaching it, and pins the call count, the distinct-evaluation count,
//! the history length and the best-fitness bits, which are the values
//! the search had before it was memoized.
//!
//! The search takes seconds in release and minutes in debug, so it is
//! ignored by the default suite; CI runs it with
//! `cargo test --release -q --test fitness_memo -- --ignored`. It checks
//! counts and bits only, never wall-clock.

use std::sync::atomic::{AtomicUsize, Ordering};

use mvf::{EvalContext, FlowConfig, PinObjective};
use mvf_cells::Library;
use mvf_ga::{Ga, GaConfig, Objective, SearchStrategy};
use mvf_merge::PinAssignment;
use mvf_sboxes::optimal_sboxes;
use rand::rngs::StdRng;

/// [`PinObjective`] with a count of the evaluations that reach it.
struct Counted<'a> {
    inner: PinObjective<'a>,
    evaluations: AtomicUsize,
}

impl Objective for Counted<'_> {
    type Genome = PinAssignment;
    type Ctx = EvalContext;

    fn new_ctx(&self) -> EvalContext {
        self.inner.new_ctx()
    }

    fn init(&self, rng: &mut StdRng) -> PinAssignment {
        self.inner.init(rng)
    }

    fn mutate(&self, genome: &mut PinAssignment, rng: &mut StdRng) {
        self.inner.mutate(genome, rng);
    }

    fn crossover(&self, a: &PinAssignment, b: &PinAssignment, rng: &mut StdRng) -> PinAssignment {
        self.inner.crossover(a, b, rng)
    }

    fn evaluate(&self, ctx: &mut EvalContext, genome: &PinAssignment) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(ctx, genome)
    }
}

#[test]
#[ignore = "paper-budget GA: seconds in release, minutes in debug"]
fn paper_budget_ga_scores_each_distinct_assignment_once() {
    let flow = FlowConfig::default();
    let lib = Library::standard();
    let ga = Ga::new(GaConfig {
        population: 24,
        generations: 442,
        seed: 0x5EED,
        threads: 1,
        ..GaConfig::default()
    });
    // (S-boxes, distinct evaluations, best fitness in GE)
    let cases: [(usize, usize, f64); 2] =
        [(2, 379, 60.649999999999984), (4, 741, 120.30999999999997)];
    for (n, distinct, best) in cases {
        let functions = optimal_sboxes()[..n].to_vec();
        let objective = Counted {
            inner: PinObjective::new(&functions, &flow.script, &lib, &flow.map),
            evaluations: AtomicUsize::new(0),
        };
        let outcome = ga.search(&objective);
        assert_eq!(outcome.evaluations, 9_748, "PRESENT x{n}: fitness calls");
        assert_eq!(outcome.evaluations, ga.evaluation_budget());
        assert_eq!(
            objective.evaluations.load(Ordering::Relaxed),
            distinct,
            "PRESENT x{n}: distinct evaluations"
        );
        assert_eq!(outcome.history.len(), 443, "PRESENT x{n}: generations");
        assert_eq!(
            outcome.best_fitness.to_bits(),
            best.to_bits(),
            "PRESENT x{n}: best fitness {}",
            outcome.best_fitness
        );
        assert_eq!(objective.inner.failed_evaluations(), 0);
    }
}
