//! Pluggable search strategies over a shared [`Objective`].
//!
//! The paper's Phase II is "a search over pin assignments whose fitness
//! is the synthesized area" — the *search algorithm* (GA in the paper,
//! random search as its baseline) is a policy choice, not part of the
//! problem. This module makes that explicit:
//!
//! * [`Objective`] describes the problem once: how to draw, perturb and
//!   combine genomes, and how to score one through a reusable
//!   per-worker evaluation context;
//! * [`SearchStrategy`] is the policy: [`Ga`] (the paper's Phase II),
//!   [`RandomSearch`] (the equal-budget baseline of Fig. 4) and
//!   [`HillClimb`] (batched stochastic hill climbing with restarts).
//!
//! Every strategy is deterministic given its seed, scores genome batches
//! through one batch evaluator (so the `parallel` feature keeps its
//! bit-identical guarantee) that evaluates each distinct genome once per
//! search, and reports a uniform [`SearchOutcome`].
//!
//! # Example
//!
//! ```
//! use mvf_ga::{HillClimb, Objective, SearchStrategy};
//! use rand::rngs::StdRng;
//! use rand::Rng;
//!
//! /// Minimize the number of set bits of a 16-bit word.
//! struct Bits;
//! impl Objective for Bits {
//!     type Genome = u16;
//!     type Ctx = ();
//!     fn new_ctx(&self) {}
//!     fn init(&self, rng: &mut StdRng) -> u16 {
//!         rng.gen()
//!     }
//!     fn mutate(&self, g: &mut u16, rng: &mut StdRng) {
//!         *g ^= 1u16 << rng.gen_range(0..16);
//!     }
//!     fn crossover(&self, a: &u16, b: &u16, _rng: &mut StdRng) -> u16 {
//!         (a & 0xFF00) | (b & 0x00FF)
//!     }
//!     fn evaluate(&self, _ctx: &mut (), g: &u16) -> f64 {
//!         g.count_ones() as f64
//!     }
//! }
//!
//! let outcome = HillClimb::default().search(&Bits);
//! assert!(outcome.best_fitness <= 4.0);
//! ```

use std::hash::Hash;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{random_search_inner, GaConfig, GenStats, GeneticAlgorithm, ObjectiveRunner, Scorer};

/// A search problem: genome construction, variation operators and a
/// context-threaded fitness function (minimized).
///
/// The context ([`Objective::Ctx`]) is the reuse hook for expensive
/// fitness evaluation: every worker thread creates one context with
/// [`Objective::new_ctx`] and threads it through all of its
/// [`Objective::evaluate`] calls, so scratch state (arenas, caches,
/// buffers) lives across evaluations instead of being reallocated per
/// call. Evaluation must be a pure function of the genome — the context
/// may only carry state whose reuse cannot change results.
///
/// Purity is load-bearing: every search scores each distinct genome once
/// and answers repeats from a genome → fitness memo (hence the
/// `Hash + Eq` bound on [`Objective::Genome`]), so an objective with side
/// effects sees each distinct genome once per search. Only finite fitness
/// is memoized: a genome scored non-finite (a failed evaluation) is
/// evaluated again on every call, so an objective that counts failures
/// counts one per call.
pub trait Objective: Sync {
    /// The genome type being searched; equal genomes must score equally.
    type Genome: Clone + Hash + Eq + Send + Sync;
    /// Per-worker evaluation scratch; use `()` when evaluation needs
    /// none. `Send` so worker slots can persist across parallel batches.
    type Ctx: Send;

    /// Creates one per-worker evaluation context.
    fn new_ctx(&self) -> Self::Ctx;
    /// Draws a random genome.
    fn init(&self, rng: &mut StdRng) -> Self::Genome;
    /// Perturbs a genome in place.
    fn mutate(&self, genome: &mut Self::Genome, rng: &mut StdRng);
    /// Combines two parents into a child.
    fn crossover(&self, a: &Self::Genome, b: &Self::Genome, rng: &mut StdRng) -> Self::Genome;
    /// Scores a genome (lower is better).
    fn evaluate(&self, ctx: &mut Self::Ctx, genome: &Self::Genome) -> f64;
}

/// The uniform result of a [`SearchStrategy`] run.
#[derive(Debug, Clone)]
pub struct SearchOutcome<G> {
    /// The best genome found.
    pub best_genome: G,
    /// Its fitness.
    pub best_fitness: f64,
    /// Per-batch statistics, where a batch is a GA generation, a
    /// hill-climbing step, or empty for strategies without a trajectory
    /// (random search).
    pub history: Vec<GenStats>,
    /// Total fitness calls the search made, memo hits included (the
    /// strategy's evaluation budget).
    pub evaluations: usize,
    /// Every sampled fitness in evaluation order, when the strategy
    /// retains them (random search; `None` otherwise).
    pub samples: Option<Vec<f64>>,
}

/// A pluggable search policy over any [`Objective`].
///
/// Strategies are deterministic given their seed and honor a worker
/// thread-count setting interpreted like [`GaConfig::threads`]
/// (`0` = auto). Results are bit-identical for every thread count.
pub trait SearchStrategy: Clone + Send + Sync {
    /// Runs the search to completion.
    fn search<O: Objective>(&self, objective: &O) -> SearchOutcome<O::Genome>;

    /// A copy of this strategy with a different seed and worker
    /// thread-count (used to derive per-workload searches in batch runs).
    #[must_use]
    fn reconfigured(&self, seed: u64, threads: usize) -> Self;

    /// The RNG seed the search will use.
    fn seed(&self) -> u64;

    /// The configured worker thread-count (`0` = auto).
    fn threads(&self) -> usize;

    /// Total fitness evaluations a run will perform.
    fn evaluation_budget(&self) -> usize;

    /// A short human-readable name ("ga", "random", "hill-climb").
    fn name(&self) -> &'static str;
}

/// The paper's Phase II: a genetic algorithm over the objective's
/// genome. A search is [`ObjectiveRunner::start`] followed by
/// [`ObjectiveRunner::finish`], so it is bit-identical to a stepped,
/// checkpointed or resumed run with the same [`GaConfig`].
#[derive(Debug, Clone, Default)]
pub struct Ga {
    cfg: GaConfig,
}

impl Ga {
    /// A GA strategy with the given engine configuration.
    pub fn new(cfg: GaConfig) -> Self {
        Ga { cfg }
    }

    /// The engine configuration.
    pub fn config(&self) -> &GaConfig {
        &self.cfg
    }
}

impl SearchStrategy for Ga {
    fn search<O: Objective>(&self, objective: &O) -> SearchOutcome<O::Genome> {
        ObjectiveRunner::start(GeneticAlgorithm::new(self.cfg.clone()), objective).finish()
    }

    fn reconfigured(&self, seed: u64, threads: usize) -> Self {
        let mut cfg = self.cfg.clone();
        cfg.seed = seed;
        cfg.threads = threads;
        Ga { cfg }
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn threads(&self) -> usize {
        self.cfg.threads
    }

    fn evaluation_budget(&self) -> usize {
        GeneticAlgorithm::new(self.cfg.clone()).evaluation_budget()
    }

    fn name(&self) -> &'static str {
        "ga"
    }
}

/// The equal-budget random baseline of Fig. 4 as a strategy: `n_evals`
/// independent draws, every sampled fitness retained.
///
/// Candidates stream through an evaluation chunk sized from the thread
/// count, so a paper-scale budget (`MVF_PAPER_SCALE=1`: 9,726
/// evaluations per workload) never materializes the whole batch; results
/// are bit-identical for every chunk size and thread count. A search
/// with `n_evals == 0` panics.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    /// Number of genomes drawn and evaluated.
    pub n_evals: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (`0` = auto, `1` = serial).
    pub threads: usize,
}

impl Default for RandomSearch {
    fn default() -> Self {
        RandomSearch {
            n_evals: 1000,
            seed: 0xBA5E,
            threads: 0,
        }
    }
}

impl SearchStrategy for RandomSearch {
    fn search<O: Objective>(&self, objective: &O) -> SearchOutcome<O::Genome> {
        random_search_inner(self.n_evals, self.seed, self.threads, 0, objective)
    }

    fn reconfigured(&self, seed: u64, threads: usize) -> Self {
        RandomSearch {
            seed,
            threads,
            ..self.clone()
        }
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn evaluation_budget(&self) -> usize {
        self.n_evals
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Batched stochastic hill climbing with random restarts.
///
/// Each restart draws a fresh genome and then repeatedly proposes
/// `batch` mutated neighbors, evaluated as one batch (parallel with the
/// `parallel` feature); the climb moves to the best neighbor whenever it
/// improves on the incumbent. Like the GA, neighbors are bred serially
/// from per-individual RNG streams before the batch is scored, so runs
/// are bit-identical across thread counts.
///
/// This is the cheap middle ground between [`RandomSearch`] and [`Ga`]:
/// it exploits locality of the pin-assignment landscape (one swap is a
/// small area change) without maintaining a population.
#[derive(Debug, Clone)]
pub struct HillClimb {
    /// Independent climbs from fresh random starting points.
    pub restarts: usize,
    /// Neighbor batches evaluated per climb.
    pub steps: usize,
    /// Mutated neighbors proposed per step.
    pub batch: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (`0` = auto, `1` = serial).
    pub threads: usize,
}

impl Default for HillClimb {
    fn default() -> Self {
        HillClimb {
            restarts: 3,
            steps: 25,
            batch: 8,
            seed: 0xC11B,
            threads: 0,
        }
    }
}

impl SearchStrategy for HillClimb {
    fn search<O: Objective>(&self, objective: &O) -> SearchOutcome<O::Genome> {
        assert!(self.restarts > 0, "hill climb needs at least one restart");
        assert!(self.batch > 0, "hill climb needs a positive batch size");
        let mut master = StdRng::seed_from_u64(self.seed);
        let mut history = Vec::with_capacity(self.restarts * (self.steps + 1));
        let mut evaluations = 0usize;
        let mut global: Option<(O::Genome, f64)> = None;
        // One scorer (contexts and memo) for every step and restart of the
        // climb.
        let mut scorer = Scorer::new(self.threads);
        for _ in 0..self.restarts {
            let mut stream = StdRng::seed_from_u64(master.gen::<u64>());
            let start = objective.init(&mut stream);
            let start_fit = scorer.score(std::slice::from_ref(&start), objective)[0];
            evaluations += 1;
            let mut current = (start, start_fit);
            if global.as_ref().is_none_or(|g| current.1 < g.1) {
                global = Some(current.clone());
            }
            let best_so_far = global.as_ref().expect("set above").1;
            history.push(GenStats {
                best_so_far,
                best: start_fit,
                avg: start_fit,
            });
            for _ in 0..self.steps {
                // Breed serially from pre-drawn streams, then score the
                // batch — the same discipline as the GA engine.
                let mut neighbors: Vec<O::Genome> = Vec::with_capacity(self.batch);
                for _ in 0..self.batch {
                    let mut stream = StdRng::seed_from_u64(master.gen::<u64>());
                    let mut n = current.0.clone();
                    objective.mutate(&mut n, &mut stream);
                    neighbors.push(n);
                }
                let fits = scorer.score(&neighbors, objective);
                evaluations += neighbors.len();
                let avg = fits.iter().sum::<f64>() / fits.len() as f64;
                let (best_idx, best_fit) = fits
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("batch > 0");
                if best_fit < current.1 {
                    current = (neighbors.swap_remove(best_idx), best_fit);
                    if global.as_ref().is_none_or(|g| current.1 < g.1) {
                        global = Some(current.clone());
                    }
                }
                history.push(GenStats {
                    best_so_far: global.as_ref().expect("set above").1,
                    best: best_fit,
                    avg,
                });
            }
        }
        let (best_genome, best_fitness) = global.expect("restarts > 0");
        SearchOutcome {
            best_genome,
            best_fitness,
            history,
            evaluations,
            samples: None,
        }
    }

    fn reconfigured(&self, seed: u64, threads: usize) -> Self {
        HillClimb {
            seed,
            threads,
            ..self.clone()
        }
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn evaluation_budget(&self) -> usize {
        self.restarts * (1 + self.steps * self.batch)
    }

    fn name(&self) -> &'static str {
        "hill-climb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize the squared distance of an integer 6-vector from the
    /// origin.
    struct Sphere;

    impl Objective for Sphere {
        type Genome = Vec<i32>;
        type Ctx = usize; // counts evaluations per worker context

        fn new_ctx(&self) -> usize {
            0
        }
        fn init(&self, rng: &mut StdRng) -> Vec<i32> {
            (0..6).map(|_| rng.gen_range(-10..10)).collect()
        }
        fn mutate(&self, g: &mut Vec<i32>, rng: &mut StdRng) {
            let i = rng.gen_range(0..g.len());
            g[i] += rng.gen_range(-1..=1);
        }
        fn crossover(&self, a: &Vec<i32>, b: &Vec<i32>, rng: &mut StdRng) -> Vec<i32> {
            let cut = rng.gen_range(0..a.len());
            a[..cut].iter().chain(b[cut..].iter()).copied().collect()
        }
        fn evaluate(&self, ctx: &mut usize, g: &Vec<i32>) -> f64 {
            *ctx += 1;
            g.iter().map(|&x| f64::from(x * x)).sum()
        }
    }

    #[test]
    fn random_search_strategy_keeps_samples() {
        let rs = RandomSearch {
            n_evals: 40,
            seed: 3,
            threads: 1,
        };
        let out = rs.search(&Sphere);
        let samples = out.samples.expect("random search retains samples");
        assert_eq!(samples.len(), 40);
        assert_eq!(out.evaluations, rs.evaluation_budget());
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(out.best_fitness.to_bits(), min.to_bits());
    }

    #[test]
    fn hill_climb_improves_and_is_deterministic() {
        let hc = HillClimb {
            restarts: 2,
            steps: 20,
            batch: 6,
            seed: 0x5EED,
            threads: 1,
        };
        let a = hc.search(&Sphere);
        let b = hc.search(&Sphere);
        assert_eq!(a.best_genome, b.best_genome);
        assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
        assert_eq!(a.evaluations, hc.evaluation_budget());
        assert!(
            a.best_fitness < a.history[0].best,
            "climbing must improve on the first random start"
        );
        // best_so_far is monotone.
        for w in a.history.windows(2) {
            assert!(w[1].best_so_far <= w[0].best_so_far);
        }
    }

    #[test]
    fn hill_climb_thread_count_does_not_change_results() {
        let serial = HillClimb {
            restarts: 2,
            steps: 10,
            batch: 7,
            seed: 9,
            threads: 1,
        };
        let a = serial.search(&Sphere);
        for threads in [2, 4] {
            let b = serial.reconfigured(serial.seed, threads).search(&Sphere);
            assert_eq!(a.best_genome, b.best_genome, "threads={threads}");
            assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
            assert_eq!(a.history.len(), b.history.len());
        }
    }

    #[test]
    fn reconfigured_changes_seed_and_threads_only() {
        let ga = Ga::new(GaConfig {
            population: 5,
            ..GaConfig::default()
        });
        let re = ga.reconfigured(123, 2);
        assert_eq!(re.seed(), 123);
        assert_eq!(re.config().threads, 2);
        assert_eq!(re.config().population, 5);
        assert_eq!(ga.name(), "ga");
        assert_eq!(RandomSearch::default().name(), "random");
        assert_eq!(HillClimb::default().name(), "hill-climb");
    }
}
