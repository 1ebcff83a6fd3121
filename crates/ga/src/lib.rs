//! Phase II: genetic-algorithm search over pin assignments.
//!
//! The paper optimizes per-function input/output pin permutations with a
//! genetic algorithm (DEAP in the authors' toolchain) whose fitness is the
//! synthesized circuit area, and compares against a random-search baseline
//! given the same number of fitness evaluations (Fig. 4). This crate is
//! the DEAP substitute. The problem is an [`Objective`] and the search
//! policy a [`SearchStrategy`]: the deterministic GA ([`Ga`], stepped by
//! [`ObjectiveRunner`]) with tournament selection, elitism and
//! per-generation statistics, the equal-budget [`RandomSearch`] baseline,
//! and [`HillClimb`]. [`permutation`] holds the operators of the
//! pin-assignment genotype.
//!
//! # Parallel fitness evaluation
//!
//! Every fitness call is an independent full merge → synthesize →
//! tech-map flow, so the engine batches them: each generation first
//! *breeds* all children serially (selection and variation draw from
//! per-individual RNG streams pre-seeded off the master generator), then
//! *evaluates* the batch. With the `parallel` feature the batch is scored
//! on multiple threads (`std::thread::scope`); because breeding never
//! observes fitness-evaluation order and results are collected in genome
//! order, a parallel run is **bit-identical** to a serial run with the
//! same seed. The thread count comes from [`GaConfig::threads`], the
//! `MVF_THREADS` environment variable, or the machine's available
//! parallelism, in that order.
//!
//! # Example
//!
//! ```
//! use mvf_ga::{Ga, GaConfig, Objective, SearchStrategy};
//! use rand::rngs::StdRng;
//! use rand::Rng;
//!
//! /// Minimize the number of set bits of a 16-bit genome.
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
//! let cfg = GaConfig { population: 16, generations: 10, seed: 7, ..GaConfig::default() };
//! let outcome = Ga::new(cfg).search(&Bits);
//! assert!(outcome.best_fitness <= 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod permutation;
pub mod strategy;

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use strategy::{Ga, HillClimb, Objective, RandomSearch, SearchOutcome, SearchStrategy};

/// Configuration of the GA engine.
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations (after the initial one).
    pub generations: usize,
    /// Probability that a child is produced by crossover.
    pub crossover_rate: f64,
    /// Probability that a child is mutated.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Number of best individuals copied unchanged each generation.
    pub elitism: usize,
    /// RNG seed: runs are fully deterministic given the seed.
    pub seed: u64,
    /// Worker threads for fitness evaluation when the `parallel` feature
    /// is enabled: `0` = auto (`MVF_THREADS` env var, else the machine's
    /// available parallelism), `1` = serial. Results are bit-identical
    /// for every thread count.
    pub threads: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 24,
            generations: 40,
            crossover_rate: 0.7,
            mutation_rate: 0.4,
            tournament: 3,
            elitism: 2,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

/// Resolves a thread-count setting: explicit config, `MVF_THREADS`, then
/// available parallelism.
pub fn resolve_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    if let Some(n) = std::env::var("MVF_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scores a batch of genomes through `objective`, preserving order.
///
/// Serial by default; with the `parallel` feature the slice is split into
/// per-thread chunks scored concurrently and re-stitched in order, so the
/// result is independent of scheduling.
///
/// `ctxs` holds one lazily-created evaluation context per worker slot and
/// is owned by the *caller*, so the contexts — and everything they cache —
/// survive across batches: a GA reuses the same contexts for every
/// generation of the run, not just within one batch. Each worker thread
/// gets its own context, so contexts never need synchronization and, by
/// the [`Objective`] contract, their reuse cannot change results.
pub(crate) fn evaluate_batch<O: Objective>(
    genomes: &[O::Genome],
    objective: &O,
    threads: usize,
    ctxs: &mut Vec<Option<O::Ctx>>,
) -> Vec<f64> {
    #[cfg(feature = "parallel")]
    {
        let threads = threads.min(genomes.len());
        if threads > 1 {
            let chunk = genomes.len().div_ceil(threads);
            let n_chunks = genomes.len().div_ceil(chunk);
            if ctxs.len() < n_chunks {
                ctxs.resize_with(n_chunks, || None);
            }
            let mut out = Vec::with_capacity(genomes.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = genomes
                    .chunks(chunk)
                    .zip(ctxs.iter_mut())
                    .map(|(c, slot)| {
                        scope.spawn(move || {
                            let ctx = slot.get_or_insert_with(|| objective.new_ctx());
                            c.iter()
                                .map(|g| objective.evaluate(ctx, g))
                                .collect::<Vec<f64>>()
                        })
                    })
                    .collect();
                for h in handles {
                    out.extend(h.join().expect("fitness worker panicked"));
                }
            });
            return out;
        }
    }
    #[cfg(not(feature = "parallel"))]
    let _ = threads;
    if ctxs.is_empty() {
        ctxs.push(None);
    }
    let ctx = ctxs[0].get_or_insert_with(|| objective.new_ctx());
    genomes.iter().map(|g| objective.evaluate(ctx, g)).collect()
}

/// Per-generation statistics (fitness is minimized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenStats {
    /// Best fitness seen up to and including this generation.
    pub best_so_far: f64,
    /// Best fitness within this generation.
    pub best: f64,
    /// Mean fitness of this generation.
    pub avg: f64,
}

/// The complete mid-run state of a GA search at a generation boundary.
///
/// Everything the engine carries between generations is here — the
/// sorted population with fitness, the master RNG's stream position, the
/// incumbent best, the statistics trail and the evaluation counter — so
/// a search can be paused, serialized, and resumed **bit-identically**:
/// stepping a restored state produces exactly the generations the
/// uninterrupted run would have produced. This is the checkpoint payload
/// of the audit service's long jobs.
#[derive(Debug, Clone)]
pub struct GaSearchState<G> {
    /// Generations completed so far (`0` = only the initial population
    /// has been evaluated).
    pub generation: usize,
    /// The master RNG's internal state at this boundary
    /// ([`StdRng::state`]); breeding resumes the stream exactly here.
    pub master_rng: [u64; 4],
    /// The current population with fitness, sorted ascending (best
    /// first).
    pub population: Vec<(G, f64)>,
    /// The best `(genome, fitness)` seen so far.
    pub best: (G, f64),
    /// Per-generation statistics (index 0 = initial population).
    pub history: Vec<GenStats>,
    /// Fitness evaluations spent so far.
    pub evaluations: usize,
}

fn gen_stats<G>(pop: &[(G, f64)], best: f64) -> GenStats {
    GenStats {
        best_so_far: best,
        best: pop.iter().map(|p| p.1).fold(f64::INFINITY, f64::min),
        avg: pop.iter().map(|p| p.1).sum::<f64>() / pop.len() as f64,
    }
}

/// Evaluates the initial population — the state every run steps from.
fn ga_init<O: Objective>(
    cfg: &GaConfig,
    objective: &O,
    threads: usize,
    ctxs: &mut Vec<Option<O::Ctx>>,
) -> GaSearchState<O::Genome> {
    let mut master = StdRng::seed_from_u64(cfg.seed);
    // Initial population: one pre-drawn RNG stream per individual.
    let genomes: Vec<O::Genome> = (0..cfg.population)
        .map(|_| {
            let mut stream = StdRng::seed_from_u64(master.gen::<u64>());
            objective.init(&mut stream)
        })
        .collect();
    let fits = evaluate_batch(&genomes, objective, threads, ctxs);
    let evaluations = genomes.len();
    let mut population: Vec<(O::Genome, f64)> = genomes.into_iter().zip(fits).collect();
    population.sort_by(|a, b| a.1.total_cmp(&b.1));
    let best = population[0].clone();
    let mut history = Vec::with_capacity(cfg.generations + 1);
    history.push(gen_stats(&population, best.1));
    GaSearchState {
        generation: 0,
        master_rng: master.state(),
        population,
        best,
        history,
        evaluations,
    }
}

/// Advances a search state by exactly one generation: breed serially
/// from the state's RNG position, score the batch, apply elitism, sort,
/// update the incumbent and the statistics trail.
fn ga_step<O: Objective>(
    cfg: &GaConfig,
    objective: &O,
    threads: usize,
    ctxs: &mut Vec<Option<O::Ctx>>,
    state: &mut GaSearchState<O::Genome>,
) {
    let mut master = StdRng::from_state(state.master_rng);
    let population = &mut state.population;
    let n_elite = cfg.elitism.min(cfg.population);
    // Breed all children serially (cheap), then score the batch.
    let mut children: Vec<O::Genome> = Vec::with_capacity(cfg.population - n_elite);
    while children.len() < cfg.population - n_elite {
        let p1 = tournament(population, cfg.tournament, &mut master);
        let p2 = if master.gen_bool(cfg.crossover_rate) {
            Some(tournament(population, cfg.tournament, &mut master))
        } else {
            None
        };
        let do_mutate = master.gen_bool(cfg.mutation_rate);
        let mut stream = StdRng::seed_from_u64(master.gen::<u64>());
        let mut child = match p2 {
            Some(p2) => objective.crossover(&population[p1].0, &population[p2].0, &mut stream),
            None => population[p1].0.clone(),
        };
        if do_mutate {
            objective.mutate(&mut child, &mut stream);
        }
        children.push(child);
    }
    let fits = evaluate_batch(&children, objective, threads, ctxs);
    state.evaluations += children.len();
    let mut next: Vec<(O::Genome, f64)> = Vec::with_capacity(cfg.population);
    for e in population.iter().take(n_elite) {
        next.push(e.clone());
    }
    next.extend(children.into_iter().zip(fits));
    next.sort_by(|a, b| a.1.total_cmp(&b.1));
    *population = next;
    if population[0].1 < state.best.1 {
        state.best = population[0].clone();
    }
    let stats = gen_stats(population, state.best.1);
    state.history.push(stats);
    state.generation += 1;
    state.master_rng = master.state();
}

/// A minimizing genetic algorithm's configuration, checked; drive it
/// with [`ObjectiveRunner`] or through the [`Ga`] strategy.
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    cfg: GaConfig,
}

impl GeneticAlgorithm {
    /// Creates an engine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the population or tournament size is zero.
    pub fn new(cfg: GaConfig) -> Self {
        assert!(cfg.population > 0, "population must be positive");
        assert!(cfg.tournament > 0, "tournament must be positive");
        GeneticAlgorithm { cfg }
    }

    /// Total fitness evaluations the configured run will perform
    /// (initial population plus per-generation children).
    pub fn evaluation_budget(&self) -> usize {
        let per_gen = self.cfg.population - self.cfg.elitism.min(self.cfg.population);
        self.cfg.population + self.cfg.generations * per_gen
    }
}

/// Why [`ObjectiveRunner::resume`] refused a snapshot: its population
/// size differs from the engine's — the clearest symptom of restoring a
/// checkpoint against the wrong job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationMismatch {
    /// Individuals in the snapshot.
    pub snapshot: usize,
    /// Individuals the engine is configured for.
    pub configured: usize,
}

impl fmt::Display for PopulationMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint population has {} individuals, the engine is configured for {}",
            self.snapshot, self.configured
        )
    }
}

impl std::error::Error for PopulationMismatch {}

/// Drives a [`GeneticAlgorithm`] over an [`Objective`] one generation at
/// a time, exposing the full [`GaSearchState`] at every boundary.
///
/// This is the one GA driver: [`Ga::search`](SearchStrategy::search) is
/// [`ObjectiveRunner::start`] followed by [`ObjectiveRunner::finish`],
/// and the audit service builds checkpoints on the same runner: run some
/// generations, serialize [`ObjectiveRunner::state`], and later
/// [`ObjectiveRunner::resume`] from the snapshot — the completed search
/// is bit-identical to one that was never interrupted, because the state
/// carries the master RNG's exact stream position and the scored
/// population. Evaluation contexts are rebuilt on resume; by the
/// [`Objective`] contract their reuse (or loss) cannot change results.
pub struct ObjectiveRunner<'a, O: Objective> {
    engine: GeneticAlgorithm,
    objective: &'a O,
    threads: usize,
    ctxs: Vec<Option<O::Ctx>>,
    state: GaSearchState<O::Genome>,
}

impl<'a, O: Objective> ObjectiveRunner<'a, O> {
    /// Starts a fresh search: evaluates the initial population and stops
    /// at the first generation boundary.
    pub fn start(engine: GeneticAlgorithm, objective: &'a O) -> Self {
        let threads = resolve_threads(engine.cfg.threads);
        // Per-worker evaluation contexts, reused across every generation
        // of the run.
        let mut ctxs: Vec<Option<O::Ctx>> = Vec::new();
        let state = ga_init(&engine.cfg, objective, threads, &mut ctxs);
        ObjectiveRunner {
            engine,
            objective,
            threads,
            ctxs,
            state,
        }
    }

    /// Resumes from a snapshot taken by [`ObjectiveRunner::state`] on an
    /// engine with the *same* configuration (seed, rates, population).
    ///
    /// # Errors
    ///
    /// [`PopulationMismatch`] if the snapshot's population size does not
    /// match the engine configuration.
    pub fn resume(
        engine: GeneticAlgorithm,
        objective: &'a O,
        state: GaSearchState<O::Genome>,
    ) -> Result<Self, PopulationMismatch> {
        if state.population.len() != engine.cfg.population {
            return Err(PopulationMismatch {
                snapshot: state.population.len(),
                configured: engine.cfg.population,
            });
        }
        let threads = resolve_threads(engine.cfg.threads);
        Ok(ObjectiveRunner {
            engine,
            objective,
            threads,
            ctxs: Vec::new(),
            state,
        })
    }

    /// The state at the current generation boundary.
    pub fn state(&self) -> &GaSearchState<O::Genome> {
        &self.state
    }

    /// Whether the configured number of generations has completed.
    pub fn is_done(&self) -> bool {
        self.state.generation >= self.engine.cfg.generations
    }

    /// Runs one generation; returns `false` (and does nothing) when the
    /// search is already complete.
    pub fn step(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        ga_step(
            &self.engine.cfg,
            self.objective,
            self.threads,
            &mut self.ctxs,
            &mut self.state,
        );
        true
    }

    /// Steps until done and returns the outcome: the incumbent best, the
    /// history trail and the evaluation count (no retained samples).
    pub fn finish(mut self) -> SearchOutcome<O::Genome> {
        while self.step() {}
        let (best_genome, best_fitness) = self.state.best;
        SearchOutcome {
            best_genome,
            best_fitness,
            history: self.state.history,
            evaluations: self.state.evaluations,
            samples: None,
        }
    }
}

fn tournament<G>(pop: &[(G, f64)], k: usize, rng: &mut StdRng) -> usize {
    let mut best = rng.gen_range(0..pop.len());
    for _ in 1..k {
        let c = rng.gen_range(0..pop.len());
        if pop[c].1 < pop[best].1 {
            best = c;
        }
    }
    best
}

/// Resolves a chunk-size setting: explicit value, else a multiple of the
/// worker count large enough to keep every thread busy while bounding
/// the number of genomes held in memory.
fn resolve_chunk(chunk: usize, threads: usize) -> usize {
    if chunk > 0 {
        return chunk;
    }
    (threads * 64).clamp(256, 4096)
}

/// The body of [`RandomSearch`]: draws `n_evals` genomes from
/// per-individual RNG streams and scores them batch-wise, at most
/// `chunk` at a time (`0` = auto), so a paper-scale budget
/// (`MVF_PAPER_SCALE=1`: 9,726 evaluations per workload) streams through
/// bounded memory instead of allocating the whole candidate batch up
/// front. Every sampled fitness is retained, in draw order.
///
/// Chunking never changes results: genomes are drawn from the same
/// per-individual RNG streams in the same master order, and every chunk
/// is scored by the same batch engine, so the outcome is bit-identical
/// for every chunk size (and every thread count).
///
/// # Panics
///
/// Panics if `n_evals == 0`.
fn random_search_inner<O: Objective>(
    n_evals: usize,
    seed: u64,
    threads: usize,
    chunk: usize,
    objective: &O,
) -> SearchOutcome<O::Genome> {
    assert!(n_evals > 0, "random search needs at least one evaluation");
    let threads = resolve_threads(threads);
    let chunk = resolve_chunk(chunk, threads);
    let mut master = StdRng::seed_from_u64(seed);
    let mut ctxs: Vec<Option<O::Ctx>> = Vec::new();
    let mut samples: Vec<f64> = Vec::with_capacity(n_evals);
    let mut genomes: Vec<O::Genome> = Vec::with_capacity(chunk.min(n_evals));
    // `best` replicates `min_by(total_cmp)` over the full sample stream:
    // the *first* genome attaining the minimum wins ties, so only a
    // strict improvement replaces the incumbent.
    let mut best: Option<(O::Genome, f64)> = None;
    let mut remaining = n_evals;
    while remaining > 0 {
        let take = chunk.min(remaining);
        genomes.clear();
        for _ in 0..take {
            let mut stream = StdRng::seed_from_u64(master.gen::<u64>());
            genomes.push(objective.init(&mut stream));
        }
        let fits = evaluate_batch(&genomes, objective, threads, &mut ctxs);
        for (g, &f) in genomes.iter().zip(&fits) {
            let improves = match &best {
                None => true,
                Some((_, bf)) => f.total_cmp(bf) == std::cmp::Ordering::Less,
            };
            if improves {
                best = Some((g.clone(), f));
            }
        }
        samples.extend_from_slice(&fits);
        remaining -= take;
    }
    let (best_genome, best_fitness) = best.expect("n_evals > 0");
    SearchOutcome {
        best_genome,
        best_fitness,
        history: Vec::new(),
        evaluations: n_evals,
        samples: Some(samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A context-free test objective assembled from plain functions.
    struct FnObjective<G> {
        init: fn(&mut StdRng) -> G,
        mutate: fn(&mut G, &mut StdRng),
        crossover: fn(&G, &G, &mut StdRng) -> G,
        fitness: fn(&G) -> f64,
    }

    impl<G: Clone + Send + Sync> Objective for FnObjective<G> {
        type Genome = G;
        type Ctx = ();
        fn new_ctx(&self) {}
        fn init(&self, rng: &mut StdRng) -> G {
            (self.init)(rng)
        }
        fn mutate(&self, g: &mut G, rng: &mut StdRng) {
            (self.mutate)(g, rng)
        }
        fn crossover(&self, a: &G, b: &G, rng: &mut StdRng) -> G {
            (self.crossover)(a, b, rng)
        }
        fn evaluate(&self, _ctx: &mut (), g: &G) -> f64 {
            (self.fitness)(g)
        }
    }

    // Takes `&Vec` because it is the fitness of `Vec<f64>` genomes.
    #[allow(clippy::ptr_arg)]
    fn sphere(g: &Vec<f64>) -> f64 {
        g.iter().map(|x| x * x).sum()
    }

    #[test]
    fn ga_minimizes_sphere() {
        let cfg = GaConfig {
            population: 20,
            generations: 30,
            seed: 42,
            ..GaConfig::default()
        };
        let res = Ga::new(cfg).search(&FnObjective {
            init: |rng| {
                (0..4)
                    .map(|_| rng.gen_range(-10.0..10.0))
                    .collect::<Vec<f64>>()
            },
            mutate: |g, rng| {
                let i = rng.gen_range(0..g.len());
                g[i] += rng.gen_range(-1.0..1.0);
            },
            crossover: |a, b, rng| {
                let cut = rng.gen_range(0..a.len());
                a[..cut].iter().chain(b[cut..].iter()).copied().collect()
            },
            fitness: sphere,
        });
        assert!(res.best_fitness < sphere(&vec![10.0; 4]));
        assert!(
            res.best_fitness < res.history[0].avg,
            "GA must improve on init"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = GaConfig {
            population: 10,
            generations: 5,
            seed: 9,
            ..GaConfig::default()
        };
        let run = || {
            Ga::new(cfg.clone()).search(&FnObjective {
                init: |rng| rng.gen::<u32>(),
                mutate: |g, rng| *g ^= 1u32 << rng.gen_range(0..32),
                crossover: |a, b, _| a ^ b,
                fitness: |g| g.count_ones() as f64,
            })
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.best_genome, r2.best_genome);
        assert_eq!(r1.best_fitness, r2.best_fitness);
        assert_eq!(r1.evaluations, r2.evaluations);
    }

    #[test]
    fn history_is_monotone_in_best_so_far() {
        let cfg = GaConfig {
            population: 12,
            generations: 12,
            seed: 5,
            ..GaConfig::default()
        };
        let res = Ga::new(cfg).search(&FnObjective {
            init: |rng| rng.gen::<u16>(),
            mutate: |g, rng| *g = g.rotate_left(rng.gen_range(1..4)),
            crossover: |a, b, _| a.wrapping_add(*b),
            fitness: |g| *g as f64,
        });
        for w in res.history.windows(2) {
            assert!(w[1].best_so_far <= w[0].best_so_far);
        }
    }

    #[test]
    fn evaluation_budget_matches_actual() {
        let cfg = GaConfig {
            population: 10,
            generations: 7,
            elitism: 2,
            seed: 1,
            ..GaConfig::default()
        };
        let engine = GeneticAlgorithm::new(cfg);
        let res = ObjectiveRunner::start(
            engine.clone(),
            &FnObjective {
                init: |rng| rng.gen::<u8>(),
                mutate: |g, rng| *g ^= 1u8 << rng.gen_range(0..8),
                crossover: |a, b, _| a ^ b,
                fitness: |g| *g as f64,
            },
        )
        .finish();
        assert_eq!(res.evaluations, engine.evaluation_budget());
    }

    #[test]
    fn random_search_tracks_best_and_average() {
        let rs = RandomSearch {
            n_evals: 100,
            seed: 3,
            threads: 0,
        };
        let res = rs.search(&FnObjective {
            init: |rng| rng.gen_range(0.0..1.0f64),
            mutate: |_, _| {},
            crossover: |a, _, _| *a,
            fitness: |g| *g,
        });
        let samples = res.samples.expect("random search retains samples");
        assert_eq!(samples.len(), 100);
        let avg_fitness = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(res.best_fitness <= avg_fitness);
        assert!(
            (res.best_fitness - samples.iter().cloned().fold(f64::INFINITY, f64::min)).abs()
                < 1e-12
        );
    }

    #[test]
    fn elitism_preserves_best() {
        // With heavy mutation, the elite must still survive verbatim.
        let cfg = GaConfig {
            population: 8,
            generations: 20,
            mutation_rate: 1.0,
            crossover_rate: 1.0,
            elitism: 1,
            seed: 11,
            ..GaConfig::default()
        };
        let res = Ga::new(cfg).search(&FnObjective {
            init: |rng| rng.gen::<u32>(),
            mutate: |g, rng| *g = rng.gen(),
            crossover: |a, b, _| a ^ b,
            fitness: |g| g.count_ones() as f64,
        });
        for w in res.history.windows(2) {
            assert!(w[1].best_so_far <= w[0].best_so_far);
        }
        assert!(res.best_fitness <= res.history[0].best);
    }

    /// Serial (threads = 1) and multi-threaded runs must agree bit for
    /// bit on every statistic and on the winning genome.
    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads: usize| {
            let cfg = GaConfig {
                population: 12,
                generations: 8,
                seed: 0xD5,
                threads,
                ..GaConfig::default()
            };
            Ga::new(cfg).search(&BitsObjective)
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            let par = run(threads);
            assert_eq!(par.best_genome, serial.best_genome, "threads={threads}");
            assert_eq!(
                par.best_fitness.to_bits(),
                serial.best_fitness.to_bits(),
                "threads={threads}"
            );
            assert_eq!(par.history.len(), serial.history.len());
            for (a, b) in par.history.iter().zip(&serial.history) {
                assert_eq!(a.best_so_far.to_bits(), b.best_so_far.to_bits());
                assert_eq!(a.best.to_bits(), b.best.to_bits());
                assert_eq!(a.avg.to_bits(), b.avg.to_bits());
            }
        }
    }

    struct BitsObjective;
    impl Objective for BitsObjective {
        type Genome = u32;
        type Ctx = ();
        fn new_ctx(&self) {}
        fn init(&self, rng: &mut StdRng) -> u32 {
            rng.gen()
        }
        fn mutate(&self, g: &mut u32, rng: &mut StdRng) {
            *g ^= 1u32 << rng.gen_range(0..32);
        }
        fn crossover(&self, a: &u32, b: &u32, _rng: &mut StdRng) -> u32 {
            (a & 0xFFFF_0000) | (b & 0xFFFF)
        }
        fn evaluate(&self, _ctx: &mut (), g: &u32) -> f64 {
            g.count_ones() as f64
        }
    }

    fn assert_results_identical(a: &SearchOutcome<u32>, b: &SearchOutcome<u32>) {
        assert_eq!(a.best_genome, b.best_genome);
        assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.best_so_far.to_bits(), y.best_so_far.to_bits());
            assert_eq!(x.best.to_bits(), y.best.to_bits());
            assert_eq!(x.avg.to_bits(), y.avg.to_bits());
        }
    }

    #[test]
    fn resume_at_every_boundary_is_bit_identical() {
        let cfg = GaConfig {
            population: 8,
            generations: 6,
            seed: 0x5AFE,
            threads: 1,
            ..GaConfig::default()
        };
        let uninterrupted =
            ObjectiveRunner::start(GeneticAlgorithm::new(cfg.clone()), &BitsObjective).finish();
        for kill_at in 0..=cfg.generations {
            // Run to the boundary, snapshot, drop the runner ("kill"),
            // resume from the snapshot alone.
            let mut first =
                ObjectiveRunner::start(GeneticAlgorithm::new(cfg.clone()), &BitsObjective);
            for _ in 0..kill_at {
                first.step();
            }
            let snapshot = first.state().clone();
            drop(first);
            let resumed = ObjectiveRunner::resume(
                GeneticAlgorithm::new(cfg.clone()),
                &BitsObjective,
                snapshot,
            )
            .expect("same configuration")
            .finish();
            assert_results_identical(&uninterrupted, &resumed);
        }
    }

    #[test]
    fn resume_rejects_mismatched_population() {
        let cfg = GaConfig {
            population: 8,
            generations: 2,
            seed: 1,
            threads: 1,
            ..GaConfig::default()
        };
        let runner = ObjectiveRunner::start(GeneticAlgorithm::new(cfg.clone()), &BitsObjective);
        let state = runner.state().clone();
        let wrong = GaConfig {
            population: 9,
            ..cfg
        };
        let err = ObjectiveRunner::resume(GeneticAlgorithm::new(wrong), &BitsObjective, state)
            .err()
            .expect("a population of 8 cannot resume on an engine of 9");
        assert_eq!(
            err,
            PopulationMismatch {
                snapshot: 8,
                configured: 9
            }
        );
        assert!(err.to_string().contains("checkpoint population"), "{err}");
    }

    #[test]
    fn resolve_threads_prefers_explicit_config() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn resolve_chunk_bounds_the_auto_default() {
        assert_eq!(resolve_chunk(17, 8), 17);
        assert_eq!(resolve_chunk(0, 1), 256);
        assert_eq!(resolve_chunk(0, 1000), 4096);
    }

    /// Streaming the evaluation budget through bounded chunks must not
    /// change a single bit of the outcome: same genome stream, same
    /// samples, same winner — including the `min_by(total_cmp)` tie rule
    /// (the *first* genome attaining the minimum wins), checked against
    /// an explicit `min_by` reference over the regenerated stream.
    #[test]
    fn chunked_random_search_is_bit_identical() {
        struct Quantized;
        impl Objective for Quantized {
            type Genome = u32;
            type Ctx = ();
            fn new_ctx(&self) {}
            fn init(&self, rng: &mut StdRng) -> u32 {
                rng.gen()
            }
            fn mutate(&self, _g: &mut u32, _rng: &mut StdRng) {}
            fn crossover(&self, a: &u32, _b: &u32, _rng: &mut StdRng) -> u32 {
                *a
            }
            fn evaluate(&self, _ctx: &mut (), g: &u32) -> f64 {
                // Coarse quantization forces fitness ties, exercising the
                // tie rule across chunk boundaries.
                (g % 4) as f64
            }
        }
        // Reference winner: regenerate the genome stream exactly as the
        // search draws it and apply `min_by(total_cmp)` directly.
        let mut master = StdRng::seed_from_u64(0xC1);
        let stream_genomes: Vec<u32> = (0..100)
            .map(|_| StdRng::seed_from_u64(master.gen::<u64>()).gen())
            .collect();
        let min_by_winner = *stream_genomes
            .iter()
            .min_by(|a, b| ((*a % 4) as f64).total_cmp(&((*b % 4) as f64)))
            .expect("non-empty");
        let reference = random_search_inner(100, 0xC1, 1, 100, &Quantized);
        assert_eq!(
            reference.best_genome, min_by_winner,
            "the first tied minimum must win, as min_by returns it"
        );
        for chunk in [1usize, 3, 7, 32, 0] {
            let got = random_search_inner(100, 0xC1, 1, chunk, &Quantized);
            assert_eq!(got.best_genome, reference.best_genome, "chunk={chunk}");
            assert_eq!(got.best_fitness.to_bits(), reference.best_fitness.to_bits());
            assert_eq!(got.evaluations, reference.evaluations);
            assert_eq!(got.samples, reference.samples);
        }
    }
}
