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
//! # Each distinct genome is scored once
//!
//! A GA re-breeds genomes it has already scored: parents copied unchanged,
//! children of identical parents, swaps that undo each other. At the paper's
//! budget (population 24, 442 generations) 96 % of the fitness calls of a
//! PRESENT-2 run repeat an earlier genome. The batch scorer therefore
//! keeps a genome → fitness memo for the whole search (GA or hill climb;
//! random search clears it after every chunk of draws): only genomes that
//! are neither in the memo nor earlier in the batch are evaluated, and
//! the results are filled back in genome order. This needs
//! [`Objective::Genome`]`: Hash + Eq` and makes the purity of
//! [`Objective::evaluate`] load-bearing: an objective with side effects
//! sees each distinct genome once per search. Only finite fitness is
//! memoized, so a failing genome is evaluated (and can be counted) on
//! every call. The evaluation count of a [`SearchOutcome`] still counts
//! calls, hits included, and the memo is not part of a [`GaSearchState`]:
//! a resumed run re-evaluates what it lost and gets the same values.
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

use std::collections::HashMap;
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

/// Scores genome batches for one search, each distinct genome once.
///
/// A scorer holds the worker thread count, one lazily created evaluation
/// context per worker slot and a genome → fitness memo on the calling
/// thread, and lives as long as the search: a GA or hill climb reuses the
/// same contexts (and everything they cache) and the same memo for every
/// batch of the run. Each batch is deduplicated: only genomes that are
/// neither in the memo nor earlier in the batch reach
/// [`Objective::evaluate`], and the results are filled back in genome
/// order. By the [`Objective`] contract (evaluation is a pure function of
/// the genome) a hit returns the bits recomputation would, so the values
/// and their order are the same for every thread count and with or
/// without hits.
///
/// Only finite fitness is memoized. A non-finite score marks a failed
/// evaluation, which an objective may count, so a failing genome is
/// evaluated again on every call, repeats within a batch included.
pub(crate) struct Scorer<O: Objective> {
    threads: usize,
    ctxs: Vec<Option<O::Ctx>>,
    memo: HashMap<O::Genome, f64>,
}

impl<O: Objective> Scorer<O> {
    /// A scorer with an empty memo; `threads` is resolved like
    /// [`GaConfig::threads`].
    pub(crate) fn new(threads: usize) -> Self {
        Scorer {
            threads: resolve_threads(threads),
            ctxs: Vec::new(),
            memo: HashMap::new(),
        }
    }

    /// The resolved worker thread count.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Forgets every memoized fitness (the contexts stay).
    pub(crate) fn clear_memo(&mut self) {
        self.memo.clear();
    }

    /// The fitness of every genome, in order.
    pub(crate) fn score(&mut self, genomes: &[O::Genome], objective: &O) -> Vec<f64> {
        let mut misses: Vec<&O::Genome> = Vec::new();
        let mut first_miss: HashMap<&O::Genome, usize> = HashMap::new();
        // Per genome: `Ok(fitness)` from the memo, or `Err(j)` for the
        // `j`-th distinct miss of the batch.
        let slots: Vec<Result<f64, usize>> = genomes
            .iter()
            .map(|g| match self.memo.get(g) {
                Some(&f) => Ok(f),
                None => Err(*first_miss.entry(g).or_insert_with(|| {
                    misses.push(g);
                    misses.len() - 1
                })),
            })
            .collect();
        let fits = evaluate_all(&misses, objective, self.threads, &mut self.ctxs);
        for (&g, &f) in misses.iter().zip(&fits) {
            if f.is_finite() {
                self.memo.insert(g.clone(), f);
            }
        }
        let mut used = vec![false; misses.len()];
        let mut failed_repeats: Vec<usize> = Vec::new();
        let mut out: Vec<f64> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| match *slot {
                Ok(f) => f,
                Err(j) => {
                    if std::mem::replace(&mut used[j], true) && !fits[j].is_finite() {
                        failed_repeats.push(i);
                    }
                    fits[j]
                }
            })
            .collect();
        if !failed_repeats.is_empty() {
            let again: Vec<&O::Genome> = failed_repeats.iter().map(|&i| &genomes[i]).collect();
            let refits = evaluate_all(&again, objective, self.threads, &mut self.ctxs);
            for (i, f) in failed_repeats.into_iter().zip(refits) {
                out[i] = f;
            }
        }
        out
    }
}

/// Evaluates every genome through `objective`, preserving order.
///
/// Serial by default; with the `parallel` feature the slice is split into
/// per-thread chunks scored concurrently and re-stitched in order, so the
/// result is independent of scheduling. `ctxs` holds one lazily created
/// context per worker slot; each worker thread gets its own, so contexts
/// never need synchronization and, by the [`Objective`] contract, their
/// reuse cannot change results.
fn evaluate_all<O: Objective>(
    genomes: &[&O::Genome],
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
    scorer: &mut Scorer<O>,
) -> GaSearchState<O::Genome> {
    let mut master = StdRng::seed_from_u64(cfg.seed);
    // Initial population: one pre-drawn RNG stream per individual.
    let genomes: Vec<O::Genome> = (0..cfg.population)
        .map(|_| {
            let mut stream = StdRng::seed_from_u64(master.gen::<u64>());
            objective.init(&mut stream)
        })
        .collect();
    let fits = scorer.score(&genomes, objective);
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
    scorer: &mut Scorer<O>,
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
    let fits = scorer.score(&children, objective);
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
/// population. The runner scores each distinct genome once per search
/// (every batch goes through one memo of the fitness seen so far);
/// evaluation contexts and the memo are not part of the state and start
/// empty on resume, and by the [`Objective`] contract their reuse (or
/// loss) cannot change results.
pub struct ObjectiveRunner<'a, O: Objective> {
    engine: GeneticAlgorithm,
    objective: &'a O,
    scorer: Scorer<O>,
    state: GaSearchState<O::Genome>,
}

impl<'a, O: Objective> ObjectiveRunner<'a, O> {
    /// Starts a fresh search: evaluates the initial population and stops
    /// at the first generation boundary.
    pub fn start(engine: GeneticAlgorithm, objective: &'a O) -> Self {
        let mut scorer = Scorer::new(engine.cfg.threads);
        let state = ga_init(&engine.cfg, objective, &mut scorer);
        ObjectiveRunner {
            engine,
            objective,
            scorer,
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
        Ok(ObjectiveRunner {
            scorer: Scorer::new(engine.cfg.threads),
            engine,
            objective,
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
            &mut self.scorer,
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
/// for every chunk size (and every thread count). The scorer's memo is
/// cleared after every chunk, which keeps memory bounded; independent
/// draws almost never repeat anyway.
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
    let mut scorer = Scorer::new(threads);
    let chunk = resolve_chunk(chunk, scorer.threads());
    let mut master = StdRng::seed_from_u64(seed);
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
        let fits = scorer.score(&genomes, objective);
        scorer.clear_memo();
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
    use std::hash::{Hash, Hasher};
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    /// A context-free test objective assembled from plain functions.
    struct FnObjective<G> {
        init: fn(&mut StdRng) -> G,
        mutate: fn(&mut G, &mut StdRng),
        crossover: fn(&G, &G, &mut StdRng) -> G,
        fitness: fn(&G) -> f64,
    }

    impl<G: Clone + Hash + Eq + Send + Sync> Objective for FnObjective<G> {
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

    // Takes `&Vec` because it is the fitness of `Vec<i32>` genomes.
    #[allow(clippy::ptr_arg)]
    fn sphere(g: &Vec<i32>) -> f64 {
        g.iter().map(|&x| f64::from(x * x)).sum()
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
            init: |rng| (0..4).map(|_| rng.gen_range(-10..10)).collect::<Vec<i32>>(),
            mutate: |g, rng| {
                let i = rng.gen_range(0..g.len());
                g[i] += rng.gen_range(-1..=1);
            },
            crossover: |a, b, rng| {
                let cut = rng.gen_range(0..a.len());
                a[..cut].iter().chain(b[cut..].iter()).copied().collect()
            },
            fitness: sphere,
        });
        assert!(res.best_fitness < sphere(&vec![10; 4]));
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
            init: |rng| rng.gen::<u32>(),
            mutate: |_, _| {},
            crossover: |a, _, _| *a,
            fitness: |g| f64::from(*g),
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

    /// Genomes `0..32` of a `u8`: a space small enough that searches
    /// repeat genomes often. Counts every call per genome, and with
    /// `fail_odd` scores odd genomes as failed evaluations (counted, like
    /// `PinObjective`'s).
    struct Counting {
        fail_odd: bool,
        calls: Vec<AtomicUsize>,
        failures: AtomicUsize,
    }

    impl Counting {
        fn new(fail_odd: bool) -> Self {
            Counting {
                fail_odd,
                calls: (0..32).map(|_| AtomicUsize::new(0)).collect(),
                failures: AtomicUsize::new(0),
            }
        }

        fn calls(&self) -> Vec<usize> {
            self.calls
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect()
        }
    }

    impl Objective for Counting {
        type Genome = u8;
        type Ctx = ();
        fn new_ctx(&self) {}
        fn init(&self, rng: &mut StdRng) -> u8 {
            rng.gen_range(0..32)
        }
        fn mutate(&self, g: &mut u8, rng: &mut StdRng) {
            *g ^= 1u8 << rng.gen_range(0..5);
        }
        fn crossover(&self, a: &u8, b: &u8, _rng: &mut StdRng) -> u8 {
            (a & 0b11100) | (b & 0b00011)
        }
        fn evaluate(&self, _ctx: &mut (), g: &u8) -> f64 {
            self.calls[*g as usize].fetch_add(1, Ordering::Relaxed);
            if self.fail_odd && g % 2 == 1 {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return f64::INFINITY;
            }
            f64::from((g * 7) % 32) * 0.1
        }
    }

    /// A genome that never compares equal, not even to itself, so a search
    /// over it never hits the memo: the reference a memoized search must
    /// reproduce bit for bit.
    #[derive(Clone, Debug)]
    struct Unshared(u8);

    impl PartialEq for Unshared {
        fn eq(&self, _: &Self) -> bool {
            false
        }
    }

    impl Eq for Unshared {}

    impl Hash for Unshared {
        fn hash<H: Hasher>(&self, h: &mut H) {
            self.0.hash(h);
        }
    }

    /// [`Counting`] over [`Unshared`] genomes.
    struct Unmemoized(Counting);

    impl Objective for Unmemoized {
        type Genome = Unshared;
        type Ctx = ();
        fn new_ctx(&self) {}
        fn init(&self, rng: &mut StdRng) -> Unshared {
            Unshared(self.0.init(rng))
        }
        fn mutate(&self, g: &mut Unshared, rng: &mut StdRng) {
            self.0.mutate(&mut g.0, rng);
        }
        fn crossover(&self, a: &Unshared, b: &Unshared, rng: &mut StdRng) -> Unshared {
            Unshared(self.0.crossover(&a.0, &b.0, rng))
        }
        fn evaluate(&self, ctx: &mut (), g: &Unshared) -> f64 {
            self.0.evaluate(ctx, &g.0)
        }
    }

    fn assert_same_outcome(memo: &SearchOutcome<u8>, reference: &SearchOutcome<Unshared>) {
        assert_eq!(memo.best_genome, reference.best_genome.0);
        assert_eq!(
            memo.best_fitness.to_bits(),
            reference.best_fitness.to_bits()
        );
        assert_eq!(memo.evaluations, reference.evaluations);
        assert_eq!(memo.history.len(), reference.history.len());
        for (x, y) in memo.history.iter().zip(&reference.history) {
            assert_eq!(x.best_so_far.to_bits(), y.best_so_far.to_bits());
            assert_eq!(x.best.to_bits(), y.best.to_bits());
            assert_eq!(x.avg.to_bits(), y.avg.to_bits());
        }
        let bits = |s: &Option<Vec<f64>>| {
            s.as_ref()
                .map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>())
        };
        assert_eq!(bits(&memo.samples), bits(&reference.samples));
    }

    fn memo_ga(threads: usize) -> Ga {
        Ga::new(GaConfig {
            population: 10,
            generations: 12,
            seed: 0x3E30,
            threads,
            ..GaConfig::default()
        })
    }

    fn memo_hill_climb(threads: usize) -> HillClimb {
        HillClimb {
            restarts: 3,
            steps: 10,
            batch: 6,
            seed: 0x3E31,
            threads,
        }
    }

    /// Runs `strategy` over a memoized and an unmemoized [`Counting`];
    /// checks the outcomes agree bit for bit and that the evaluation count
    /// is the budget. Returns both objectives' per-genome call counts.
    fn compare_with_unmemoized<S: SearchStrategy>(
        strategy: &S,
        fail_odd: bool,
    ) -> (Counting, Counting) {
        let memo = Counting::new(fail_odd);
        let reference = Unmemoized(Counting::new(fail_odd));
        let got = strategy.search(&memo);
        let want = strategy.search(&reference);
        assert_same_outcome(&got, &want);
        assert_eq!(got.evaluations, strategy.evaluation_budget());
        (memo, reference.0)
    }

    #[test]
    fn memo_scores_each_distinct_genome_once_per_search() {
        for threads in [1, 2, 4] {
            let (memo, reference) = compare_with_unmemoized(&memo_ga(threads), false);
            assert!(memo.calls().iter().all(|&c| c <= 1), "GA threads={threads}");
            assert!(
                reference.calls().iter().any(|&c| c > 1),
                "the GA must repeat genomes for the memo to matter"
            );
            let (memo, reference) = compare_with_unmemoized(&memo_hill_climb(threads), false);
            assert!(
                memo.calls().iter().all(|&c| c <= 1),
                "hill climb threads={threads}"
            );
            assert!(reference.calls().iter().any(|&c| c > 1));
        }
    }

    #[test]
    fn random_search_memo_is_bit_identical() {
        for threads in [1, 2, 4] {
            let rs = RandomSearch {
                n_evals: 100,
                seed: 0x3E32,
                threads,
            };
            let (memo, reference) = compare_with_unmemoized(&rs, false);
            // One chunk holds all 100 draws of 32 genomes: each distinct
            // genome is evaluated once.
            assert!(memo.calls().iter().all(|&c| c <= 1), "threads={threads}");
            assert_eq!(reference.calls().iter().sum::<usize>(), 100);
        }
        // Small chunks clear the memo in between and change nothing.
        for chunk in [1usize, 7, 32] {
            let memo = random_search_inner(100, 0x3E32, 1, chunk, &Counting::new(false));
            let reference =
                random_search_inner(100, 0x3E32, 1, chunk, &Unmemoized(Counting::new(false)));
            assert_same_outcome(&memo, &reference);
        }
    }

    #[test]
    fn resumed_memo_search_is_bit_identical() {
        let cfg = memo_ga(1).config().clone();
        let reference = ObjectiveRunner::start(
            GeneticAlgorithm::new(cfg.clone()),
            &Unmemoized(Counting::new(false)),
        )
        .finish();
        for kill_at in 0..=cfg.generations {
            let objective = Counting::new(false);
            let mut first = ObjectiveRunner::start(GeneticAlgorithm::new(cfg.clone()), &objective);
            for _ in 0..kill_at {
                first.step();
            }
            let snapshot = first.state().clone();
            drop(first);
            let resumed =
                ObjectiveRunner::resume(GeneticAlgorithm::new(cfg.clone()), &objective, snapshot)
                    .expect("same configuration")
                    .finish();
            assert_same_outcome(&resumed, &reference);
        }
    }

    #[test]
    fn failing_genomes_count_one_failure_per_call() {
        let check = |memo: Counting, reference: Counting| {
            let failures = memo.failures.load(Ordering::Relaxed);
            assert_eq!(failures, reference.failures.load(Ordering::Relaxed));
            // Every call of an odd genome failed and was counted, repeats
            // included; even genomes were still evaluated once each.
            let calls = memo.calls();
            let odd_calls: usize = calls.iter().skip(1).step_by(2).sum();
            assert_eq!(failures, odd_calls);
            assert!(calls.iter().skip(1).step_by(2).any(|&c| c > 1));
            assert!(calls.iter().step_by(2).all(|&c| c <= 1));
        };
        for threads in [1, 2] {
            let (memo, reference) = compare_with_unmemoized(&memo_ga(threads), true);
            check(memo, reference);
            let (memo, reference) = compare_with_unmemoized(&memo_hill_climb(threads), true);
            check(memo, reference);
            let rs = RandomSearch {
                n_evals: 100,
                seed: 0x3E33,
                threads,
            };
            let (memo, reference) = compare_with_unmemoized(&rs, true);
            check(memo, reference);
        }
    }
}
