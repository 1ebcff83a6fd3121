//! `table1`: the paper's Table-I experiment — PRESENT 2/4/8/16 and DES
//! 2/4/8, camouflaged, exhaustively validated, no adversary — as one
//! `Flow::run_many` batch.
//!
//! Each workload's GA seed is pinned by the input set, so every run seed
//! does the same work; the run seed permutes the batch order. The batch
//! runs on one worker: on a two-core machine shared with other jobs, the
//! two-worker wall is the slower of two unequal stripes and spread about
//! three times wider from pass to pass.
//!
//! The traced pass makes the same calls by hand: a `Ga` search over
//! [`TracedObjective`] (the Phase-II fitness `build_merged` →
//! `Script::run_with` → `subject_graph::from_aig_with` →
//! `map_standard_with`, each in a span), then `Flow::finish_with`.
//! Camouflage mapping and validation run inside `finish_with`, so after the
//! timed part the pass replays them once per workload
//! (`map_camouflage_with`, `validate_mapped_with`) to split them out; the
//! replay is not part of the pass's `wall_s`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mvf::{Flow, FlowConfig, FlowResult, Ga, Objective, PinObjective, SearchStrategy, Workload};
use mvf_aig::{Script, SynthScratch};
use mvf_cells::Library;
use mvf_ga::GaConfig;
use mvf_logic::VectorFunction;
use mvf_merge::{build_merged, PinAssignment};
use mvf_netlist::subject_graph::{self, SubjectScratch};
use mvf_techmap::{
    map_camouflage_with, map_standard_with, CamoMatchScratch, MapOptions, MatchScratch,
};
use rand::rngs::StdRng;

use crate::trace::Tracer;
use crate::{mix, shuffle, Pass};

/// GA population per workload.
const POPULATION: usize = 8;
/// GA generations per workload.
const GENERATIONS: usize = 2;

pub struct Table1 {
    flow: Flow<Ga>,
    workloads: Vec<Workload>,
}

/// Builds the libraries, the flow and the seven workloads.
pub fn setup(seed: u64, input_set: u64) -> Table1 {
    let opt = mvf_sboxes::optimal_sboxes();
    let des = mvf_sboxes::des_sboxes();
    let sizes = [
        ("PRESENT", 2usize),
        ("PRESENT", 4),
        ("PRESENT", 8),
        ("PRESENT", 16),
    ]
    .into_iter()
    .chain([("DES", 2), ("DES", 4), ("DES", 8)]);
    let mut workloads: Vec<Workload> = sizes
        .enumerate()
        .map(|(i, (family, n))| {
            let functions = if family == "PRESENT" { &opt } else { &des };
            Workload::new(format!("{family} x{n}"), functions[..n].to_vec())
                .with_seed(mix(input_set, 0x7AB1E + i as u64))
        })
        .collect();
    shuffle(&mut workloads, mix(seed, 0x7AB1E));
    let config = FlowConfig {
        ga: GaConfig {
            population: POPULATION,
            generations: GENERATIONS,
            threads: 1,
            ..GaConfig::default()
        },
        validate: true,
        ..FlowConfig::default()
    };
    let flow = Flow::builder().config(config).workload_threads(1).build();
    Table1 { flow, workloads }
}

impl Table1 {
    /// The batch as run: names and pinned seeds, in order.
    pub fn inputs(&self) -> Vec<String> {
        self.workloads
            .iter()
            .map(|w| format!("{} seed {:#x}", w.name, w.seed.unwrap_or(0)))
            .collect()
    }

    pub fn pass(&self, tracer: Option<&Tracer>) -> Pass {
        let start = Instant::now();
        let results: Vec<Result<FlowResult, String>> = match tracer {
            None => self
                .flow
                .run_many(&self.workloads)
                .into_iter()
                .map(|r| r.outcome.map_err(|e| format!("{}: {e}", r.name)))
                .collect(),
            Some(tracer) => self.traced_batch(tracer),
        };
        let wall_s = start.elapsed().as_secs_f64();
        let mut pass = Pass::new(wall_s);
        if let Some(tracer) = tracer {
            for e in self.replay(tracer, &results) {
                pass.error(e);
            }
        }
        if !self.flow.config().validate {
            pass.error("exhaustive validation is off".into());
        }
        for (w, r) in self.workloads.iter().zip(&results) {
            pass.attempted += 1;
            match r {
                Err(e) => {
                    pass.failed += 1;
                    pass.error(format!("{}: flow failed: {e}", w.name));
                }
                Ok(r) => {
                    if r.failed_evaluations != 0 {
                        pass.failed += 1;
                        pass.error(format!(
                            "{}: {} failed fitness evaluations",
                            w.name, r.failed_evaluations
                        ));
                    }
                    pass.units += r.evaluations;
                    pass.area_ge += r.mapped_area_ge;
                    pass.digest.push_str(&format!(
                        "{}:{:?}/{:?}:{:016x}:{:016x};",
                        w.name,
                        r.assignment.input_perms,
                        r.assignment.output_perms,
                        r.synthesized_area_ge.to_bits(),
                        r.mapped_area_ge.to_bits()
                    ));
                }
            }
        }
        pass
    }

    /// `run_many` by hand, on its serial path: the same seeds and the same
    /// per-workload strategy, with spans.
    fn traced_batch(&self, tracer: &Tracer) -> Vec<Result<FlowResult, String>> {
        let strategy = self.flow.strategy();
        self.workloads
            .iter()
            .enumerate()
            .map(|(i, wl)| {
                let seed = wl.resolve_seed(strategy.seed(), i as u64);
                let ga = strategy.reconfigured(seed, strategy.threads());
                self.traced_workload(tracer, wl, &ga)
            })
            .collect()
    }

    fn traced_workload(
        &self,
        tracer: &Tracer,
        wl: &Workload,
        ga: &Ga,
    ) -> Result<FlowResult, String> {
        let root = tracer.span("table1.workload", None);
        let cfg = self.flow.config();
        let objective = TracedObjective::new(
            &wl.functions,
            &cfg.script,
            self.flow.library(),
            &cfg.map,
            tracer,
        );
        let outcome = {
            let search = tracer.span("ga.search", Some(root.id()));
            objective.set_parent(search.id());
            ga.search(&objective)
        };
        objective.flush_counters();
        let _finish = tracer.span("core.finish", Some(root.id()));
        self.flow
            .finish_with(
                &wl.functions,
                outcome.best_genome,
                outcome.history,
                outcome.evaluations,
                objective.failed_evaluations(),
            )
            .map_err(|e| format!("{}: {e}", wl.name))
    }

    /// Replays Phase III of every finished workload — camouflage mapping
    /// and exhaustive validation, the two stages `finish_with` runs after
    /// the standard mapping — to time them on their own.
    fn replay(&self, tracer: &Tracer, results: &[Result<FlowResult, String>]) -> Vec<String> {
        let mut errors = Vec::new();
        let lib = self.flow.library();
        let camo = self.flow.camo_library();
        let mut map_scratch = CamoMatchScratch::default();
        let mut sim_scratch = mvf_sim::CamoEvalScratch::default();
        for r in results.iter().flatten() {
            let root = tracer.span("replay", None);
            let subject = subject_graph::from_aig(&r.merged.aig, lib);
            let mapped = {
                let _s = tracer.span("techmap.camo_map", Some(root.id()));
                map_camouflage_with(
                    &subject,
                    lib,
                    camo,
                    &r.merged.select_indices,
                    &self.flow.config().camo_map,
                    &mut map_scratch,
                )
            };
            let mapped = match mapped {
                Ok(m)
                    if m.netlist.n_cells() == r.mapped.netlist.n_cells()
                        && m.netlist.area_ge(lib, Some(camo)).to_bits()
                            == r.mapped_area_ge.to_bits() =>
                {
                    m
                }
                _ => {
                    errors.push("camouflage replay differs from finish_with".into());
                    continue;
                }
            };
            let _s = tracer.span("sim.validate", Some(root.id()));
            if let Err(e) = mvf_sim::validate_mapped_with(
                &mapped,
                lib,
                camo,
                &r.merged.functions,
                &mut sim_scratch,
            ) {
                errors.push(format!("validation replay failed: {e}"));
            }
        }
        errors
    }
}

/// A pin assignment as a hashable key: input and output permutations.
type GenomeKey = (Vec<Vec<usize>>, Vec<Vec<usize>>);

/// Per-worker scratch of [`TracedObjective`]: the same reusable state
/// `mvf::EvalContext` keeps for the fitness.
#[derive(Default)]
pub struct TracedCtx {
    synth: SynthScratch,
    subject: SubjectScratch,
    matcher: MatchScratch,
}

/// The Phase-II objective with a span around each layer call. Variation
/// operators delegate to [`PinObjective`], and the fitness makes the calls
/// `EvalContext::synthesized_area_ge` makes, so searches are bit-identical.
pub struct TracedObjective<'a> {
    inner: PinObjective<'a>,
    functions: &'a [VectorFunction],
    script: &'a Script,
    lib: &'a Library,
    map: &'a MapOptions,
    tracer: &'a Tracer,
    parent: Mutex<Option<u64>>,
    failures: AtomicUsize,
    seen: Mutex<HashSet<GenomeKey>>,
    stats: Mutex<EvalStats>,
}

#[derive(Default)]
struct EvalStats {
    evals: usize,
    repeats: usize,
    ands_in: usize,
    ands_out: usize,
    cells: usize,
}

impl<'a> TracedObjective<'a> {
    pub fn new(
        functions: &'a [VectorFunction],
        script: &'a Script,
        lib: &'a Library,
        map: &'a MapOptions,
        tracer: &'a Tracer,
    ) -> Self {
        TracedObjective {
            inner: PinObjective::new(functions, script, lib, map),
            functions,
            script,
            lib,
            map,
            tracer,
            parent: Mutex::new(None),
            failures: AtomicUsize::new(0),
            seen: Mutex::new(HashSet::new()),
            stats: Mutex::new(EvalStats::default()),
        }
    }

    /// The span that evaluation spans hang under from now on.
    pub fn set_parent(&self, id: u64) {
        *self.parent.lock().expect("parent lock poisoned") = Some(id);
    }

    pub fn failed_evaluations(&self) -> usize {
        self.failures.load(Ordering::Relaxed)
    }

    /// Moves this search's counters into the tracer.
    pub fn flush_counters(&self) {
        let mut s = self.stats.lock().expect("stats lock poisoned");
        self.tracer.add("ga.evals", s.evals as f64);
        self.tracer.add("ga.repeats", s.repeats as f64);
        self.tracer.add("aig.ands_in", s.ands_in as f64);
        self.tracer.add("aig.ands_out", s.ands_out as f64);
        self.tracer.add("techmap.cells", s.cells as f64);
        *s = EvalStats::default();
    }

    fn fitness(&self, ctx: &mut TracedCtx, genome: &PinAssignment, eval: u64) -> Option<f64> {
        let t = self.tracer;
        let merged = {
            let _s = t.span("merge.build", Some(eval));
            build_merged(self.functions, genome).ok()?
        };
        let synthesized = {
            let _s = t.span("aig.script", Some(eval));
            self.script.run_with(&merged.aig, &mut ctx.synth)
        };
        let subject = {
            let _s = t.span("netlist.subject", Some(eval));
            subject_graph::from_aig_with(&synthesized, self.lib, &mut ctx.subject)
        };
        let mapped = {
            let _s = t.span("techmap.map", Some(eval));
            map_standard_with(&subject, self.lib, self.map, &mut ctx.matcher).ok()?
        };
        let mut s = self.stats.lock().expect("stats lock poisoned");
        s.ands_in += merged.aig.n_ands();
        s.ands_out += synthesized.n_ands();
        s.cells += mapped.n_cells();
        drop(s);
        Some(mapped.area_ge(self.lib, None))
    }
}

impl Objective for TracedObjective<'_> {
    type Genome = PinAssignment;
    type Ctx = TracedCtx;

    fn new_ctx(&self) -> TracedCtx {
        TracedCtx::default()
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

    fn evaluate(&self, ctx: &mut TracedCtx, genome: &PinAssignment) -> f64 {
        let parent = *self.parent.lock().expect("parent lock poisoned");
        let eval = self.tracer.span("ga.eval", parent);
        let repeat = !self
            .seen
            .lock()
            .expect("genome set lock poisoned")
            .insert((genome.input_perms.clone(), genome.output_perms.clone()));
        {
            let mut s = self.stats.lock().expect("stats lock poisoned");
            s.evals += 1;
            s.repeats += usize::from(repeat);
        }
        self.fitness(ctx, genome, eval.id()).unwrap_or_else(|| {
            self.failures.fetch_add(1, Ordering::Relaxed);
            f64::INFINITY
        })
    }
}
