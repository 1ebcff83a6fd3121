//! Contract tests for the workload-oriented pipeline API:
//!
//! * the `Ga` strategy reproduces the PR-1 closure-quadruple GA plumbing
//!   **bit-identically** on a fixed seed;
//! * `Flow::run_many` over eight two-function S-box workloads is
//!   deterministic and equals the per-workload serial runs;
//! * failed fitness evaluations are counted (and zero in healthy runs).

use mvf::{EvalContext, Flow, Ga, Objective, SearchOutcome, SearchStrategy, Workload};
use mvf_ga::permutation::{pmx, random_permutation, swap_mutation};
use mvf_ga::GaConfig;
use mvf_merge::PinAssignment;
use mvf_sboxes::optimal_sboxes;
use rand::rngs::StdRng;
use rand::Rng;

/// The original closure plumbing, frozen here as the reference
/// implementation: its ad-hoc init/mutate/crossover/fitness closures as
/// a context-free objective, with a cold fitness call per evaluation.
struct ClosureReference<'a> {
    functions: &'a [mvf_logic::VectorFunction],
    flow_cfg: mvf::FlowConfig,
    lib: mvf_cells::Library,
}

impl Objective for ClosureReference<'_> {
    type Genome = PinAssignment;
    type Ctx = ();

    fn new_ctx(&self) {}

    fn init(&self, rng: &mut StdRng) -> PinAssignment {
        PinAssignment {
            input_perms: self
                .functions
                .iter()
                .map(|f| random_permutation(f.n_inputs(), rng))
                .collect(),
            output_perms: self
                .functions
                .iter()
                .map(|f| random_permutation(f.n_outputs(), rng))
                .collect(),
        }
    }

    fn mutate(&self, g: &mut PinAssignment, rng: &mut StdRng) {
        let j = rng.gen_range(0..g.input_perms.len());
        if rng.gen_bool(0.5) {
            swap_mutation(&mut g.input_perms[j], rng);
        } else {
            swap_mutation(&mut g.output_perms[j], rng);
        }
    }

    fn crossover(&self, a: &PinAssignment, b: &PinAssignment, rng: &mut StdRng) -> PinAssignment {
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

    fn evaluate(&self, _ctx: &mut (), g: &PinAssignment) -> f64 {
        EvalContext::new()
            .synthesized_area_ge(
                self.functions,
                g,
                &self.flow_cfg.script,
                &self.lib,
                &self.flow_cfg.map,
            )
            .unwrap_or(f64::INFINITY)
    }
}

fn pr1_closure_ga(
    functions: &[mvf_logic::VectorFunction],
    cfg: GaConfig,
) -> SearchOutcome<PinAssignment> {
    Ga::new(cfg).search(&ClosureReference {
        functions,
        flow_cfg: mvf::FlowConfig::default(),
        lib: mvf_cells::Library::standard(),
    })
}

#[test]
fn ga_strategy_is_bit_identical_to_pr1_closure_path() {
    let functions = optimal_sboxes()[..2].to_vec();
    let cfg = GaConfig {
        population: 6,
        generations: 2,
        seed: 0x1DEA,
        ..GaConfig::default()
    };

    let reference = pr1_closure_ga(&functions, cfg.clone());
    let flow = Flow::builder().ga(cfg).validate(false).build();
    let result = flow.run(&functions).expect("flow succeeds");

    assert_eq!(
        result.assignment, reference.best_genome,
        "strategy path found a different winning assignment"
    );
    assert_eq!(result.evaluations, reference.evaluations);
    assert_eq!(result.ga_history.len(), reference.history.len());
    for (g, (a, b)) in result.ga_history.iter().zip(&reference.history).enumerate() {
        assert_eq!(a.best_so_far.to_bits(), b.best_so_far.to_bits(), "gen {g}");
        assert_eq!(a.best.to_bits(), b.best.to_bits(), "gen {g}");
        assert_eq!(a.avg.to_bits(), b.avg.to_bits(), "gen {g}");
    }
    assert_eq!(result.failed_evaluations, 0);
}

/// Eight two-function S-box workloads: the 16 optimal S-boxes paired up.
fn eight_pair_workloads() -> Vec<Workload> {
    let sboxes = optimal_sboxes();
    (0..8)
        .map(|i| {
            Workload::new(
                format!("PRESENT pair {i}"),
                sboxes[2 * i..2 * i + 2].to_vec(),
            )
        })
        .collect()
}

fn batch_flow() -> Flow<Ga> {
    Flow::builder()
        .ga(GaConfig {
            population: 4,
            generations: 1,
            seed: 0xBA7C4,
            ..GaConfig::default()
        })
        .validate(false)
        .build()
}

#[test]
fn run_many_is_deterministic_and_matches_serial_runs() {
    let workloads = eight_pair_workloads();
    let flow = batch_flow();

    let batch = flow.run_many(&workloads);
    assert_eq!(batch.len(), workloads.len());

    // Identical on repeat.
    let again = flow.run_many(&workloads);
    for (a, b) in batch.iter().zip(&again) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.seed, b.seed);
        let (ra, rb) = (
            a.result().expect("flow succeeds"),
            b.result().expect("flow succeeds"),
        );
        assert_eq!(ra.assignment, rb.assignment);
        assert_eq!(
            ra.synthesized_area_ge.to_bits(),
            rb.synthesized_area_ge.to_bits()
        );
        assert_eq!(ra.mapped_area_ge.to_bits(), rb.mapped_area_ge.to_bits());
    }

    // Batch result == per-workload serial result under the same seed.
    for (w, report) in workloads.iter().zip(&batch) {
        let serial = flow
            .run_seeded(&w.functions, report.seed)
            .expect("serial flow succeeds");
        let batched = report.result().expect("flow succeeds");
        assert_eq!(report.strategy, "ga");
        assert_eq!(batched.assignment, serial.assignment, "{}", w.name);
        assert_eq!(
            batched.synthesized_area_ge.to_bits(),
            serial.synthesized_area_ge.to_bits(),
            "{}",
            w.name
        );
        assert_eq!(
            batched.mapped_area_ge.to_bits(),
            serial.mapped_area_ge.to_bits(),
            "{}",
            w.name
        );
        assert_eq!(batched.evaluations, serial.evaluations);
        assert_eq!(batched.failed_evaluations, 0);
    }

    // Distinct workloads get decorrelated seeds.
    let mut seeds: Vec<u64> = batch.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), batch.len(), "per-workload seeds must differ");
}

#[test]
fn workload_seed_overrides_are_honored() {
    let sboxes = optimal_sboxes();
    let workloads = vec![
        Workload::new("pinned", sboxes[..2].to_vec()).with_seed(0xAB),
        Workload::new("derived", sboxes[2..4].to_vec()),
    ];
    let flow = batch_flow();
    let reports = flow.run_many(&workloads);
    assert_eq!(reports[0].seed, 0xAB);
    let direct = flow
        .run_seeded(&workloads[0].functions, 0xAB)
        .expect("flow succeeds");
    assert_eq!(
        reports[0].result().expect("flow succeeds").assignment,
        direct.assignment
    );
}

#[test]
fn workload_parallelism_does_not_change_reports() {
    let workloads = eight_pair_workloads()[..4].to_vec();
    let serial_flow = Flow::builder()
        .ga(GaConfig {
            population: 4,
            generations: 1,
            seed: 0x5E7,
            ..GaConfig::default()
        })
        .validate(false)
        .workload_threads(1)
        .build();
    let parallel_flow = Flow::builder()
        .ga(GaConfig {
            population: 4,
            generations: 1,
            seed: 0x5E7,
            ..GaConfig::default()
        })
        .validate(false)
        .workload_threads(4)
        .build();
    let serial = serial_flow.run_many(&workloads);
    let parallel = parallel_flow.run_many(&workloads);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.seed, b.seed);
        let (ra, rb) = (
            a.result().expect("flow succeeds"),
            b.result().expect("flow succeeds"),
        );
        assert_eq!(ra.assignment, rb.assignment);
        assert_eq!(
            ra.synthesized_area_ge.to_bits(),
            rb.synthesized_area_ge.to_bits()
        );
    }
}
