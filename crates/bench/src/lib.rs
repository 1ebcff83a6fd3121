//! Shared helpers for the benchmark harness that regenerates the paper's
//! tables and figures.
//!
//! Budgets are environment-tunable so the default `cargo bench` finishes
//! in minutes while `MVF_PAPER_SCALE=1` reproduces the paper's evaluation
//! budget (9726 fitness evaluations per workload):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MVF_GA_POP` | GA population (read by [`FlowConfig::apply_ga_budget_env`]) | 8 |
//! | `MVF_GA_GENS` | GA generations (likewise) | 5 |
//! | `MVF_PAPER_SCALE` | population 24 / generations ~415 as in the paper | off |
//! | `MVF_THREADS` | fitness-evaluation worker threads (`parallel` feature; results are bit-identical to serial) | all cores |
//! | `MVF_BENCH_OUT` | path of the `micro` bench's JSON report | `BENCH_sim.json` at the repo root |
//!
//! The audit service's knobs are listed in the `mvf-serve` crate docs.
//!
//! Parallel fitness evaluation is compiled in through the `parallel`
//! cargo feature (a default feature of this crate and of the workspace
//! root); the thread count can also be pinned per run via
//! `GaConfig::threads`.

use mvf::{Flow, FlowConfig, Ga, Workload};
use mvf_logic::VectorFunction;

/// A named Table-I workload: family label, size and the merged S-boxes.
pub struct BenchWorkload {
    /// "PRESENT" or "DES".
    pub family: &'static str,
    /// Number of merged S-boxes.
    pub n: usize,
    /// The viable functions.
    pub functions: Vec<VectorFunction>,
}

impl BenchWorkload {
    /// This workload as a flow [`Workload`] (for [`Flow::run_many`]).
    pub fn to_workload(&self) -> Workload {
        Workload::new(
            format!("{} x{}", self.family, self.n),
            self.functions.clone(),
        )
    }
}

/// The seven Table I workloads: PRESENT 2/4/8/16 and DES 2/4/8.
pub fn table1_workloads() -> Vec<BenchWorkload> {
    let opt = mvf_sboxes::optimal_sboxes();
    let des = mvf_sboxes::des_sboxes();
    let mut w = Vec::new();
    for n in [2usize, 4, 8, 16] {
        w.push(BenchWorkload {
            family: "PRESENT",
            n,
            functions: opt[..n].to_vec(),
        });
    }
    for n in [2usize, 4, 8] {
        w.push(BenchWorkload {
            family: "DES",
            n,
            functions: des[..n].to_vec(),
        });
    }
    w
}

/// The benchmark flow configuration, honoring the env knobs.
pub fn bench_config() -> FlowConfig {
    let mut config = FlowConfig::default();
    if std::env::var_os("MVF_PAPER_SCALE").is_some() {
        // The paper evaluates 9726 individuals; with elitism 2 this is
        // population 24 + 442 generations of 22 children.
        config.ga.population = 24;
        config.ga.generations = 442;
    } else {
        config.ga.population = 8;
        config.ga.generations = 5;
        config.apply_ga_budget_env();
    }
    config
}

/// Builds the flow for benchmarking.
pub fn bench_flow() -> Flow<Ga> {
    Flow::builder().config(bench_config()).build()
}
