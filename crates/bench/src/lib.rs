//! Shared helpers for the benchmark harness that regenerates the paper's
//! tables and figures.
//!
//! Budgets are environment-tunable so the default `cargo bench` finishes
//! in minutes while `MVF_PAPER_SCALE=1` reproduces the paper's evaluation
//! budget (9726 fitness evaluations per workload):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MVF_GA_POP` | GA population | 8 |
//! | `MVF_GA_GENS` | GA generations | 5 |
//! | `MVF_PAPER_SCALE` | population 24 / generations ~415 as in the paper | off |
//! | `MVF_THREADS` | fitness-evaluation worker threads (`parallel` feature; results are bit-identical to serial) | all cores |
//! | `MVF_SCREEN_VECTORS` | screening batch size of the `micro` bench's screen-then-solve section (verdicts are bit-identical for every value) | 256 |
//! | `MVF_BENCH_OUT` | path of the `micro` bench's JSON report | `BENCH_sim.json` at the repo root |
//! | `MVF_SERVE_ADDR` | TCP listen address of the `mvf-serve` audit service; unset = stdio | unset |
//! | `MVF_CHECKPOINT_STEPS` | GA generations between `mvf-serve` checkpoints | 1 |
//! | `MVF_SESSION_CACHE_MB` | `mvf-serve` session-cache byte budget, in MiB | 64 |
//! | `MVF_SCHEME` | obfuscation family for new `mvf-serve` jobs (`camo` \| `locking`); resumed jobs keep their checkpoint's family | `camo` |
//! | `MVF_LOCK_XOR` | XOR/XNOR key gates inserted by `mvf-serve` locking jobs | 4 |
//! | `MVF_LOCK_MUX` | MUX key gates inserted by `mvf-serve` locking jobs | 2 |
//! | `MVF_LOCK_SEED` | key-gate placement seed (locking is deterministic in `(netlist, seed)`) | fixed |
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

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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
        config.ga.population = env_usize("MVF_GA_POP", 8);
        config.ga.generations = env_usize("MVF_GA_GENS", 5);
    }
    config
}

/// Builds the flow for benchmarking.
pub fn bench_flow() -> Flow<Ga> {
    Flow::builder().config(bench_config()).build()
}

/// The screening batch size for the screen-then-solve bench section
/// (`MVF_SCREEN_VECTORS`, default [`mvf_attack::DEFAULT_SCREEN_VECTORS`]).
/// Screening never changes a verdict, so every value is safe; larger
/// batches refute more chaff per screen build at higher screening cost.
pub fn screen_vectors() -> usize {
    env_usize("MVF_SCREEN_VECTORS", mvf_attack::DEFAULT_SCREEN_VECTORS)
}
