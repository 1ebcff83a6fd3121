//! Regenerates the paper's **Table I**: the random-assignment
//! average/best, GA, GA+TM, and the improvement of GA+TM over the best
//! random assignment.
//!
//! The GA arm runs all seven workloads as one [`mvf::Flow::run_many`]
//! batch; the random arm reuses the same flow per workload.
//!
//! ```sh
//! cargo run --release --example table1                  # quick budget
//! MVF_PAPER_SCALE=1 cargo run --release --example table1  # paper budget
//! ```
//!
//! Budget knobs: `MVF_GA_POP`, `MVF_GA_GENS`, `MVF_PAPER_SCALE=1`
//! (population 24, generations 442 ⇒ 24 + 442·22 = 9,748 evaluations ≈ the
//! paper's 9,726).

use mvf::{SearchStrategy, Table1, Table1Row, Workload};
use mvf_bench::{bench_flow, table1_workloads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flow = bench_flow();
    let budget = flow.strategy().evaluation_budget();
    eprintln!("budget: {budget} evaluations per arm (GA and random)");

    // Seeds derive from the GA seed and batch index, so a given budget
    // always prints the same table.
    let bench_workloads = table1_workloads();
    let workloads: Vec<Workload> = bench_workloads.iter().map(|w| w.to_workload()).collect();

    eprintln!("running {} workloads as one batch ...", workloads.len());
    let reports = flow.run_many(&workloads);

    let mut table = Table1::default();
    for (w, report) in bench_workloads.iter().zip(&reports) {
        let result = report.outcome.clone()?;
        eprintln!("[{}] random baseline ...", report.name);
        let baseline = flow.random_baseline(&w.functions, budget, 0xBA5E + w.n as u64);
        table.rows.push(Table1Row {
            circuit: w.family.to_string(),
            n_sboxes: w.n,
            random_avg: baseline.avg_area_ge,
            random_best: baseline.best_area_ge,
            ga: result.synthesized_area_ge,
            ga_tm: result.mapped_area_ge,
        });
        eprintln!(
            "[{}] avg {:.0} best {:.0} GA {:.0} GA+TM {:.0} improvement {:.0}%",
            report.name,
            baseline.avg_area_ge,
            baseline.best_area_ge,
            result.synthesized_area_ge,
            result.mapped_area_ge,
            table.rows.last().expect("row").improvement_pct()
        );
    }
    println!("\n{table}");
    Ok(())
}
