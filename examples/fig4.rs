//! Regenerates the paper's **Fig. 4**: the random-pin-assignment area
//! distribution (4a) and the GA trajectory against the random
//! average/best lines (4b), for the 8-merged-PRESENT-S-box workload the
//! paper plots.
//!
//! ```sh
//! cargo run --release --example fig4                    # quick budget
//! MVF_PAPER_SCALE=1 cargo run --release --example fig4  # paper budget
//! ```
//!
//! Budget knobs: `MVF_GA_POP`, `MVF_GA_GENS`, `MVF_PAPER_SCALE=1` (see
//! the `mvf-bench` crate docs).

use mvf::{Fig4Data, SearchStrategy};
use mvf_bench::bench_flow;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("=== Regenerating Fig. 4 (8 merged PRESENT S-boxes) ===");
    let flow = bench_flow();
    let functions = mvf_sboxes::optimal_sboxes()[..8].to_vec();
    let budget = flow.strategy().evaluation_budget();
    let baseline = flow.random_baseline(&functions, budget, 0xF16);
    let result = flow.run(&functions)?;
    let data = Fig4Data {
        random_samples: baseline.samples,
        random_avg: baseline.avg_area_ge,
        random_best: baseline.best_area_ge,
        ga_history: result.ga_history,
    };
    println!("\n{data}");
    let last = data.ga_history.last().expect("history");
    println!(
        "GA best {:.0} GE vs best random {:.0} GE ({})",
        last.best_so_far,
        data.random_best,
        if last.best_so_far <= data.random_best {
            "GA surpasses best random, as in the paper"
        } else {
            "increase the budget (MVF_GA_GENS) to see the crossover"
        }
    );
    Ok(())
}
