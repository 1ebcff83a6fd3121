//! Ablations of the flow's design choices, printed as small tables:
//!
//! * camouflage-mapper subtree depth bound (the paper's "depth < 3");
//! * allowing standard cells for select-independent cones;
//! * search strategies: full GA vs mutation-only vs crossover-only vs
//!   random search vs hill climbing, at one evaluation budget.
//!
//! ```sh
//! cargo run --release --example ablation
//! ```
//!
//! Every number is deterministic, and none depends on the thread count.

use mvf::{EvalContext, FlowConfig, PinObjective};
use mvf_aig::Script;
use mvf_cells::{CamoLibrary, Library};
use mvf_ga::permutation::{pmx, swap_mutation};
use mvf_ga::{Ga, GaConfig, HillClimb, Objective, RandomSearch, SearchStrategy};
use mvf_merge::{build_merged, PinAssignment};
use mvf_netlist::subject_graph;
use mvf_techmap::{map_camouflage, CamoMapOptions};
use rand::rngs::StdRng;
use rand::Rng;

fn depth_ablation() {
    println!("\n--- Ablation: camo-mapper subtree depth bound (PRESENT x4) ---");
    println!("{:<8} {:>12} {:>10}", "depth", "area (GE)", "cells");
    let functions = mvf_sboxes::optimal_sboxes()[..4].to_vec();
    let merged = build_merged(&functions, &PinAssignment::identity(&functions)).unwrap();
    let synthesized = Script::fast().run(&merged.aig);
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let subject = subject_graph::from_aig(&synthesized, &lib);
    for depth in [2usize, 3, 4, 5, 6] {
        let opts = CamoMapOptions {
            max_depth: depth,
            ..CamoMapOptions::default()
        };
        match map_camouflage(&subject, &lib, &camo, &merged.select_indices, &opts) {
            Ok(m) => println!(
                "{:<8} {:>12.1} {:>10}",
                depth,
                m.netlist.area_ge(&lib, Some(&camo)),
                m.netlist.n_cells()
            ),
            Err(e) => println!("{depth:<8} unmappable: {e}"),
        }
    }
}

fn standard_cells_ablation() {
    println!("\n--- Ablation: standard cells for select-independent cones (PRESENT x4) ---");
    let functions = mvf_sboxes::optimal_sboxes()[..4].to_vec();
    let merged = build_merged(&functions, &PinAssignment::identity(&functions)).unwrap();
    let synthesized = Script::fast().run(&merged.aig);
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let subject = subject_graph::from_aig(&synthesized, &lib);
    for allow in [true, false] {
        let opts = CamoMapOptions {
            allow_standard_cells: allow,
            ..CamoMapOptions::default()
        };
        let m =
            map_camouflage(&subject, &lib, &camo, &merged.select_indices, &opts).expect("mappable");
        let n_camo = m.witness.cells.len();
        println!(
            "allow_standard_cells={:<5} area {:>8.1} GE, {} cells ({} camouflaged)",
            allow,
            m.netlist.area_ge(&lib, Some(&camo)),
            m.netlist.n_cells(),
            n_camo
        );
    }
}

/// The Phase-II objective with input-only variation: swap mutation and
/// PMX crossover act on the input permutations, and the output pins keep
/// their random draw. Drawing and scoring are [`PinObjective`]'s.
struct InputOnly<'a>(PinObjective<'a>);

impl Objective for InputOnly<'_> {
    type Genome = PinAssignment;
    type Ctx = EvalContext;

    fn new_ctx(&self) -> EvalContext {
        self.0.new_ctx()
    }

    fn init(&self, rng: &mut StdRng) -> PinAssignment {
        self.0.init(rng)
    }

    fn mutate(&self, g: &mut PinAssignment, rng: &mut StdRng) {
        let j = rng.gen_range(0..g.input_perms.len());
        swap_mutation(&mut g.input_perms[j], rng);
    }

    fn crossover(&self, a: &PinAssignment, b: &PinAssignment, rng: &mut StdRng) -> PinAssignment {
        let mut child = a.clone();
        for (cp, bp) in child.input_perms.iter_mut().zip(&b.input_perms) {
            *cp = pmx(cp, bp, rng);
        }
        child
    }

    fn evaluate(&self, ctx: &mut EvalContext, g: &PinAssignment) -> f64 {
        self.0.evaluate(ctx, g)
    }
}

fn ga_operator_ablation() {
    println!("\n--- Ablation: GA operators (PRESENT x4, tiny budget) ---");
    let functions = mvf_sboxes::optimal_sboxes()[..4].to_vec();
    let flow_cfg = FlowConfig::default();
    let lib = Library::standard();
    let objective = InputOnly(PinObjective::new(
        &functions,
        &flow_cfg.script,
        &lib,
        &flow_cfg.map,
    ));
    let base = GaConfig {
        population: 8,
        generations: 4,
        seed: 77,
        ..GaConfig::default()
    };
    for (label, crossover_rate, mutation_rate) in [
        ("full GA", 0.7, 0.4),
        ("mutation-only", 0.0, 1.0),
        ("crossover-only", 1.0, 0.0),
    ] {
        let cfg = GaConfig {
            crossover_rate,
            mutation_rate,
            ..base.clone()
        };
        let res = Ga::new(cfg).search(&objective);
        println!(
            "{label:<15} best {:>7.1} GE in {} evals",
            res.best_fitness, res.evaluations
        );
    }
    let budget = Ga::new(base).evaluation_budget();
    let rs = RandomSearch {
        n_evals: budget,
        seed: 99,
        threads: 0,
    }
    .search(&objective);
    println!(
        "{:<15} best {:>7.1} GE in {} evals",
        "random search", rs.best_fitness, rs.evaluations
    );
    // The hill-climbing strategy at the same budget, over the full
    // pin-assignment operators (2 restarts × (1 + 3 steps × 5) = 32).
    let hc = HillClimb {
        restarts: 2,
        steps: 3,
        batch: 5,
        seed: 99,
        threads: 0,
    };
    assert_eq!(hc.evaluation_budget(), budget, "equal-budget comparison");
    let out = hc.search(&objective.0);
    println!(
        "{:<15} best {:>7.1} GE in {} evals",
        "hill climb", out.best_fitness, out.evaluations
    );
}

fn main() {
    depth_ablation();
    standard_cells_ablation();
    ga_operator_ablation();
}
