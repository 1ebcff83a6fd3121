//! Golden Phase-II corpus: fitness results pinned across commits.
//!
//! Every GA fitness call runs `merge → synthesize → standard-map`, and
//! nothing else pins what those calls return from one commit to the next:
//! the determinism tests compare runs of the *same* build against each
//! other. This corpus fixes, for a few seeded pin assignments of PRESENT
//! x2, PRESENT x4 and DES x2, the exact fitness bits under both synthesis
//! scripts, the synthesized AND count and the standard-mapped cell
//! histogram, plus one small end-to-end [`Flow`] run. Performance work on
//! the synthesis and mapping kernels must keep every value bit for bit.
//!
//! The constants were recorded once and must not be regenerated to make a
//! change pass: a mismatch means a kernel changed a synthesis or mapping
//! decision.

use mvf::{random_assignment, EvalContext, Flow};
use mvf_aig::Script;
use mvf_cells::Library;
use mvf_ga::GaConfig;
use mvf_logic::VectorFunction;
use mvf_merge::build_merged;
use mvf_netlist::subject_graph;
use mvf_sboxes::{des_sboxes, optimal_sboxes};
use mvf_techmap::{map_standard, MapOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seeded assignments drawn per workload.
const ASSIGNMENTS: usize = 3;

/// One observed fitness call.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    workload: String,
    draw: usize,
    script: &'static str,
    area_bits: u64,
    ands: usize,
    cells: Vec<(String, usize)>,
}

fn workloads() -> Vec<(&'static str, Vec<VectorFunction>, u64)> {
    vec![
        ("PRESENT x2", optimal_sboxes()[..2].to_vec(), 0x601D_0002),
        ("PRESENT x4", optimal_sboxes()[..4].to_vec(), 0x601D_0004),
        ("DES x2", des_sboxes()[..2].to_vec(), 0x601D_00D2),
    ]
}

/// Runs every pinned fitness call twice: through one warm
/// [`EvalContext`] per workload (the GA's path) and through a cold
/// merge → script → subject graph → map pipeline that also exposes the
/// AND count and the cell histogram. The two areas must agree.
fn observe() -> Vec<Observation> {
    let lib = Library::standard();
    let map = MapOptions::default();
    let scripts = [("fast", Script::fast()), ("standard", Script::standard())];
    let mut out = Vec::new();
    for (name, functions, seed) in workloads() {
        let mut ctx = EvalContext::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for draw in 0..ASSIGNMENTS {
            let assignment = random_assignment(&functions, &mut rng);
            for (script_name, script) in &scripts {
                let area = ctx
                    .synthesized_area_ge(&functions, &assignment, script, &lib, &map)
                    .expect("fitness");
                let merged = build_merged(&functions, &assignment).expect("merge");
                let synthesized = script.run(&merged.aig);
                let subject = subject_graph::from_aig(&synthesized, &lib);
                let mapped = map_standard(&subject, &lib, &map).expect("map");
                assert_eq!(
                    mapped.area_ge(&lib, None).to_bits(),
                    area.to_bits(),
                    "{name} draw {draw} {script_name}: warm context and cold pipeline disagree"
                );
                out.push(Observation {
                    workload: name.to_string(),
                    draw,
                    script: script_name,
                    area_bits: area.to_bits(),
                    ands: synthesized.n_ands(),
                    cells: mapped.cell_histogram(&lib, None),
                });
            }
        }
    }
    out
}

/// `(workload, draw, script, fitness bits, AND count, cell histogram)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, usize, &str, u64, usize, &[(&str, usize)])] = &[
    ("PRESENT x2", 0, "fast", 0x40512a3d70a3d70a, 65, &[("AND2", 7), ("INV", 11), ("NAND2", 41), ("NAND3", 7), ("NAND4", 1)]),
    ("PRESENT x2", 0, "standard", 0x40512a3d70a3d70a, 65, &[("AND2", 7), ("INV", 11), ("NAND2", 41), ("NAND3", 7), ("NAND4", 1)]),
    ("PRESENT x2", 1, "fast", 0x40517eb851eb851e, 67, &[("AND2", 8), ("INV", 11), ("NAND2", 37), ("NAND3", 9), ("NAND4", 1), ("OR2", 1)]),
    ("PRESENT x2", 1, "standard", 0x404efd70a3d70a3c, 60, &[("AND2", 8), ("AND3", 2), ("INV", 12), ("NAND2", 24), ("NAND3", 12)]),
    ("PRESENT x2", 2, "fast", 0x4051000000000000, 65, &[("AND2", 5), ("INV", 10), ("NAND2", 45), ("NAND3", 6), ("NAND4", 1)]),
    ("PRESENT x2", 2, "standard", 0x40503e147ae147ad, 62, &[("AND2", 8), ("INV", 9), ("NAND2", 35), ("NAND3", 9), ("OR2", 1)]),
    ("PRESENT x4", 0, "fast", 0x40601f0a3d70a3d6, 128, &[("AND2", 14), ("INV", 15), ("NAND2", 75), ("NAND3", 13), ("NAND4", 4), ("OR2", 1)]),
    ("PRESENT x4", 0, "standard", 0x4060347ae147ae14, 126, &[("AND2", 12), ("AND3", 1), ("INV", 14), ("NAND2", 82), ("NAND3", 11), ("NAND4", 2), ("OR2", 2)]),
    ("PRESENT x4", 1, "fast", 0x40607eb851eb851e, 127, &[("AND2", 16), ("INV", 14), ("NAND2", 79), ("NAND3", 10), ("NAND4", 3), ("OR2", 3)]),
    ("PRESENT x4", 1, "standard", 0x405da851eb851eb7, 115, &[("AND2", 14), ("AND3", 3), ("INV", 15), ("NAND2", 62), ("NAND3", 14), ("NAND4", 1), ("OR2", 2)]),
    ("PRESENT x4", 2, "fast", 0x40614a3d70a3d70a, 132, &[("AND2", 15), ("INV", 18), ("NAND2", 88), ("NAND3", 10), ("NAND4", 3)]),
    ("PRESENT x4", 2, "standard", 0x405fbd70a3d70a3c, 129, &[("AND2", 10), ("AND3", 2), ("INV", 15), ("NAND2", 72), ("NAND3", 20), ("NAND4", 1)]),
    ("DES x2", 0, "fast", 0x4074635c28f5c291, 316, &[("AND2", 37), ("AND4", 1), ("INV", 31), ("NAND2", 204), ("NAND3", 29), ("NAND4", 3), ("OR2", 5)]),
    ("DES x2", 0, "standard", 0x40725d1eb851eb88, 299, &[("AND2", 34), ("INV", 23), ("NAND2", 161), ("NAND3", 41), ("NAND4", 5), ("OR2", 7)]),
    ("DES x2", 1, "fast", 0x4073a8a3d70a3d73, 310, &[("AND2", 33), ("AND4", 1), ("INV", 27), ("NAND2", 199), ("NAND3", 31), ("NAND4", 3), ("OR2", 4)]),
    ("DES x2", 1, "standard", 0x40723d70a3d70a40, 295, &[("AND2", 29), ("INV", 27), ("NAND2", 170), ("NAND3", 45), ("NAND4", 1), ("NOR2", 1), ("OR2", 2)]),
    ("DES x2", 2, "fast", 0x407388cccccccccf, 307, &[("AND2", 36), ("INV", 28), ("NAND2", 195), ("NAND3", 29), ("NAND4", 5), ("OR2", 3)]),
    ("DES x2", 2, "standard", 0x40720e147ae147af, 298, &[("AND2", 28), ("AND3", 3), ("INV", 29), ("NAND2", 159), ("NAND3", 45), ("NAND4", 5)]),
];

#[test]
fn fitness_calls_match_the_golden_corpus() {
    let expected: Vec<Observation> = GOLDEN
        .iter()
        .map(
            |&(workload, draw, script, area_bits, ands, cells)| Observation {
                workload: workload.to_string(),
                draw,
                script,
                area_bits,
                ands,
                cells: cells.iter().map(|&(c, n)| (c.to_string(), n)).collect(),
            },
        )
        .collect();
    let got = observe();
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g, e);
    }
}

#[test]
fn small_flow_matches_the_golden_run() {
    let functions = optimal_sboxes()[..4].to_vec();
    let result = Flow::builder()
        .ga(GaConfig {
            population: 4,
            generations: 1,
            seed: 0x601D,
            threads: 1,
            ..GaConfig::default()
        })
        .build()
        .run(&functions)
        .expect("flow");
    assert_eq!(
        result.assignment.input_perms,
        [[3, 1, 2, 0], [3, 1, 0, 2], [0, 1, 3, 2], [1, 2, 0, 3]]
    );
    assert_eq!(
        result.assignment.output_perms,
        [[2, 1, 0, 3], [2, 3, 0, 1], [2, 1, 3, 0], [1, 2, 0, 3]]
    );
    assert_eq!(result.synthesized_area_ge.to_bits(), 0x4060499999999999);
    assert_eq!(result.mapped_area_ge.to_bits(), 0x405e7d70a3d70a3c);
    assert_eq!(result.evaluations, 6);
}
