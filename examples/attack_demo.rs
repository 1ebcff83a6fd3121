//! The adversary's view (§I of the paper): which viable functions can she
//! rule out?
//!
//! Compares two designs hiding S-box G0 among 4 viable functions:
//!
//! * **random camouflage** — synthesize only G0, replace every gate with a
//!   camouflaged look-alike: the other viable functions are implausible
//!   and the adversary rules them out *without resolving a single cell*;
//! * **this paper's flow** — all viable functions stay plausible.
//!
//! The demo finishes with the *full* adversary: plausibility under any
//! input/output pin interpretation (the signature-pruned orbit sweep), with
//! the witness permutation for a pin-scrambled suspect.
//!
//! ```sh
//! cargo run --release --example attack_demo
//! ```
//!
//! For long-running audit fleets, `service_demo` runs this adversary as
//! a persistent service (`mvf-serve`) with session caching and
//! kill/resume-safe checkpoints.

use mvf::Flow;
use mvf_attack::{
    plausibility_sweep_any_io_in, plausibility_sweep_in, random_camouflage, AnyIoJob, AnyIoOptions,
    ObfuscationSpace,
};
use mvf_cells::{CamoLibrary, Library};
use mvf_ga::GaConfig;
use mvf_logic::{IoInterpretation, VectorFunction};
use mvf_sboxes::optimal_sboxes;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let space = ObfuscationSpace::camouflage(&lib, &camo);
    let viable = optimal_sboxes()[..4].to_vec();
    let p_opts = AnyIoOptions::default();

    println!("Baseline: random camouflage of S-box G0 alone");
    let baseline = random_camouflage(&viable[0], &lib, &camo)?;
    println!(
        "  {} cells, {:.1} GE",
        baseline.n_cells(),
        baseline.area_ge(&lib, Some(&camo))
    );
    // One batched identity sweep: the netlist is encoded once, every
    // candidate the screen leaves is an incremental SAT query.
    for (j, v) in plausibility_sweep_in(&space, &baseline, &viable, &p_opts)
        .into_iter()
        .enumerate()
    {
        println!(
            "  G{j} plausible? {}",
            if v.plausible {
                "yes"
            } else {
                "NO  → adversary rules it out"
            }
        );
    }

    println!("\nThis paper's flow: merge all 4, GA pin assignment, camo mapping");
    let flow = Flow::builder()
        .ga(GaConfig {
            population: 8,
            generations: 4,
            ..GaConfig::default()
        })
        .build();
    let result = flow.run(&viable)?;
    println!(
        "  {} cells, {:.1} GE (select inputs eliminated)",
        result.mapped.netlist.n_cells(),
        result.mapped_area_ge
    );
    let verdicts = plausibility_sweep_in(
        &space,
        &result.mapped.netlist,
        &result.merged.functions,
        &p_opts,
    );
    let mut all = true;
    for (j, p) in verdicts.into_iter().map(|v| v.plausible).enumerate() {
        all &= p;
        println!("  G{j} plausible? {}", if p { "yes" } else { "NO (bug!)" });
    }
    assert!(
        all,
        "the designed circuit must keep every viable function plausible"
    );
    println!("\nThe adversary cannot rule out any viable function. ✓");

    println!("\nFull adversary: interpretation freedom (any pin permutation)");
    // A pin-scrambled copy of G0: implausible for the baseline circuit
    // under the identity reading, but the full adversary searches every
    // interpretation — and names the witness permutation it found.
    let scrambled = viable[0]
        .permute_inputs(&[2, 0, 3, 1])?
        .permute_outputs(&[1, 3, 0, 2])?;
    // Run the sweep through a job so the solver's counters are
    // observable afterwards (verdicts are identical to
    // `plausibility_sweep_any_io_in`).
    let mut job = AnyIoJob::new_in(&space, &baseline, vec![scrambled], &p_opts);
    while !job.is_done() {
        job.step(usize::MAX);
    }
    let sat = job.sat_stats();
    println!("  solver: {} clause-DB reductions", sat.n_reductions);
    let verdicts = job.verdicts();
    let v = &verdicts[0];
    println!(
        "  scrambled G0 plausible under some interpretation? {} \
         ({} of {} orbit points queried, {} screened SAT-free)",
        if v.plausible { "yes" } else { "no" },
        v.queries,
        v.orbit,
        v.screened
    );
    if let Some(w) = &v.witness {
        println!(
            "  witness: inputs {:?} (neg {:#b}), outputs {:?} (neg {:#b})",
            w.in_perm, w.in_neg, w.out_perm, w.out_neg
        );
    }

    println!("\nNPN adversary: polarity flips + cross-candidate class sharing");
    // A 3-bit mini-target keeps the full NPN orbit (3!·2³·3!·2³ = 2304
    // points) demo-sized. The suspect batch is one function plus two
    // NPN-transformed copies — exactly the redundancy class sharing eats.
    let g = VectorFunction::from_lookup_table(3, 3, &[0, 3, 5, 6, 1, 4, 7, 2])?;
    let npn_target = random_camouflage(&g, &lib, &camo)?;
    let t1 = IoInterpretation {
        in_perm: vec![1, 2, 0],
        in_neg: 0b011,
        out_perm: vec![2, 0, 1],
        out_neg: 0b100,
    };
    let t2 = IoInterpretation {
        in_perm: vec![2, 0, 1],
        in_neg: 0b101,
        out_perm: vec![1, 2, 0],
        out_neg: 0b010,
    };
    let batch = vec![g.clone(), t1.apply(&g)?, t2.apply(&g)?];
    let npn_opts = AnyIoOptions {
        npn: true,
        ..p_opts.clone()
    };
    let shared_opts = AnyIoOptions {
        class_share: true,
        ..npn_opts.clone()
    };
    let solo = plausibility_sweep_any_io_in(&space, &npn_target, &batch, &npn_opts);
    let shared = plausibility_sweep_any_io_in(&space, &npn_target, &batch, &shared_opts);
    for (j, (a, b)) in solo.iter().zip(&shared).enumerate() {
        assert_eq!(
            (a.plausible, &a.witness),
            (b.plausible, &b.witness),
            "class sharing must not change verdicts"
        );
        println!(
            "  suspect {j}: plausible? {} — class {} (size {}), orbit {} → {} unique",
            if b.plausible { "yes" } else { "no" },
            b.class,
            b.class_size,
            b.orbit,
            b.unique
        );
    }
    let classes = shared.iter().map(|v| v.class).max().map_or(0, |c| c + 1);
    let cost = |vs: &[mvf_attack::AnyIoVerdict]| -> usize {
        vs.iter().map(|v| v.queries + v.screened).sum()
    };
    println!(
        "  classes found: {classes}; work (screen passes + SAT queries): \
         {} solo → {} shared, {} saved by class sharing",
        cost(&solo),
        cost(&shared),
        cost(&solo) - cost(&shared)
    );
    println!("\nSAT-free screening of polarity flips (XOR masks on the cached batch)");
    // A target small enough for the screen's complete regime: every orbit
    // point settles without a SAT call. The suspect's output columns have
    // the wrong weights for *any* NPN transform of the hidden function,
    // so the screen refutes its entire orbit — the negation points among
    // them cost only an XOR against the cached evaluation batch.
    let tiny = VectorFunction::from_lookup_table(2, 2, &[1, 2, 0, 3])?;
    let tiny_target = random_camouflage(&tiny, &lib, &camo)?;
    let suspect = VectorFunction::from_lookup_table(2, 2, &[0, 0, 0, 3])?;
    let suspects = std::slice::from_ref(&suspect);
    let screen_npn = plausibility_sweep_any_io_in(&space, &tiny_target, suspects, &npn_opts);
    let screen_p = plausibility_sweep_any_io_in(&space, &tiny_target, suspects, &p_opts);
    println!(
        "  suspect plausible? {} — {} of {} NPN orbit points settled SAT-free \
         ({} SAT queries); {} are negation points beyond the {} the \
         permutation-only screen saw",
        if screen_npn[0].plausible { "yes" } else { "no" },
        screen_npn[0].screened,
        screen_npn[0].orbit,
        screen_npn[0].queries,
        screen_npn[0].screened.saturating_sub(screen_p[0].screened),
        screen_p[0].screened
    );
    Ok(())
}
