//! Cross-crate integration: synthesis and both mappers preserve circuit
//! semantics; netlist I/O round-trips mapped circuits; the camouflage
//! condition (Alg. 1) holds on every emitted cell.

use mvf_aig::cuts::{cut_function_with, cut_word_with, enumerate_cuts, CutScratch};
use mvf_aig::{NodeId, Script};
use mvf_cells::{CamoLibrary, Library};
use mvf_merge::{build_merged, PinAssignment};
use mvf_netlist::{io, subject_graph, CellRef};
use mvf_sboxes::{optimal_sboxes, present_sbox};
use mvf_techmap::{map_camouflage, map_standard, CamoMapOptions, MapOptions};

#[test]
fn synthesis_preserves_merged_semantics() {
    let functions = optimal_sboxes()[..4].to_vec();
    let merged = build_merged(&functions, &PinAssignment::identity(&functions)).unwrap();
    let synthesized = Script::standard().run(&merged.aig);
    assert!(synthesized.equivalent(&merged.aig));
    // And the merged contract still holds.
    let mut check = merged.clone();
    check.aig = synthesized;
    check
        .check()
        .expect("every select value realizes its function");
}

#[test]
fn cut_words_match_cut_tables_on_a_merged_circuit() {
    // Rewriting computes each cut function as one word; it must be the
    // word of the table the refactoring pass builds, on every 4-cut of a
    // real merged circuit.
    let functions = optimal_sboxes()[..4].to_vec();
    let merged = build_merged(&functions, &PinAssignment::identity(&functions)).unwrap();
    let aig = merged.aig.compact();
    let cuts = enumerate_cuts(&aig, 4, 8);
    let mut scratch = CutScratch::default();
    let mut checked = 0usize;
    for id in 0..aig.n_nodes() as u32 {
        for cut in cuts.cuts_of(id) {
            let root = NodeId(id);
            let table = cut_function_with(&aig, root, cut.leaves(), &mut scratch);
            let word = cut_word_with(&aig, root, cut.leaves(), &mut scratch);
            assert_eq!(word, table.as_word(), "node {id} cut {cut:?}");
            checked += 1;
        }
    }
    assert!(checked > 500, "only {checked} cuts");
}

#[test]
fn plain_mapping_preserves_semantics() {
    let functions = vec![present_sbox()];
    let merged = build_merged(&functions, &PinAssignment::identity(&functions)).unwrap();
    let synthesized = Script::standard().run(&merged.aig);
    let lib = Library::standard();
    let subject = subject_graph::from_aig(&synthesized, &lib);
    let mapped = map_standard(&subject, &lib, &MapOptions::default()).unwrap();
    mapped.check(&lib).expect("well-formed");
    let outs = mvf_sim::eval_netlist(&mapped, &lib);
    assert_eq!(outs, synthesized.output_functions());
}

#[test]
fn camo_mapping_satisfies_alg1_condition_per_cell() {
    // Every camouflaged instance's required function set must be inside
    // its plausible set — the invariant of Alg. 1 line 8.
    let functions = optimal_sboxes()[..4].to_vec();
    let merged = build_merged(&functions, &PinAssignment::identity(&functions)).unwrap();
    let synthesized = Script::fast().run(&merged.aig);
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let subject = subject_graph::from_aig(&synthesized, &lib);
    let mapped = map_camouflage(
        &subject,
        &lib,
        &camo,
        &merged.select_indices,
        &CamoMapOptions::default(),
    )
    .unwrap();
    assert!(!mapped.witness.cells.is_empty());
    for w in &mapped.witness.cells {
        let inst = mapped.netlist.cell(w.cell);
        let CellRef::Camo(id) = inst.cell else {
            panic!("witness on std cell")
        };
        for f in &w.funcs_by_assign {
            assert!(camo.cell(id).is_plausible(f));
        }
    }
}

#[test]
fn mapped_netlist_blif_roundtrip() {
    let functions = optimal_sboxes()[..2].to_vec();
    let merged = build_merged(&functions, &PinAssignment::identity(&functions)).unwrap();
    let lib = Library::standard();
    let subject = subject_graph::from_aig(&Script::fast().run(&merged.aig), &lib);
    let mapped = map_standard(&subject, &lib, &MapOptions::default()).unwrap();
    let text = io::to_blif(&mapped, &lib, None);
    let model = io::from_blif(&text).expect("parse back");
    assert_eq!(model.inputs.len(), mapped.inputs().len());
    assert_eq!(model.outputs.len(), mapped.outputs().len());
    // Rebuild functions from the parsed tables and compare to direct
    // evaluation.
    use std::collections::HashMap;
    let n = model.inputs.len();
    let mut env: HashMap<String, mvf_logic::TruthTable> = HashMap::new();
    for (i, name) in model.inputs.iter().enumerate() {
        env.insert(name.clone(), mvf_logic::TruthTable::var(i, n));
    }
    // Tables are topologically ordered by construction.
    for (ins, out, tt) in &model.tables {
        let mut acc = mvf_logic::TruthTable::zero(n);
        for m in 0..tt.n_minterms() {
            if !tt.get(m) {
                continue;
            }
            let mut term = mvf_logic::TruthTable::one(n);
            for (i, pin) in ins.iter().enumerate() {
                let t = env[pin].clone();
                term = if m & (1 << i) != 0 {
                    term.and(&t)
                } else {
                    term.and(&t.not())
                };
            }
            acc = acc.or(&term);
        }
        env.insert(out.clone(), acc);
    }
    let direct = mvf_sim::eval_netlist(&mapped, &lib);
    for ((name, _), expect) in mapped.outputs().iter().zip(&direct) {
        assert_eq!(&env[name], expect, "output {name}");
    }
}

#[test]
fn verilog_and_dot_render_camo_netlists() {
    let functions = optimal_sboxes()[..2].to_vec();
    let merged = build_merged(&functions, &PinAssignment::identity(&functions)).unwrap();
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let subject = subject_graph::from_aig(&Script::fast().run(&merged.aig), &lib);
    let mapped = map_camouflage(
        &subject,
        &lib,
        &camo,
        &merged.select_indices,
        &CamoMapOptions::default(),
    )
    .unwrap();
    let v = io::to_verilog(&mapped.netlist, &lib, Some(&camo));
    assert!(v.contains("CAMO_"), "camouflaged instances are marked");
    let d = io::to_dot(&mapped.netlist, &lib, Some(&camo));
    assert!(d.contains("digraph"));
}

#[test]
fn area_accounting_is_consistent() {
    let functions = optimal_sboxes()[..2].to_vec();
    let merged = build_merged(&functions, &PinAssignment::identity(&functions)).unwrap();
    let lib = Library::standard();
    let camo = CamoLibrary::from_library(&lib);
    let subject = subject_graph::from_aig(&Script::fast().run(&merged.aig), &lib);
    let mapped = map_camouflage(
        &subject,
        &lib,
        &camo,
        &merged.select_indices,
        &CamoMapOptions::default(),
    )
    .unwrap();
    let total = mapped.netlist.area_ge(&lib, Some(&camo));
    let from_hist: f64 = mapped
        .netlist
        .cell_histogram(&lib, Some(&camo))
        .iter()
        .map(|(name, count)| {
            let stripped = name.strip_prefix("camo-").unwrap_or(name);
            let id = lib.cell_by_name(stripped).expect("known cell");
            lib.cell(id).area_ge() * *count as f64
        })
        .sum();
    assert!((total - from_hist).abs() < 1e-9);
}
