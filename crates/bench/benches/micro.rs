//! Perf-tracking micro-benchmark: arena-based vs naive truth-table
//! simulation, serial vs parallel GA fitness evaluation through the full
//! flow, per-call-allocating vs context-reusing fitness evaluation,
//! batched vs re-encoding SAT plausibility sweeps (`sat_sweep`),
//! sharded vs serial plausibility sweeps (`sweep_parallel`),
//! signature-pruned interpretation-freedom sweeps (`sweep_any_io`), the
//! NPN-complete adversary with class sharing (`sweep_npn`), the SAT-free
//! screen-then-solve funnel vs a SAT-only sweep (`sat_screen`), the
//! scheme-generic sweep over a key-gate-locked circuit vs brute-force
//! key enumeration (`sweep_locking`), CSR vs
//! nested cut enumeration (`cuts_csr`), word-parallel vs per-config
//! camouflage validation (`camo_fitness`), and 8-wide chunked vs scalar
//! truth-table word kernels (`tt_kernels`).
//!
//! Results are printed and written as machine-readable JSON to
//! `BENCH_sim.json` at the repository root (override the path with
//! `MVF_BENCH_OUT`), so the perf trajectory of the simulation core can be
//! tracked across PRs:
//!
//! ```sh
//! cargo bench -p mvf-bench --bench micro
//! ```

use std::hint::black_box;
use std::time::Instant;

use mvf::{random_assignment, EvalContext, Flow, FlowResult};
use mvf_aig::cuts::{enumerate_cuts_into, Cut, CutSet};
use mvf_aig::{Aig, Lit};
use mvf_ga::GaConfig;
use mvf_logic::TruthTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-CSR cut enumeration, kept as the baseline: per-node inner
/// vectors, freshly allocated per call (the behavior of the standalone
/// rewrite/refactor entry points before the flat `CutSet`).
fn nested_enumerate_cuts(aig: &Aig, k: usize, max_cuts: usize) -> Vec<Vec<Cut>> {
    let n_nodes = aig.n_nodes();
    let mut cuts: Vec<Vec<Cut>> = Vec::new();
    cuts.resize_with(n_nodes, Vec::new);
    cuts[0].push(Cut::empty());
    for i in 0..aig.n_inputs() {
        cuts[i + 1].push(Cut::unit(i as u32 + 1));
    }
    let mut merged: Vec<Cut> = Vec::new();
    let mut kept: Vec<Cut> = Vec::new();
    for id in aig.and_nodes() {
        let (f0, f1) = aig.fanins(id);
        let (n0, n1) = (f0.node().0 as usize, f1.node().0 as usize);
        merged.clear();
        for ai in 0..cuts[n0].len() {
            for bi in 0..cuts[n1].len() {
                let (a, b) = (cuts[n0][ai], cuts[n1][bi]);
                if let Some(c) = a.merge(&b, k) {
                    if !merged.contains(&c) {
                        merged.push(c);
                    }
                }
            }
        }
        kept.clear();
        merged.sort_by_key(Cut::len);
        for c in &merged {
            if !kept.iter().any(|k2| k2.dominates(c)) {
                kept.push(*c);
            }
        }
        let widest = kept.last().copied();
        kept.truncate(max_cuts.saturating_sub(1).max(1));
        if let Some(w) = widest {
            if !kept.contains(&w) {
                kept.push(w);
            }
        }
        kept.push(Cut::unit(id.0));
        cuts[id.0 as usize].extend_from_slice(&kept);
    }
    cuts
}

/// The seed implementation of node simulation, kept as the baseline: one
/// heap allocation (or clone) and one complement temporary per fanin.
fn naive_simulate(aig: &Aig) -> Vec<TruthTable> {
    let n = aig.n_inputs();
    let mut tts: Vec<TruthTable> = Vec::with_capacity(aig.n_nodes());
    tts.push(TruthTable::zero(n));
    for i in 0..n {
        tts.push(TruthTable::var(i, n));
    }
    for id in (n as u32 + 1..aig.n_nodes() as u32).map(mvf_aig::NodeId) {
        if !aig.is_and(id) {
            tts.push(TruthTable::zero(n));
            continue;
        }
        let (f0, f1) = aig.fanins(id);
        let t0 = &tts[f0.node().0 as usize];
        let t0 = if f0.is_complement() {
            t0.not()
        } else {
            t0.clone()
        };
        let t1 = &tts[f1.node().0 as usize];
        let t1 = if f1.is_complement() {
            t1.not()
        } else {
            t1.clone()
        };
        tts.push(t0.and(&t1));
    }
    tts
}

/// A deterministic random AIG (LCG-driven) stressing multi-word tables.
fn build_random_aig(n_inputs: usize, n_ands: usize, seed: u64) -> Aig {
    let mut g = Aig::new(n_inputs);
    let mut lits: Vec<Lit> = (0..n_inputs).map(|i| g.input(i)).collect();
    let mut state = seed;
    let mut step = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    while g.n_ands() < n_ands {
        let i = (step() >> 16) as usize % lits.len();
        let j = (step() >> 16) as usize % lits.len();
        let a = lits[i];
        let b = lits[j].xor_sign(step() & 1 == 1);
        let f = g.and(a, b);
        lits.push(f);
    }
    g.add_output("f", *lits.last().expect("non-empty"));
    g
}

/// Mean nanoseconds per call of `f`, measured over an adaptive batch.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    // Warm-up and scale estimate.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1);
    // Aim for ~400 ms of measurement, at least 5 iterations.
    let iters = ((400_000_000 / once) as u64).clamp(5, 100_000);
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn ga_flow(threads: usize) -> (FlowResult, f64) {
    let flow = Flow::builder()
        .ga(GaConfig {
            population: 8,
            generations: 2,
            seed: 0xBE7,
            threads,
            ..GaConfig::default()
        })
        .validate(false)
        .build();
    let functions = mvf_sboxes::optimal_sboxes()[..2].to_vec();
    let t = Instant::now();
    let result = flow.run(&functions).expect("flow succeeds");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (result, ms)
}

fn main() {
    // --- Simulation: arena vs naive on a 16-input AIG. ---------------
    let g = build_random_aig(16, 600, 0xA16_0001);
    let naive_ns = time_ns(|| {
        black_box(naive_simulate(black_box(&g)));
    });
    let arena_ns = time_ns(|| {
        black_box(black_box(&g).simulate_arena());
    });
    let sim_speedup = naive_ns / arena_ns;
    // Correctness cross-check while we are here.
    let arena = g.simulate_arena();
    for (i, t) in naive_simulate(&g).iter().enumerate() {
        assert_eq!(
            &arena.to_table(i),
            t,
            "arena and naive sim disagree at node {i}"
        );
    }
    println!(
        "sim naive  : {:>12.0} ns / full 16-input simulation",
        naive_ns
    );
    println!(
        "sim arena  : {:>12.0} ns / full 16-input simulation",
        arena_ns
    );
    println!("sim speedup: {sim_speedup:>12.2}x");

    // --- GA fitness evaluation: serial vs parallel threads. ----------
    let threads = mvf_ga::resolve_threads(0);
    let (serial_result, serial_ms) = ga_flow(1);
    let (parallel_result, parallel_ms) = ga_flow(0);
    let ga_speedup = serial_ms / parallel_ms;
    let identical = serial_result.ga_history.len() == parallel_result.ga_history.len()
        && serial_result
            .ga_history
            .iter()
            .zip(&parallel_result.ga_history)
            .all(|(a, b)| {
                a.best_so_far.to_bits() == b.best_so_far.to_bits()
                    && a.best.to_bits() == b.best.to_bits()
                    && a.avg.to_bits() == b.avg.to_bits()
            })
        && serial_result.assignment == parallel_result.assignment;
    assert!(identical, "parallel GA must be bit-identical to serial");
    println!("ga serial  : {serial_ms:>12.1} ms (PRESENT-2, 20 evaluations)");
    println!("ga parallel: {parallel_ms:>12.1} ms ({threads} threads)");
    println!("ga speedup : {ga_speedup:>12.2}x (bit-identical: {identical})");

    // --- Fitness evaluation: per-call allocation vs reused context. ---
    let flow = Flow::builder().build();
    let functions = mvf_sboxes::optimal_sboxes()[..2].to_vec();
    let fitness_batch = 8usize;
    let assignments: Vec<_> = {
        let mut rng = StdRng::seed_from_u64(0xF17);
        (0..fitness_batch)
            .map(|_| random_assignment(&functions, &mut rng))
            .collect()
    };
    let eval_all = |ctx: &mut EvalContext| -> f64 {
        let mut acc = 0.0;
        for a in &assignments {
            acc += ctx
                .synthesized_area_ge(
                    &functions,
                    a,
                    &flow.config().script,
                    flow.library(),
                    &flow.config().map,
                )
                .expect("fitness");
        }
        acc
    };
    // Correctness: warm and cold contexts agree bit-for-bit.
    let warm_sum = eval_all(&mut EvalContext::new());
    let cold_sum = {
        let mut acc = 0.0;
        for a in &assignments {
            acc += EvalContext::new()
                .synthesized_area_ge(
                    &functions,
                    a,
                    &flow.config().script,
                    flow.library(),
                    &flow.config().map,
                )
                .expect("fitness");
        }
        acc
    };
    assert_eq!(
        warm_sum.to_bits(),
        cold_sum.to_bits(),
        "context reuse must not change fitness values"
    );
    let percall_ns = time_ns(|| {
        let mut acc = 0.0;
        for a in &assignments {
            acc += EvalContext::new()
                .synthesized_area_ge(
                    &functions,
                    a,
                    &flow.config().script,
                    flow.library(),
                    &flow.config().map,
                )
                .expect("fitness");
        }
        black_box(acc);
    }) / fitness_batch as f64;
    let mut shared_ctx = EvalContext::new();
    eval_all(&mut shared_ctx); // warm the caches before timing
    let reuse_ns = time_ns(|| {
        black_box(eval_all(&mut shared_ctx));
    }) / fitness_batch as f64;
    let fitness_speedup = percall_ns / reuse_ns;
    println!("fitness cold : {percall_ns:>10.0} ns / evaluation (fresh EvalContext per call)");
    println!("fitness warm : {reuse_ns:>10.0} ns / evaluation (shared EvalContext)");
    println!("fitness speedup: {fitness_speedup:>8.2}x");

    // --- SAT: batched plausibility sweep vs per-candidate re-encoding. -
    let lib = mvf_cells::Library::standard();
    let camo = mvf_cells::CamoLibrary::from_library(&lib);
    let sboxes = mvf_sboxes::optimal_sboxes();
    let target = mvf_attack::random_camouflage(&sboxes[0], &lib, &camo).expect("buildable");
    let sweep_candidates = &sboxes[..6];
    // Correctness first: the batched sweep must equal fresh per-candidate
    // encodings.
    let swept = mvf_attack::plausibility_sweep(&target, &lib, &camo, sweep_candidates);
    let percand: Vec<bool> = sweep_candidates
        .iter()
        .map(|f| mvf_attack::is_plausible(&target, &lib, &camo, f))
        .collect();
    assert_eq!(swept, percand, "sweep and per-candidate verdicts disagree");
    let sat_percand_ns = time_ns(|| {
        let verdicts: Vec<bool> = sweep_candidates
            .iter()
            .map(|f| mvf_attack::is_plausible(black_box(&target), &lib, &camo, f))
            .collect();
        black_box(verdicts);
    }) / sweep_candidates.len() as f64;
    let sat_sweep_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep(
            black_box(&target),
            &lib,
            &camo,
            sweep_candidates,
        ));
    }) / sweep_candidates.len() as f64;
    let sat_speedup = sat_percand_ns / sat_sweep_ns;
    println!("sat percand: {sat_percand_ns:>12.0} ns / candidate (fresh encoding per query)");
    println!("sat sweep  : {sat_sweep_ns:>12.0} ns / candidate (one clause arena, assumptions)");
    println!("sat speedup: {sat_speedup:>12.2}x");

    // --- Sharded plausibility sweep vs serial. -------------------------
    let sweep_shards = mvf_ga::resolve_threads(0).max(2);
    let serial_sweep = mvf_attack::plausibility_sweep(&target, &lib, &camo, sweep_candidates);
    let sharded_sweep = mvf_attack::plausibility_sweep_sharded(
        &target,
        &lib,
        &camo,
        sweep_candidates,
        sweep_shards,
    );
    assert_eq!(
        serial_sweep, sharded_sweep,
        "sharded sweep must be bit-identical to serial"
    );
    let sweep_serial_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep_sharded(
            black_box(&target),
            &lib,
            &camo,
            sweep_candidates,
            1,
        ));
    }) / sweep_candidates.len() as f64;
    let sweep_sharded_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep_sharded(
            black_box(&target),
            &lib,
            &camo,
            sweep_candidates,
            sweep_shards,
        ));
    }) / sweep_candidates.len() as f64;
    let sweep_parallel_speedup = sweep_serial_ns / sweep_sharded_ns;
    // Recorded in the JSON and asserted by CI; on a single-core runner
    // the *speedup* may legitimately sit at or below 1.0, so correctness
    // (bit-identical verdicts), not speed, is the CI contract.
    let sweep_parallel_identical = serial_sweep == sharded_sweep;
    println!("sweep serial : {sweep_serial_ns:>12.0} ns / candidate (one incremental solver)");
    println!(
        "sweep sharded: {sweep_sharded_ns:>12.0} ns / candidate ({sweep_shards} solver clones)"
    );
    println!("sweep speedup: {sweep_parallel_speedup:>11.2}x (bit-identical verdicts)");

    // --- Any-IO plausibility: pruned orbit sweep, serial vs sharded. ----
    // 3-bit blocks keep the orbit (3!·3! = 36) bench-sized; one candidate
    // is input-symmetric so the signature pruning has classes to
    // collapse, one is a scrambled variant of the true function (a
    // witness exists), one is implausible (full refutation).
    let lut3 = |t: &[u16; 8]| mvf_logic::VectorFunction::from_lookup_table(3, 3, t).unwrap();
    let f3 = lut3(&[1, 0, 3, 2, 5, 7, 6, 4]);
    let target3 = mvf_attack::random_camouflage(&f3, &lib, &camo).expect("buildable");
    let sym3 = {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        mvf_logic::VectorFunction::new(
            3,
            vec![
                a.and(&b).and(&c),
                a.xor(&b).xor(&c),
                TruthTable::from_fn(3, |m| m.count_ones() >= 2),
            ],
        )
    };
    let scrambled3 = f3
        .permute_inputs(&[1, 2, 0])
        .unwrap()
        .permute_outputs(&[2, 0, 1])
        .unwrap();
    let any_io_candidates = vec![scrambled3, sym3, lut3(&[0, 1, 2, 3, 4, 5, 6, 7])];
    let any_io_serial =
        mvf_attack::plausibility_sweep_any_io(&target3, &lib, &camo, &any_io_candidates);
    let any_io_shards = mvf_ga::resolve_threads(0).max(2);
    let any_io_sharded = mvf_attack::plausibility_sweep_any_io_sharded(
        &target3,
        &lib,
        &camo,
        &any_io_candidates,
        any_io_shards,
    );
    let any_io_identical = any_io_serial
        .iter()
        .zip(&any_io_sharded)
        .all(|(a, b)| a.plausible == b.plausible && a.witness == b.witness);
    assert!(
        any_io_identical,
        "sharded any-IO sweep must match serial verdicts and witnesses"
    );
    let brute = mvf_attack::plausibility_sweep_any_io_with(
        &target3,
        &lib,
        &camo,
        &any_io_candidates,
        &mvf_attack::AnyIoOptions {
            shards: 1,
            prune: false,
            ..mvf_attack::AnyIoOptions::default()
        },
    );
    assert!(
        brute
            .iter()
            .zip(&any_io_serial)
            .all(|(a, b)| a.plausible == b.plausible && a.witness == b.witness),
        "orbit pruning must not change any verdict or witness"
    );
    let any_io_orbit: usize = any_io_serial.iter().map(|v| v.orbit).sum();
    let any_io_unique: usize = any_io_serial.iter().map(|v| v.unique).sum();
    let any_io_serial_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep_any_io(
            black_box(&target3),
            &lib,
            &camo,
            &any_io_candidates,
        ));
    }) / any_io_candidates.len() as f64;
    let any_io_sharded_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep_any_io_sharded(
            black_box(&target3),
            &lib,
            &camo,
            &any_io_candidates,
            any_io_shards,
        ));
    }) / any_io_candidates.len() as f64;
    let any_io_speedup = any_io_serial_ns / any_io_sharded_ns;
    println!(
        "any-io serial : {any_io_serial_ns:>11.0} ns / candidate ({any_io_unique}/{any_io_orbit} orbit points queried)"
    );
    println!(
        "any-io sharded: {any_io_sharded_ns:>11.0} ns / candidate ({any_io_shards} solver clones)"
    );
    println!("any-io speedup: {any_io_speedup:>11.2}x (bit-identical verdicts + witnesses)");

    // --- NPN-complete adversary: cross-candidate class sharing. --------
    // The full NPN orbit (3!·2³·3!·2³ = 2304 points) over a
    // duplicate-seeded batch: one NPN-implausible function plus two
    // NPN-transformed copies — three members of one interpretation
    // class, each refuting the same orbit-function set. With class
    // sharing the first member pays for the class and the others resolve
    // every representative from the shared verdict cache; verdicts and
    // witnesses never move, serial or sharded.
    let npn_seed = lut3(&[7, 1, 0, 2, 4, 3, 6, 5]);
    let npn_candidates = vec![
        npn_seed.clone(),
        mvf_logic::IoInterpretation {
            in_perm: vec![1, 2, 0],
            in_neg: 0b011,
            out_perm: vec![2, 0, 1],
            out_neg: 0b100,
        }
        .apply(&npn_seed)
        .unwrap(),
        mvf_logic::IoInterpretation {
            in_perm: vec![2, 0, 1],
            in_neg: 0b110,
            out_perm: vec![1, 2, 0],
            out_neg: 0b001,
        }
        .apply(&npn_seed)
        .unwrap(),
    ];
    let npn_solo_opts = mvf_attack::AnyIoOptions {
        shards: 1,
        npn: true,
        ..mvf_attack::AnyIoOptions::default()
    };
    let npn_shared_opts = mvf_attack::AnyIoOptions {
        class_share: true,
        ..npn_solo_opts.clone()
    };
    let npn_solo = mvf_attack::plausibility_sweep_any_io_with(
        &target3,
        &lib,
        &camo,
        &npn_candidates,
        &npn_solo_opts,
    );
    let npn_shared = mvf_attack::plausibility_sweep_any_io_with(
        &target3,
        &lib,
        &camo,
        &npn_candidates,
        &npn_shared_opts,
    );
    let npn_sharded = mvf_attack::plausibility_sweep_any_io_with(
        &target3,
        &lib,
        &camo,
        &npn_candidates,
        &mvf_attack::AnyIoOptions {
            shards: any_io_shards,
            ..npn_shared_opts.clone()
        },
    );
    let npn_identical = npn_solo
        .iter()
        .zip(&npn_shared)
        .zip(&npn_sharded)
        .all(|((a, b), c)| {
            a.plausible == b.plausible
                && a.witness == b.witness
                && b.plausible == c.plausible
                && b.witness == c.witness
        });
    assert!(
        npn_identical,
        "class sharing must not change NPN verdicts or witnesses, serial or sharded"
    );
    let npn_cost = |vs: &[mvf_attack::AnyIoVerdict]| -> usize {
        vs.iter().map(|v| v.queries + v.screened).sum()
    };
    let npn_orbit = npn_solo[0].orbit;
    let npn_classes = npn_shared.iter().map(|v| v.class).max().unwrap_or(0) + 1;
    let (npn_solo_cost, npn_shared_cost) = (npn_cost(&npn_solo), npn_cost(&npn_shared));
    let npn_saved = npn_solo_cost - npn_shared_cost;
    assert!(
        npn_saved > 0,
        "class sharing must save work on the duplicate-seeded batch"
    );
    let npn_solo_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep_any_io_with(
            black_box(&target3),
            &lib,
            &camo,
            &npn_candidates,
            &npn_solo_opts,
        ));
    }) / npn_candidates.len() as f64;
    let npn_shared_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep_any_io_with(
            black_box(&target3),
            &lib,
            &camo,
            &npn_candidates,
            &npn_shared_opts,
        ));
    }) / npn_candidates.len() as f64;
    let npn_speedup = npn_solo_ns / npn_shared_ns;
    println!(
        "npn solo   : {npn_solo_ns:>12.0} ns / candidate ({npn_orbit}-point orbit, \
         {npn_solo_cost} screen passes + SAT queries)"
    );
    println!(
        "npn shared : {npn_shared_ns:>12.0} ns / candidate ({npn_classes} class, \
         {npn_shared_cost} screen passes + SAT queries, {npn_saved} saved)"
    );
    println!("npn speedup: {npn_speedup:>12.2}x (bit-identical verdicts + witnesses)");

    // --- Screen-then-solve: SAT-free refutation vs SAT-only sweep. -----
    // A hand-built 3-camo-cell circuit keeps the doping-configuration
    // product (5 · 3 · 5 = 75) enumerable, so the screen engages; with
    // the default batch the 3-input screen is complete (all minterms
    // covered) and settles every orbit representative without a single
    // SAT query. Verdicts and witnesses must match the SAT-only sweep
    // bit for bit.
    let screen_vectors = mvf_bench::screen_vectors();
    let screen_target = {
        use mvf_netlist::{CellRef, Netlist};
        let camo_id = |name: &str| {
            camo.iter()
                .find(|(_, cc)| cc.name() == name)
                .expect("camouflaged cell exists")
                .0
        };
        let mut nl = Netlist::new("screen_demo".to_string());
        let a = nl.add_input("a".to_string());
        let b = nl.add_input("b".to_string());
        let c = nl.add_input("c".to_string());
        let (_, y0) = nl.add_cell(
            "u0".to_string(),
            CellRef::Camo(camo_id("NAND2")),
            vec![a, b],
        );
        let (_, y1) = nl.add_cell("u1".to_string(), CellRef::Camo(camo_id("INV")), vec![c]);
        let (_, y2) = nl.add_cell(
            "u2".to_string(),
            CellRef::Camo(camo_id("AND2")),
            vec![y0, y1],
        );
        nl.add_output("y0".to_string(), y0);
        nl.add_output("y1".to_string(), y1);
        nl.add_output("y2".to_string(), y2);
        nl
    };
    // The circuit's true function under the look-alike reading, plus a
    // pin-scrambled copy (witness mid-orbit) and the implausible chaff
    // from the any-IO corpus.
    let screen_true = {
        let table: Vec<u16> = (0..8u16)
            .map(|m| {
                let (a, b, c) = (m & 1, (m >> 1) & 1, (m >> 2) & 1);
                let y0 = 1 - (a & b);
                let y1 = 1 - c;
                y0 | (y1 << 1) | ((y0 & y1) << 2)
            })
            .collect();
        mvf_logic::VectorFunction::from_lookup_table(3, 3, &table).unwrap()
    };
    let screen_candidates = vec![
        screen_true.clone(),
        screen_true
            .permute_inputs(&[2, 0, 1])
            .unwrap()
            .permute_outputs(&[1, 2, 0])
            .unwrap(),
        any_io_candidates[1].clone(),
        any_io_candidates[2].clone(),
    ];
    let screen_on_opts = mvf_attack::AnyIoOptions {
        screen_vectors,
        ..mvf_attack::AnyIoOptions::default()
    };
    let screen_off_opts = mvf_attack::AnyIoOptions {
        screen: false,
        ..mvf_attack::AnyIoOptions::default()
    };
    let screen_on = mvf_attack::plausibility_sweep_any_io_with(
        &screen_target,
        &lib,
        &camo,
        &screen_candidates,
        &screen_on_opts,
    );
    let screen_off = mvf_attack::plausibility_sweep_any_io_with(
        &screen_target,
        &lib,
        &camo,
        &screen_candidates,
        &screen_off_opts,
    );
    let sat_screen_identical = screen_on
        .iter()
        .zip(&screen_off)
        .all(|(a, b)| a.plausible == b.plausible && a.witness == b.witness);
    assert!(
        sat_screen_identical,
        "screening must not change any verdict or witness"
    );
    let sat_screen_vectors = mvf_attack::CamoScreen::build(
        &screen_target,
        &lib,
        &camo,
        &screen_candidates,
        screen_vectors,
    )
    .expect("3-camo-cell product is enumerable")
    .n_vectors();
    let sat_screened: usize = screen_on.iter().map(|v| v.screened).sum();
    let sat_screen_queries: usize = screen_on.iter().map(|v| v.queries).sum();
    let sat_screen_queries_off: usize = screen_off.iter().map(|v| v.queries).sum();
    let sat_screen_saved = sat_screen_queries_off - sat_screen_queries;
    assert!(
        sat_screen_saved > 0,
        "the screen must save SAT queries on the bench corpus"
    );
    let sat_screen_on_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep_any_io_with(
            black_box(&screen_target),
            &lib,
            &camo,
            &screen_candidates,
            &screen_on_opts,
        ));
    }) / screen_candidates.len() as f64;
    let sat_screen_off_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep_any_io_with(
            black_box(&screen_target),
            &lib,
            &camo,
            &screen_candidates,
            &screen_off_opts,
        ));
    }) / screen_candidates.len() as f64;
    let sat_screen_speedup = sat_screen_off_ns / sat_screen_on_ns;
    println!(
        "screen off : {sat_screen_off_ns:>12.0} ns / candidate ({sat_screen_queries_off} SAT queries)"
    );
    println!(
        "screen on  : {sat_screen_on_ns:>12.0} ns / candidate \
         ({sat_screen_vectors} vectors, {sat_screened} screened, {sat_screen_queries} queries)"
    );
    println!("screen speedup: {sat_screen_speedup:>10.2}x (bit-identical verdicts + witnesses)");

    // --- Logic locking: the scheme-generic sweep vs key enumeration. ---
    // The screen-demo circuit again, but as plain standard cells run
    // through the XOR/XNOR + MUX key-gate inserter — the second
    // obfuscation family. The same any-IO sweep flows unchanged through
    // the `ObfuscationSpace` seam; what CI pins is correctness, never
    // wall-clock: serial, sharded and screen-off sweeps agree verdict-
    // and witness-exactly, the identity sweep matches a brute-force
    // enumeration of the full key space, and every any-IO witness is
    // realized by some key value.
    let lock = mvf::lock_library(&lib);
    let lock_space = mvf::ObfuscationSpace::locking(&lib, &lock);
    let lock_plain = {
        use mvf_netlist::{CellRef, Netlist};
        let std_cell = |name: &str| lib.cell_by_name(name).expect("standard cell exists");
        let mut nl = Netlist::new("lock_demo".to_string());
        let a = nl.add_input("a".to_string());
        let b = nl.add_input("b".to_string());
        let c = nl.add_input("c".to_string());
        let (_, y0) = nl.add_cell(
            "u0".to_string(),
            CellRef::Std(std_cell("NAND2")),
            vec![a, b],
        );
        let (_, y1) = nl.add_cell("u1".to_string(), CellRef::Std(std_cell("INV")), vec![c]);
        let (_, y2) = nl.add_cell(
            "u2".to_string(),
            CellRef::Std(std_cell("AND2")),
            vec![y0, y1],
        );
        nl.add_output("y0".to_string(), y0);
        nl.add_output("y1".to_string(), y1);
        nl.add_output("y2".to_string(), y2);
        nl
    };
    let locked = mvf::obfuscate::lock_netlist(
        &lock_plain,
        &lock,
        &mvf::LockOptions {
            n_xor: 2,
            n_mux: 1,
            ..mvf::LockOptions::default()
        },
    )
    .expect("locking the demo circuit succeeds");
    let lock_target = &locked.netlist;
    let lock_key_bits = locked.key_bits();
    let lock_keys = 1usize << lock_key_bits;
    let lock_per_key: Vec<_> = (0..lock_keys)
        .map(|k| {
            let key: Vec<bool> = (0..lock_key_bits).map(|b| (k >> b) & 1 == 1).collect();
            mvf::sim::eval_camo_netlist(lock_target, &lib, &lock, &locked.config_for_key(&key))
                .expect("every key value is a valid configuration")
        })
        .collect();
    // The same four candidates as the screen section: the circuit's true
    // function (the all-transparent key), a pin-scrambled copy (witness
    // mid-orbit), and two functions no key reaches.
    let lock_candidates = screen_candidates.clone();
    let lock_serial = mvf_attack::plausibility_sweep_any_io_in(
        &lock_space,
        lock_target,
        &lock_candidates,
        &mvf_attack::AnyIoOptions::default(),
    );
    let lock_sharded = mvf_attack::plausibility_sweep_any_io_in(
        &lock_space,
        lock_target,
        &lock_candidates,
        &mvf_attack::AnyIoOptions {
            shards: any_io_shards,
            ..mvf_attack::AnyIoOptions::default()
        },
    );
    let lock_unscreened = mvf_attack::plausibility_sweep_any_io_in(
        &lock_space,
        lock_target,
        &lock_candidates,
        &mvf_attack::AnyIoOptions {
            screen: false,
            ..mvf_attack::AnyIoOptions::default()
        },
    );
    let lock_identity = mvf_attack::plausibility_sweep_in(
        &lock_space,
        lock_target,
        &lock_candidates,
        &mvf_attack::SweepOptions::default(),
    );
    let lock_brute_ok = lock_identity
        .iter()
        .zip(&lock_candidates)
        .all(|(v, cand)| v.plausible == lock_per_key.iter().any(|outs| outs == cand.outputs()));
    let lock_witness_ok =
        lock_serial
            .iter()
            .zip(&lock_candidates)
            .all(|(v, cand)| match &v.witness {
                Some(w) => {
                    let transformed = w.apply(cand).expect("witness shapes match");
                    lock_per_key
                        .iter()
                        .any(|outs| outs == transformed.outputs())
                }
                None => !v.plausible,
            });
    let lock_identical = lock_serial == lock_sharded
        && lock_serial
            .iter()
            .zip(&lock_unscreened)
            .all(|(a, b)| a.plausible == b.plausible && a.witness == b.witness)
        && lock_brute_ok
        && lock_witness_ok;
    assert!(
        lock_identical,
        "locking sweeps must be shard- and screen-invariant and match key enumeration"
    );
    assert!(
        lock_serial[0].plausible && lock_serial[1].plausible,
        "the true function and its scrambled copy must stay plausible under locking"
    );
    assert!(
        !lock_serial[2].plausible && !lock_serial[3].plausible,
        "the chaff candidates must be refuted under locking"
    );
    let lock_serial_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep_any_io_in(
            black_box(&lock_space),
            lock_target,
            &lock_candidates,
            &mvf_attack::AnyIoOptions::default(),
        ));
    }) / lock_candidates.len() as f64;
    let lock_sharded_ns = time_ns(|| {
        black_box(mvf_attack::plausibility_sweep_any_io_in(
            black_box(&lock_space),
            lock_target,
            &lock_candidates,
            &mvf_attack::AnyIoOptions {
                shards: any_io_shards,
                ..mvf_attack::AnyIoOptions::default()
            },
        ));
    }) / lock_candidates.len() as f64;
    let lock_speedup = lock_serial_ns / lock_sharded_ns;
    println!(
        "lock serial : {lock_serial_ns:>11.0} ns / candidate ({lock_key_bits}-bit key, \
         {lock_keys} key values enumerated for the oracle)"
    );
    println!(
        "lock sharded: {lock_sharded_ns:>11.0} ns / candidate ({any_io_shards} solver clones)"
    );
    println!("lock speedup: {lock_speedup:>11.2}x (bit-identical verdicts + witnesses)");

    // --- Cut enumeration: nested Vec<Vec<Cut>> vs flat CSR CutSet. -----
    let cut_graph = build_random_aig(12, 600, 0xC5_0002);
    let (k, max_cuts) = (4usize, 8usize); // the rewriting pass's budget
    let mut cut_set = CutSet::new();
    enumerate_cuts_into(&cut_graph, k, max_cuts, &mut cut_set);
    let nested = nested_enumerate_cuts(&cut_graph, k, max_cuts);
    assert_eq!(cut_set.n_nodes(), nested.len());
    for (id, node_cuts) in nested.iter().enumerate() {
        assert_eq!(
            cut_set.cuts_of(id as u32),
            node_cuts.as_slice(),
            "CSR and nested cut lists disagree at node {id}"
        );
    }
    let cuts_nested_ns = time_ns(|| {
        black_box(nested_enumerate_cuts(black_box(&cut_graph), k, max_cuts));
    });
    let cuts_csr_ns = time_ns(|| {
        enumerate_cuts_into(black_box(&cut_graph), k, max_cuts, &mut cut_set);
        black_box(&cut_set);
    });
    let cuts_speedup = cuts_nested_ns / cuts_csr_ns;
    println!("cuts nested: {cuts_nested_ns:>12.0} ns / enumeration (per-node Vecs, fresh)");
    println!("cuts csr   : {cuts_csr_ns:>12.0} ns / enumeration (flat CutSet, reused)");
    println!("cuts speedup: {cuts_speedup:>11.2}x");

    // --- Camo validation: per-config eval vs word-parallel multi-eval. -
    let camo_funcs = sboxes[..4].to_vec();
    let merged = mvf_merge::build_merged(
        &camo_funcs,
        &mvf_merge::PinAssignment::identity(&camo_funcs),
    )
    .expect("mergeable");
    let synthesized = mvf_aig::Script::fast().run(&merged.aig);
    let subject = mvf_netlist::subject_graph::from_aig(&synthesized, &lib);
    let mapped = mvf_techmap::map_camouflage(
        &subject,
        &lib,
        &camo,
        &merged.select_indices,
        &mvf_techmap::CamoMapOptions::default(),
    )
    .expect("mappable");
    let configs: Vec<std::collections::HashMap<_, _>> = (0..camo_funcs.len())
        .map(|j| {
            mapped
                .witness
                .cells
                .iter()
                .map(|w| (w.cell, w.function_for(j).clone()))
                .collect()
        })
        .collect();
    // Correctness: the word-parallel pass equals per-config evaluation.
    let multi = mvf_sim::eval_camo_netlist_multi(&mapped.netlist, &lib, &camo, &configs)
        .expect("evaluable");
    for (j, config) in configs.iter().enumerate() {
        let single =
            mvf_sim::eval_camo_netlist(&mapped.netlist, &lib, &camo, config).expect("evaluable");
        assert_eq!(multi[j], single, "config {j}");
    }
    let camo_percfg_ns = time_ns(|| {
        for config in &configs {
            black_box(
                mvf_sim::eval_camo_netlist(black_box(&mapped.netlist), &lib, &camo, config)
                    .expect("evaluable"),
            );
        }
    }) / configs.len() as f64;
    let mut camo_scratch = mvf_logic::TtArena::default();
    let camo_multi_ns = time_ns(|| {
        black_box(
            mvf_sim::eval_camo_netlist_multi_with(
                black_box(&mapped.netlist),
                &lib,
                &camo,
                &configs,
                &mut camo_scratch,
            )
            .expect("evaluable"),
        );
    }) / configs.len() as f64;
    let camo_speedup = camo_percfg_ns / camo_multi_ns;
    // The Phase-III mapper itself: cold vs EvalContext-warmed scratch.
    let mut camo_ctx = EvalContext::new();
    let warm_mapped = camo_ctx
        .map_camouflage(
            &subject,
            &lib,
            &camo,
            &merged.select_indices,
            &mvf_techmap::CamoMapOptions::default(),
        )
        .expect("mappable");
    assert_eq!(
        warm_mapped.netlist.area_ge(&lib, Some(&camo)),
        mapped.netlist.area_ge(&lib, Some(&camo)),
        "scratch reuse must not change mapping decisions"
    );
    let camo_map_cold_ns = time_ns(|| {
        black_box(
            mvf_techmap::map_camouflage(
                black_box(&subject),
                &lib,
                &camo,
                &merged.select_indices,
                &mvf_techmap::CamoMapOptions::default(),
            )
            .expect("mappable"),
        );
    });
    let camo_map_warm_ns = time_ns(|| {
        black_box(
            camo_ctx
                .map_camouflage(
                    black_box(&subject),
                    &lib,
                    &camo,
                    &merged.select_indices,
                    &mvf_techmap::CamoMapOptions::default(),
                )
                .expect("mappable"),
        );
    });
    println!("camo percfg: {camo_percfg_ns:>12.0} ns / config (one eval per doping config)");
    println!("camo multi : {camo_multi_ns:>12.0} ns / config (word-parallel shared products)");
    println!("camo speedup: {camo_speedup:>11.2}x");
    println!("camo map   : {camo_map_cold_ns:>12.0} ns cold, {camo_map_warm_ns:>12.0} ns warm");

    // --- Truth-table kernels: 8-wide chunked vs scalar word loops. -----
    // 14-variable tables (256 words per slot) — the regime the
    // word-parallel validator reaches once config variables widen the
    // space — ANDed down a dependency chain.
    let tt_vars = 14usize;
    let tt_slots = 64usize;
    let words_per_slot = 1usize << (tt_vars - 6);
    let mut kernel_arena = mvf_logic::TtArena::new(tt_vars, tt_slots);
    kernel_arena.write_var(0, 0);
    kernel_arena.write_var(1, tt_vars - 1);
    // Scalar baseline: the same chain over plain per-word loops.
    let mut scalar: Vec<Vec<u64>> = vec![vec![0u64; words_per_slot]; tt_slots];
    scalar[0].copy_from_slice(kernel_arena.slot(0));
    scalar[1].copy_from_slice(kernel_arena.slot(1));
    let run_scalar = |slots: &mut Vec<Vec<u64>>| {
        for i in 2..tt_slots {
            let ma = if i % 3 == 0 { u64::MAX } else { 0 };
            for k in 0..words_per_slot {
                let x = (slots[i - 1][k] ^ ma) & slots[i - 2][k];
                slots[i][k] = x;
            }
        }
    };
    let run_chunked = |arena: &mut mvf_logic::TtArena| {
        for i in 2..tt_slots {
            arena.and2(i, i - 1, i % 3 == 0, i - 2, false);
        }
    };
    run_scalar(&mut scalar);
    run_chunked(&mut kernel_arena);
    for i in 0..tt_slots {
        assert_eq!(
            kernel_arena.slot(i),
            scalar[i].as_slice(),
            "chunked and scalar kernels disagree at slot {i}"
        );
    }
    let tt_scalar_ns = time_ns(|| {
        run_scalar(&mut scalar);
        black_box(&scalar);
    });
    let tt_chunked_ns = time_ns(|| {
        run_chunked(&mut kernel_arena);
        black_box(&kernel_arena);
    });
    let tt_speedup = tt_scalar_ns / tt_chunked_ns;
    println!("tt scalar  : {tt_scalar_ns:>12.0} ns / {tt_slots}-slot chain (per-word loop)");
    println!("tt chunked : {tt_chunked_ns:>12.0} ns / {tt_slots}-slot chain (8-wide kernels)");
    println!("tt speedup : {tt_speedup:>12.2}x ({tt_vars}-var tables, {words_per_slot} words)");

    // --- Machine-readable record. ------------------------------------
    let out_path = std::env::var("MVF_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_sim.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        concat!(
            "{{\n",
            "  \"sim\": {{\n",
            "    \"n_inputs\": 16,\n",
            "    \"n_ands\": {},\n",
            "    \"naive_ns\": {:.0},\n",
            "    \"arena_ns\": {:.0},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"ga\": {{\n",
            "    \"workload\": \"PRESENT-2\",\n",
            "    \"population\": 8,\n",
            "    \"generations\": 2,\n",
            "    \"serial_ms\": {:.1},\n",
            "    \"parallel_ms\": {:.1},\n",
            "    \"threads\": {},\n",
            "    \"speedup\": {:.2},\n",
            "    \"bit_identical\": {}\n",
            "  }},\n",
            "  \"fitness\": {{\n",
            "    \"workload\": \"PRESENT-2\",\n",
            "    \"evaluations\": {},\n",
            "    \"cold_ns\": {:.0},\n",
            "    \"warm_ns\": {:.0},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"sat_sweep\": {{\n",
            "    \"workload\": \"PRESENT random-camouflage\",\n",
            "    \"candidates\": {},\n",
            "    \"percand_ns\": {:.0},\n",
            "    \"sweep_ns\": {:.0},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"sweep_parallel\": {{\n",
            "    \"workload\": \"PRESENT random-camouflage\",\n",
            "    \"candidates\": {},\n",
            "    \"shards\": {},\n",
            "    \"serial_ns\": {:.0},\n",
            "    \"sharded_ns\": {:.0},\n",
            "    \"speedup\": {:.2},\n",
            "    \"bit_identical\": {}\n",
            "  }},\n",
            "  \"sweep_any_io\": {{\n",
            "    \"workload\": \"3-bit random-camouflage, interpretation freedom\",\n",
            "    \"candidates\": {},\n",
            "    \"shards\": {},\n",
            "    \"orbit\": {},\n",
            "    \"unique\": {},\n",
            "    \"serial_ns\": {:.0},\n",
            "    \"sharded_ns\": {:.0},\n",
            "    \"speedup\": {:.2},\n",
            "    \"bit_identical\": {}\n",
            "  }},\n",
            "  \"sweep_npn\": {{\n",
            "    \"workload\": \"3-bit random-camouflage, NPN-complete adversary\",\n",
            "    \"candidates\": {},\n",
            "    \"classes\": {},\n",
            "    \"orbit\": {},\n",
            "    \"solo_cost\": {},\n",
            "    \"shared_cost\": {},\n",
            "    \"class_queries_saved\": {},\n",
            "    \"solo_ns\": {:.0},\n",
            "    \"shared_ns\": {:.0},\n",
            "    \"speedup\": {:.2},\n",
            "    \"bit_identical\": {}\n",
            "  }},\n",
            "  \"sat_screen\": {{\n",
            "    \"workload\": \"3-camo-cell screen demo, interpretation freedom\",\n",
            "    \"candidates\": {},\n",
            "    \"vectors\": {},\n",
            "    \"screened\": {},\n",
            "    \"queries\": {},\n",
            "    \"queries_saved\": {},\n",
            "    \"off_ns\": {:.0},\n",
            "    \"on_ns\": {:.0},\n",
            "    \"speedup\": {:.2},\n",
            "    \"bit_identical\": {}\n",
            "  }},\n",
            "  \"sweep_locking\": {{\n",
            "    \"workload\": \"3-bit locked screen demo, interpretation freedom\",\n",
            "    \"candidates\": {},\n",
            "    \"key_bits\": {},\n",
            "    \"keys\": {},\n",
            "    \"shards\": {},\n",
            "    \"serial_ns\": {:.0},\n",
            "    \"sharded_ns\": {:.0},\n",
            "    \"speedup\": {:.2},\n",
            "    \"bit_identical\": {}\n",
            "  }},\n",
            "  \"cuts_csr\": {{\n",
            "    \"n_inputs\": 12,\n",
            "    \"n_ands\": {},\n",
            "    \"k\": {},\n",
            "    \"max_cuts\": {},\n",
            "    \"nested_ns\": {:.0},\n",
            "    \"csr_ns\": {:.0},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"camo_fitness\": {{\n",
            "    \"workload\": \"PRESENT-4\",\n",
            "    \"configs\": {},\n",
            "    \"percfg_ns\": {:.0},\n",
            "    \"multi_ns\": {:.0},\n",
            "    \"speedup\": {:.2},\n",
            "    \"map_cold_ns\": {:.0},\n",
            "    \"map_warm_ns\": {:.0}\n",
            "  }},\n",
            "  \"tt_kernels\": {{\n",
            "    \"n_vars\": {},\n",
            "    \"slots\": {},\n",
            "    \"words_per_slot\": {},\n",
            "    \"scalar_ns\": {:.0},\n",
            "    \"chunked_ns\": {:.0},\n",
            "    \"speedup\": {:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        g.n_ands(),
        naive_ns,
        arena_ns,
        sim_speedup,
        serial_ms,
        parallel_ms,
        threads,
        ga_speedup,
        identical,
        fitness_batch,
        percall_ns,
        reuse_ns,
        fitness_speedup,
        sweep_candidates.len(),
        sat_percand_ns,
        sat_sweep_ns,
        sat_speedup,
        sweep_candidates.len(),
        sweep_shards,
        sweep_serial_ns,
        sweep_sharded_ns,
        sweep_parallel_speedup,
        sweep_parallel_identical,
        any_io_candidates.len(),
        any_io_shards,
        any_io_orbit,
        any_io_unique,
        any_io_serial_ns,
        any_io_sharded_ns,
        any_io_speedup,
        any_io_identical,
        npn_candidates.len(),
        npn_classes,
        npn_orbit,
        npn_solo_cost,
        npn_shared_cost,
        npn_saved,
        npn_solo_ns,
        npn_shared_ns,
        npn_speedup,
        npn_identical,
        screen_candidates.len(),
        sat_screen_vectors,
        sat_screened,
        sat_screen_queries,
        sat_screen_saved,
        sat_screen_off_ns,
        sat_screen_on_ns,
        sat_screen_speedup,
        sat_screen_identical,
        lock_candidates.len(),
        lock_key_bits,
        lock_keys,
        any_io_shards,
        lock_serial_ns,
        lock_sharded_ns,
        lock_speedup,
        lock_identical,
        cut_graph.n_ands(),
        k,
        max_cuts,
        cuts_nested_ns,
        cuts_csr_ns,
        cuts_speedup,
        configs.len(),
        camo_percfg_ns,
        camo_multi_ns,
        camo_speedup,
        camo_map_cold_ns,
        camo_map_warm_ns,
        tt_vars,
        tt_slots,
        words_per_slot,
        tt_scalar_ns,
        tt_chunked_ns,
        tt_speedup,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    println!("wrote {out_path}");
}
