//! Perf-tracking micro-benchmark of code the pipeline runs, each timed
//! against its off switch or against a reference the crates keep: serial
//! vs parallel GA fitness evaluation through the full flow,
//! per-call-allocating vs context-reusing fitness evaluation, batched vs
//! re-encoding SAT plausibility sweeps (`sat_sweep`), sharded vs serial
//! plausibility sweeps (`sweep_parallel`), signature-pruned
//! interpretation-freedom sweeps (`sweep_any_io`), the NPN-complete
//! adversary with class sharing (`sweep_npn`), the SAT-free
//! screen-then-solve funnel vs a SAT-only sweep (`sat_screen`), the
//! scheme-generic sweep over a key-gate-locked circuit vs brute-force key
//! enumeration (`sweep_locking`), and word-parallel vs per-config
//! camouflage validation plus the camouflage mapper (`camo_fitness`).
//!
//! Each section asserts that both sides give the same answers before it
//! times them. Results are printed and written as machine-readable JSON
//! to `BENCH_sim.json` at the repository root (override the path with
//! `MVF_BENCH_OUT`):
//!
//! ```sh
//! cargo bench -p mvf-bench --bench micro
//! ```

use std::hint::black_box;
use std::time::Instant;

use mvf::{random_assignment, EvalContext, Flow, FlowResult};
use mvf_ga::GaConfig;
use mvf_logic::TruthTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    let space = mvf_attack::ObfuscationSpace::camouflage(&lib, &camo);
    // The identity tier of the one sweep, serial or sharded.
    let identity_sweep = |nl: &mvf_netlist::Netlist, shards: usize| {
        let opts = mvf_attack::AnyIoOptions {
            shards,
            ..mvf_attack::AnyIoOptions::default()
        };
        mvf_attack::plausibility_sweep_in(&space, nl, sweep_candidates, &opts)
    };
    // Correctness first: the batched sweep must equal fresh per-candidate
    // encodings.
    let swept: Vec<bool> = identity_sweep(&target, 1)
        .iter()
        .map(|v| v.plausible)
        .collect();
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
        black_box(identity_sweep(black_box(&target), 1));
    }) / sweep_candidates.len() as f64;
    let sat_speedup = sat_percand_ns / sat_sweep_ns;
    println!("sat percand: {sat_percand_ns:>12.0} ns / candidate (fresh encoding per query)");
    println!("sat sweep  : {sat_sweep_ns:>12.0} ns / candidate (one clause arena, assumptions)");
    println!("sat speedup: {sat_speedup:>12.2}x");

    // --- Sharded plausibility sweep vs serial. -------------------------
    let sweep_shards = mvf_ga::resolve_threads(0).max(2);
    let serial_sweep = identity_sweep(&target, 1);
    let sharded_sweep = identity_sweep(&target, sweep_shards);
    assert_eq!(
        serial_sweep, sharded_sweep,
        "sharded sweep must be bit-identical to serial"
    );
    let sweep_serial_ns = time_ns(|| {
        black_box(identity_sweep(black_box(&target), 1));
    }) / sweep_candidates.len() as f64;
    let sweep_sharded_ns = time_ns(|| {
        black_box(identity_sweep(black_box(&target), sweep_shards));
    }) / sweep_candidates.len() as f64;
    let sweep_parallel_speedup = sweep_serial_ns / sweep_sharded_ns;
    // On a single-core runner the *speedup* may legitimately sit at or
    // below 1.0, so correctness (bit-identical verdicts, asserted above),
    // not speed, is the contract.
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
    // The interpretation-freedom tier over the camouflage space.
    let any_io_sweep = |nl: &mvf_netlist::Netlist,
                        candidates: &[mvf_logic::VectorFunction],
                        opts: &mvf_attack::AnyIoOptions| {
        mvf_attack::plausibility_sweep_any_io_in(&space, nl, candidates, opts)
    };
    let sharded = |shards| mvf_attack::AnyIoOptions {
        shards,
        ..mvf_attack::AnyIoOptions::default()
    };
    let any_io_serial = any_io_sweep(&target3, &any_io_candidates, &sharded(1));
    let any_io_shards = mvf_ga::resolve_threads(0).max(2);
    let any_io_sharded = any_io_sweep(&target3, &any_io_candidates, &sharded(any_io_shards));
    let any_io_identical = any_io_serial
        .iter()
        .zip(&any_io_sharded)
        .all(|(a, b)| a.plausible == b.plausible && a.witness == b.witness);
    assert!(
        any_io_identical,
        "sharded any-IO sweep must match serial verdicts and witnesses"
    );
    let any_io_orbit: usize = any_io_serial.iter().map(|v| v.orbit).sum();
    let any_io_unique: usize = any_io_serial.iter().map(|v| v.unique).sum();
    let any_io_serial_ns = time_ns(|| {
        black_box(any_io_sweep(
            black_box(&target3),
            &any_io_candidates,
            &sharded(1),
        ));
    }) / any_io_candidates.len() as f64;
    let any_io_sharded_ns = time_ns(|| {
        black_box(any_io_sweep(
            black_box(&target3),
            &any_io_candidates,
            &sharded(any_io_shards),
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
    let npn_solo = any_io_sweep(&target3, &npn_candidates, &npn_solo_opts);
    let npn_shared = any_io_sweep(&target3, &npn_candidates, &npn_shared_opts);
    let npn_sharded = any_io_sweep(
        &target3,
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
        black_box(any_io_sweep(
            black_box(&target3),
            &npn_candidates,
            &npn_solo_opts,
        ));
    }) / npn_candidates.len() as f64;
    let npn_shared_ns = time_ns(|| {
        black_box(any_io_sweep(
            black_box(&target3),
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
    let screen_on_opts = mvf_attack::AnyIoOptions::default();
    let screen_off_opts = mvf_attack::AnyIoOptions {
        screen: false,
        ..mvf_attack::AnyIoOptions::default()
    };
    let screen_on = any_io_sweep(&screen_target, &screen_candidates, &screen_on_opts);
    let screen_off = any_io_sweep(&screen_target, &screen_candidates, &screen_off_opts);
    // Past the cap: the any-IO section's random-camouflage target, whose
    // configuration product the screen cannot enumerate, is screened by
    // projection onto the output cones that fit.
    let projected_on = any_io_sweep(&target3, &any_io_candidates, &screen_on_opts);
    let projected_off = any_io_sweep(&target3, &any_io_candidates, &screen_off_opts);
    let same = |on: &[mvf_attack::AnyIoVerdict], off: &[mvf_attack::AnyIoVerdict]| {
        on.iter()
            .zip(off)
            .all(|(a, b)| a.plausible == b.plausible && a.witness == b.witness)
    };
    let sat_screen_identical = same(&screen_on, &screen_off) && same(&projected_on, &projected_off);
    assert!(
        sat_screen_identical,
        "screening must not change any verdict or witness"
    );
    let sat_screen_vectors = mvf_attack::ConfigScreen::build_in(
        &space,
        &screen_target,
        &screen_candidates,
        mvf_attack::DEFAULT_SCREEN_VECTORS,
    )
    .expect("3-camo-cell product is enumerable")
    .n_vectors();
    let projected_screened: usize = projected_on.iter().map(|v| v.screened).sum();
    let projected_queries_saved = projected_off.iter().map(|v| v.queries).sum::<usize>()
        - projected_on.iter().map(|v| v.queries).sum::<usize>();
    assert!(
        projected_queries_saved > 0,
        "the projected screen must save SAT queries past the cap"
    );
    let sat_screened: usize = screen_on.iter().map(|v| v.screened).sum();
    let sat_screen_queries: usize = screen_on.iter().map(|v| v.queries).sum();
    let sat_screen_queries_off: usize = screen_off.iter().map(|v| v.queries).sum();
    let sat_screen_saved = sat_screen_queries_off - sat_screen_queries;
    assert!(
        sat_screen_saved > 0,
        "the screen must save SAT queries on the bench corpus"
    );
    let sat_screen_on_ns = time_ns(|| {
        black_box(any_io_sweep(
            black_box(&screen_target),
            &screen_candidates,
            &screen_on_opts,
        ));
    }) / screen_candidates.len() as f64;
    let sat_screen_off_ns = time_ns(|| {
        black_box(any_io_sweep(
            black_box(&screen_target),
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
    println!(
        "projected  : {projected_screened} screened, {projected_queries_saved} queries saved \
         past the cap"
    );

    // --- Logic locking: the scheme-generic sweep vs key enumeration. ---
    // The screen-demo circuit again, but as plain standard cells run
    // through the XOR/XNOR + MUX key-gate inserter — the second
    // obfuscation family. The same any-IO sweep flows unchanged through
    // the `ObfuscationSpace` seam; what the bench asserts is correctness,
    // never wall-clock: serial, sharded and screen-off sweeps agree verdict-
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
        &mvf_attack::AnyIoOptions::default(),
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

    // --- Camo validation: per-config eval vs one word-parallel pass. ---
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
    // The validator's pass: every minterm, cycled up to 64 vectors, and
    // every output, under all configurations at once.
    let camo_n_in = mapped.netlist.inputs().len();
    let minterms = 1u64 << camo_n_in;
    let camo_vectors: Vec<u64> = (0..minterms.max(64)).map(|m| m % minterms).collect();
    let camo_outputs: Vec<usize> = (0..mapped.netlist.outputs().len()).collect();
    // Correctness: the word-parallel pass equals per-config evaluation.
    let multi = mvf_sim::eval_camo_netlist_vectors(
        &mapped.netlist,
        &lib,
        &camo,
        &camo_outputs,
        &configs,
        &camo_vectors,
    )
    .expect("evaluable");
    for (j, config) in configs.iter().enumerate() {
        let single =
            mvf_sim::eval_camo_netlist(&mapped.netlist, &lib, &camo, config).expect("evaluable");
        for (tt, cols) in single.iter().zip(&multi[j]) {
            let bit = |m: usize| (cols[m / 64] >> (m % 64)) & 1 == 1;
            assert!(
                (0..tt.n_minterms()).all(|m| bit(m) == tt.get(m)),
                "config {j}"
            );
        }
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
            mvf_sim::eval_camo_netlist_vectors_with(
                black_box(&mapped.netlist),
                &lib,
                &camo,
                &camo_outputs,
                &configs,
                &camo_vectors,
                &mut camo_scratch,
            )
            .expect("evaluable"),
        );
    }) / configs.len() as f64;
    let camo_speedup = camo_percfg_ns / camo_multi_ns;
    // The Phase-III mapper itself: cold vs a reused matcher scratch.
    let mut camo_match = mvf_techmap::CamoMatchScratch::default();
    let warm_mapped = mvf_techmap::map_camouflage_with(
        &subject,
        &lib,
        &camo,
        &merged.select_indices,
        &mvf_techmap::CamoMapOptions::default(),
        &mut camo_match,
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
            mvf_techmap::map_camouflage_with(
                black_box(&subject),
                &lib,
                &camo,
                &merged.select_indices,
                &mvf_techmap::CamoMapOptions::default(),
                &mut camo_match,
            )
            .expect("mappable"),
        );
    });
    println!("camo percfg: {camo_percfg_ns:>12.0} ns / config (one eval per doping config)");
    println!("camo multi : {camo_multi_ns:>12.0} ns / config (word-parallel shared products)");
    println!("camo speedup: {camo_speedup:>11.2}x");
    println!("camo map   : {camo_map_cold_ns:>12.0} ns cold, {camo_map_warm_ns:>12.0} ns warm");

    // --- Machine-readable record. ------------------------------------
    let out_path = std::env::var("MVF_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_sim.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        concat!(
            "{{\n",
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
            "    \"projected_screened\": {},\n",
            "    \"projected_queries_saved\": {},\n",
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
            "  \"camo_fitness\": {{\n",
            "    \"workload\": \"PRESENT-4\",\n",
            "    \"configs\": {},\n",
            "    \"percfg_ns\": {:.0},\n",
            "    \"multi_ns\": {:.0},\n",
            "    \"speedup\": {:.2},\n",
            "    \"map_cold_ns\": {:.0},\n",
            "    \"map_warm_ns\": {:.0}\n",
            "  }}\n",
            "}}\n"
        ),
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
        projected_screened,
        projected_queries_saved,
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
        configs.len(),
        camo_percfg_ns,
        camo_multi_ns,
        camo_speedup,
        camo_map_cold_ns,
        camo_map_warm_ns,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    println!("wrote {out_path}");
}
