//! End-to-end benchmark of the MVF pipeline.
//!
//! ```text
//! perfbench --workload <table1|redteam-sat|redteam-screen|audit> --seed <n>
//!           --seconds <s> --trace <0|1> [--input-set <n>]
//! perfbench gen                         rewrite the pinned red-team inputs
//! perfbench selftest                    benchmark self-tests
//! ```
//!
//! A run sets the workload up several times (the median is `setup_s`), then
//! measures passes over the workload's inputs until `--seconds` have gone
//! by. Every pass checks its outputs; all passes of a run must produce the
//! results of the first. With `--trace 1` untraced and traced
//! passes alternate, the traced ones record spans and counters (see
//! `trace.rs`), and the per-layer metrics replace the end-to-end ones.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print every
//! metric by name with its unit. A failed output check exits with code 1.
//! See `perfbench/README.md` for the metrics and workloads.

mod audit;
mod redteam;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Generator seed of the pinned red-team inputs the workloads run on.
pub const DEFAULT_INPUT_SET: u64 = 1;
/// Generator seed of the held-out input set.
pub const HELDOUT_INPUT_SET: u64 = 2;
/// The benchmark's directory, relative to the repository root.
const BENCH_DIR: &str = "perfbench";

const WORKLOADS: [&str; 4] = ["table1", "redteam-sat", "redteam-screen", "audit"];

/// The outcome of one pass over a workload's inputs.
pub struct Pass {
    pub wall_s: f64,
    /// Operations completed: fitness evaluations, verdicts or jobs.
    pub units: usize,
    pub area_ge: f64,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    /// The pass's results in canonical form; equal across passes.
    pub digest: String,
    /// Per-operation latencies (red-team circuits, audit jobs).
    pub latencies: Vec<f64>,
}

impl Pass {
    pub fn new(wall_s: f64) -> Pass {
        Pass {
            wall_s,
            units: 0,
            area_ge: 0.0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            digest: String::new(),
            latencies: Vec::new(),
        }
    }

    pub fn error(&mut self, e: String) {
        self.errors.push(e);
    }
}

/// SplitMix64 of `seed` mixed with a stream constant.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// FNV-1a over bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A set-up workload.
enum Bench {
    Table1(table1::Table1),
    RedTeam(redteam::RedTeam),
    Audit(audit::Audit),
}

impl Bench {
    fn setup(workload: &str, seed: u64, input_set: u64) -> Result<Bench, String> {
        Ok(match workload {
            "table1" => Bench::Table1(table1::setup(seed, input_set)),
            "redteam-sat" | "redteam-screen" => Bench::RedTeam(redteam::setup(
                Path::new(BENCH_DIR),
                workload,
                input_set,
                seed,
            )?),
            "audit" => {
                let dir = audit::scratch_dir();
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                Bench::Audit(audit::setup(seed, input_set, &dir))
            }
            other => return Err(format!("unknown workload '{other}'")),
        })
    }

    fn pass(&self, tracer: Option<&Tracer>) -> Pass {
        match self {
            Bench::Table1(b) => b.pass(tracer),
            Bench::RedTeam(b) => b.pass(tracer),
            Bench::Audit(b) => b.pass(tracer),
        }
    }

    /// The inputs one pass runs, in order.
    fn inputs(&self) -> Vec<String> {
        match self {
            Bench::Table1(b) => b.inputs(),
            Bench::RedTeam(b) => b.inputs(),
            Bench::Audit(b) => b.inputs(),
        }
    }

    /// The fixed thread counts, for the record. Every pool runs one
    /// thread: on a two-core machine shared with other jobs, parallel
    /// walls spread about three times wider from pass to pass.
    fn threads(&self) -> &'static str {
        match self {
            Bench::Table1(_) => "run_many workers 1, GA workers 1, no sweep",
            Bench::RedTeam(_) => "sweep shards 1 (AnyIoJob steps serially), no GA",
            Bench::Audit(_) => "service workers 1, GA workers 1, sweep shards 1",
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    input_set: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        input_set: DEFAULT_INPUT_SET,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                out.seconds = value.parse::<f64>().map_err(|e| bad(&e)).and_then(|s| {
                    (s.is_finite() && s >= 0.0)
                        .then_some(s)
                        .ok_or_else(|| bad(&"not a finite, non-negative number"))
                })?;
            }
            "--trace" => out.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--input-set" => out.input_set = value.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

/// A run's result: validity plus named metrics with units.
struct Report {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Metrics printed for people only (not part of the JSON line).
    info: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// Sets up and measures one workload.
fn run(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let b = Bench::setup(&args.workload, args.seed, args.input_set)?;
        setup_s.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let bench = bench.expect("SETUP_REPS > 0");
    eprintln!(
        "[{}] {} | {}",
        args.workload,
        bench.threads(),
        bench.inputs().join(", ")
    );

    // The first pass is a measured pass too, and the reference every
    // later pass must reproduce.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut run_id = 0u64;
    while plain.is_empty() || (args.trace && traced.is_empty()) || Instant::now() < deadline {
        if args.trace && traced.len() < plain.len() {
            run_id += 1;
            let tracer = Tracer::new(run_id);
            let mut pass = bench.pass(Some(&tracer));
            let (spans, counters) = tracer.finish();
            if let Err(e) = trace::check_tree(&spans) {
                pass.error(format!("span tree: {e}"));
            }
            eprintln!("traced pass: {:.6} s", pass.wall_s);
            traced.push((pass, layer_metrics(&spans, &counters)));
        } else {
            let pass = bench.pass(None);
            eprintln!("pass: {:.6} s", pass.wall_s);
            plain.push(pass);
        }
    }

    let mut report = Report {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
        info: Vec::new(),
    };
    let reference = &plain[0];
    for p in plain.iter().chain(traced.iter().map(|(p, _)| p)) {
        report.attempted += p.attempted;
        report.failed += p.failed;
        report.errors.extend(p.errors.iter().cloned());
        if p.digest != reference.digest {
            report
                .errors
                .push("a pass produced different results from the first pass".into());
        }
    }
    report.errors.dedup();

    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    let rates: Vec<f64> = plain.iter().map(|p| p.units as f64 / p.wall_s).collect();
    let latencies: Vec<f64> = plain.iter().flat_map(|p| p.latencies.clone()).collect();
    let fail_frac = report.failed.min(report.attempted) as f64 / report.attempted.max(1) as f64;
    let e2e = vec![
        ("setup_s".to_string(), median(&setup_s), "s"),
        ("wall_s".to_string(), wall_s, "s"),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MiB"),
        ("work_per_s".to_string(), median(&rates), "1/s"),
        ("mapped_area_ge".to_string(), reference.area_ge, "GE"),
    ];
    let rate_name = match args.workload.as_str() {
        "table1" => "evals_per_s",
        "audit" => "jobs_per_s",
        _ => "verdicts_per_s",
    };
    report.info.push((rate_name.into(), median(&rates), "1/s"));
    report.info.push(("fail_frac".into(), fail_frac, "ratio"));
    if !latencies.is_empty() {
        let name = if args.workload == "audit" {
            "job_p50_s"
        } else {
            "circuit_p50_s"
        };
        report.info.push((name.into(), median(&latencies), "s"));
    }
    report
        .info
        .push(("passes".into(), plain.len() as f64, "count"));
    report
        .info
        .push(("units_per_pass".into(), reference.units as f64, "count"));

    if args.trace {
        let traced_wall: Vec<f64> = traced.iter().map(|(p, _)| p.wall_s).collect();
        let names: Vec<&'static str> = traced[0].1.keys().copied().collect();
        for name in names {
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
            let values: Vec<f64> = traced.iter().map(|(_, m)| m[name] + 0.0).collect();
            report
                .metrics
                .push((name.to_string(), median(&values), unit_of(name)));
        }
        report.metrics.push((
            "trace.overhead_s".into(),
            median(&traced_wall) - wall_s,
            "s",
        ));
        report.info.extend(e2e);
        report
            .info
            .push(("traced_wall_s".into(), median(&traced_wall), "s"));
        report
            .info
            .push(("traced_passes".into(), traced.len() as f64, "count"));
    } else {
        report.metrics = e2e;
    }
    Ok(report)
}

/// Unit of a per-layer metric, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_frac") {
        "ratio"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else {
        "count"
    }
}

/// Per-layer metrics of one traced pass. Every layer is reported on every
/// workload; a layer the workload does not run reads 0.
fn layer_metrics(
    spans: &[trace::Span],
    counters: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let selfs = trace::self_times(spans);
    let dur = |n: &str| trace::dur_sum(spans, n);
    let count = |n: &str| spans.iter().filter(|s| s.name == n).count() as f64;
    let c = |n: &str| counters.get(n).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let step_s = dur("attack.step");
    let mut m = BTreeMap::new();
    m.insert("merge.build_s", dur("merge.build"));
    m.insert("merge.calls", count("merge.build"));
    m.insert("aig.script_s", dur("aig.script"));
    m.insert("aig.ands_in", c("aig.ands_in"));
    m.insert("aig.ands_out", c("aig.ands_out"));
    m.insert("netlist.subject_s", dur("netlist.subject"));
    m.insert("techmap.map_s", dur("techmap.map"));
    m.insert("techmap.cells", c("techmap.cells"));
    m.insert("techmap.camo_map_s", dur("techmap.camo_map"));
    m.insert("sim.validate_s", dur("sim.validate"));
    m.insert(
        "ga.self_s",
        ["ga.search", "ga.start", "ga.step"]
            .iter()
            .map(|n| trace::self_sum(spans, &selfs, n))
            .sum(),
    );
    m.insert("ga.evals", c("ga.evals"));
    m.insert("ga.repeat_frac", ratio(c("ga.repeats"), c("ga.evals")));
    m.insert("core.finish_s", dur("core.finish"));
    m.insert("attack.encode_s", dur("attack.encode"));
    m.insert("attack.plan_s", dur("attack.plan"));
    m.insert("attack.step_s", step_s);
    m.insert("attack.orbit", c("attack.orbit"));
    m.insert("attack.unique", c("attack.unique"));
    m.insert("attack.screened", c("attack.screened"));
    m.insert("attack.queries", c("attack.queries"));
    m.insert(
        "attack.settled_frac",
        ratio(c("attack.screened"), c("attack.unique")),
    );
    m.insert("attack.query_us", ratio(step_s * 1e6, c("attack.queries")));
    m.insert("sat.vivified", c("sat.vivified"));
    m.insert("sat.eliminated", c("sat.eliminated"));
    m.insert("sat.reductions", c("sat.reductions"));
    m.insert("sat.db_bytes", c("sat.db_bytes"));
    m.insert("serve.checkpoint_s", dur("serve.checkpoint"));
    m.insert("serve.checkpoint_bytes", c("serve.checkpoint_bytes"));
    m.insert("serve.checkpoints", count("serve.checkpoint"));
    m.insert("serve.report_encode_s", dur("serve.report_encode"));
    m.insert("serve.cache_hits", c("serve.cache_hits"));
    m.insert("serve.cache_misses", c("serve.cache_misses"));
    m.insert("serve.cache_evictions", c("serve.cache_evictions"));
    m.insert(
        "serve.unattributed_s",
        trace::self_sum(spans, &selfs, "serve.job"),
    );
    m.insert("trace.spans", spans.len() as f64);
    m
}

fn print_report(args: &Args, report: &Report) {
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "workload {} seed {} seconds {} ({mode})",
        args.workload, args.seed, args.seconds
    );
    for (name, value, unit) in report.metrics.iter().chain(&report.info) {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    for e in report.errors.iter().take(20) {
        println!("  CHECK FAILED: {e}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// `gen`: writes the pinned red-team inputs and their expected verdicts.
fn gen(sets: &[u64]) -> Result<(), String> {
    let dir = Path::new(BENCH_DIR);
    for &set in sets {
        for workload in ["redteam-sat", "redteam-screen"] {
            let write = |path: PathBuf, text: String| -> Result<(), String> {
                std::fs::create_dir_all(path.parent().expect("file paths have a parent"))
                    .and_then(|()| std::fs::write(&path, text))
                    .map_err(|e| format!("writing {}: {e}", path.display()))
            };
            write(
                redteam::input_path(dir, set, workload),
                redteam::generate(workload, set),
            )?;
            write(
                redteam::expected_path(dir, set, workload),
                redteam::expected_for(dir, workload, set)?,
            )?;
            eprintln!("wrote input set {set} of {workload}");
        }
    }
    Ok(())
}

/// `selftest`: the pinned inputs are reproducible and seed-dependent, and
/// every workload's traced pass equals its untraced pass.
fn selftest() -> Result<(), String> {
    let dir = Path::new(BENCH_DIR);
    for workload in ["redteam-sat", "redteam-screen"] {
        let mut texts = Vec::new();
        for set in [DEFAULT_INPUT_SET, HELDOUT_INPUT_SET] {
            let pinned = std::fs::read_to_string(redteam::input_path(dir, set, workload))
                .map_err(|e| format!("reading pinned inputs: {e}"))?;
            if redteam::generate(workload, set) != pinned {
                return Err(format!(
                    "{workload}: input set {set} does not regenerate byte for byte"
                ));
            }
            texts.push(pinned);
        }
        if texts[0] == texts[1] {
            return Err(format!(
                "{workload}: the held-out set equals the default set"
            ));
        }
        eprintln!("selftest: {workload} inputs reproduce, held-out set differs");
    }
    for workload in WORKLOADS {
        let inputs = |seed, set| Bench::setup(workload, seed, set).map(|b| b.inputs());
        let base = inputs(7, DEFAULT_INPUT_SET)?;
        if inputs(7, DEFAULT_INPUT_SET)? != base {
            return Err(format!("{workload}: the same seed gave different inputs"));
        }
        if inputs(8, DEFAULT_INPUT_SET)? == base {
            return Err(format!("{workload}: another run seed gave the same inputs"));
        }
        if workload != "redteam-sat"
            && workload != "redteam-screen"
            && inputs(7, HELDOUT_INPUT_SET)? == base
        {
            return Err(format!(
                "{workload}: the held-out input set gave the same inputs"
            ));
        }
        eprintln!("selftest: {workload} inputs follow the seed and the input set");
        for input_set in [DEFAULT_INPUT_SET, HELDOUT_INPUT_SET] {
            let args = Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.0,
                trace: true,
                input_set,
            };
            let report = run(&args)?;
            if !report.correct() {
                return Err(format!(
                    "{workload} (input set {input_set}): {}",
                    report.errors.join("; ")
                ));
            }
            eprintln!(
                "selftest: {workload} (input set {input_set}) traced == untraced, spans nest"
            );
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !Path::new(BENCH_DIR).join("Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root");
        std::process::exit(2);
    }
    let outcome = match argv.first().map(String::as_str) {
        Some("gen") => gen(&[DEFAULT_INPUT_SET, HELDOUT_INPUT_SET]),
        Some("selftest") => {
            let result = selftest();
            let _ = std::fs::remove_dir_all(audit::scratch_dir());
            result
        }
        _ => parse_args(&argv).and_then(|args| {
            let report = run(&args);
            let _ = std::fs::remove_dir_all(audit::scratch_dir());
            let report = report?;
            print_report(&args, &report);
            if report.correct() {
                Ok(())
            } else {
                std::process::exit(1)
            }
        }),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
