//! `redteam-sat` and `redteam-screen`: the red-team sweep over pinned
//! obfuscated circuits.
//!
//! Each circuit is audited the way an oracle-guided adversary tests a
//! design: every function of the S-box family — the viable ones plus the
//! chaff — is a candidate, and an interpretation-freedom sweep (P or NPN
//! tier) asks which of them the circuit can still realize. One circuit is
//! `SweepSession::new_in` (encode), `SweepSession::any_io_job_in` (plan,
//! including the SAT-free screen) and `AnyIoJob::step` to completion.
//!
//! The circuits and candidate lists are generated once by `gen`
//! ([`generate`]) and checked in under `perfbench/inputs/`; the expected
//! verdicts and witnesses sit beside them under `perfbench/expected/`.
//! A run only decodes them, then permutes the circuit and candidate order
//! with the run seed: the work is the same for every seed, the order is
//! not.

use std::path::Path;
use std::time::Instant;

use mvf::{Flow, FlowBuilder, SchemeKind};
use mvf_attack::{AnyIoOptions, AnyIoVerdict, SweepSession};
use mvf_cells::{CamoLibrary, Library};
use mvf_ga::GaConfig;
use mvf_logic::{IoInterpretation, VectorFunction};
use mvf_netlist::Netlist;
use mvf_obfuscate::{lock_library, ObfuscationSpace};
use mvf_serve::json::Value;
use mvf_serve::wire::{decode_function, decode_netlist, encode_function, encode_netlist};

use crate::trace::{id_of, maybe_span, Tracer};
use crate::{mix, shuffle, Pass};

/// Work items per `AnyIoJob::step` call, as the audit service's default
/// sweep chunk.
const STEP_CHUNK: usize = 64;

/// One circuit of a red-team workload: what to build and how to attack it.
struct Spec {
    family: &'static str,
    n: usize,
    scheme: SchemeKind,
    npn: bool,
}

const fn spec(family: &'static str, n: usize, scheme: SchemeKind, npn: bool) -> Spec {
    Spec {
        family,
        n,
        scheme,
        npn,
    }
}

/// Camouflaged circuits whose doping-configuration product exceeds the
/// screen's enumeration cap: the screen stands down and SAT does the work.
const SAT_SPECS: [Spec; 4] = [
    spec("PRESENT", 4, SchemeKind::Camouflage, false),
    spec("PRESENT", 8, SchemeKind::Camouflage, false),
    spec("DES", 4, SchemeKind::Camouflage, false),
    spec("DES", 8, SchemeKind::Camouflage, false),
];

/// Circuits inside the cap: the complete screen settles every orbit point.
const SCREEN_SPECS: [Spec; 3] = [
    spec("PRESENT", 4, SchemeKind::Locking, true),
    spec("DES", 2, SchemeKind::Locking, false),
    spec("PRESENT", 2, SchemeKind::Camouflage, false),
];

fn specs(workload: &str) -> &'static [Spec] {
    match workload {
        "redteam-sat" => &SAT_SPECS,
        "redteam-screen" => &SCREEN_SPECS,
        other => panic!("not a red-team workload: {other}"),
    }
}

/// A decoded circuit with its candidates. `candidates[..n_viable]` are the
/// viable functions in the circuit's pin order; the rest are chaff.
pub struct Circuit {
    name: String,
    scheme: SchemeKind,
    npn: bool,
    netlist: Netlist,
    candidates: Vec<VectorFunction>,
    n_viable: usize,
    /// The sweep sees `candidates[order[j]]` as its `j`-th candidate.
    order: Vec<usize>,
    /// The candidates in that order.
    ordered: Vec<VectorFunction>,
}

impl Circuit {
    fn set_order(&mut self, order: Vec<usize>) {
        self.ordered = order.iter().map(|&k| self.candidates[k].clone()).collect();
        self.order = order;
    }
}

/// One verdict as pinned in the expected file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pinned {
    plausible: bool,
    witness: Option<IoInterpretation>,
}

pub struct Libraries {
    lib: Library,
    camo: CamoLibrary,
    lock: CamoLibrary,
}

impl Libraries {
    pub fn build() -> Libraries {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let lock = lock_library(&lib);
        Libraries { lib, camo, lock }
    }

    fn space(&self, scheme: SchemeKind) -> ObfuscationSpace<'_> {
        let choices = match scheme {
            SchemeKind::Camouflage => &self.camo,
            SchemeKind::Locking => &self.lock,
        };
        ObfuscationSpace::with_kind(scheme, &self.lib, choices)
    }
}

pub struct RedTeam {
    libs: Libraries,
    circuits: Vec<Circuit>,
    expected: Vec<Vec<Pinned>>,
    /// Audit order of the circuits.
    order: Vec<usize>,
}

fn family(name: &str) -> Vec<VectorFunction> {
    match name {
        "PRESENT" => mvf_sboxes::optimal_sboxes(),
        "DES" => mvf_sboxes::des_sboxes(),
        other => panic!("unknown S-box family {other}"),
    }
}

fn opts(npn: bool) -> AnyIoOptions {
    AnyIoOptions {
        shards: 1,
        npn,
        ..AnyIoOptions::default()
    }
}

pub fn input_path(dir: &Path, set: u64, workload: &str) -> std::path::PathBuf {
    dir.join("inputs")
        .join(format!("set-{set}"))
        .join(format!("{workload}.json"))
}

pub fn expected_path(dir: &Path, set: u64, workload: &str) -> std::path::PathBuf {
    dir.join("expected")
        .join(format!("set-{set}"))
        .join(format!("{workload}.json"))
}

/// Generates the input file of `workload` for generator seed `set`: each
/// circuit is the best flow result of a small seeded GA, and its candidate
/// list is the viable functions (pin-permuted, as the circuit realizes
/// them) followed by the rest of the family.
pub fn generate(workload: &str, set: u64) -> String {
    let libs = Libraries::build();
    let mut lines = Vec::new();
    for (i, s) in specs(workload).iter().enumerate() {
        let fam = family(s.family);
        let viable = fam[..s.n].to_vec();
        let flow: Flow = FlowBuilder::new()
            .ga(GaConfig {
                population: 4,
                generations: 1,
                seed: mix(set, 0x6E4 + i as u64),
                threads: 1,
                ..GaConfig::default()
            })
            .scheme(s.scheme)
            .build();
        let result = flow
            .run(&viable)
            .unwrap_or_else(|e| panic!("generating {} x{}: {e}", s.family, s.n));
        let space = libs.space(s.scheme);
        let mut candidates: Vec<Value> = result
            .merged
            .functions
            .iter()
            .map(encode_function)
            .collect();
        candidates.extend(fam[s.n..].iter().map(encode_function));
        let circuit = Value::Obj(vec![
            (
                "name".into(),
                Value::str(format!(
                    "{} x{} {} {}",
                    s.family,
                    s.n,
                    s.scheme.tag(),
                    if s.npn { "NPN" } else { "P" }
                )),
            ),
            ("scheme".into(), Value::str(s.scheme.tag())),
            ("npn".into(), Value::Bool(s.npn)),
            ("n_viable".into(), Value::usize(s.n)),
            ("candidates".into(), Value::Arr(candidates)),
            (
                "netlist".into(),
                encode_netlist(&result.mapped.netlist, &libs.lib, space.choices()),
            ),
        ]);
        lines.push(circuit.to_string());
    }
    format!(
        "{{\"workload\":\"{workload}\",\"input_set\":{set},\"circuits\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn decode_circuits(text: &str, libs: &Libraries) -> Result<Vec<Circuit>, String> {
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    let circuits = field(&doc, "circuits")?
        .as_arr()
        .ok_or("'circuits' is not an array")?;
    circuits
        .iter()
        .map(|c| {
            let name = field(c, "name")?.as_str().ok_or("bad name")?.to_string();
            let scheme = field(c, "scheme")?
                .as_str()
                .and_then(SchemeKind::from_tag)
                .ok_or_else(|| format!("{name}: bad scheme"))?;
            let npn = field(c, "npn")?.as_bool().ok_or("bad npn")?;
            let n_viable = field(c, "n_viable")?.as_usize().ok_or("bad n_viable")?;
            let candidates = field(c, "candidates")?
                .as_arr()
                .ok_or("bad candidates")?
                .iter()
                .map(|f| decode_function(f).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            let space = libs.space(scheme);
            let netlist = decode_netlist(field(c, "netlist")?, &libs.lib, space.choices())
                .map_err(|e| format!("{name}: {e}"))?;
            Ok(Circuit {
                name,
                scheme,
                npn,
                netlist,
                order: (0..candidates.len()).collect(),
                ordered: candidates.clone(),
                candidates,
                n_viable,
            })
        })
        .collect()
}

fn encode_pinned(p: &Pinned) -> Value {
    let witness = match &p.witness {
        None => Value::Null,
        Some(w) => Value::Arr(vec![
            Value::Arr(w.in_perm.iter().map(|&i| Value::usize(i)).collect()),
            Value::usize(w.in_neg as usize),
            Value::Arr(w.out_perm.iter().map(|&i| Value::usize(i)).collect()),
            Value::usize(w.out_neg as usize),
        ]),
    };
    Value::Arr(vec![Value::Bool(p.plausible), witness])
}

fn decode_pinned(v: &Value) -> Result<Pinned, String> {
    let bad = || "malformed expected verdict".to_string();
    let pair = v.as_arr().filter(|p| p.len() == 2).ok_or_else(bad)?;
    let plausible = pair[0].as_bool().ok_or_else(bad)?;
    let perm = |v: &Value| -> Result<Vec<usize>, String> {
        v.as_arr()
            .ok_or_else(bad)?
            .iter()
            .map(|i| i.as_usize().ok_or_else(bad))
            .collect()
    };
    let witness = match &pair[1] {
        Value::Null => None,
        Value::Arr(q) if q.len() == 4 => Some(IoInterpretation {
            in_perm: perm(&q[0])?,
            in_neg: q[1].as_usize().ok_or_else(bad)? as u32,
            out_perm: perm(&q[2])?,
            out_neg: q[3].as_usize().ok_or_else(bad)? as u32,
        }),
        _ => return Err(bad()),
    };
    Ok(Pinned { plausible, witness })
}

fn pinned(v: &AnyIoVerdict) -> Pinned {
    Pinned {
        plausible: v.plausible,
        witness: v.witness.clone(),
    }
}

/// Runs the sweep over the inputs of `(workload, set)` and renders the
/// expected file from its verdicts.
pub fn expected_for(dir: &Path, workload: &str, set: u64) -> Result<String, String> {
    let libs = Libraries::build();
    let text = std::fs::read_to_string(input_path(dir, set, workload))
        .map_err(|e| format!("reading inputs: {e}"))?;
    let circuits = decode_circuits(&text, &libs)?;
    let mut lines = Vec::new();
    for c in &circuits {
        let verdicts = sweep(&libs, c, None).verdicts;
        let screened: usize = verdicts.iter().map(|v| v.screened).sum();
        let queries: usize = verdicts.iter().map(|v| v.queries).sum();
        let in_regime = match workload {
            "redteam-sat" => screened == 0,
            _ => queries == 0,
        };
        if !in_regime {
            return Err(format!(
                "{}: {screened} screened, {queries} queries does not fit {workload}",
                c.name
            ));
        }
        let mut by_candidate = vec![Value::Null; c.candidates.len()];
        for (&k, v) in c.order.iter().zip(&verdicts) {
            by_candidate[k] = encode_pinned(&pinned(v));
        }
        lines.push(
            Value::Obj(vec![
                ("name".into(), Value::str(&c.name)),
                ("verdicts".into(), Value::Arr(by_candidate)),
            ])
            .to_string(),
        );
    }
    Ok(format!(
        "{{\"workload\":\"{workload}\",\"input_set\":{set},\"circuits\":[\n{}\n]}}\n",
        lines.join(",\n")
    ))
}

/// Decodes the pinned inputs and expected verdicts and fixes the audit
/// order for `seed`.
pub fn setup(dir: &Path, workload: &str, set: u64, seed: u64) -> Result<RedTeam, String> {
    let libs = Libraries::build();
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))
    };
    let mut circuits = decode_circuits(&read(input_path(dir, set, workload))?, &libs)?;
    let doc = Value::parse(&read(expected_path(dir, set, workload))?).map_err(|e| e.to_string())?;
    let expected_circuits = field(&doc, "circuits")?
        .as_arr()
        .ok_or("'circuits' is not an array")?;
    if expected_circuits.len() != circuits.len() {
        return Err("expected file does not match the inputs".into());
    }
    let mut expected = Vec::new();
    for (c, e) in circuits.iter().zip(expected_circuits) {
        let verdicts = field(e, "verdicts")?.as_arr().ok_or("bad verdicts")?;
        if field(e, "name")?.as_str() != Some(c.name.as_str())
            || verdicts.len() != c.candidates.len()
        {
            return Err(format!(
                "{}: expected verdicts do not match the inputs",
                c.name
            ));
        }
        expected.push(
            verdicts
                .iter()
                .map(decode_pinned)
                .collect::<Result<_, _>>()?,
        );
    }
    for (i, c) in circuits.iter_mut().enumerate() {
        let mut order: Vec<usize> = (0..c.candidates.len()).collect();
        shuffle(&mut order, mix(seed, 0xC0DE + i as u64));
        c.set_order(order);
    }
    let mut order: Vec<usize> = (0..circuits.len()).collect();
    shuffle(&mut order, mix(seed, 0xC1C));
    Ok(RedTeam {
        libs,
        circuits,
        expected,
        order,
    })
}

struct Swept {
    verdicts: Vec<AnyIoVerdict>,
    latency_s: f64,
}

/// Audits one circuit: encode, plan, step to completion.
fn sweep(libs: &Libraries, c: &Circuit, tracer: Option<&Tracer>) -> Swept {
    let start = Instant::now();
    let root = maybe_span(tracer, "redteam.circuit", None);
    let space = libs.space(c.scheme);
    let mut session = {
        let _s = maybe_span(tracer, "attack.encode", id_of(&root));
        SweepSession::new_in(&space, &c.netlist)
    };
    let mut job = {
        let _s = maybe_span(tracer, "attack.plan", id_of(&root));
        session.any_io_job_in(&space, &c.netlist, &c.ordered, &opts(c.npn))
    };
    {
        let _s = maybe_span(tracer, "attack.step", id_of(&root));
        while job.step(STEP_CHUNK) > 0 {}
    }
    let verdicts = job.verdicts();
    if let Some(t) = tracer {
        for v in &verdicts {
            t.add("attack.orbit", v.orbit as f64);
            t.add("attack.unique", v.unique as f64);
            t.add("attack.screened", v.screened as f64);
            t.add("attack.queries", v.queries as f64);
        }
        let sat = job.sat_stats();
        t.add("sat.vivified", sat.n_vivified as f64);
        t.add("sat.eliminated", sat.n_eliminated as f64);
        t.add("sat.reductions", sat.n_reductions as f64);
        t.add("sat.db_bytes", session.db_bytes() as f64);
    }
    drop(root);
    Swept {
        verdicts,
        latency_s: start.elapsed().as_secs_f64(),
    }
}

impl RedTeam {
    /// The circuits as audited: names and candidate orders, in order.
    pub fn inputs(&self) -> Vec<String> {
        self.order
            .iter()
            .map(|&i| format!("{} {:?}", self.circuits[i].name, self.circuits[i].order))
            .collect()
    }

    /// The summed area of the audited circuits.
    fn area_ge(&self) -> f64 {
        self.circuits
            .iter()
            .map(|c| {
                let space = self.libs.space(c.scheme);
                c.netlist.area_ge(&self.libs.lib, Some(space.choices()))
            })
            .sum()
    }

    pub fn pass(&self, tracer: Option<&Tracer>) -> Pass {
        let start = Instant::now();
        let swept: Vec<(usize, Swept)> = self
            .order
            .iter()
            .map(|&i| (i, sweep(&self.libs, &self.circuits[i], tracer)))
            .collect();
        let mut pass = Pass::new(start.elapsed().as_secs_f64());
        pass.area_ge = self.area_ge();
        for (i, s) in swept {
            let c = &self.circuits[i];
            pass.latencies.push(s.latency_s);
            let mut got = vec![None; c.candidates.len()];
            for (&k, v) in c.order.iter().zip(&s.verdicts) {
                got[k] = Some(pinned(v));
            }
            for (k, g) in got.into_iter().enumerate() {
                pass.attempted += 1;
                pass.units += 1;
                let g = g.expect("every candidate gets a verdict");
                let mut ok = true;
                if k < c.n_viable && !g.plausible {
                    ok = false;
                    pass.error(format!("{}: viable candidate {k} is not plausible", c.name));
                }
                if g != self.expected[i][k] {
                    ok = false;
                    pass.error(format!(
                        "{}: candidate {k} verdict {g:?} differs from the expected file",
                        c.name
                    ));
                }
                pass.failed += usize::from(!ok);
                pass.digest
                    .push_str(&format!("{i}/{k}:{}:{:?};", g.plausible, g.witness));
            }
        }
        pass
    }
}
