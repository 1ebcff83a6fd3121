//! The audit service's JSON wire format.
//!
//! Hand-rolled codecs (over [`crate::json::Value`]) for everything that
//! crosses the service boundary: workloads in, netlists and verdicts
//! out. Encoding is canonical — field order is fixed, `u64`s ride as
//! decimal strings (JSON doubles lose precision past 2^53), permutations
//! and lookup tables as plain number arrays — so two equal values always
//! serialize to the same bytes, and byte equality of encoded reports is
//! exactly field-wise equality. Decoders are strict: missing fields,
//! wrong types and out-of-range values are [`WireError`]s, never
//! defaults.

use std::fmt;

use mvf::merge::PinAssignment;
use mvf::{ObfuscationSpace, PlausibilityVerdict, SchemeKind, Workload, WorkloadReport};
use mvf_attack::AnyIoVerdict;
use mvf_cells::{CamoLibrary, Library};
use mvf_ga::GenStats;
use mvf_logic::{IoInterpretation, VectorFunction};
use mvf_netlist::{CellRef, NetId, Netlist};

use crate::json::Value;

/// A decode failure: what was malformed, with enough path context to
/// debug a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl WireError {
    fn new(msg: impl Into<String>) -> WireError {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::new(format!("missing field '{key}'")))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, WireError> {
    field(v, key)?
        .as_usize()
        .ok_or_else(|| WireError::new(format!("field '{key}' is not a non-negative integer")))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, WireError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| WireError::new(format!("field '{key}' is not a string")))
}

fn arr_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], WireError> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| WireError::new(format!("field '{key}' is not an array")))
}

fn usize_list(items: &[Value], what: &str) -> Result<Vec<usize>, WireError> {
    items
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| WireError::new(format!("{what} entry is not an integer")))
        })
        .collect()
}

/// Encodes a finite-or-not `f64` for human-facing payloads: finite
/// values as numbers (Rust's shortest form round-trips bit-exactly),
/// non-finite ones as the strings `"inf"`, `"-inf"`, `"nan"`.
pub(crate) fn float_value(x: f64) -> Value {
    if x.is_finite() {
        Value::Num(x)
    } else if x.is_nan() {
        Value::str("nan")
    } else if x > 0.0 {
        Value::str("inf")
    } else {
        Value::str("-inf")
    }
}

/// Decodes [`float_value`].
pub(crate) fn float_from(v: &Value) -> Result<f64, WireError> {
    match v {
        Value::Num(n) => Ok(*n),
        Value::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            _ => Err(WireError::new(format!("'{s}' is not a float"))),
        },
        _ => Err(WireError::new("expected a float")),
    }
}

// ---------------------------------------------------------------------------
// Functions and workloads

/// `{"n_in":…,"n_out":…,"table":[…]}` — the lookup-table form of a
/// viable function (row `m` holds the packed output bits on minterm `m`).
pub fn encode_function(f: &VectorFunction) -> Value {
    Value::Obj(vec![
        ("n_in".into(), Value::usize(f.n_inputs())),
        ("n_out".into(), Value::usize(f.n_outputs())),
        (
            "table".into(),
            Value::Arr(
                f.to_lookup_table()
                    .into_iter()
                    .map(|row| Value::usize(row as usize))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes [`encode_function`].
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields, a table whose length does
/// not match `2^n_in`, or more outputs than a 16-bit row holds.
pub fn decode_function(v: &Value) -> Result<VectorFunction, WireError> {
    let n_in = usize_field(v, "n_in")?;
    let n_out = usize_field(v, "n_out")?;
    let table: Vec<u16> = arr_field(v, "table")?
        .iter()
        .map(|row| {
            row.as_usize()
                .filter(|&r| r <= usize::from(u16::MAX))
                .map(|r| r as u16)
                .ok_or_else(|| WireError::new("table row is not a 16-bit integer"))
        })
        .collect::<Result<_, _>>()?;
    VectorFunction::from_lookup_table(n_in, n_out, &table)
        .map_err(|e| WireError::new(format!("invalid function: {e}")))
}

/// `{"name":…,"seed":null|"…","functions":[…]}`.
pub fn encode_workload(w: &Workload) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::str(&w.name)),
        ("seed".into(), w.seed.map_or(Value::Null, Value::u64)),
        (
            "functions".into(),
            Value::Arr(w.functions.iter().map(encode_function).collect()),
        ),
    ])
}

/// Decodes [`encode_workload`].
///
/// # Errors
///
/// [`WireError`] on malformed structure or functions.
pub fn decode_workload(v: &Value) -> Result<Workload, WireError> {
    let name = str_field(v, "name")?;
    let seed = match field(v, "seed")? {
        Value::Null => None,
        s => Some(
            s.as_u64()
                .ok_or_else(|| WireError::new("field 'seed' is not a u64"))?,
        ),
    };
    let functions = arr_field(v, "functions")?
        .iter()
        .map(decode_function)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Workload {
        name: name.to_string(),
        functions,
        seed,
    })
}

// ---------------------------------------------------------------------------
// Netlists

/// Encodes a netlist structurally: named inputs, cells in instantiation
/// (topological) order referencing library cells **by name**, nets by
/// their integer ids, named outputs. Decoding against the same libraries
/// reconstructs an equal structure ([`decode_netlist`]).
pub fn encode_netlist(nl: &Netlist, lib: &Library, camo: &CamoLibrary) -> Value {
    let cells = nl
        .cells()
        .map(|(_, inst)| {
            let (kind, cell_name) = match inst.cell {
                CellRef::Std(id) => ("std", lib.cell(id).name()),
                CellRef::Camo(id) => ("camo", camo.cell(id).name()),
            };
            Value::Obj(vec![
                ("name".into(), Value::str(&inst.name)),
                (kind.into(), Value::str(cell_name)),
                (
                    "inputs".into(),
                    Value::Arr(
                        inst.inputs
                            .iter()
                            .map(|n| Value::usize(n.0 as usize))
                            .collect(),
                    ),
                ),
                ("output".into(), Value::usize(inst.output.0 as usize)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("name".into(), Value::str(nl.name())),
        (
            "inputs".into(),
            Value::Arr(
                nl.inputs()
                    .iter()
                    .map(|&n| {
                        Value::Arr(vec![Value::str(nl.net_name(n)), Value::usize(n.0 as usize)])
                    })
                    .collect(),
            ),
        ),
        ("cells".into(), Value::Arr(cells)),
        (
            "outputs".into(),
            Value::Arr(
                nl.outputs()
                    .iter()
                    .map(|(name, n)| Value::Arr(vec![Value::str(name), Value::usize(n.0 as usize)]))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes [`encode_netlist`], resolving cell references by name against
/// `lib` / `camo` and replaying the construction (net ids are remapped,
/// structure and names are preserved exactly).
///
/// # Errors
///
/// [`WireError`] on malformed structure, unknown cell names, or nets
/// used before they are driven.
pub fn decode_netlist(v: &Value, lib: &Library, camo: &CamoLibrary) -> Result<Netlist, WireError> {
    let mut nl = Netlist::new(str_field(v, "name")?);
    let mut nets: std::collections::HashMap<usize, NetId> = std::collections::HashMap::new();
    for entry in arr_field(v, "inputs")? {
        let pair = entry
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| WireError::new("input entry is not a [name, net] pair"))?;
        let name = pair[0]
            .as_str()
            .ok_or_else(|| WireError::new("input name is not a string"))?;
        let old = pair[1]
            .as_usize()
            .ok_or_else(|| WireError::new("input net is not an integer"))?;
        let new = nl.add_input(name);
        if nets.insert(old, new).is_some() {
            return Err(WireError::new(format!("net {old} driven twice")));
        }
    }
    for cell in arr_field(v, "cells")? {
        let name = str_field(cell, "name")?;
        let cell_ref = if let Some(std_name) = cell.get("std") {
            let std_name = std_name
                .as_str()
                .ok_or_else(|| WireError::new("cell 'std' is not a string"))?;
            CellRef::Std(
                lib.cell_by_name(std_name)
                    .ok_or_else(|| WireError::new(format!("unknown standard cell '{std_name}'")))?,
            )
        } else if let Some(camo_name) = cell.get("camo") {
            let camo_name = camo_name
                .as_str()
                .ok_or_else(|| WireError::new("cell 'camo' is not a string"))?;
            CellRef::Camo(
                camo.iter()
                    .find(|(_, c)| c.name() == camo_name)
                    .map(|(id, _)| id)
                    .ok_or_else(|| {
                        WireError::new(format!("unknown camouflaged cell '{camo_name}'"))
                    })?,
            )
        } else {
            return Err(WireError::new(format!(
                "cell '{name}' names neither a 'std' nor a 'camo' library cell"
            )));
        };
        let inputs = usize_list(arr_field(cell, "inputs")?, "cell input")?
            .into_iter()
            .map(|old| {
                nets.get(&old)
                    .copied()
                    .ok_or_else(|| WireError::new(format!("net {old} used before it is driven")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let old_out = usize_field(cell, "output")?;
        let (_, new_out) = nl.add_cell(name, cell_ref, inputs);
        if nets.insert(old_out, new_out).is_some() {
            return Err(WireError::new(format!("net {old_out} driven twice")));
        }
    }
    for entry in arr_field(v, "outputs")? {
        let pair = entry
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| WireError::new("output entry is not a [name, net] pair"))?;
        let name = pair[0]
            .as_str()
            .ok_or_else(|| WireError::new("output name is not a string"))?;
        let old = pair[1]
            .as_usize()
            .ok_or_else(|| WireError::new("output net is not an integer"))?;
        let net = nets
            .get(&old)
            .copied()
            .ok_or_else(|| WireError::new(format!("output net {old} is not driven")))?;
        nl.add_output(name, net);
    }
    Ok(nl)
}

// ---------------------------------------------------------------------------
// Assignments, stats, verdicts

/// `{"input_perms":[[…]],"output_perms":[[…]]}`.
pub fn encode_assignment(a: &PinAssignment) -> Value {
    let perms = |ps: &[Vec<usize>]| {
        Value::Arr(
            ps.iter()
                .map(|p| Value::Arr(p.iter().map(|&i| Value::usize(i)).collect()))
                .collect(),
        )
    };
    Value::Obj(vec![
        ("input_perms".into(), perms(&a.input_perms)),
        ("output_perms".into(), perms(&a.output_perms)),
    ])
}

/// Decodes [`encode_assignment`].
///
/// # Errors
///
/// [`WireError`] on malformed structure.
pub fn decode_assignment(v: &Value) -> Result<PinAssignment, WireError> {
    let perms = |key: &str| -> Result<Vec<Vec<usize>>, WireError> {
        arr_field(v, key)?
            .iter()
            .map(|p| {
                usize_list(
                    p.as_arr()
                        .ok_or_else(|| WireError::new("permutation is not an array"))?,
                    "permutation",
                )
            })
            .collect()
    };
    Ok(PinAssignment {
        input_perms: perms("input_perms")?,
        output_perms: perms("output_perms")?,
    })
}

/// `{"best_so_far":…,"best":…,"avg":…}` (floats via the bit-faithful float encoding).
pub fn encode_gen_stats(s: &GenStats) -> Value {
    Value::Obj(vec![
        ("best_so_far".into(), float_value(s.best_so_far)),
        ("best".into(), float_value(s.best)),
        ("avg".into(), float_value(s.avg)),
    ])
}

/// Decodes [`encode_gen_stats`].
///
/// # Errors
///
/// [`WireError`] on malformed structure.
pub fn decode_gen_stats(v: &Value) -> Result<GenStats, WireError> {
    Ok(GenStats {
        best_so_far: float_from(field(v, "best_so_far")?)?,
        best: float_from(field(v, "best")?)?,
        avg: float_from(field(v, "avg")?)?,
    })
}

/// `null | [[in_perm…], in_neg, [out_perm…], out_neg]` — the witness
/// [`IoInterpretation`]. Negation masks are plain integers (`0` for
/// permutation-only sweeps, so pre-NPN payload shapes are a strict
/// subset).
fn encode_witness(w: &Option<IoInterpretation>) -> Value {
    match w {
        None => Value::Null,
        Some(interp) => Value::Arr(vec![
            Value::Arr(interp.in_perm.iter().map(|&i| Value::usize(i)).collect()),
            Value::usize(interp.in_neg as usize),
            Value::Arr(interp.out_perm.iter().map(|&i| Value::usize(i)).collect()),
            Value::usize(interp.out_neg as usize),
        ]),
    }
}

fn decode_witness(v: &Value) -> Result<Option<IoInterpretation>, WireError> {
    match v {
        Value::Null => Ok(None),
        Value::Arr(parts) if parts.len() == 4 => {
            let perm = |p: &Value| {
                usize_list(
                    p.as_arr()
                        .ok_or_else(|| WireError::new("witness permutation is not an array"))?,
                    "witness",
                )
            };
            let mask = |m: &Value, what: &str| {
                m.as_usize()
                    .filter(|&x| x <= u32::MAX as usize)
                    .map(|x| x as u32)
                    .ok_or_else(|| WireError::new(format!("witness {what} is not a 32-bit mask")))
            };
            Ok(Some(IoInterpretation {
                in_perm: perm(&parts[0])?,
                in_neg: mask(&parts[1], "input negation")?,
                out_perm: perm(&parts[2])?,
                out_neg: mask(&parts[3], "output negation")?,
            }))
        }
        _ => Err(WireError::new(
            "witness is not null or a [in_perm, in_neg, out_perm, out_neg] quad",
        )),
    }
}

/// Encodes an interpretation-freedom verdict.
pub fn encode_any_io_verdict(v: &AnyIoVerdict) -> Value {
    Value::Obj(vec![
        ("plausible".into(), Value::Bool(v.plausible)),
        ("witness".into(), encode_witness(&v.witness)),
        ("orbit".into(), Value::usize(v.orbit)),
        ("unique".into(), Value::usize(v.unique)),
        ("screened".into(), Value::usize(v.screened)),
        ("queries".into(), Value::usize(v.queries)),
        ("class".into(), Value::usize(v.class)),
        ("class_size".into(), Value::usize(v.class_size)),
    ])
}

/// Decodes [`encode_any_io_verdict`].
///
/// # Errors
///
/// [`WireError`] on malformed structure.
pub fn decode_any_io_verdict(v: &Value) -> Result<AnyIoVerdict, WireError> {
    let plausible = field(v, "plausible")?
        .as_bool()
        .ok_or_else(|| WireError::new("field 'plausible' is not a bool"))?;
    Ok(AnyIoVerdict {
        plausible,
        witness: decode_witness(field(v, "witness")?)?,
        orbit: usize_field(v, "orbit")?,
        unique: usize_field(v, "unique")?,
        screened: usize_field(v, "screened")?,
        queries: usize_field(v, "queries")?,
        class: usize_field(v, "class")?,
        class_size: usize_field(v, "class_size")?,
    })
}

/// Encodes a per-function report verdict.
pub fn encode_plausibility(v: &PlausibilityVerdict) -> Value {
    Value::Obj(vec![
        ("identity".into(), Value::Bool(v.identity)),
        ("any_io".into(), v.any_io.map_or(Value::Null, Value::Bool)),
        ("witness".into(), encode_witness(&v.witness)),
        ("screened".into(), Value::usize(v.screened)),
        ("queries".into(), Value::usize(v.queries)),
    ])
}

/// Decodes [`encode_plausibility`].
///
/// # Errors
///
/// [`WireError`] on malformed structure.
pub fn decode_plausibility(v: &Value) -> Result<PlausibilityVerdict, WireError> {
    let identity = field(v, "identity")?
        .as_bool()
        .ok_or_else(|| WireError::new("field 'identity' is not a bool"))?;
    let any_io = match field(v, "any_io")? {
        Value::Null => None,
        b => Some(
            b.as_bool()
                .ok_or_else(|| WireError::new("field 'any_io' is not a bool"))?,
        ),
    };
    Ok(PlausibilityVerdict {
        identity,
        any_io,
        witness: decode_witness(field(v, "witness")?)?,
        screened: usize_field(v, "screened")?,
        queries: usize_field(v, "queries")?,
    })
}

// ---------------------------------------------------------------------------
// Reports

/// The client-side mirror of a successful flow result — everything the
/// wire carries, without the server-only intermediate artifacts.
#[derive(Debug, Clone)]
pub struct ResultWire {
    /// The winning pin assignment.
    pub assignment: PinAssignment,
    /// Phase-II area (GE) after synthesis + standard mapping.
    pub synthesized_area_ge: f64,
    /// Final camouflage-mapped area (GE).
    pub mapped_area_ge: f64,
    /// Fitness evaluations spent.
    pub evaluations: usize,
    /// Evaluations that failed and scored `INFINITY`.
    pub failed_evaluations: usize,
    /// Per-generation search statistics.
    pub ga_history: Vec<GenStats>,
    /// The final camouflaged netlist.
    pub netlist: Netlist,
}

/// The client-side mirror of a [`WorkloadReport`]: the outcome is a
/// plain `Result`-like pair (servers cannot ship an [`mvf::MvfError`]
/// value, so errors cross as their display strings).
#[derive(Debug, Clone)]
pub struct ReportWire {
    /// Workload label.
    pub name: String,
    /// The seed the search used.
    pub seed: u64,
    /// Search strategy name.
    pub strategy: String,
    /// The obfuscation family the report's netlist was emitted under.
    pub scheme: SchemeKind,
    /// The stable one-line summary ([`WorkloadReport`]'s `Display`).
    pub summary: String,
    /// The successful result, if the flow succeeded.
    pub ok: Option<ResultWire>,
    /// The error display string, if it failed.
    pub err: Option<String>,
    /// Red-team verdicts, when a sweep ran.
    pub plausibility: Option<Vec<PlausibilityVerdict>>,
}

/// Encodes a full camouflage workload report — shorthand for
/// [`encode_report_in`] over a camouflage space.
pub fn encode_report(r: &WorkloadReport, lib: &Library, camo: &CamoLibrary) -> Value {
    encode_report_in(&ObfuscationSpace::camouflage(lib, camo), r)
}

/// Encodes a full workload report (the `result` response payload) under
/// an obfuscation space: the `scheme` field names the family, and the
/// netlist's choice-bearing cells are resolved against the space's
/// choice library (camouflaged cells or key gates). Canonical: equal
/// reports — including bit-equal floats — produce equal JSON text.
pub fn encode_report_in(space: &ObfuscationSpace<'_>, r: &WorkloadReport) -> Value {
    let (lib, camo) = (space.library(), space.choices());
    let outcome = match &r.outcome {
        Ok(res) => Value::Obj(vec![(
            "ok".into(),
            Value::Obj(vec![
                ("assignment".into(), encode_assignment(&res.assignment)),
                (
                    "synthesized_area_ge".into(),
                    float_value(res.synthesized_area_ge),
                ),
                ("mapped_area_ge".into(), float_value(res.mapped_area_ge)),
                ("evaluations".into(), Value::usize(res.evaluations)),
                (
                    "failed_evaluations".into(),
                    Value::usize(res.failed_evaluations),
                ),
                (
                    "ga_history".into(),
                    Value::Arr(res.ga_history.iter().map(encode_gen_stats).collect()),
                ),
                (
                    "netlist".into(),
                    encode_netlist(&res.mapped.netlist, lib, camo),
                ),
            ]),
        )]),
        Err(e) => Value::Obj(vec![("err".into(), Value::str(e.to_string()))]),
    };
    Value::Obj(vec![
        ("name".into(), Value::str(&r.name)),
        ("seed".into(), Value::u64(r.seed)),
        ("strategy".into(), Value::str(r.strategy)),
        ("scheme".into(), Value::str(space.kind().tag())),
        ("summary".into(), Value::str(r.to_string())),
        ("outcome".into(), outcome),
        (
            "plausibility".into(),
            r.plausibility.as_ref().map_or(Value::Null, |vs| {
                Value::Arr(vs.iter().map(encode_plausibility).collect())
            }),
        ),
    ])
}

/// Decodes a camouflage report — shorthand for [`decode_report_in`]
/// over a camouflage space.
///
/// # Errors
///
/// [`WireError`] on malformed structure.
pub fn decode_report(
    v: &Value,
    lib: &Library,
    camo: &CamoLibrary,
) -> Result<ReportWire, WireError> {
    decode_report_in(&ObfuscationSpace::camouflage(lib, camo), v)
}

/// Decodes [`encode_report_in`] into the client-side mirror. The
/// report's `scheme` tag must match the space's family — resolving a
/// locking netlist's key gates against the camouflage library (or vice
/// versa) would only fail later with a misleading unknown-cell error.
///
/// # Errors
///
/// [`WireError`] on malformed structure or a scheme mismatch.
pub fn decode_report_in(space: &ObfuscationSpace<'_>, v: &Value) -> Result<ReportWire, WireError> {
    let (lib, camo) = (space.library(), space.choices());
    let tag = str_field(v, "scheme")?;
    let scheme = SchemeKind::from_tag(tag)
        .ok_or_else(|| WireError::new(format!("unknown obfuscation scheme '{tag}'")))?;
    if scheme != space.kind() {
        return Err(WireError::new(format!(
            "report scheme '{tag}' does not match the decoding space '{}'",
            space.kind().tag()
        )));
    }
    let outcome = field(v, "outcome")?;
    let (ok, err) = if let Some(res) = outcome.get("ok") {
        (
            Some(ResultWire {
                assignment: decode_assignment(field(res, "assignment")?)?,
                synthesized_area_ge: float_from(field(res, "synthesized_area_ge")?)?,
                mapped_area_ge: float_from(field(res, "mapped_area_ge")?)?,
                evaluations: usize_field(res, "evaluations")?,
                failed_evaluations: usize_field(res, "failed_evaluations")?,
                ga_history: arr_field(res, "ga_history")?
                    .iter()
                    .map(decode_gen_stats)
                    .collect::<Result<_, _>>()?,
                netlist: decode_netlist(field(res, "netlist")?, lib, camo)?,
            }),
            None,
        )
    } else if let Some(e) = outcome.get("err") {
        (
            None,
            Some(
                e.as_str()
                    .ok_or_else(|| WireError::new("field 'err' is not a string"))?
                    .to_string(),
            ),
        )
    } else {
        return Err(WireError::new("outcome has neither 'ok' nor 'err'"));
    };
    let plausibility = match field(v, "plausibility")? {
        Value::Null => None,
        Value::Arr(items) => Some(
            items
                .iter()
                .map(decode_plausibility)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        _ => {
            return Err(WireError::new(
                "field 'plausibility' is not null or an array",
            ))
        }
    };
    Ok(ReportWire {
        name: str_field(v, "name")?.to_string(),
        seed: field(v, "seed")?
            .as_u64()
            .ok_or_else(|| WireError::new("field 'seed' is not a u64"))?,
        strategy: str_field(v, "strategy")?.to_string(),
        scheme,
        summary: str_field(v, "summary")?.to_string(),
        ok,
        err,
        plausibility,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_netlist::fingerprint::fingerprint_netlist;

    #[test]
    fn workload_round_trips_on_the_sbox_corpus() {
        let functions = mvf_sboxes::optimal_sboxes()[..4].to_vec();
        for seed in [None, Some(0u64), Some(u64::MAX)] {
            let w = Workload {
                name: "PRESENT x4".into(),
                functions: functions.clone(),
                seed,
            };
            let text = encode_workload(&w).to_string();
            let back = decode_workload(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(back.name, w.name);
            assert_eq!(back.seed, w.seed);
            assert_eq!(back.functions.len(), w.functions.len());
            for (a, b) in back.functions.iter().zip(&w.functions) {
                assert_eq!(a.to_lookup_table(), b.to_lookup_table());
            }
        }
    }

    #[test]
    fn netlist_round_trips_with_camouflaged_cells() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let f = &mvf_sboxes::optimal_sboxes()[0];
        let nl = mvf_attack::random_camouflage(f, &lib, &camo).unwrap();
        let text = encode_netlist(&nl, &lib, &camo).to_string();
        let back = decode_netlist(&Value::parse(&text).unwrap(), &lib, &camo).unwrap();
        assert_eq!(
            fingerprint_netlist(&back),
            fingerprint_netlist(&nl),
            "decoded structure differs"
        );
        assert_eq!(back.name(), nl.name());
        assert_eq!(back.outputs().len(), nl.outputs().len());
    }

    #[test]
    fn netlist_round_trips_with_key_gates() {
        let lib = Library::standard();
        let lock = mvf::lock_library(&lib);
        let nand = lib.cell_by_name("NAND2").unwrap();
        let mut plain = Netlist::new("plain");
        let a = plain.add_input("a");
        let b = plain.add_input("b");
        let (_, ab) = plain.add_cell("g0", CellRef::Std(nand), vec![a, b]);
        let (_, y) = plain.add_cell("g1", CellRef::Std(nand), vec![ab, ab]);
        plain.add_output("y", y);
        let locked = mvf::obfuscate::lock_netlist(
            &plain,
            &lock,
            &mvf::LockOptions {
                n_xor: 2,
                n_mux: 1,
                ..mvf::LockOptions::default()
            },
        )
        .unwrap();
        let text = encode_netlist(&locked.netlist, &lib, &lock).to_string();
        let back = decode_netlist(&Value::parse(&text).unwrap(), &lib, &lock).unwrap();
        assert_eq!(
            fingerprint_netlist(&back),
            fingerprint_netlist(&locked.netlist),
            "decoded key-gate structure differs"
        );
    }

    #[test]
    fn report_scheme_tags_are_strict() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let lock = mvf::lock_library(&lib);
        let report = WorkloadReport {
            name: "w".into(),
            seed: 7,
            strategy: "ga",
            outcome: Err(mvf::MvfError::from(mvf::LockError::MissingKeyCell("XKEY"))),
            plausibility: None,
        };
        let camo_space = ObfuscationSpace::camouflage(&lib, &camo);
        let lock_space = ObfuscationSpace::locking(&lib, &lock);
        let as_camo = encode_report_in(&camo_space, &report);
        let as_lock = encode_report_in(&lock_space, &report);
        assert_eq!(
            decode_report_in(&camo_space, &as_camo).unwrap().scheme,
            SchemeKind::Camouflage
        );
        assert_eq!(
            decode_report_in(&lock_space, &as_lock).unwrap().scheme,
            SchemeKind::Locking
        );
        // Cross-decoding is rejected up front, not via an unknown-cell
        // error deep inside the netlist decoder.
        assert!(decode_report_in(&lock_space, &as_camo).is_err());
        assert!(decode_report_in(&camo_space, &as_lock).is_err());
        // The legacy pair is the camouflage space in disguise.
        assert_eq!(
            encode_report(&report, &lib, &camo).to_string(),
            as_camo.to_string()
        );
        assert!(decode_report(&as_lock, &lib, &camo).is_err());
    }

    #[test]
    fn verdicts_round_trip_exactly() {
        let any_io = AnyIoVerdict {
            plausible: true,
            witness: Some(IoInterpretation {
                in_perm: vec![2, 0, 1, 3],
                in_neg: 0b1010,
                out_perm: vec![3, 1, 0, 2],
                out_neg: 0b0001,
            }),
            orbit: 147_456,
            unique: 144,
            screened: 140,
            queries: 3,
            class: 2,
            class_size: 3,
        };
        let text = encode_any_io_verdict(&any_io).to_string();
        assert_eq!(
            decode_any_io_verdict(&Value::parse(&text).unwrap()).unwrap(),
            any_io
        );
        let verdict = PlausibilityVerdict {
            identity: false,
            any_io: Some(true),
            witness: Some(IoInterpretation::from_perms(vec![1, 0], vec![0, 1])),
            screened: 7,
            queries: 2,
        };
        let text = encode_plausibility(&verdict).to_string();
        assert_eq!(
            decode_plausibility(&Value::parse(&text).unwrap()).unwrap(),
            verdict
        );
        let negative = PlausibilityVerdict {
            identity: false,
            any_io: None,
            witness: None,
            screened: 1,
            queries: 0,
        };
        let text = encode_plausibility(&negative).to_string();
        assert_eq!(
            decode_plausibility(&Value::parse(&text).unwrap()).unwrap(),
            negative
        );
    }

    #[test]
    fn malformed_wire_values_are_rejected() {
        for bad in [
            r#"{"n_in":4,"n_out":4}"#,                   // missing table
            r#"{"n_in":4,"n_out":4,"table":[1,2]}"#,     // short table
            r#"{"n_in":4,"n_out":4,"table":[99999]}"#,   // row overflow
            r#"{"name":"w","functions":[]}"#,            // missing seed
            r#"{"name":"w","seed":1.5,"functions":[]}"#, // fractional seed
        ] {
            let v = Value::parse(bad).unwrap();
            assert!(
                decode_function(&v).is_err() && decode_workload(&v).is_err(),
                "accepted malformed wire value: {bad}"
            );
        }
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let orphan = Value::parse(
            r#"{"name":"x","inputs":[["a",0]],"cells":[{"name":"u","std":"NAND2","inputs":[0,7],"output":2}],"outputs":[["y",2]]}"#,
        )
        .unwrap();
        assert!(
            decode_netlist(&orphan, &lib, &camo).is_err(),
            "undriven net must be rejected"
        );
    }

    #[test]
    fn output_counts_beyond_the_row_width_are_rejected() {
        let ok = Value::parse(r#"{"n_in":1,"n_out":16,"table":[65535,0]}"#).unwrap();
        assert_eq!(decode_function(&ok).unwrap().n_outputs(), 16);
        // A 17th output has no row bit to read; 2^40 outputs would ask
        // for 2^40 truth tables.
        for n_out in ["17", "1099511627776"] {
            let bad =
                Value::parse(&format!(r#"{{"n_in":1,"n_out":{n_out},"table":[1,0]}}"#)).unwrap();
            let err = decode_function(&bad).expect_err("oversized output count accepted");
            assert!(err.to_string().contains("outputs"), "{err}");
        }
    }
}
