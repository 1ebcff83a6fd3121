//! Versioned checkpoint files for long audit jobs.
//!
//! A checkpoint captures the complete resumable state of one workload at
//! a safe boundary: during Phase II, the GA engine's
//! [`GaSearchState`] (generation counter, master-RNG stream position,
//! population with fitness); after it, the final search outcome plus the
//! interpretation-freedom sweep's [`AnyIoProgress`]. Everything else —
//! the merged circuit, the encoded solver, the screen — is recomputed
//! deterministically from the workload on resume, so
//! `resume(checkpoint)` finishes bit-identically to the uninterrupted
//! run (asserted by the crate's tests).
//!
//! Fidelity rule: every `f64` in a checkpoint is stored as its IEEE-754
//! bit pattern in hex (`"0x3ff0000000000000"`), not as a decimal number
//! — fitness values can be `INFINITY` (failed evaluations), and resume
//! must reproduce the exact bits the run would have carried.
//!
//! The file format is versioned: [`FORMAT`] names it,
//! [`VERSION`] gates compatibility, and readers reject anything
//! they do not understand rather than guessing.

use std::fmt;
use std::io::Write;
use std::path::Path;

use mvf::merge::PinAssignment;
use mvf::{SchemeKind, Workload};
use mvf_attack::AnyIoProgress;
use mvf_ga::{GaSearchState, GenStats};

use crate::json::Value;
use crate::wire::{
    decode_assignment, decode_workload, encode_assignment, encode_workload, WireError,
};

/// The `format` tag every checkpoint file carries.
pub const FORMAT: &str = "mvf-serve-checkpoint";
/// The current checkpoint format version. Version 2 added the sweep
/// progress's `resolved` verdict cache (the NPN/class-sharing sweep);
/// version 3 added the obfuscation `scheme` tag, so a resumed job keeps
/// its family even if the service's `MVF_SCHEME` knob changed in
/// between. Older files are rejected rather than resumed with guessed
/// state.
pub const VERSION: u64 = 3;

/// The final Phase-II outcome carried into the sweep phase.
#[derive(Debug, Clone)]
pub struct GaFinal {
    /// The best pin assignment found.
    pub best: PinAssignment,
    /// Per-generation statistics.
    pub history: Vec<GenStats>,
    /// Fitness evaluations spent.
    pub evaluations: usize,
}

/// Which phase the job was in, with that phase's resumable state.
#[derive(Debug, Clone)]
pub enum CheckpointPhase {
    /// Mid-search: the GA engine state at a generation boundary.
    Ga(GaSearchState<PinAssignment>),
    /// Search done, mid-sweep: the final GA outcome (to recompute the
    /// circuit) plus the sweep cursor.
    Sweep {
        /// The completed search's outcome.
        ga: GaFinal,
        /// The interpretation-freedom sweep's position.
        progress: AnyIoProgress,
    },
}

/// One job's complete resumable state.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The workload being audited (functions, name, seed override).
    pub workload: Workload,
    /// The resolved search seed.
    pub seed: u64,
    /// The obfuscation family the job runs under. Resume honours this
    /// tag, not the service's current configuration, so the continued
    /// run is bit-identical to the uninterrupted one.
    pub scheme: SchemeKind,
    /// Failed fitness evaluations tallied so far (resumes as the base
    /// for the continued run's own tally).
    pub failed_evaluations: usize,
    /// Phase state.
    pub phase: CheckpointPhase,
}

/// A checkpoint read failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// The document is not valid JSON or not a valid checkpoint.
    Malformed(String),
    /// The file carries a format/version this reader does not support.
    Unsupported(String),
    /// Filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::Unsupported(m) => write!(f, "unsupported checkpoint: {m}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Malformed(e.to_string())
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn bits(x: f64) -> Value {
    Value::str(format!("{:#018x}", x.to_bits()))
}

fn from_bits(v: &Value) -> Result<f64, CheckpointError> {
    let s = v
        .as_str()
        .ok_or_else(|| CheckpointError::Malformed("float bits are not a string".into()))?;
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| CheckpointError::Malformed(format!("'{s}' is not an 0x bit pattern")))?;
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|_| CheckpointError::Malformed(format!("'{s}' is not an 0x bit pattern")))
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, CheckpointError> {
    v.get(key)
        .ok_or_else(|| CheckpointError::Malformed(format!("missing field '{key}'")))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, CheckpointError> {
    field(v, key)?
        .as_usize()
        .ok_or_else(|| CheckpointError::Malformed(format!("field '{key}' is not an integer")))
}

fn stats_value(s: &GenStats) -> Value {
    Value::Obj(vec![
        ("best_so_far".into(), bits(s.best_so_far)),
        ("best".into(), bits(s.best)),
        ("avg".into(), bits(s.avg)),
    ])
}

fn stats_from(v: &Value) -> Result<GenStats, CheckpointError> {
    Ok(GenStats {
        best_so_far: from_bits(field(v, "best_so_far")?)?,
        best: from_bits(field(v, "best")?)?,
        avg: from_bits(field(v, "avg")?)?,
    })
}

fn history_value(history: &[GenStats]) -> Value {
    Value::Arr(history.iter().map(stats_value).collect())
}

fn history_from(v: &Value, key: &str) -> Result<Vec<GenStats>, CheckpointError> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| CheckpointError::Malformed(format!("field '{key}' is not an array")))?
        .iter()
        .map(stats_from)
        .collect()
}

fn scored(genome: &PinAssignment, fitness: f64) -> Value {
    Value::Obj(vec![
        ("genome".into(), encode_assignment(genome)),
        ("fitness".into(), bits(fitness)),
    ])
}

fn scored_from(v: &Value) -> Result<(PinAssignment, f64), CheckpointError> {
    Ok((
        decode_assignment(field(v, "genome")?)?,
        from_bits(field(v, "fitness")?)?,
    ))
}

fn ga_state_value(s: &GaSearchState<PinAssignment>) -> Value {
    Value::Obj(vec![
        ("generation".into(), Value::usize(s.generation)),
        (
            "master_rng".into(),
            Value::Arr(s.master_rng.iter().map(|&w| Value::u64(w)).collect()),
        ),
        (
            "population".into(),
            Value::Arr(s.population.iter().map(|(g, f)| scored(g, *f)).collect()),
        ),
        ("best".into(), scored(&s.best.0, s.best.1)),
        ("history".into(), history_value(&s.history)),
        ("evaluations".into(), Value::usize(s.evaluations)),
    ])
}

fn ga_state_from(v: &Value) -> Result<GaSearchState<PinAssignment>, CheckpointError> {
    let rng_words = field(v, "master_rng")?
        .as_arr()
        .ok_or_else(|| CheckpointError::Malformed("field 'master_rng' is not an array".into()))?;
    if rng_words.len() != 4 {
        return Err(CheckpointError::Malformed(
            "field 'master_rng' is not 4 words".into(),
        ));
    }
    let mut master_rng = [0u64; 4];
    for (slot, w) in master_rng.iter_mut().zip(rng_words) {
        *slot = w
            .as_u64()
            .ok_or_else(|| CheckpointError::Malformed("master_rng word is not a u64".into()))?;
    }
    let population = field(v, "population")?
        .as_arr()
        .ok_or_else(|| CheckpointError::Malformed("field 'population' is not an array".into()))?
        .iter()
        .map(scored_from)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(GaSearchState {
        generation: usize_field(v, "generation")?,
        master_rng,
        population,
        best: scored_from(field(v, "best")?)?,
        history: history_from(v, "history")?,
        evaluations: usize_field(v, "evaluations")?,
    })
}

/// `best` entries use `null` for "no witness yet" (`usize::MAX` does not
/// fit an exact JSON number).
fn progress_value(p: &AnyIoProgress) -> Value {
    Value::Obj(vec![
        ("pos".into(), Value::usize(p.pos)),
        (
            "best".into(),
            Value::Arr(
                p.best
                    .iter()
                    .map(|&b| {
                        if b == usize::MAX {
                            Value::Null
                        } else {
                            Value::usize(b)
                        }
                    })
                    .collect(),
            ),
        ),
        (
            "queries".into(),
            Value::Arr(p.queries.iter().map(|&q| Value::usize(q)).collect()),
        ),
        (
            "resolved".into(),
            Value::Arr(
                p.resolved
                    .iter()
                    .map(|&(uid, sat)| {
                        Value::Arr(vec![Value::usize(uid as usize), Value::Bool(sat)])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn progress_from(v: &Value) -> Result<AnyIoProgress, CheckpointError> {
    let best = field(v, "best")?
        .as_arr()
        .ok_or_else(|| CheckpointError::Malformed("field 'best' is not an array".into()))?
        .iter()
        .map(|b| match b {
            Value::Null => Ok(usize::MAX),
            b => b.as_usize().ok_or_else(|| {
                CheckpointError::Malformed("best entry is not null or an integer".into())
            }),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let queries = field(v, "queries")?
        .as_arr()
        .ok_or_else(|| CheckpointError::Malformed("field 'queries' is not an array".into()))?
        .iter()
        .map(|q| {
            q.as_usize()
                .ok_or_else(|| CheckpointError::Malformed("queries entry is not an integer".into()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let resolved = field(v, "resolved")?
        .as_arr()
        .ok_or_else(|| CheckpointError::Malformed("field 'resolved' is not an array".into()))?
        .iter()
        .map(|entry| {
            let pair = entry.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                CheckpointError::Malformed("resolved entry is not a [uid, bool] pair".into())
            })?;
            let uid = pair[0]
                .as_usize()
                .filter(|&u| u <= u32::MAX as usize)
                .ok_or_else(|| {
                    CheckpointError::Malformed("resolved uid is not a 32-bit integer".into())
                })?;
            let sat = pair[1].as_bool().ok_or_else(|| {
                CheckpointError::Malformed("resolved verdict is not a bool".into())
            })?;
            Ok((uid as u32, sat))
        })
        .collect::<Result<Vec<_>, CheckpointError>>()?;
    Ok(AnyIoProgress {
        pos: usize_field(v, "pos")?,
        best,
        queries,
        resolved,
    })
}

impl Checkpoint {
    /// Serializes to the versioned JSON document.
    pub fn to_value(&self) -> Value {
        let (phase_tag, ga, sweep) = match &self.phase {
            CheckpointPhase::Ga(state) => ("ga", ga_state_value(state), Value::Null),
            CheckpointPhase::Sweep { ga, progress } => (
                "sweep",
                Value::Obj(vec![
                    ("best".into(), encode_assignment(&ga.best)),
                    ("history".into(), history_value(&ga.history)),
                    ("evaluations".into(), Value::usize(ga.evaluations)),
                ]),
                progress_value(progress),
            ),
        };
        Value::Obj(vec![
            ("format".into(), Value::str(FORMAT)),
            ("version".into(), Value::usize(VERSION as usize)),
            ("workload".into(), encode_workload(&self.workload)),
            ("seed".into(), Value::u64(self.seed)),
            ("scheme".into(), Value::str(self.scheme.tag())),
            (
                "failed_evaluations".into(),
                Value::usize(self.failed_evaluations),
            ),
            ("phase".into(), Value::str(phase_tag)),
            ("ga".into(), ga),
            ("sweep".into(), sweep),
        ])
    }

    /// Parses a checkpoint document, rejecting unknown formats and
    /// versions.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on malformed or unsupported documents.
    pub fn from_value(v: &Value) -> Result<Checkpoint, CheckpointError> {
        let format = field(v, "format")?.as_str().unwrap_or("");
        if format != FORMAT {
            return Err(CheckpointError::Unsupported(format!(
                "format '{format}' (expected '{FORMAT}')"
            )));
        }
        let version = field(v, "version")?.as_u64().unwrap_or(0);
        if version != VERSION {
            return Err(CheckpointError::Unsupported(format!(
                "version {version} (this build reads {VERSION})"
            )));
        }
        let workload = decode_workload(field(v, "workload")?)?;
        let seed = field(v, "seed")?
            .as_u64()
            .ok_or_else(|| CheckpointError::Malformed("field 'seed' is not a u64".into()))?;
        let scheme_tag = field(v, "scheme")?
            .as_str()
            .ok_or_else(|| CheckpointError::Malformed("field 'scheme' is not a string".into()))?;
        let scheme = SchemeKind::from_tag(scheme_tag).ok_or_else(|| {
            CheckpointError::Unsupported(format!("obfuscation scheme '{scheme_tag}'"))
        })?;
        let failed_evaluations = usize_field(v, "failed_evaluations")?;
        let phase = match field(v, "phase")?.as_str() {
            Some("ga") => CheckpointPhase::Ga(ga_state_from(field(v, "ga")?)?),
            Some("sweep") => {
                let ga = field(v, "ga")?;
                let progress = progress_from(field(v, "sweep")?)?;
                // The sweep has one candidate per workload function; a
                // cursor of any other width cannot be resumed.
                let n = workload.functions.len();
                if progress.best.len() != n || progress.queries.len() != n {
                    return Err(CheckpointError::Malformed(format!(
                        "sweep progress covers {} / {} candidates, the workload has {n}",
                        progress.best.len(),
                        progress.queries.len()
                    )));
                }
                CheckpointPhase::Sweep {
                    ga: GaFinal {
                        best: decode_assignment(field(ga, "best")?)?,
                        history: history_from(ga, "history")?,
                        evaluations: usize_field(ga, "evaluations")?,
                    },
                    progress,
                }
            }
            _ => {
                return Err(CheckpointError::Malformed(
                    "field 'phase' is not 'ga' or 'sweep'".into(),
                ))
            }
        };
        Ok(Checkpoint {
            workload,
            seed,
            scheme,
            failed_evaluations,
            phase,
        })
    }

    /// Serializes to one JSON line.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// Parses [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on malformed or unsupported documents.
    pub fn from_json(text: &str) -> Result<Checkpoint, CheckpointError> {
        let v = Value::parse(text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        Checkpoint::from_value(&v)
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename),
    /// so a crash mid-write never corrupts the previous checkpoint.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads a checkpoint written by [`Checkpoint::write`].
    ///
    /// # Errors
    ///
    /// Filesystem, parse, or version errors.
    pub fn read(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_json(std::fs::read_to_string(path)?.trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> GaSearchState<PinAssignment> {
        let genome = PinAssignment {
            input_perms: vec![vec![1, 0, 2, 3], vec![0, 1, 2, 3]],
            output_perms: vec![vec![3, 2, 1, 0], vec![0, 2, 1, 3]],
        };
        GaSearchState {
            generation: 7,
            master_rng: [u64::MAX, 1, 0x0123_4567_89AB_CDEF, 42],
            population: vec![(genome.clone(), 92.5), (genome.clone(), f64::INFINITY)],
            best: (genome, 92.5),
            history: vec![GenStats {
                best_so_far: 92.5,
                best: 92.5,
                avg: f64::INFINITY,
            }],
            evaluations: 16,
        }
    }

    fn sample_workload() -> Workload {
        Workload {
            name: "ck".into(),
            functions: mvf_sboxes::optimal_sboxes()[..2].to_vec(),
            seed: Some(u64::MAX - 1),
        }
    }

    #[test]
    fn ga_checkpoint_round_trips_bit_exactly() {
        let cp = Checkpoint {
            workload: sample_workload(),
            seed: 0xDEAD_BEEF_DEAD_BEEF,
            scheme: SchemeKind::Camouflage,
            failed_evaluations: 3,
            phase: CheckpointPhase::Ga(sample_state()),
        };
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back.seed, cp.seed);
        assert_eq!(back.failed_evaluations, 3);
        assert_eq!(back.workload.seed, cp.workload.seed);
        let CheckpointPhase::Ga(state) = back.phase else {
            panic!("phase changed");
        };
        let want = sample_state();
        assert_eq!(state.generation, want.generation);
        assert_eq!(state.master_rng, want.master_rng);
        assert_eq!(state.evaluations, want.evaluations);
        assert_eq!(state.population.len(), want.population.len());
        for ((g, f), (wg, wf)) in state.population.iter().zip(&want.population) {
            assert_eq!(g, wg);
            assert_eq!(f.to_bits(), wf.to_bits(), "fitness bits must survive");
        }
        assert_eq!(
            state.history[0].avg.to_bits(),
            f64::INFINITY.to_bits(),
            "INFINITY survives the bits encoding"
        );
    }

    #[test]
    fn sweep_checkpoint_round_trips() {
        let cp = Checkpoint {
            workload: sample_workload(),
            seed: 9,
            scheme: SchemeKind::Locking,
            failed_evaluations: 0,
            phase: CheckpointPhase::Sweep {
                ga: GaFinal {
                    best: PinAssignment {
                        input_perms: vec![vec![0, 1]],
                        output_perms: vec![vec![1, 0]],
                    },
                    history: Vec::new(),
                    evaluations: 40,
                },
                progress: AnyIoProgress {
                    pos: 17,
                    best: vec![usize::MAX, 4],
                    queries: vec![9, 2],
                    resolved: vec![(0, false), (3, true), (11, false)],
                },
            },
        };
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        let CheckpointPhase::Sweep { ga, progress } = back.phase else {
            panic!("phase changed");
        };
        assert_eq!(ga.evaluations, 40);
        assert_eq!(progress.pos, 17);
        assert_eq!(progress.best, vec![usize::MAX, 4]);
        assert_eq!(progress.queries, vec![9, 2]);
        assert_eq!(progress.resolved, vec![(0, false), (3, true), (11, false)]);
    }

    #[test]
    fn unknown_formats_and_versions_are_rejected() {
        let cp = Checkpoint {
            workload: sample_workload(),
            seed: 1,
            scheme: SchemeKind::Camouflage,
            failed_evaluations: 0,
            phase: CheckpointPhase::Ga(sample_state()),
        };
        let good = cp.to_json();
        let wrong_version = good.replacen("\"version\":3", "\"version\":999", 1);
        assert!(matches!(
            Checkpoint::from_json(&wrong_version),
            Err(CheckpointError::Unsupported(_))
        ));
        let wrong_format = good.replacen(FORMAT, "other-format", 1);
        assert!(matches!(
            Checkpoint::from_json(&wrong_format),
            Err(CheckpointError::Unsupported(_))
        ));
        assert!(Checkpoint::from_json("{}").is_err());
        assert!(Checkpoint::from_json("not json").is_err());
    }

    #[test]
    fn write_and_read_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("mvf-serve-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.checkpoint.json");
        let cp = Checkpoint {
            workload: sample_workload(),
            seed: 5,
            scheme: SchemeKind::Locking,
            failed_evaluations: 0,
            phase: CheckpointPhase::Ga(sample_state()),
        };
        cp.write(&path).unwrap();
        let back = Checkpoint::read(&path).unwrap();
        assert_eq!(back.seed, 5);
        std::fs::remove_file(&path).ok();
    }
}
