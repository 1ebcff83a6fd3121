//! **mvf-serve** — a persistent obfuscation-audit service over the MVF
//! flow.
//!
//! The batch entry point ([`mvf::Flow::run_many`]) treats every workload
//! as a one-shot: encode, search, sweep, discard. A long-lived audit
//! service wants three things a one-shot cannot give:
//!
//! * **Session caching** ([`store::SessionStore`]): circuits resubmitted
//!   with new candidate batches reuse the encoded SAT instance (each job
//!   sweeps a clone of it) and cached screen batches, keyed by content
//!   fingerprint with a byte-budgeted LRU. Warm answers are bit-identical
//!   to cold ones.
//! * **Checkpoint/resume** ([`checkpoint`], [`job`]): long jobs
//!   snapshot their complete state at every safe boundary; a killed job
//!   resumes from its last checkpoint and finishes **bit-identically**
//!   to a run that was never interrupted.
//! * **A wire format** ([`json`], [`wire`]): a hand-rolled, strict,
//!   canonical JSON codec for workloads, netlists, reports and verdicts
//!   — no external dependencies, round-trip property-tested.
//!
//! [`server::AuditService`] ties them together behind a line-delimited
//! request/response protocol served over stdio or TCP by the
//! `mvf-serve` binary.
//!
//! # Knobs (environment, read by [`ServeConfig::from_env`])
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MVF_SERVE_ADDR` | TCP listen address for the binary; unset = stdio | unset |
//! | `MVF_CHECKPOINT_STEPS` | GA generations between checkpoints | 1 |
//! | `MVF_SESSION_CACHE_MB` | session-cache byte budget, in MiB | 64 |
//! | `MVF_GA_POP` / `MVF_GA_GENS` | GA budget per job ([`mvf::FlowConfig::apply_ga_budget_env`], as in `mvf-bench`) | 8 / 5 |
//! | `MVF_ATTACK_NPN` | `1`/`true`: sweep the full NPN orbit (polarity flips included) | off |
//! | `MVF_ATTACK_CLASS_SHARE` | `1`/`true`: share screen/SAT verdicts across same-class candidates | off |
//! | `MVF_SCHEME` | obfuscation family for fresh jobs: `camo` or `locking` | `camo` |
//! | `MVF_LOCK_XOR` / `MVF_LOCK_MUX` | key-gate counts of a locking flow | 4 / 2 |
//! | `MVF_LOCK_SEED` | key-gate placement seed of a locking flow | fixed |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod job;
pub mod json;
pub mod server;
pub mod store;
pub mod wire;

pub use checkpoint::{Checkpoint, CheckpointPhase};
pub use job::{audit, resume_audit, run_audit, AuditOutcome, Control};
pub use server::{AuditService, MAX_LINE_BYTES};
pub use store::SessionStore;

use std::path::PathBuf;

use mvf::{FlowConfig, LockOptions, SchemeKind};

/// Service configuration: the flow every job runs, plus the service's
/// own pacing and budgets.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The flow configuration (script, GA budget, mapper options,
    /// validation) each audited workload runs through.
    pub flow: FlowConfig,
    /// GA generations between checkpoint boundaries (min 1).
    pub checkpoint_steps: usize,
    /// Sweep work items between checkpoint boundaries (min 1).
    pub sweep_chunk: usize,
    /// Byte budget of the worker's [`SessionStore`].
    pub session_cache_bytes: usize,
    /// The red-team sweep's SAT-free screen (on by default, exactly as
    /// [`mvf::FlowBuilder::attack_screen`]); verdicts are bit-identical
    /// either way, only query counts change.
    pub attack_screen: bool,
    /// Extends the sweep's orbit to the complete NPN group (polarity
    /// flips on every pin), as [`mvf::FlowBuilder::attack_npn`]. Off by
    /// default: the orbit grows by `2^(n_in + n_out)`.
    pub attack_npn: bool,
    /// Shares screen passes and SAT verdicts across candidates in the
    /// same interpretation class, as
    /// [`mvf::FlowBuilder::attack_class_share`]. Verdicts and witnesses
    /// are bit-identical either way; only query counts drop.
    pub attack_class_share: bool,
    /// The obfuscation family fresh jobs run
    /// ([`mvf::FlowBuilder::scheme`]). Resumed jobs always keep the
    /// scheme recorded in their checkpoint, so flipping this knob never
    /// changes an in-flight audit.
    pub scheme: SchemeKind,
    /// Key-gate insertion options of a locking flow
    /// ([`mvf::FlowBuilder::lock_options`]); ignored under camouflage.
    pub lock: LockOptions,
    /// When set, every checkpoint is also written (atomically) to
    /// `<dir>/<job-id>.checkpoint.json`.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    /// Service defaults: a demo-sized GA budget (population 8, five
    /// generations — the same default as `mvf-bench`), a checkpoint at
    /// every generation, 64 MiB of session cache, no checkpoint files.
    fn default() -> Self {
        let mut flow = FlowConfig::default();
        flow.ga.population = 8;
        flow.ga.generations = 5;
        ServeConfig {
            flow,
            checkpoint_steps: 1,
            sweep_chunk: 64,
            session_cache_bytes: 64 << 20,
            attack_screen: true,
            attack_npn: false,
            attack_class_share: false,
            scheme: SchemeKind::Camouflage,
            lock: LockOptions::default(),
            checkpoint_dir: None,
        }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_bool(name: &str, default: bool) -> bool {
    std::env::var(name)
        .ok()
        .map_or(default, |v| matches!(v.as_str(), "1" | "true" | "on"))
}

impl ServeConfig {
    /// The default configuration with the environment knobs applied
    /// (see the crate docs table).
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        cfg.flow.apply_ga_budget_env();
        cfg.checkpoint_steps = env_usize("MVF_CHECKPOINT_STEPS", cfg.checkpoint_steps).max(1);
        cfg.session_cache_bytes = env_usize("MVF_SESSION_CACHE_MB", 64) << 20;
        cfg.attack_npn = env_bool("MVF_ATTACK_NPN", cfg.attack_npn);
        cfg.attack_class_share = env_bool("MVF_ATTACK_CLASS_SHARE", cfg.attack_class_share);
        if let Ok(tag) = std::env::var("MVF_SCHEME") {
            if let Some(kind) = SchemeKind::from_tag(&tag) {
                cfg.scheme = kind;
            }
        }
        cfg.lock.n_xor = env_usize("MVF_LOCK_XOR", cfg.lock.n_xor);
        cfg.lock.n_mux = env_usize("MVF_LOCK_MUX", cfg.lock.n_mux);
        if let Some(seed) = std::env::var("MVF_LOCK_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            cfg.lock.seed = seed;
        }
        cfg
    }
}
