//! `audit`: a closed loop of one client against an in-process
//! `AuditService`.
//!
//! The service locks (key-gate insertion) and sweeps the NPN orbit with
//! class sharing, on a small GA budget, writing a checkpoint at every
//! generation to a scratch directory. The client sends `submit` with
//! `wait:true` and the next request only after the reply. Jobs are
//! PRESENT x2 and x4 at two GA seeds pinned by the input set, each
//! submitted twice, so the repeats hit the session cache; the run seed
//! permutes the submission order. Each pass starts a fresh service, so
//! every pass sees the same cache misses and hits.
//!
//! The traced pass replays the job runner's own sequence with spans —
//! `ObjectiveRunner::start`/`step`, `Checkpoint::write`, `finish_with`,
//! `SessionStore::session_in`, `any_io_job_in`, `AnyIoJob::step` and
//! `encode_report_in` — and its report bytes must equal the service's.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mvf::{
    Flow, FlowBuilder, FlowConfig, PlausibilityVerdict, SchemeKind, Workload, WorkloadReport,
};
use mvf_attack::AnyIoOptions;
use mvf_cells::{CamoLibrary, Library};
use mvf_ga::{GaConfig, GeneticAlgorithm, ObjectiveRunner, SearchStrategy};
use mvf_obfuscate::{lock_library, ObfuscationSpace};
use mvf_serve::checkpoint::GaFinal;
use mvf_serve::json::Value;
use mvf_serve::wire::{decode_report_in, encode_report_in, encode_workload};
use mvf_serve::{AuditService, Checkpoint, CheckpointPhase, ServeConfig, SessionStore};

use crate::table1::TracedObjective;
use crate::trace::Tracer;
use crate::{fnv64, mix, shuffle, Pass};

/// GA population per job.
const POPULATION: usize = 8;
/// GA generations per job.
const GENERATIONS: usize = 2;

pub struct Audit {
    cfg: ServeConfig,
    lib: Library,
    lock: CamoLibrary,
    /// The four distinct jobs.
    jobs: Vec<Workload>,
    /// Submission order: indices into `jobs`, each twice.
    order: Vec<usize>,
    /// Wire encodings of `jobs`.
    payloads: Vec<String>,
}

/// The audited service's configuration.
fn config(checkpoint_dir: &Path) -> ServeConfig {
    ServeConfig {
        flow: FlowConfig {
            ga: GaConfig {
                population: POPULATION,
                generations: GENERATIONS,
                threads: 1,
                ..GaConfig::default()
            },
            ..FlowConfig::default()
        },
        checkpoint_steps: 1,
        scheme: SchemeKind::Locking,
        attack_npn: true,
        attack_class_share: true,
        checkpoint_dir: Some(checkpoint_dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Builds the jobs and request lines, then starts (and stops) the service
/// once so set-up includes `AuditService::start`.
pub fn setup(seed: u64, input_set: u64, checkpoint_dir: &Path) -> Audit {
    let cfg = config(checkpoint_dir);
    let lib = Library::standard();
    let lock = lock_library(&lib);
    let opt = mvf_sboxes::optimal_sboxes();
    let mut jobs = Vec::new();
    for s in 0..2u64 {
        for n in [2usize, 4] {
            jobs.push(
                Workload::new(format!("PRESENT x{n} #{s}"), opt[..n].to_vec())
                    .with_seed(mix(input_set, 0xA0D1 + s)),
            );
        }
    }
    let payloads = jobs
        .iter()
        .map(|w| encode_workload(w).to_string())
        .collect();
    let mut first: Vec<usize> = (0..jobs.len()).collect();
    shuffle(&mut first, mix(seed, 0x0DE7));
    let order = first.iter().chain(&first).copied().collect();
    let service = AuditService::start(cfg.clone());
    service.shutdown_and_join();
    Audit {
        cfg,
        lib,
        lock,
        jobs,
        order,
        payloads,
    }
}

impl Audit {
    fn space(&self) -> ObfuscationSpace<'_> {
        ObfuscationSpace::locking(&self.lib, &self.lock)
    }

    /// The submissions as sent: names and pinned seeds, in order.
    pub fn inputs(&self) -> Vec<String> {
        self.order
            .iter()
            .map(|&j| {
                let w = &self.jobs[j];
                format!("{} seed {:#x}", w.name, w.seed.unwrap_or(0))
            })
            .collect()
    }

    pub fn pass(&self, tracer: Option<&Tracer>) -> Pass {
        match tracer {
            None => self.service_pass(),
            Some(t) => self.traced_pass(t),
        }
    }

    /// One closed loop through the service.
    fn service_pass(&self) -> Pass {
        let service = AuditService::start(self.cfg.clone());
        let mut reports: Vec<Option<String>> = vec![None; self.jobs.len()];
        let mut pass = Pass::new(0.0);
        for (k, &j) in self.order.iter().enumerate() {
            let line = format!(
                "{{\"cmd\":\"submit\",\"id\":\"job-{k}\",\"wait\":true,\"workload\":{}}}",
                self.payloads[j]
            );
            let t = Instant::now();
            let response = service.handle(&line);
            let latency = t.elapsed().as_secs_f64();
            pass.wall_s += latency;
            pass.latencies.push(latency);
            pass.attempted += 1;
            pass.units += 1;
            let report = match check_response(&response) {
                Ok(r) => r,
                Err(e) => {
                    pass.failed += 1;
                    pass.error(format!("{}: {e}", self.jobs[j].name));
                    continue;
                }
            };
            match &reports[j] {
                Some(first) if *first != report => {
                    pass.failed += 1;
                    pass.error(format!(
                        "{}: repeated submission returned different report bytes",
                        self.jobs[j].name
                    ));
                }
                Some(_) => {}
                None => reports[j] = Some(report),
            }
        }
        service.shutdown_and_join();
        self.finish_pass(&mut pass, &reports);
        pass
    }

    /// Area, content checks and digest over the distinct reports.
    fn finish_pass(&self, pass: &mut Pass, reports: &[Option<String>]) {
        for (w, r) in self.jobs.iter().zip(reports) {
            let Some(text) = r else { continue };
            pass.digest.push_str(&format!(
                "{}:{:016x}:{};",
                w.name,
                fnv64(text.as_bytes()),
                text.len()
            ));
            let decoded = Value::parse(text)
                .map_err(|e| e.to_string())
                .and_then(|v| decode_report_in(&self.space(), &v).map_err(|e| e.to_string()));
            let problem = match decoded {
                Err(e) => Some(format!("undecodable report: {e}")),
                Ok(rep) => match (&rep.ok, &rep.plausibility) {
                    (Some(res), Some(vs)) => {
                        pass.area_ge += res.mapped_area_ge;
                        if res.failed_evaluations != 0 {
                            Some(format!("{} failed evaluations", res.failed_evaluations))
                        } else if vs.len() != w.functions.len()
                            || vs.iter().any(|v| v.any_io != Some(true))
                        {
                            Some("a viable function is not plausible".into())
                        } else {
                            None
                        }
                    }
                    _ => Some(format!("job failed: {}", rep.err.unwrap_or_default())),
                },
            };
            if let Some(p) = problem {
                pass.failed += 1;
                pass.error(format!("{}: {p}", w.name));
            }
        }
    }

    /// The job runner's sequence, replayed with spans.
    fn traced_pass(&self, tracer: &Tracer) -> Pass {
        let mut store = SessionStore::new(self.cfg.session_cache_bytes);
        let mut reports: Vec<Option<String>> = vec![None; self.jobs.len()];
        let mut pass = Pass::new(0.0);
        for (k, &j) in self.order.iter().enumerate() {
            let t = Instant::now();
            let report = self.traced_job(tracer, &mut store, &self.jobs[j], &format!("job-{k}"));
            let latency = t.elapsed().as_secs_f64();
            pass.wall_s += latency;
            pass.latencies.push(latency);
            pass.attempted += 1;
            pass.units += 1;
            match &reports[j] {
                Some(first) if *first != report => {
                    pass.failed += 1;
                    pass.error(format!("{}: traced repeat differs", self.jobs[j].name));
                }
                Some(_) => {}
                None => reports[j] = Some(report),
            }
        }
        tracer.add("serve.cache_hits", store.hits() as f64);
        tracer.add("serve.cache_misses", store.misses() as f64);
        tracer.add("serve.cache_evictions", store.evictions() as f64);
        self.finish_pass(&mut pass, &reports);
        pass
    }

    fn checkpoint(&self, tracer: &Tracer, parent: u64, cp: &Checkpoint, id: &str) {
        let path = self
            .cfg
            .checkpoint_dir
            .as_ref()
            .expect("the audit config sets a checkpoint dir")
            .join(format!("{id}.checkpoint.json"));
        let written = {
            let _s = tracer.span("serve.checkpoint", Some(parent));
            cp.write(&path)
        };
        // A failed write is logged and the job goes on, as in the service.
        match written.map(|()| std::fs::metadata(&path)) {
            Ok(Ok(meta)) => tracer.add("serve.checkpoint_bytes", meta.len() as f64),
            Ok(Err(e)) => eprintln!("checkpoint {} written but unreadable: {e}", path.display()),
            Err(e) => eprintln!("checkpoint write failed for '{id}': {e}"),
        }
    }

    /// One job as `mvf_serve::job` drives it; returns the report bytes.
    fn traced_job(
        &self,
        tracer: &Tracer,
        store: &mut SessionStore,
        workload: &Workload,
        id: &str,
    ) -> String {
        let root = tracer.span("serve.job", None);
        let root_id = root.id();
        let seed = workload.seed.expect("audit jobs pin their seed");
        let scheme = self.cfg.scheme;
        let ga_cfg = GaConfig {
            seed,
            ..self.cfg.flow.ga.clone()
        };
        let flow: Flow = FlowBuilder::new()
            .config(FlowConfig {
                ga: ga_cfg.clone(),
                ..self.cfg.flow.clone()
            })
            .scheme(scheme)
            .lock_options(self.cfg.lock)
            .build();
        let cfg = flow.config();
        let objective = TracedObjective::new(
            &workload.functions,
            &cfg.script,
            flow.library(),
            &cfg.map,
            tracer,
        );
        let mut runner = {
            let s = tracer.span("ga.start", Some(root_id));
            objective.set_parent(s.id());
            ObjectiveRunner::start(GeneticAlgorithm::new(ga_cfg), &objective)
        };
        let mut since = 0usize;
        loop {
            let stepped = {
                let s = tracer.span("ga.step", Some(root_id));
                objective.set_parent(s.id());
                runner.step()
            };
            if !stepped {
                break;
            }
            since += 1;
            if since >= self.cfg.checkpoint_steps.max(1) && !runner.is_done() {
                since = 0;
                let cp = Checkpoint {
                    workload: workload.clone(),
                    seed,
                    scheme,
                    failed_evaluations: objective.failed_evaluations(),
                    phase: CheckpointPhase::Ga(runner.state().clone()),
                };
                self.checkpoint(tracer, root_id, &cp, id);
            }
        }
        objective.flush_counters();
        let state = runner.state();
        let ga_final = GaFinal {
            best: state.best.0.clone(),
            history: state.history.clone(),
            evaluations: state.evaluations,
        };
        let failed = objective.failed_evaluations();
        let outcome = {
            let _s = tracer.span("core.finish", Some(root_id));
            flow.finish_with(
                &workload.functions,
                ga_final.best.clone(),
                ga_final.history.clone(),
                ga_final.evaluations,
                failed,
            )
        };
        let space = flow.obfuscation_space();
        let plausibility = match &outcome {
            Err(_) => None,
            Ok(result) => {
                let opts = AnyIoOptions {
                    shards: 1,
                    screen: self.cfg.attack_screen,
                    npn: self.cfg.attack_npn,
                    class_share: self.cfg.attack_class_share,
                    ..AnyIoOptions::default()
                };
                let nl = &result.mapped.netlist;
                let session = {
                    let _s = tracer.span("attack.encode", Some(root_id));
                    store.session_in(&space, nl)
                };
                let mut job = {
                    let _s = tracer.span("attack.plan", Some(root_id));
                    session.any_io_job_in(&space, nl, &result.merged.functions, &opts)
                };
                tracer.add("sat.db_bytes", session.db_bytes() as f64);
                while !job.is_done() {
                    {
                        let _s = tracer.span("attack.step", Some(root_id));
                        job.step(self.cfg.sweep_chunk.max(1));
                    }
                    if !job.is_done() {
                        let cp = Checkpoint {
                            workload: workload.clone(),
                            seed,
                            scheme,
                            failed_evaluations: failed,
                            phase: CheckpointPhase::Sweep {
                                ga: ga_final.clone(),
                                progress: job.progress(),
                            },
                        };
                        self.checkpoint(tracer, root_id, &cp, id);
                    }
                }
                let sat = job.sat_stats();
                tracer.add("sat.vivified", sat.n_vivified as f64);
                tracer.add("sat.eliminated", sat.n_eliminated as f64);
                tracer.add("sat.reductions", sat.n_reductions as f64);
                let verdicts = job.verdicts();
                for v in &verdicts {
                    tracer.add("attack.orbit", v.orbit as f64);
                    tracer.add("attack.unique", v.unique as f64);
                    tracer.add("attack.screened", v.screened as f64);
                    tracer.add("attack.queries", v.queries as f64);
                }
                Some(PlausibilityVerdict::from_any_io(verdicts))
            }
        };
        let report = WorkloadReport {
            name: workload.name.clone(),
            seed,
            strategy: flow.strategy().name(),
            outcome,
            plausibility,
        };
        let _s = tracer.span("serve.report_encode", Some(root_id));
        encode_report_in(&space, &report).to_string()
    }
}

/// The report text of a `submit … wait:true` response that is `ok` and
/// `done`.
fn check_response(response: &str) -> Result<String, String> {
    let v = Value::parse(response).map_err(|e| format!("unparsable response: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("response not ok: {response}"));
    }
    if v.get("status").and_then(Value::as_str) != Some("done") {
        return Err(format!("job not done: {response}"));
    }
    v.get("report")
        .map(Value::to_string)
        .ok_or_else(|| "done response carries no report".into())
}

/// The scratch directory for checkpoint files: inside the build directory
/// of the checkout, one per process.
pub fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    base.join(format!("perfbench-audit-{}", std::process::id()))
}
