//! The audit service front end: a line-delimited JSON protocol over
//! stdio or TCP.
//!
//! Every request is one JSON object on one line with a `cmd` field;
//! every response is one JSON object on one line with an `ok` field:
//!
//! | `cmd` | fields | response |
//! |---|---|---|
//! | `submit` | `id`, `workload` *or* `checkpoint`, optional `wait` | `status` (and `report` with `wait`); a workload the service cannot run — a function without inputs, or an interpretation orbit too large for the adversary tier — is refused up front, as is a checkpoint whose genomes are not pin assignments of the workload or whose sweep cursor does not cover exactly the workload's functions |
//! | `status` | `id` | `status`, `error` when failed; done jobs add the sweep solver's counters (`n_vivified`, `n_eliminated`, `n_reductions`; the first two are always 0, since the solver has no inprocessing) |
//! | `result` | `id` | `report` (once done) |
//! | `checkpoint` | `id` | `checkpoint` (latest boundary snapshot) |
//! | `cancel` | `id` | `status` — the job pauses at its next boundary |
//! | `shutdown` | — | `ok`; queued jobs are left unstarted |
//!
//! A request line that is not UTF-8, or longer than [`MAX_LINE_BYTES`],
//! gets exactly one `ok:false` response; the rest of the line is
//! discarded and serving continues with the next one.
//!
//! A job's `status` is `queued`, `running`, `done`, `cancelled` or
//! `failed`. A job fails when it panics, or when its checkpoint does not
//! fit the job rebuilt on resume (a GA population of another size, a
//! sweep cursor past the rebuilt plan); `status` and a waiting `submit`
//! then carry the message in `error`, and the worker goes on with the
//! next job.
//!
//! The service keeps the last [`MAX_FINISHED_JOBS`] finished jobs
//! (`done`, `cancelled` or `failed`) with their reports and checkpoints.
//! Past that the oldest finished job is dropped: its id then answers
//! `no job '<id>'` and may be submitted again. Queued and running jobs
//! are never dropped.
//!
//! Jobs run on one worker thread that owns the [`SessionStore`], so
//! repeated submissions of the same circuit warm-start automatically.
//! A cancelled or shut-down job keeps its latest [`Checkpoint`]; fetch
//! it with `checkpoint` and resubmit it (the `checkpoint` field of
//! `submit`) to resume — the finished report is bit-identical to an
//! uninterrupted run.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use mvf::cells::{CamoLibrary, Library};
use mvf::{lock_library, ObfuscationSpace, SchemeKind, Workload, WorkloadReport};
use mvf_attack::{checked_orbit, SimplifyStats};

use crate::checkpoint::Checkpoint;
use crate::job::{resume_audit, run_audit, AuditOutcome, Control};
use crate::json::Value;
use crate::store::SessionStore;
use crate::wire::{decode_workload, encode_report_in};
use crate::ServeConfig;

/// The longest request line the service reads, in bytes before the
/// `\n`. Far above any checkpoint the service emits (its `resolved`
/// list holds one `[uid, bool]` pair per SAT-resolved orbit function),
/// and a bound on what one client line can make the service buffer.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Finished jobs the service retains; past it the oldest finished job
/// is dropped (see the module docs).
pub const MAX_FINISHED_JOBS: usize = 256;

/// The request-line reader both front ends share: reads bytes, not
/// `String`s, so a line that is over-long or not UTF-8 costs that line
/// an error response instead of ending the stream.
struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: BufRead> LineReader<R> {
    fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
        }
    }

    /// The next line without its `\n` or `\r\n` terminator: `None` at
    /// the end of the stream, `Some(Err(message))` for a line longer
    /// than [`MAX_LINE_BYTES`] or not UTF-8. A bad line is still read to
    /// its end, so the next call starts at the following line.
    fn next_line(&mut self) -> std::io::Result<Option<Result<&str, String>>> {
        self.buf.clear();
        let mut too_long = false;
        let mut read_any = false;
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                if !read_any {
                    return Ok(None);
                }
                break;
            }
            read_any = true;
            let newline = chunk.iter().position(|&b| b == b'\n');
            let data = &chunk[..newline.unwrap_or(chunk.len())];
            if !too_long {
                if self.buf.len() + data.len() > MAX_LINE_BYTES {
                    too_long = true;
                    // Release the partial line rather than keep its
                    // capacity for the rest of the connection.
                    self.buf = Vec::new();
                } else {
                    self.buf.extend_from_slice(data);
                }
            }
            let used = newline.map_or(chunk.len(), |i| i + 1);
            self.inner.consume(used);
            if newline.is_some() {
                break;
            }
        }
        if too_long {
            return Ok(Some(Err(format!(
                "request line longer than {MAX_LINE_BYTES} bytes"
            ))));
        }
        if self.buf.last() == Some(&b'\r') {
            self.buf.pop();
        }
        Ok(Some(
            std::str::from_utf8(&self.buf).map_err(|_| "request line is not valid UTF-8".into()),
        ))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Cancelled => "cancelled",
            Phase::Failed => "failed",
        }
    }
}

struct JobEntry {
    workload: Workload,
    seed: u64,
    /// The obfuscation family this job runs under (the checkpoint's on
    /// resume, the service's otherwise); picks the choice library its
    /// report's netlist is encoded against.
    scheme: SchemeKind,
    phase: Phase,
    cancel: bool,
    /// Latest boundary snapshot (the submitted one before the job
    /// starts; then refreshed at every observer call).
    checkpoint: Option<Checkpoint>,
    /// Whether this submission resumes from `checkpoint`.
    resume: bool,
    report: Option<Box<WorkloadReport>>,
    /// The sweep solver's counters, once the job is done.
    sat: Option<SimplifyStats>,
    /// Why the job failed, once it has.
    error: Option<String>,
}

struct State {
    jobs: HashMap<String, JobEntry>,
    queue: VecDeque<String>,
    /// Ids of finished jobs, oldest first.
    finished: VecDeque<String>,
    submitted: u64,
    shutdown: bool,
}

impl State {
    /// Moves job `id` into the finished `phase` — the one path into
    /// `done`, `cancelled` and `failed` — and drops the oldest finished
    /// jobs past [`MAX_FINISHED_JOBS`].
    fn finish(&mut self, id: &str, phase: Phase) {
        if let Some(entry) = self.jobs.get_mut(id) {
            entry.phase = phase;
        }
        self.finished.push_back(id.to_string());
        while self.finished.len() > MAX_FINISHED_JOBS {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

struct Inner {
    cfg: ServeConfig,
    lib: Library,
    camo: CamoLibrary,
    lock: CamoLibrary,
    state: Mutex<State>,
    cv: Condvar,
}

/// The audit service: one worker thread draining a job queue, plus
/// [`handle`](AuditService::handle) for the wire protocol. Construct
/// with [`AuditService::start`]; drive with
/// [`serve_stdio`](AuditService::serve_stdio) /
/// [`serve_tcp`](AuditService::serve_tcp) or call `handle` directly.
pub struct AuditService {
    inner: Arc<Inner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl AuditService {
    /// Starts the worker thread. The service audits with `cfg`'s flow
    /// over the standard cell libraries.
    pub fn start(cfg: ServeConfig) -> AuditService {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let lock = lock_library(&lib);
        let inner = Arc::new(Inner {
            cfg,
            lib,
            camo,
            lock,
            state: Mutex::new(State {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                finished: VecDeque::new(),
                submitted: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::spawn(move || worker_loop(&worker_inner));
        AuditService {
            inner,
            worker: Some(worker),
        }
    }

    /// Handles one request line and returns the response line (without a
    /// trailing newline). Never panics on malformed input — protocol
    /// errors come back as `{"ok":false,"error":…}`.
    pub fn handle(&self, line: &str) -> String {
        self.inner.handle(line)
    }

    /// Whether `shutdown` has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.inner.lock().shutdown
    }

    /// Requests shutdown (as the `shutdown` command would) and joins the
    /// worker. A running job is paused at its next boundary and keeps
    /// its checkpoint.
    pub fn shutdown_and_join(mut self) {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
            self.inner.cv.notify_all();
        }
        if let Some(worker) = self.worker.take() {
            worker.join().expect("audit worker panicked");
        }
    }

    /// Serves the line protocol over a reader/writer pair until EOF or
    /// `shutdown`. This is the stdio front end of the `mvf-serve`
    /// binary, factored over generic streams so tests can drive it. A
    /// line that is not UTF-8 or longer than [`MAX_LINE_BYTES`] gets
    /// one error response, and serving continues.
    ///
    /// # Errors
    ///
    /// I/O errors from the streams.
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        reader: R,
        mut writer: W,
    ) -> std::io::Result<()> {
        let mut lines = LineReader::new(reader);
        while let Some(line) = lines.next_line()? {
            let response = match line {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => self.handle(line),
                Err(message) => err_response(&message),
            };
            writer.write_all(response.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            if self.is_shutdown() {
                break;
            }
        }
        Ok(())
    }

    /// Serves the line protocol on stdin/stdout until EOF or `shutdown`.
    ///
    /// # Errors
    ///
    /// I/O errors from the standard streams.
    pub fn serve_stdio(&self) -> std::io::Result<()> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        self.serve_lines(stdin.lock(), stdout.lock())
    }

    /// Binds `addr` and serves the line protocol to every connection,
    /// one thread per client, until `shutdown`.
    ///
    /// # Errors
    ///
    /// Bind/accept errors.
    pub fn serve_tcp(&self, addr: &str) -> std::io::Result<()> {
        let listener = std::net::TcpListener::bind(addr)?;
        // Poll-accept so a `shutdown` submitted by any client stops the
        // listener promptly.
        listener.set_nonblocking(true)?;
        loop {
            if self.is_shutdown() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let inner = Arc::clone(&self.inner);
                    std::thread::spawn(move || {
                        let Ok(read_half) = stream.try_clone() else {
                            return;
                        };
                        let mut lines = LineReader::new(std::io::BufReader::new(read_half));
                        let mut writer = stream;
                        while let Ok(Some(line)) = lines.next_line() {
                            let response = match line {
                                Ok(line) if line.trim().is_empty() => continue,
                                Ok(line) => inner.handle(line),
                                Err(message) => err_response(&message),
                            };
                            if writer.write_all(response.as_bytes()).is_err()
                                || writer.write_all(b"\n").is_err()
                            {
                                break;
                            }
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn ok_response(extra: Vec<(String, Value)>) -> String {
    let mut fields = vec![("ok".to_string(), Value::Bool(true))];
    fields.extend(extra);
    Value::Obj(fields).to_string()
}

fn err_response(msg: &str) -> String {
    Value::Obj(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::str(msg)),
    ])
    .to_string()
}

impl Inner {
    /// The service state. A panic while the lock was held cannot leave
    /// it inconsistent — every update is a single assignment or
    /// collection call — so a poisoned lock is taken over as is.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks on the condition variable, recovering from poisoning as
    /// [`Inner::lock`] does.
    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Encodes a report under the job's scheme: the netlist's
    /// choice-bearing cells resolve against that family's library.
    fn report_value(&self, scheme: SchemeKind, report: &WorkloadReport) -> Value {
        let choices = match scheme {
            SchemeKind::Camouflage => &self.camo,
            SchemeKind::Locking => &self.lock,
        };
        encode_report_in(
            &ObfuscationSpace::with_kind(scheme, &self.lib, choices),
            report,
        )
    }

    fn handle(&self, line: &str) -> String {
        let request = match Value::parse(line) {
            Ok(v) => v,
            Err(e) => return err_response(&format!("bad request: {e}")),
        };
        match request.get("cmd").and_then(Value::as_str) {
            Some("submit") => self.submit(&request),
            Some("status") => self.status(&request),
            Some("result") => self.result(&request),
            Some("checkpoint") => self.checkpoint(&request),
            Some("cancel") => self.cancel(&request),
            Some("shutdown") => {
                let mut st = self.lock();
                st.shutdown = true;
                self.cv.notify_all();
                ok_response(Vec::new())
            }
            Some(cmd) => err_response(&format!("unknown cmd '{cmd}'")),
            None => err_response("missing cmd"),
        }
    }

    fn job_id(request: &Value) -> Result<String, String> {
        request
            .get("id")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| "missing id".to_string())
    }

    fn submit(&self, request: &Value) -> String {
        let id = match Self::job_id(request) {
            Ok(id) => id,
            Err(e) => return err_response(&e),
        };
        // A submission is either a fresh workload or a checkpoint to
        // resume (which embeds its workload and seed).
        let (workload, seed, scheme, checkpoint, resume) = match request.get("checkpoint") {
            Some(cp) => match Checkpoint::from_value(cp) {
                Ok(cp) => (cp.workload.clone(), cp.seed, cp.scheme, Some(cp), true),
                Err(e) => return err_response(&format!("bad checkpoint: {e}")),
            },
            None => match request.get("workload") {
                Some(w) => match decode_workload(w) {
                    Ok(w) => (w, 0, self.cfg.scheme, None, false),
                    Err(e) => return err_response(&format!("bad workload: {e}")),
                },
                None => return err_response("submit needs a workload or a checkpoint"),
            },
        };
        if let Err(e) = check_runnable(&workload, self.cfg.attack_npn) {
            return err_response(&format!("unsupported workload: {e}"));
        }
        let wait = request
            .get("wait")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        {
            let mut st = self.lock();
            if st.shutdown {
                return err_response("service is shutting down");
            }
            if st.jobs.contains_key(&id) {
                return err_response(&format!("job '{id}' already exists"));
            }
            // Fresh submissions derive their seed exactly as a
            // `run_many` batch does, with the submission counter as the
            // batch index.
            let seed = if resume {
                seed
            } else {
                let index = st.submitted;
                workload.resolve_seed(self.cfg.flow.ga.seed, index)
            };
            st.submitted += 1;
            st.jobs.insert(
                id.clone(),
                JobEntry {
                    workload,
                    seed,
                    scheme,
                    phase: Phase::Queued,
                    cancel: false,
                    checkpoint,
                    resume,
                    report: None,
                    sat: None,
                    error: None,
                },
            );
            st.queue.push_back(id.clone());
            self.cv.notify_all();
        }
        if wait {
            return self.wait_and_report(&id);
        }
        ok_response(vec![
            ("id".into(), Value::str(&id)),
            ("status".into(), Value::str(Phase::Queued.name())),
        ])
    }

    fn wait_and_report(&self, id: &str) -> String {
        let mut st = self.lock();
        loop {
            // A burst of finished jobs can drop this one from the
            // retained set before the waiter wakes.
            let Some(entry) = st.jobs.get(id) else {
                return err_response(&format!("no job '{id}'"));
            };
            match entry.phase {
                Phase::Done => {
                    let report = entry.report.as_ref().expect("done job has a report");
                    return ok_response(vec![
                        ("id".into(), Value::str(id)),
                        ("status".into(), Value::str(Phase::Done.name())),
                        ("report".into(), self.report_value(entry.scheme, report)),
                    ]);
                }
                Phase::Cancelled => {
                    return ok_response(vec![
                        ("id".into(), Value::str(id)),
                        ("status".into(), Value::str(Phase::Cancelled.name())),
                    ]);
                }
                Phase::Failed => {
                    return ok_response(vec![
                        ("id".into(), Value::str(id)),
                        ("status".into(), Value::str(Phase::Failed.name())),
                        (
                            "error".into(),
                            Value::str(entry.error.as_deref().unwrap_or("")),
                        ),
                    ]);
                }
                Phase::Queued | Phase::Running => {
                    st = self.wait(st);
                }
            }
        }
    }

    fn status(&self, request: &Value) -> String {
        let id = match Self::job_id(request) {
            Ok(id) => id,
            Err(e) => return err_response(&e),
        };
        let st = self.lock();
        match st.jobs.get(&id) {
            Some(entry) => {
                let mut fields = vec![
                    ("id".into(), Value::str(&id)),
                    ("status".into(), Value::str(entry.phase.name())),
                ];
                if let Some(error) = &entry.error {
                    fields.push(("error".into(), Value::str(error)));
                }
                // A finished job also reports its sweep solver's
                // counters.
                if let Some(sat) = &entry.sat {
                    fields.push(("n_vivified".into(), Value::u64(sat.n_vivified)));
                    fields.push(("n_eliminated".into(), Value::u64(sat.n_eliminated)));
                    fields.push(("n_reductions".into(), Value::u64(sat.n_reductions)));
                }
                ok_response(fields)
            }
            None => err_response(&format!("no job '{id}'")),
        }
    }

    fn result(&self, request: &Value) -> String {
        let id = match Self::job_id(request) {
            Ok(id) => id,
            Err(e) => return err_response(&e),
        };
        let st = self.lock();
        match st.jobs.get(&id) {
            Some(entry) => match &entry.report {
                Some(report) => ok_response(vec![
                    ("id".into(), Value::str(&id)),
                    ("report".into(), self.report_value(entry.scheme, report)),
                ]),
                None => err_response(&format!(
                    "job '{id}' is {}, no report yet",
                    entry.phase.name()
                )),
            },
            None => err_response(&format!("no job '{id}'")),
        }
    }

    fn checkpoint(&self, request: &Value) -> String {
        let id = match Self::job_id(request) {
            Ok(id) => id,
            Err(e) => return err_response(&e),
        };
        let st = self.lock();
        match st.jobs.get(&id) {
            Some(entry) => match &entry.checkpoint {
                Some(cp) => ok_response(vec![
                    ("id".into(), Value::str(&id)),
                    ("checkpoint".into(), cp.to_value()),
                ]),
                None => err_response(&format!("job '{id}' has no checkpoint yet")),
            },
            None => err_response(&format!("no job '{id}'")),
        }
    }

    fn cancel(&self, request: &Value) -> String {
        let id = match Self::job_id(request) {
            Ok(id) => id,
            Err(e) => return err_response(&e),
        };
        let mut st = self.lock();
        let phase = match st.jobs.get_mut(&id) {
            None => return err_response(&format!("no job '{id}'")),
            // A running job pauses at its next checkpoint boundary.
            Some(entry) if entry.phase == Phase::Running => {
                entry.cancel = true;
                Phase::Running
            }
            Some(entry) if entry.phase != Phase::Queued => entry.phase,
            // A queued job never starts.
            Some(_) => {
                st.queue.retain(|q| q != &id);
                st.finish(&id, Phase::Cancelled);
                self.cv.notify_all();
                Phase::Cancelled
            }
        };
        ok_response(vec![
            ("id".into(), Value::str(&id)),
            ("status".into(), Value::str(phase.name())),
        ])
    }
}

/// Refuses, before it is queued, a workload the worker could not run to
/// the end: a function without inputs has no circuit to map, and one
/// whose interpretation orbit overflows [`checked_orbit`] at the
/// service's adversary tier cannot be swept.
fn check_runnable(workload: &Workload, npn: bool) -> Result<(), String> {
    for (j, f) in workload.functions.iter().enumerate() {
        let (n_in, n_out) = (f.n_inputs(), f.n_outputs());
        if n_in == 0 {
            return Err(format!("function {j} has no inputs"));
        }
        if checked_orbit(n_in, n_out, npn).is_none() {
            let tier = if npn { "NPN" } else { "permutation" };
            return Err(format!(
                "function {j}: the {tier} interpretation orbit of {n_in} inputs and \
                 {n_out} outputs exceeds the supported size"
            ));
        }
    }
    Ok(())
}

fn worker_loop(inner: &Inner) {
    let mut store = SessionStore::new(inner.cfg.session_cache_bytes);
    loop {
        // Claim the next runnable job.
        let (id, workload, seed, resume_from) = {
            let mut st = inner.lock();
            let id = loop {
                if let Some(id) = st.queue.pop_front() {
                    break id;
                }
                if st.shutdown {
                    return;
                }
                st = inner.wait(st);
            };
            let entry = st.jobs.get_mut(&id).expect("queued job exists");
            entry.phase = Phase::Running;
            let resume_from = if entry.resume {
                entry.checkpoint.clone()
            } else {
                None
            };
            (id, entry.workload.clone(), entry.seed, resume_from)
        };

        // Run it with the lock released; the observer re-locks briefly
        // at every boundary to publish the checkpoint and poll for
        // cancel/shutdown.
        let mut observer = |cp: &Checkpoint| {
            let mut st = inner.lock();
            let entry = st.jobs.get_mut(&id).expect("running job exists");
            entry.checkpoint = Some(cp.clone());
            if let Some(dir) = &inner.cfg.checkpoint_dir {
                let path = dir.join(format!("{id}.checkpoint.json"));
                if let Err(e) = cp.write(&path) {
                    eprintln!("mvf-serve: checkpoint write failed for '{id}': {e}");
                }
            }
            if entry.cancel || st.shutdown {
                Control::Pause
            } else {
                Control::Continue
            }
        };
        let run = catch_unwind(AssertUnwindSafe(|| match resume_from {
            Some(cp) => resume_audit(&inner.cfg, cp, Some(&mut store), &mut observer),
            None => run_audit(&inner.cfg, &workload, seed, Some(&mut store), &mut observer),
        }));
        let outcome = run.unwrap_or_else(|payload| {
            // The panic may have left a cached session mid-update.
            store = SessionStore::new(inner.cfg.session_cache_bytes);
            AuditOutcome::Failed(format!("job panicked: {}", panic_message(&*payload)))
        });

        let mut st = inner.lock();
        let entry = st.jobs.get_mut(&id).expect("running job exists");
        let phase = match outcome {
            AuditOutcome::Finished { report, sat } => {
                entry.report = Some(report);
                entry.sat = Some(sat);
                Phase::Done
            }
            AuditOutcome::Paused(cp) => {
                entry.checkpoint = Some(*cp);
                Phase::Cancelled
            }
            AuditOutcome::Failed(error) => {
                entry.error = Some(error);
                Phase::Failed
            }
        };
        st.finish(&id, phase);
        inner.cv.notify_all();
        if st.shutdown {
            return;
        }
    }
}

/// The message of a caught panic.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a panic without a message")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(phase: Phase) -> JobEntry {
        JobEntry {
            workload: Workload::new("synthetic", Vec::new()),
            seed: 0,
            scheme: SchemeKind::Camouflage,
            phase,
            cancel: false,
            checkpoint: None,
            resume: false,
            report: None,
            sat: None,
            error: None,
        }
    }

    #[test]
    fn finished_jobs_past_the_cap_are_dropped_oldest_first() {
        let service = AuditService::start(ServeConfig::default());
        {
            let mut st = service.inner.lock();
            st.jobs.insert("queued".into(), entry(Phase::Queued));
            st.jobs.insert("running".into(), entry(Phase::Running));
            let finished = [Phase::Done, Phase::Cancelled, Phase::Failed];
            for k in 0..MAX_FINISHED_JOBS + 10 {
                let id = format!("job{k}");
                st.jobs.insert(id.clone(), entry(Phase::Running));
                st.finish(&id, finished[k % 3]);
                assert_eq!(st.jobs[&id].phase, finished[k % 3]);
            }
            assert_eq!(st.finished.len(), MAX_FINISHED_JOBS);
            // The ten oldest finished jobs are gone; queued and running
            // jobs are never dropped.
            assert_eq!(st.jobs.len(), MAX_FINISHED_JOBS + 2);
            assert!((0..10).all(|k| !st.jobs.contains_key(&format!("job{k}"))));
            assert_eq!(st.jobs["queued"].phase, Phase::Queued);
            assert_eq!(st.jobs["running"].phase, Phase::Running);
        }
        // A dropped id answers `no job`, and may be submitted again.
        for cmd in ["status", "result", "checkpoint", "cancel"] {
            let response = service.handle(&format!(r#"{{"cmd":"{cmd}","id":"job0"}}"#));
            assert!(response.contains("no job 'job0'"), "{cmd}: {response}");
        }
        let response = service.handle(
            r#"{"cmd":"submit","id":"job0","workload":{"name":"w","seed":"7","functions":[{"n_in":1,"n_out":1,"table":[1,0]}]}}"#,
        );
        assert!(response.contains(r#""ok":true"#), "{response}");
        service.handle(r#"{"cmd":"cancel","id":"job0"}"#);
        service.shutdown_and_join();
    }
}
