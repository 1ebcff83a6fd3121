//! In-memory span and counter recorder for the traced run.
//!
//! A span records its name, start, end, parent span and run id. Spans are
//! kept in memory and summarised when the run ends: a span's self time is
//! its duration minus the durations of its children. Every span tree in
//! this benchmark is built on one thread (a workload, circuit or job is
//! the root), so children never overlap and the difference is exact.
//! Counters are added at the same call sites as the spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The recorder of one traced pass.
pub struct Tracer {
    epoch: Instant,
    run: u64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

/// An open span; it is recorded when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        let span = Span {
            id: self.id,
            parent: self.parent,
            run: self.tracer.run,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    pub fn new(run: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            run,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (`None` for a root).
    pub fn span(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Adds `v` to the named counter.
    pub fn add(&self, name: &'static str, v: f64) {
        *self
            .counters
            .lock()
            .expect("counter lock poisoned by a panicking worker")
            .entry(name)
            .or_insert(0.0) += v;
    }

    /// Ends the pass: the recorded spans and counters.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        let spans = self
            .spans
            .into_inner()
            .expect("span lock poisoned by a panicking worker");
        let counters = self
            .counters
            .into_inner()
            .expect("counter lock poisoned by a panicking worker");
        (spans, counters)
    }
}

/// Opens a span when tracing, nothing otherwise.
pub fn maybe_span<'t>(
    tracer: Option<&'t Tracer>,
    name: &'static str,
    parent: Option<u64>,
) -> Option<SpanGuard<'t>> {
    tracer.map(|t| t.span(name, parent))
}

/// The id of an optional open span.
pub fn id_of(span: &Option<SpanGuard<'_>>) -> Option<u64> {
    span.as_ref().map(SpanGuard::id)
}

/// Self time of every span: duration minus the children's durations,
/// computed in whole nanoseconds.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0i128; spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            child_ns[p] += i128::from(s.end_ns - s.start_ns);
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| (i128::from(s.end_ns - s.start_ns) - c) as f64 * 1e-9)
        .collect()
}

/// Checks the span tree: every parent exists, belongs to the same run,
/// encloses its children, and its children's durations sum to no more
/// than its own. Returns the first violation.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    let index: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let parent = index
            .get(&p)
            .ok_or_else(|| format!("span {} has no recorded parent", s.name))?;
        if parent.run != s.run || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {} lies outside its parent {}",
                s.name, parent.name
            ));
        }
    }
    let selfs = self_times(spans);
    for (s, self_s) in spans.iter().zip(&selfs) {
        if *self_s < 0.0 {
            return Err(format!(
                "children of span {} sum to more than the span ({self_s} s self time)",
                s.name
            ));
        }
    }
    Ok(())
}

/// Sum of the self times of the spans whose name is `name`.
pub fn self_sum(spans: &[Span], selfs: &[f64], name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| *t)
        .sum()
}

/// Sum of the durations of the spans whose name is `name`.
pub fn dur_sum(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .sum()
}
