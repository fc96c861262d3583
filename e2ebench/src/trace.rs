//! In-memory span recorder for the traced runs.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public functions: name, start, end, the enclosing span on the same
//! thread, and a request id shared by every span of one unit of work (an
//! agent's run, a job, a read). Spans stay in memory until the run ends,
//! when [`Tracer::write_jsonl`] writes them out. With tracing off,
//! [`span`] returns an inert guard and reads no clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`layer.function`).
    pub name: &'static str,
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// Request id the span belongs to.
    pub request: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Aggregate of every span with one name.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub seconds: f64,
    /// Summed self time (duration minus child spans), seconds.
    pub self_seconds: f64,
    /// Individual durations, seconds.
    pub durations: Vec<f64>,
}

/// The process-wide recorder.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// One span buffer per recording thread. A thread only ever locks its
    /// own buffer, so recording threads never wait on each other (a shared
    /// lock convoys when its holder is preempted on an oversubscribed host).
    buffers: Mutex<Vec<Arc<Mutex<Vec<Span>>>>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    static BUFFER: RefCell<Option<Arc<Mutex<Vec<Span>>>>> = const { RefCell::new(None) };
}

/// The global tracer (disabled until [`Tracer::enable`]).
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        enabled: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        buffers: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
    })
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// Tags spans opened on this thread with request id `id`.
pub fn set_request(id: u64) {
    REQUEST.with(|r| r.set(id));
}

/// Adds `by` to the named counter (no-op with tracing off).
pub fn count(name: &'static str, by: f64) {
    if enabled() {
        *tracer()
            .counters
            .lock()
            .expect("counter lock poisoned")
            .entry(name)
            .or_insert(0.0) += by;
    }
}

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<(&'static str, u64, u64, u64, Instant)>,
}

/// Opens a span named `name` around the caller's scope.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let request = REQUEST.with(Cell::get);
    Guard {
        open: Some((name, id, parent, request, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((name, id, parent, request, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let t = tracer();
        let ns = |i: Instant| i.saturating_duration_since(t.epoch).as_nanos() as u64;
        let span = Span {
            name,
            id,
            parent,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        BUFFER.with(|cell| {
            let mut slot = cell.borrow_mut();
            let buffer = slot.get_or_insert_with(|| {
                let buffer = Arc::new(Mutex::new(Vec::new()));
                if let Ok(mut all) = t.buffers.lock() {
                    all.push(Arc::clone(&buffer));
                }
                buffer
            });
            // A poisoned lock only loses this span; never panic in drop.
            if let Ok(mut spans) = buffer.lock() {
                spans.push(span);
            };
        });
    }
}

impl Tracer {
    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Stops recording (already-recorded spans are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    /// Drops every recorded span and counter.
    pub fn clear(&self) {
        for b in self.buffers.lock().expect("buffer list poisoned").iter() {
            b.lock().expect("span buffer poisoned").clear();
        }
        self.counters.lock().expect("counter lock poisoned").clear();
    }

    /// A copy of the recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = Vec::new();
        for b in self.buffers.lock().expect("buffer list poisoned").iter() {
            spans.extend(b.lock().expect("span buffer poisoned").iter().cloned());
        }
        spans.sort_by_key(|s| s.start_ns);
        spans
    }

    /// The value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("counter lock poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Fails on any I/O error.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        let file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        out.flush()
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Where a traced run writes its spans: `.bench_build/e2ebench/` under
/// the working directory (the checkout root).
pub fn out_path(tag: &str, seed: u64) -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_build")
        .join("e2ebench")
        .join(format!("trace-{tag}-seed{seed}.jsonl"))
}

/// Per-name aggregates of `spans`, with self time = duration minus the
/// durations of direct children (children nest on their parent's thread,
/// so they never overlap each other).
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, LayerStats> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_insert(0) += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.seconds += dur as f64 * 1e-9;
        e.self_seconds += own as f64 * 1e-9;
        e.durations.push(dur as f64 * 1e-9);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span_at("root", 1, 0, 0, 100),
            span_at("a", 2, 1, 10, 40),
            span_at("b", 3, 2, 15, 25),
            span_at("a", 4, 1, 50, 60),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["root"].calls, 1);
        assert!((agg["root"].self_seconds - 60e-9).abs() < 1e-15);
        assert_eq!(agg["a"].calls, 2);
        assert!((agg["a"].seconds - 40e-9).abs() < 1e-15);
        assert!((agg["a"].self_seconds - 30e-9).abs() < 1e-15);
        assert!((agg["b"].self_seconds - 10e-9).abs() < 1e-15);
        // Self times partition the root's duration.
        let total: f64 = agg.values().map(|l| l.self_seconds).sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }
}
