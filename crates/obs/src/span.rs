//! Lightweight hierarchical span tracing.
//!
//! A [`Span`] is a timed guard: created via [`crate::Obs::span`] (or the
//! [`crate::span!`] macro, which also attaches key=value attributes),
//! finished explicitly with [`Span::finish`] (returning the measured
//! duration, so callers can use the span itself as their timer) or
//! implicitly on drop. Finished spans land in a bounded ring buffer of
//! recent spans and in per-name aggregate histograms.
//!
//! Every span carries a unique `id`, a `parent_id` and a `trace_id` (the id
//! of the root span of its tree), so finished records can be reassembled
//! into trees (see [`crate::tree`]). On a single thread the parent is
//! inferred from a thread-local stack of active spans; across threads —
//! e.g. parallel read workers — the spawning code captures a
//! [`SpanContext`] and starts worker spans with
//! [`crate::Obs::span_with_parent`], so the tree looks the same at every
//! worker count.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::hist::{HistCore, HistSummary, Histogram};

/// How many finished spans the ring buffer keeps — how much trace history
/// EXPLAIN's span tree can see.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique (per `Obs`) span id; ids increase in creation order, so a
    /// parent's id is always smaller than its children's.
    pub id: u64,
    /// Id of the parent span, if any.
    pub parent_id: Option<u64>,
    /// Id of the root span of this span's tree (== `id` for roots).
    pub trace_id: u64,
    /// Small dense id of the thread the span ran on (not the OS tid).
    pub thread: u64,
    /// Span name (e.g. `fetch.read`).
    pub name: String,
    /// Name of the parent span (kept alongside `parent_id` for cheap
    /// text rendering).
    pub parent: Option<String>,
    /// Start time in nanoseconds since the owning `Obs` was created.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Free-form key=value attributes.
    pub attrs: Vec<(String, String)>,
}

/// The identity of an in-flight span, used to link spans across threads:
/// capture it with [`crate::Obs::current_context`] (or [`Span::context`])
/// before spawning workers, then start each worker's span with
/// [`crate::Obs::span_with_parent`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// Id of the span that will become the parent.
    pub span_id: u64,
    /// Trace id inherited by every descendant.
    pub trace_id: u64,
    /// Name of the parent span.
    pub name: String,
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small dense per-thread id, assigned on first use.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

fn current_thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

pub(crate) struct Tracer {
    epoch: Instant,
    recent: Mutex<VecDeque<SpanRecord>>,
    aggs: RwLock<HashMap<String, Arc<HistCore>>>,
    capacity: usize,
    next_id: AtomicU64,
}

impl Tracer {
    pub(crate) fn new(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            epoch,
            recent: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            aggs: RwLock::new(HashMap::new()),
            capacity,
            next_id: AtomicU64::new(1),
        }
    }

    pub(crate) fn epoch(&self) -> Instant {
        self.epoch
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn agg(&self, name: &str) -> Histogram {
        if let Some(core) = self.aggs.read().unwrap().get(name) {
            return Histogram(Arc::clone(core));
        }
        let mut w = self.aggs.write().unwrap();
        let core = w
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistCore::new()));
        Histogram(Arc::clone(core))
    }

    pub(crate) fn record(&self, rec: SpanRecord) {
        self.agg(&rec.name).record(rec.dur_ns);
        let mut ring = self.recent.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// Per-name duration summaries.
    pub(crate) fn summaries(&self) -> Vec<(String, HistSummary)> {
        self.aggs
            .read()
            .unwrap()
            .iter()
            .map(|(name, core)| (name.clone(), Histogram(Arc::clone(core)).summary()))
            .collect()
    }

    /// Snapshot of the ring buffer, oldest first.
    pub(crate) fn recent(&self) -> Vec<SpanRecord> {
        self.recent.lock().unwrap().iter().cloned().collect()
    }
}

/// The innermost active span of one tracer on the current thread.
pub(crate) fn current_context(tracer: &Arc<Tracer>) -> Option<SpanContext> {
    let key = Arc::as_ptr(tracer) as usize;
    ACTIVE.with(|stack| {
        stack
            .borrow()
            .iter()
            .rev()
            .find(|a| a.tracer == key)
            .map(|a| SpanContext {
                span_id: a.span_id,
                trace_id: a.trace_id,
                name: a.name.clone(),
            })
    })
}

/// One entry of the thread-local active-span stack. The tracer identity
/// keeps concurrent `Obs` instances from claiming each other's spans as
/// parents; the span id lets `end` remove exactly this entry even when
/// same-named spans nest.
struct ActiveSpan {
    tracer: usize,
    span_id: u64,
    trace_id: u64,
    name: String,
}

thread_local! {
    static ACTIVE: std::cell::RefCell<Vec<ActiveSpan>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// An in-flight timed span. Dropping it records it; [`Span::finish`] records
/// it and hands back the measured duration.
pub struct Span {
    tracer: Arc<Tracer>,
    id: u64,
    parent_id: Option<u64>,
    trace_id: u64,
    name: String,
    attrs: Vec<(String, String)>,
    parent: Option<String>,
    start: Instant,
    start_ns: u64,
    finished: bool,
}

impl Span {
    /// Begin a span whose parent is the innermost active span of this
    /// tracer on the current thread (or none → a new trace root).
    pub(crate) fn begin(tracer: Arc<Tracer>, name: &str) -> Span {
        let key = Arc::as_ptr(&tracer) as usize;
        let inherited = ACTIVE.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|a| a.tracer == key)
                .map(|a| (a.span_id, a.trace_id, a.name.clone()))
        });
        Span::begin_resolved(tracer, name, inherited)
    }

    /// Begin a span under an explicit parent (for cross-thread links);
    /// `None` starts a new trace root regardless of what is active on the
    /// current thread.
    pub(crate) fn begin_with_parent(
        tracer: Arc<Tracer>,
        name: &str,
        parent: Option<&SpanContext>,
    ) -> Span {
        let resolved = parent.map(|c| (c.span_id, c.trace_id, c.name.clone()));
        Span::begin_resolved(tracer, name, resolved)
    }

    fn begin_resolved(tracer: Arc<Tracer>, name: &str, parent: Option<(u64, u64, String)>) -> Span {
        let start = Instant::now();
        let start_ns =
            u64::try_from(start.duration_since(tracer.epoch()).as_nanos()).unwrap_or(u64::MAX);
        let id = tracer.next_id();
        let key = Arc::as_ptr(&tracer) as usize;
        let (parent_id, trace_id, parent_name) = match parent {
            Some((pid, tid, pname)) => (Some(pid), tid, Some(pname)),
            None => (None, id, None),
        };
        ACTIVE.with(|stack| {
            stack.borrow_mut().push(ActiveSpan {
                tracer: key,
                span_id: id,
                trace_id,
                name: name.to_string(),
            });
        });
        Span {
            tracer,
            id,
            parent_id,
            trace_id,
            name: name.to_string(),
            attrs: Vec::new(),
            parent: parent_name,
            start,
            start_ns,
            finished: false,
        }
    }

    /// Attach a key=value attribute (e.g. the intermediate being fetched).
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.attrs.push((key.to_string(), value.to_string()));
        self
    }

    /// This span's unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The id of this span's trace root (== [`Span::id`] for roots).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// This span's identity, for parenting spans started on other threads.
    pub fn context(&self) -> SpanContext {
        SpanContext {
            span_id: self.id,
            trace_id: self.trace_id,
            name: self.name.clone(),
        }
    }

    /// Time elapsed since the span started (the span keeps running).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Finish the span and return its duration.
    pub fn finish(mut self) -> Duration {
        self.end()
    }

    fn end(&mut self) -> Duration {
        let dur = self.start.elapsed();
        if self.finished {
            return dur;
        }
        self.finished = true;
        let key = Arc::as_ptr(&self.tracer) as usize;
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|a| a.tracer == key && a.span_id == self.id)
            {
                stack.remove(pos);
            }
        });
        self.tracer.record(SpanRecord {
            id: self.id,
            parent_id: self.parent_id,
            trace_id: self.trace_id,
            thread: current_thread_id(),
            name: std::mem::take(&mut self.name),
            parent: self.parent.take(),
            start_ns: self.start_ns,
            dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
            attrs: std::mem::take(&mut self.attrs),
        });
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.finished {
            self.end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn finish_returns_duration_and_records() {
        let obs = Obs::new();
        let mut sp = obs.span("work");
        sp.attr("k", "v");
        std::thread::sleep(Duration::from_millis(2));
        let d = sp.finish();
        assert!(d >= Duration::from_millis(2));
        let recent = obs.recent_spans();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].name, "work");
        assert_eq!(recent[0].attrs, vec![("k".to_string(), "v".to_string())]);
        assert!(recent[0].dur_ns >= 2_000_000);
        let aggs = obs.span_summaries();
        let s = aggs.iter().find(|(n, _)| n == "work").unwrap();
        assert_eq!(s.1.count, 1);
    }

    #[test]
    fn drop_records_too() {
        let obs = Obs::new();
        {
            let _sp = obs.span("dropped");
        }
        assert_eq!(obs.recent_spans().len(), 1);
    }

    #[test]
    fn nesting_sets_parent() {
        let obs = Obs::new();
        {
            let _outer = obs.span("outer");
            {
                let _inner = obs.span("inner");
            }
        }
        let recent = obs.recent_spans();
        assert_eq!(recent.len(), 2);
        // Inner finished first.
        assert_eq!(recent[0].name, "inner");
        assert_eq!(recent[0].parent.as_deref(), Some("outer"));
        assert_eq!(recent[1].name, "outer");
        assert_eq!(recent[1].parent, None);
        // Ids link the same way, and both share the root's trace id.
        assert_eq!(recent[0].parent_id, Some(recent[1].id));
        assert_eq!(recent[1].parent_id, None);
        assert_eq!(recent[0].trace_id, recent[1].id);
        assert_eq!(recent[1].trace_id, recent[1].id);
    }

    #[test]
    fn two_obs_instances_do_not_share_parents() {
        let a = Obs::new();
        let b = Obs::new();
        let _outer = a.span("a.outer");
        {
            let _inner = b.span("b.inner");
        }
        let recent = b.recent_spans();
        assert_eq!(recent[0].parent, None, "parent from another Obs leaked");
        assert_eq!(recent[0].parent_id, None);
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let obs = Obs::new();
        for i in 0..(DEFAULT_RING_CAPACITY + 10) {
            let mut sp = obs.span("s");
            sp.attr("i", i);
            drop(sp);
        }
        let recent = obs.recent_spans();
        assert_eq!(recent.len(), DEFAULT_RING_CAPACITY);
        // Oldest entries were evicted: first kept span is i=10.
        assert_eq!(recent[0].attrs[0].1, "10");
        let aggs = obs.span_summaries();
        let s = aggs.iter().find(|(n, _)| n == "s").unwrap();
        assert_eq!(
            s.1.count,
            (DEFAULT_RING_CAPACITY + 10) as u64,
            "aggregates keep counting past the ring"
        );
    }

    #[test]
    fn configurable_ring_capacity() {
        let obs = Obs::with_ring_capacity(4);
        for _ in 0..10 {
            drop(obs.span("s"));
        }
        assert_eq!(obs.recent_spans().len(), 4);
    }

    #[test]
    fn span_macro_attaches_attrs() {
        let obs = Obs::new();
        let interm = "m1.stage3";
        let sp = crate::span!(obs, "fetch", interm = interm, n = 42);
        drop(sp);
        let recent = obs.recent_spans();
        assert_eq!(
            recent[0].attrs,
            vec![
                ("interm".to_string(), "m1.stage3".to_string()),
                ("n".to_string(), "42".to_string()),
            ]
        );
    }

    #[test]
    fn explicit_parent_links_across_threads() {
        let obs = Obs::new();
        let root = obs.span("root");
        let ctx = root.context();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let obs = obs.clone();
                let ctx = ctx.clone();
                s.spawn(move || {
                    let _sp = obs.span_with_parent("worker", Some(&ctx));
                });
            }
        });
        let root_id = root.id();
        let trace = root.trace_id();
        root.finish();
        let recent = obs.recent_spans();
        let workers: Vec<_> = recent.iter().filter(|r| r.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        for w in workers {
            assert_eq!(w.parent_id, Some(root_id));
            assert_eq!(w.trace_id, trace);
            assert_eq!(w.parent.as_deref(), Some("root"));
        }
    }

    #[test]
    fn current_context_reflects_innermost_span() {
        let obs = Obs::new();
        assert_eq!(obs.current_context(), None);
        let outer = obs.span("outer");
        {
            let inner = obs.span("inner");
            let ctx = obs.current_context().unwrap();
            assert_eq!(ctx.span_id, inner.id());
            assert_eq!(ctx.name, "inner");
            assert_eq!(ctx.trace_id, outer.trace_id());
            inner.finish();
        }
        let ctx = obs.current_context().unwrap();
        assert_eq!(ctx.span_id, outer.id());
    }

    #[test]
    fn same_named_nested_spans_unwind_correctly() {
        let obs = Obs::new();
        let a = obs.span("s");
        let b = obs.span("s");
        let a_id = a.id();
        // Finishing the outer one first must not corrupt the inner's entry.
        a.finish();
        let ctx = obs.current_context().unwrap();
        assert_eq!(ctx.span_id, b.id());
        b.finish();
        let recent = obs.recent_spans();
        assert_eq!(recent[0].parent_id, None); // a, the outer
        assert_eq!(recent[1].parent_id, Some(a_id)); // b started under a
    }
}
