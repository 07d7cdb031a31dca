//! # mistique-obs
//!
//! From-scratch, dependency-free observability for MISTIQUE: a metrics
//! registry (sharded atomic [`Counter`]s, [`Gauge`]s, log-linear
//! [`Histogram`]s), a lightweight hierarchical [`Span`] tracer, and
//! exporters producing a human-readable report or a JSON document
//! ([`Snapshot`]).
//!
//! The write path is designed for hot loops: counter increments and
//! histogram records are relaxed atomic ops, and metric handles returned by
//! the registry can be cached so steady-state instrumentation never touches
//! the registry lock.
//!
//! ```
//! let obs = mistique_obs::Obs::new();
//! obs.counter("store.put.count").inc();
//! obs.histogram("store.put.ns").record(1_234);
//! {
//!     let mut sp = obs.span("fetch.read");
//!     sp.attr("interm", "m1.stage3");
//! } // recorded on drop
//! println!("{}", obs.snapshot().render_text());
//! ```

mod audit;
mod export;
mod hist;
pub mod json;
mod metrics;
mod ring;
mod span;
mod timeline;
pub mod tree;

pub use audit::{
    AuditEffect, AuditLog, AuditRecord, AuditStats, CompactionReport, DemotionRecord,
    DEFAULT_FLUSH_EVERY,
};
pub use export::{fmt_bytes, fmt_ns, fmt_secs, Snapshot};
pub use hist::{HistSummary, Histogram};
pub use metrics::{Counter, Gauge};
pub use ring::{MemSegmentIo, SegmentIo};
pub use span::{Span, SpanContext, SpanRecord, DEFAULT_RING_CAPACITY};
pub use timeline::{HistPoint, LastSeen, Timeline, TimelinePoint};
pub use tree::{build_trees, render_trees, SpanNode};

use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use hist::HistCore;
use metrics::{CounterCore, GaugeCore};
use span::Tracer;

struct Inner {
    counters: RwLock<HashMap<String, Arc<CounterCore>>>,
    gauges: RwLock<HashMap<String, Arc<GaugeCore>>>,
    hists: RwLock<HashMap<String, Arc<HistCore>>>,
    tracer: Arc<Tracer>,
}

/// The observability handle: a registry of named metrics plus a span tracer.
///
/// Cloning is cheap (one `Arc` bump); clones share all state, so a single
/// `Obs` is threaded through every subsystem of a [`Mistique`] instance.
///
/// [`Mistique`]: https://docs.rs/mistique-core
#[derive(Clone)]
pub struct Obs {
    inner: Arc<Inner>,
}

impl Obs {
    /// A fresh, empty registry. The creation instant becomes the epoch for
    /// span start timestamps.
    pub fn new() -> Obs {
        Obs::with_ring_capacity(span::DEFAULT_RING_CAPACITY)
    }

    /// [`Obs::new`] with an explicit recent-spans ring capacity (production
    /// code runs at [`DEFAULT_RING_CAPACITY`]; the ring-is-bounded unit test
    /// uses a small one).
    pub(crate) fn with_ring_capacity(capacity: usize) -> Obs {
        Obs {
            inner: Arc::new(Inner {
                counters: RwLock::new(HashMap::new()),
                gauges: RwLock::new(HashMap::new()),
                hists: RwLock::new(HashMap::new()),
                tracer: Arc::new(Tracer::new(Instant::now(), capacity)),
            }),
        }
    }

    /// Get or create the counter named `name`. Cache the returned handle on
    /// hot paths; increments on the handle never touch the registry again.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(core) = self.inner.counters.read().unwrap().get(name) {
            return Counter(Arc::clone(core));
        }
        let mut w = self.inner.counters.write().unwrap();
        let core = w
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(CounterCore::new()));
        Counter(Arc::clone(core))
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(core) = self.inner.gauges.read().unwrap().get(name) {
            return Gauge(Arc::clone(core));
        }
        let mut w = self.inner.gauges.write().unwrap();
        let core = w
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new_core()));
        Gauge(Arc::clone(core))
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(core) = self.inner.hists.read().unwrap().get(name) {
            return Histogram(Arc::clone(core));
        }
        let mut w = self.inner.hists.write().unwrap();
        let core = w
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistCore::new()));
        Histogram(Arc::clone(core))
    }

    /// Start a timed span. Finish it with [`Span::finish`] to get the
    /// duration back, or just let it drop. The parent is the innermost
    /// span of this `Obs` active on the current thread.
    pub fn span(&self, name: &str) -> Span {
        Span::begin(Arc::clone(&self.inner.tracer), name)
    }

    /// Start a timed span under an explicit parent, for linking work done
    /// on other threads (capture the parent with [`Obs::current_context`]
    /// before spawning). `None` starts a fresh trace root.
    pub fn span_with_parent(&self, name: &str, parent: Option<&SpanContext>) -> Span {
        Span::begin_with_parent(Arc::clone(&self.inner.tracer), name, parent)
    }

    /// The identity of the innermost span of this `Obs` active on the
    /// current thread, if any.
    pub fn current_context(&self) -> Option<SpanContext> {
        span::current_context(&self.inner.tracer)
    }

    /// The most recently finished spans, oldest first (bounded ring).
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        self.inner.tracer.recent()
    }

    /// Duration summary per span name (unordered).
    pub fn span_summaries(&self) -> Vec<(String, HistSummary)> {
        self.inner.tracer.summaries()
    }

    /// A point-in-time snapshot of every metric and span aggregate.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(name, core)| (name.clone(), Counter(Arc::clone(core)).get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(name, core)| (name.clone(), Gauge(Arc::clone(core)).get()))
            .collect();
        let histograms = self
            .inner
            .hists
            .read()
            .unwrap()
            .iter()
            .map(|(name, core)| (name.clone(), Histogram(Arc::clone(core)).summary()))
            .collect();
        let spans = self.inner.tracer.summaries().into_iter().collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
            recent_spans: self.inner.tracer.recent(),
        }
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("counters", &self.inner.counters.read().unwrap().len())
            .field("gauges", &self.inner.gauges.read().unwrap().len())
            .field("histograms", &self.inner.hists.read().unwrap().len())
            .finish()
    }
}

/// Start a [`Span`] on an [`Obs`], optionally attaching `key = value`
/// attributes (values go through `Display`):
///
/// ```
/// # let obs = mistique_obs::Obs::new();
/// let sp = mistique_obs::span!(obs, "fetch.read", interm = "m1.stage3");
/// drop(sp);
/// ```
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr) => {
        $obs.span($name)
    };
    ($obs:expr, $name:expr, $($k:ident = $v:expr),+ $(,)?) => {{
        let mut __s = $obs.span($name);
        $(__s.attr(stringify!($k), $v);)+
        __s
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_shared_handles() {
        let obs = Obs::new();
        let a = obs.counter("x");
        let b = obs.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(obs.counter("x").get(), 3);
        // Distinct names are distinct metrics.
        assert_eq!(obs.counter("y").get(), 0);
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new();
        let clone = obs.clone();
        clone.counter("n").inc();
        clone.gauge("g").set(4.5);
        assert_eq!(obs.snapshot().counter("n"), 1);
        assert_eq!(obs.snapshot().gauge("g"), 4.5);
    }

    #[test]
    fn snapshot_collects_everything() {
        let obs = Obs::new();
        obs.counter("c").add(5);
        obs.gauge("g").set(1.25);
        obs.histogram("h").record(10);
        drop(obs.span("s"));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.gauge("g"), 1.25);
        assert_eq!(snap.histogram("h").count, 1);
        assert_eq!(snap.span("s").count, 1);
        assert_eq!(snap.recent_spans.len(), 1);
    }

    #[test]
    fn concurrent_registry_access_is_safe() {
        let obs = Obs::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let obs = obs.clone();
                s.spawn(move || {
                    for i in 0..1_000 {
                        obs.counter("shared").inc();
                        obs.counter(&format!("t{t}")).inc();
                        obs.histogram("h").record(i);
                    }
                });
            }
        });
        let snap = obs.snapshot();
        assert_eq!(snap.counter("shared"), 8_000);
        for t in 0..8 {
            assert_eq!(snap.counter(&format!("t{t}")), 1_000);
        }
        assert_eq!(snap.histogram("h").count, 8_000);
    }
}
