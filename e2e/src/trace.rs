//! The benchmark's own span recorder. Spans are recorded around calls into
//! each layer's public functions (tracing inside the engine is a later
//! change), kept in memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The timed operation this span belongs to: the facade call and its
    /// replay share one id.
    pub op: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; when disabled every call is a no-op, so the
/// untraced run pays nothing but a branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation: spans entered from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close a span (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Record a span of known duration ending now (for calls timed with
    /// their own `Instant`, e.g. the facade call itself).
    pub fn record(&mut self, name: &'static str, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns: now.saturating_sub(duration_ns),
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let own = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += own_ns;
        }
        out
    }

    /// Total nanoseconds spent in spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::duration_ns)
            .sum()
    }

    /// All spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent, and
/// children of one parent never overlap because one thread records them).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_interval() {
        let spans = vec![span("root", 10, 50, None), span("late", 40, 80, Some(0))];
        assert_eq!(self_times(&spans), vec![30, 40]);
        // A child covering more than the parent never drives it negative.
        let spans = vec![span("root", 10, 20, None), span("wide", 0, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_and_tags_operations() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        tr.exit(inner);
        tr.exit(outer);
        tr.next_op();
        tr.record("facade", 5);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[0].op, s[2].op), (1, 2));
        assert!(s[0].end_ns >= s[1].end_ns);
        let totals = tr.totals();
        assert_eq!(totals["outer"].0, 1);
        assert!(totals["outer"].2 <= totals["outer"].1);
        assert!(tr.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.enter("x");
        tr.exit(id);
        tr.record("y", 3);
        assert!(tr.spans().is_empty());
    }
}
