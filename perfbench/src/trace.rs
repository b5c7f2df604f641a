//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions. Every span has a name, a start, an end, its
//! parent span and the id of the operation (query, request or batch) it
//! belongs to. Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `query.tbs`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the parts their children cover.
    pub self_ns: u64,
}

/// A per-thread span recorder; merge recorders with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder timing from `origin`; recorders that are merged
    /// later must share it.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty recorder with the same origin, for another thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Renames a span after the fact, e.g. a Con-Index fetch that turned
    /// out to build its table.
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id.0].name = name;
    }

    /// Records `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already measured interval.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Appends another recorder's spans, re-pointing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|SpanId(p)| SpanId(p + offset));
            s
        }));
    }

    /// Per span name: count, total duration and self time. A span's self
    /// time is its duration minus the part of its interval that the union
    /// of its children's intervals covers.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(SpanId(p)) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total - covered;
        }
        out
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |SpanId(p)| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent: parent.map(SpanId),
            start_ns,
            end_ns,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = tracer(vec![
            span("query", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("b.inner", Some(2), 50, 60),
        ]);
        let totals = t.totals();
        assert_eq!(totals["query"].self_ns, 30);
        assert_eq!(totals["query"].total_ns, 100);
        assert_eq!(totals["a"].self_ns, 20);
        assert_eq!(totals["b"].self_ns, 40);
        assert_eq!(totals["b.inner"].self_ns, 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = tracer(vec![
            span("root", None, 100, 200),
            span("c", Some(0), 90, 130),
            span("c", Some(0), 120, 150),
            span("c", Some(0), 190, 260),
        ]);
        let totals = t.totals();
        // Covered: [100,150) and [190,200) = 60 of 100.
        assert_eq!(totals["root"].self_ns, 40);
        assert_eq!(totals["c"].count, 3);
        assert_eq!(totals["c"].total_ns, 40 + 30 + 70);
    }

    #[test]
    fn absorb_repoints_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.open("root", 1, None);
        a.close(root);
        let mut b = Tracer::new(origin);
        let other = b.open("other", 2, None);
        b.time("child", 2, Some(other), || ());
        b.close(other);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(SpanId(1)));
        assert_eq!(a.spans[2].op, 2);
    }
}
