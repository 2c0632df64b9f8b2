//! In-memory spans around the calls into each layer.
//!
//! A span is named `layer.what`; the part before the first dot is the
//! layer it is charged to. Per-cycle work is never one span per call:
//! a [`Busy`] accumulator sums the calls of one kind inside a cell and
//! becomes a single span carrying the call `count`, whose duration is
//! the time actually spent in those calls. Spans stay in memory until
//! the run ends and are then written as JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// The top-level span this one descends from: one per pass (or per
    /// client connection loop), shared by everything it caused.
    pub root: SpanId,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span (1 for an ordinary span).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Sums the time of many short calls of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Busy {
    first: Option<Instant>,
    pub total: Duration,
    pub count: u64,
}

impl Busy {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(start, start.elapsed());
        out
    }

    pub fn add(&mut self, start: Instant, spent: Duration) {
        self.first.get_or_insert(start);
        self.total += spent;
        self.count += 1;
    }

    pub fn ns_per_call(&self) -> f64 {
        self.total.as_nanos() as f64 / self.count.max(1) as f64
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span with explicit bounds under `parent` (a root when
    /// `None`).
    pub fn add(
        &mut self,
        parent: Option<SpanId>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> SpanId {
        let id = self.spans.len();
        let root = parent.map_or(id, |p| self.spans[p].root);
        self.spans.push(Span {
            id,
            parent,
            root,
            name: name.to_string(),
            start_ns,
            end_ns,
            count,
        });
        id
    }

    /// Runs `f` inside a new span that is a child of the innermost open
    /// scope.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.scope_id(name, f).1
    }

    /// [`scope`](Self::scope), also returning the new span's id.
    pub fn scope_id<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (SpanId, T) {
        let start = self.ns_since_epoch(Instant::now());
        let id = self.add(self.stack.last().copied(), name, start, start, 1);
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.ns_since_epoch(Instant::now());
        (id, out)
    }

    /// Folds an accumulator into one child span of the innermost open
    /// scope. Accumulators that saw no call leave no span.
    pub fn busy(&mut self, name: &str, busy: &Busy) {
        let Some(first) = busy.first else { return };
        let start = self.ns_since_epoch(first);
        let end = start + busy.total.as_nanos() as u64;
        self.add(self.stack.last().copied(), name, start, end, busy.count);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part its children cover.
/// Children of one parent never overlap here (one thread opens and
/// closes them in order), so the covered part is the sum of their
/// durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| s.duration_ns().saturating_sub(covered[s.id]))
        .collect()
}

/// Self time per layer over the spans whose root is in `roots`.
pub fn layer_self_ns(spans: &[Span], roots: &[SpanId]) -> BTreeMap<String, u64> {
    let own = self_times_ns(spans);
    let mut by_layer = BTreeMap::new();
    for s in spans.iter().filter(|s| roots.contains(&s.root)) {
        *by_layer.entry(s.layer().to_string()).or_insert(0) += own[s.id];
    }
    by_layer
}

/// Writes one JSON object per span, self time included.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times_ns(spans);
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"root\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"count\":{},\"self_ns\":{}}}",
            s.id,
            s.root,
            s.layer(),
            s.name,
            s.start_ns,
            s.end_ns,
            s.count,
            own[s.id]
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.add(None, "bench.pass", 0, 1000, 1);
        let cell = t.add(Some(root), "core.cell", 100, 900, 1);
        t.add(Some(cell), "sim.step", 100, 600, 500);
        t.add(Some(cell), "net.inject", 600, 700, 500);
        let own = self_times_ns(t.spans());
        assert_eq!(own, vec![200, 200, 500, 100]);
        assert_eq!(own.iter().sum::<u64>(), 1000, "self times tile the root");
    }

    #[test]
    fn children_longer_than_their_parent_clamp_to_zero() {
        let mut t = Tracer::new();
        let root = t.add(None, "bench.pass", 0, 100, 1);
        t.add(Some(root), "sim.step", 0, 150, 1);
        assert_eq!(self_times_ns(t.spans())[root], 0);
    }

    #[test]
    fn layers_sum_only_over_the_chosen_roots() {
        let mut t = Tracer::new();
        let a = t.add(None, "serve.client", 0, 100, 1);
        t.add(Some(a), "serve.request", 0, 60, 1);
        let b = t.add(None, "bench.probe", 0, 500, 1);
        t.add(Some(b), "sim.step", 0, 400, 1);
        let by = layer_self_ns(t.spans(), &[a]);
        assert_eq!(by.get("serve"), Some(&100));
        assert_eq!(by.get("sim"), None);
    }

    #[test]
    fn scopes_nest_and_busy_spans_attach_to_the_open_scope() {
        let mut t = Tracer::new();
        let mut busy = Busy::default();
        t.scope("bench.pass", |t| {
            t.scope("core.cell", |t| {
                busy.time(|| std::hint::black_box(1 + 1));
                busy.time(|| std::hint::black_box(2 + 2));
                t.busy("sim.step", &busy);
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].parent, s[2].count, s[2].root), (Some(1), 2, 0));
        assert!(s[0].end_ns >= s[1].end_ns);
        assert_eq!(s[2].layer(), "sim");
    }
}
