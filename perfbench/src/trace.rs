//! An in-memory span recorder for the traced run.
//!
//! Every span carries a name, start and end (nanoseconds since the
//! recorder's epoch), the operation it belongs to, and its parent. Spans
//! stay in memory until the run ends and are then written out as one JSON
//! document. A layer's self time is its span minus the part of that
//! interval its children cover ([`self_times`]).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// The operation the span belongs to.
    pub op: u64,
    /// Layer call name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans while enabled. Shared by the load clients and the
/// timing shard readers, which attribute their spans to the operation
/// the (single) client currently has in flight.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// `op + 1` and root span id of the operation in flight, 0 when none.
    current_op: AtomicU64,
    current_root: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that starts disabled.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            current_op: AtomicU64::new(0),
            current_root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Declare the operation in flight and its root span, so spans from
    /// inside the program (the shard readers) attach to it.
    pub fn set_current(&self, op: u64, root: u64) {
        self.current_op.store(op + 1, Ordering::SeqCst);
        self.current_root.store(root, Ordering::SeqCst);
    }

    /// The operation in flight and its root span, if any.
    pub fn current(&self) -> Option<(u64, u64)> {
        let op = self.current_op.load(Ordering::SeqCst);
        (op > 0).then(|| (op - 1, self.current_root.load(Ordering::SeqCst)))
    }

    /// Store a finished span (dropped while disabled).
    pub fn record(&self, span: Span) {
        if self.enabled() {
            self.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
        }
    }

    /// Time `f` as a span named `name` under `parent` of operation `op`;
    /// returns its result and its duration in nanoseconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(Span { id: self.next_id(), parent, op, name, start, end });
        (out, end - start)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.len() - covered)
        })
        .collect()
}

/// Render spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start, s.end
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span { id, parent, op: 0, name: "x", start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0, 100): children [10, 30) and [20, 50) overlap (union 40),
        // [90, 120) sticks out past the root (10 inside it).
        // child 2 [20, 50) has a grandchild [25, 35).
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 20, 50),
            span(3, Some(1), 10, 30),
            span(4, Some(1), 90, 120),
            span(5, Some(2), 25, 35),
            span(6, None, 200, 260),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - 40 - 10);
        assert_eq!(t[&2], 30 - 10);
        assert_eq!(t[&3], 20);
        assert_eq!(t[&4], 30);
        assert_eq!(t[&5], 10);
        assert_eq!(t[&6], 60, "a leaf keeps its whole duration");
    }

    #[test]
    fn a_child_outside_its_parent_covers_nothing() {
        let spans = vec![span(1, None, 0, 10), span(2, Some(1), 10, 20)];
        assert_eq!(self_times(&spans)[&1], 10);
    }

    #[test]
    fn disabled_tracer_drops_spans() {
        let t = Tracer::new();
        t.time("a", None, 0, || ());
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let (v, _) = t.time("b", None, 3, || 7);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!((spans.len(), spans[0].name, spans[0].op), (1, "b", 3));
        assert!(spans_json(&spans).contains("\"name\":\"b\""));
    }
}
