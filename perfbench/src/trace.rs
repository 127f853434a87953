//! In-memory spans recorded by the benchmark around each public call it
//! makes into the program. A span has a name, a start, an end and the span
//! it ran inside; the spans of one op share an op id. Nothing is written
//! until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span that wraps one whole op.
pub const OP: &str = "op";

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder for one thread of ops.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    /// A recorder whose op ids start at `first_op` (threads that record
    /// in parallel take disjoint ranges).
    pub fn new(origin: Instant, first_op: u64) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            next_op: first_op,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs one op inside a root [`OP`] span with a fresh op id.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        assert!(self.open.is_empty(), "ops do not nest");
        self.next_op += 1;
        self.span(OP, f)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.next_op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Appends another recorder's spans (same origin, disjoint op ids).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per op (in op order), the total ms spent in spans named `name`.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.ms();
        }
        by_op.into_values().collect()
    }

    /// Self time per span: its duration minus the time its children cover.
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Total self time per span family, ms, over the whole run.
    pub fn self_ms_by_family(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            *out.entry(s.name).or_default() += own;
        }
        out
    }

    /// Per op, the share of its wall time (percent) that no child span
    /// covers.
    pub fn unattributed_pct(&self) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ms())
            .filter(|(s, _)| s.name == OP && s.ms() > 0.0)
            .map(|(s, own)| 100.0 * own / s.ms())
            .collect()
    }

    /// The spans and the per-family self times as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"self_ms\":{");
        for (i, (name, ms)) in self.self_ms_by_family().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{name}\":{ms}");
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.op(|t| {
            t.span("a", |_| spin(4));
            t.span("b", |t| t.span("c", |_| spin(4)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, OP);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 1));
        let own = t.self_ms_by_family();
        assert!(own["b"] < 1.0, "b only waits on c: {own:?}");
        assert!(own["c"] >= 4.0);
        let unattributed = t.unattributed_pct();
        assert_eq!(unattributed.len(), 1);
        assert!(unattributed[0] < 10.0, "{unattributed:?}");
        assert_eq!(t.per_op_ms("a").len(), 1);
    }

    #[test]
    fn absorbed_recorders_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, 0);
        a.op(|t| t.span("x", |_| ()));
        let mut b = Tracer::new(origin, 1 << 32);
        b.op(|t| t.span("y", |_| ()));
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans[3].name, "y");
        assert_eq!(spans[3].parent, Some(2));
        assert_ne!(spans[0].op, spans[2].op);
        assert!(a.to_json().contains("\"name\":\"y\""));
    }
}
