//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, and the per-op self-time ledger derived from them.
//!
//! A span has a name, start, end, parent and op id. Its self time is
//! its duration minus the durations of its direct children. Spans are
//! kept in memory while the run measures; the spans of the first
//! [`KEPT_OPS`] ops are written out as JSON lines when it ends, so the
//! file stays bounded however many ops a run makes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Ops whose raw spans are kept for the trace file.
pub const KEPT_OPS: u64 = 3;

/// One recorded span. Times are nanoseconds since the tracer's base.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one op at a time.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    op: u64,
    /// Spans of the op in progress; index = span id.
    current: Vec<Span>,
    open: Vec<usize>,
    kept: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            base: Instant::now(),
            op: 0,
            current: Vec::new(),
            open: Vec::new(),
            kept: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Starts op `op`; spans recorded from now on carry its id.
    pub fn start_op(&mut self, op: u64) {
        assert!(self.open.is_empty(), "previous op left spans open");
        self.op = op;
        self.current.clear();
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.current.len();
        self.current.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close in order");
        self.current[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Records a finished root span measured by the caller.
    pub fn record_root(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
        let span = Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            op: self.op,
        };
        self.current.push(span);
    }

    /// The position of the next span, for [`Tracer::top_level_ms_since`].
    pub fn mark(&self) -> usize {
        self.current.len()
    }

    /// Summed duration, in milliseconds, of the top-level spans
    /// recorded since `mark`.
    pub fn top_level_ms_since(&self, mark: usize) -> f64 {
        self.current[mark..]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Ends the op: returns self time per span name in milliseconds,
    /// and keeps the raw spans if the op is among the first few.
    pub fn finish_op(&mut self) -> BTreeMap<&'static str, f64> {
        assert!(self.open.is_empty(), "op finished with spans open");
        let ledger = self_times_ms(&self.current);
        if self.op < KEPT_OPS {
            let offset = self.kept.len();
            self.kept.extend(self.current.drain(..).map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            }));
        }
        ledger
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.kept.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time per span name, in milliseconds: each span's duration
/// minus its direct children's, summed over spans of that name.
#[must_use]
pub fn self_times_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = s.dur_ns().saturating_sub(children) as f64 / 1e6;
        *out.entry(s.name).or_insert(0.0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("op", 0, 10_000_000, None),
            span("assemble", 1_000_000, 8_000_000, Some(0)),
            span("load", 2_000_000, 3_000_000, Some(1)),
            span("load", 4_000_000, 6_000_000, Some(1)),
            span("emit", 8_000_000, 9_000_000, Some(0)),
        ];
        let t = self_times_ms(&spans);
        assert_eq!(t["op"], 2.0);
        assert_eq!(t["assemble"], 4.0);
        assert_eq!(t["load"], 3.0);
        assert_eq!(t["emit"], 1.0);
        assert_eq!(
            t.values().sum::<f64>(),
            10.0,
            "self times add up to the root"
        );
    }

    #[test]
    fn tracer_nests_and_keeps_first_ops() {
        let mut tr = Tracer::default();
        for op in 0..KEPT_OPS + 2 {
            tr.start_op(op);
            let root = tr.begin("op");
            tr.time("child", || std::hint::black_box(1 + 1));
            tr.end(root);
            let ledger = tr.finish_op();
            assert_eq!(ledger.len(), 2);
        }
        assert_eq!(tr.kept.len() as u64, 2 * KEPT_OPS);
        assert_eq!(tr.kept[3].parent, Some(2), "parents are re-based per op");
    }
}
