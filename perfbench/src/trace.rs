//! In-memory spans recorded around calls into the library's public API.
//!
//! Nothing here reaches inside the library crates: every span brackets one
//! call made from the benchmark's own code. Spans carry the request they
//! belong to and the span that caused them; a layer's *self time* is its
//! span's duration minus the time its child spans cover. When tracing is
//! off, [`Tracer::begin`] and [`Tracer::end`] record nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.mcmc.search`.
    pub name: &'static str,
    /// Request (or phase item) the span belongs to.
    pub req: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start: u64,
    /// End, nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder plus named counters, both kept in memory until the end.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
    counters: BTreeMap<&'static str, f64>,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Number of spans.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Tag subsequent spans with request `req`.
    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            req: self.req,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`] (spans close innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Add `v` to counter `name` (recorded only when tracing is on).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Aggregate spans by name: call count, self time, wall time.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end - s.start;
            let a = out.entry(s.name).or_default();
            a.calls += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// All spans as JSON lines (name, request, start, end, parent).
    pub fn dump(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 64);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.req, s.start, s.end, parent
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let agg = t.aggregate();
        let (o, i) = (agg["outer"], agg["inner"]);
        assert_eq!((o.calls, i.calls), (1, 1));
        assert!(i.self_ns >= 2_000_000);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        t.count("c", 1.0);
        assert!(t.aggregate().is_empty());
        assert_eq!(t.counter("c"), 0.0);
    }
}
