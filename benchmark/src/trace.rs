//! In-memory span recorder for the traced runs. Spans are recorded by
//! the harness around its calls into each layer's public functions and
//! written as JSON lines when the run ends; nothing here runs during an
//! untraced (end-to-end) measurement.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Per-event layers are aggregated to one span
/// per (layer, epoch) carrying how many calls it covers and how long
/// they were busy; a plain call has `count == 1` and
/// `busy_ns == end_ns - start_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub epoch: Option<u64>,
    pub count: u64,
    pub busy_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        epoch: Option<u64>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            epoch,
            count: 1,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::enter`]; returns its duration.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
        span.busy_ns
    }

    /// Times one call as a span.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        epoch: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent, epoch);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-measured stretch of `count` back-to-back calls.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        epoch: Option<u64>,
        (start_ns, end_ns): (u64, u64),
        count: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            epoch,
            count,
            busy_ns: end_ns - start_ns,
        });
    }

    /// Sum of `busy_ns` and of `count` over every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(busy, count), s| {
                (busy + s.busy_ns, count + s.count)
            })
    }

    /// A span's self time: its duration minus the part of that interval
    /// its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        self_ns(&self.spans, id)
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                 \"epoch\": {}, \"count\": {}, \"busy_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.epoch),
                s.count,
                s.busy_ns,
                self.self_ns(id)
            )?;
        }
        out.flush()
    }
}

fn self_ns(spans: &[Span], id: usize) -> u64 {
    let span = &spans[id];
    let children: u64 = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| c.end_ns.min(span.end_ns) - c.start_ns.max(span.start_ns).min(c.end_ns))
        .sum();
    (span.end_ns - span.start_ns).saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            epoch: None,
            count: 1,
            busy_ns: end_ns - start_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(100, 200, None),    // root: 100 long
            span(110, 140, Some(0)), // child: 30
            span(150, 190, Some(0)), // child: 40
            span(155, 160, Some(2)), // grandchild: counts against span 2 only
        ];
        assert_eq!(self_ns(&spans, 0), 30);
        assert_eq!(self_ns(&spans, 1), 30);
        assert_eq!(self_ns(&spans, 2), 35);
        assert_eq!(self_ns(&spans, 3), 5);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = vec![span(100, 200, None), span(180, 230, Some(0))];
        assert_eq!(self_ns(&spans, 0), 80);
    }

    #[test]
    fn recorded_calls_nest_and_total() {
        let mut t = Tracer::new();
        let root = t.enter("epoch", None, Some(3));
        t.call("model.snapshot", Some(root), Some(3), || {
            std::hint::black_box(1 + 1)
        });
        t.exit(root);
        t.aggregate("model.observe", Some(3), (5, 10), 7);
        assert_eq!(t.spans[1].parent, Some(root));
        assert!(t.self_ns(root) <= t.spans[root].busy_ns);
        assert_eq!(t.total("model.observe"), (5, 7));
    }
}
