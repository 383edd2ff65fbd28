//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing is written until the run ends. A span's self
//! time is its duration minus what its direct children cover.

use crate::clock::{self, Stamp};
use soc_sim::json::{array, Obj};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index in the recorder (stable identifier).
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// What ran (`rep`, `kernels`, a kernel name, …).
    pub name: String,
    /// Crate the work belongs to (`soc`, `simcore`, `can`, …).
    pub layer: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Operations the span performed (0 when not counted).
    pub ops: u64,
    /// `(name, ns, count)` attributes — the profiler's phases on `rep`.
    pub attrs: Vec<(String, u64, u64)>,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records a tree of spans; the innermost open span is the parent of the
/// next one opened.
pub struct Recorder {
    origin: Stamp,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// Start recording; timestamps count from now.
    pub fn new() -> Self {
        Recorder {
            origin: clock::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str, layer: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: 0,
            ops: 0,
            attrs: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`, and return its
    /// duration in seconds.
    pub fn close(&mut self, id: usize, ops: u64) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.ops = ops;
        span.duration_ns() as f64 / 1e9
    }

    /// Attach a `(ns, count)` attribute to a span.
    pub fn attr(&mut self, id: usize, name: &str, ns: u64, count: u64) {
        self.spans[id].attrs.push((name.to_string(), ns, count));
    }

    /// Duration of `id` minus the durations of its direct children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// The whole tree as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans = array(self.spans.iter().map(|s| {
            let attrs = array(s.attrs.iter().map(|(name, ns, count)| {
                Obj::new()
                    .str("name", name)
                    .u64("ns", *ns)
                    .u64("count", *count)
                    .finish()
            }));
            Obj::new()
                .u64("id", s.id as u64)
                .opt_u64("parent", s.parent.map(|p| p as u64))
                .str("name", &s.name)
                .str("layer", s.layer)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .u64("self_ns", self.self_ns(s.id))
                .u64("ops", s.ops)
                .raw("attrs", &attrs)
                .finish()
        }));
        Obj::new()
            .str("workload", workload)
            .u64("seed", seed)
            .raw("spans", &spans)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut rec = Recorder::new();
        let root = rec.open("workload", "soc");
        let a = rec.open("rep", "soc");
        rec.close(a, 1);
        let b = rec.open("kernels", "soc");
        let c = rec.open("queue_hold", "simcore");
        rec.close(c, 10);
        rec.close(b, 0);
        rec.close(root, 0);
        // Pin the timestamps so the arithmetic is exact.
        let set = |rec: &mut Recorder, id: usize, s: u64, e: u64| {
            rec.spans[id].start_ns = s;
            rec.spans[id].end_ns = e;
        };
        set(&mut rec, root, 0, 100);
        set(&mut rec, a, 10, 40);
        set(&mut rec, b, 50, 90);
        set(&mut rec, c, 55, 75);
        assert_eq!(rec.self_ns(root), 100 - 30 - 40);
        assert_eq!(
            rec.self_ns(b),
            40 - 20,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(rec.self_ns(c), 20);
        assert_eq!(rec.spans[c].parent, Some(b));
        assert_eq!(rec.spans[root].parent, None);
        assert_eq!(rec.spans[c].ops, 10);
    }

    #[test]
    fn json_carries_every_span_field() {
        let mut rec = Recorder::new();
        let root = rec.open("workload", "soc");
        rec.attr(root, "deliver", 5, 2);
        rec.close(root, 3);
        let doc = soc_sim::json::parse(&rec.to_json("paper-cell", 7)).expect("valid JSON");
        let span = &doc.get("spans").and_then(|s| s.as_array()).expect("spans")[0];
        for key in [
            "id", "parent", "name", "layer", "start_ns", "end_ns", "self_ns", "ops",
        ] {
            assert!(span.get(key).is_some(), "missing {key}");
        }
        assert_eq!(span.get("ops").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(7));
    }
}
