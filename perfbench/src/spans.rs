//! In-memory span recorder for the traced run, written out at exit as
//! Chrome trace-event JSON (open it in `chrome://tracing` or Perfetto).
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the library reads a clock.

use crate::json::quote;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one benchmark op share this id.
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a child span of `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let op = self.spans[parent].op;
        let id = self.begin(name, Some(parent), op);
        let out = f();
        self.end(id);
        out
    }

    /// Total nanoseconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut t = BTreeMap::new();
        for s in &self.spans {
            *t.entry(s.name).or_insert(0) += s.ns();
        }
        t
    }

    /// Durations (ms) of every span with this name, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, one
    /// thread row per op so nested spans stack.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                quote(s.name),
                s.op,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.op,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_as_parseable_chrome_json() {
        let mut tr = Tracer::new();
        let op = tr.begin("op", None, 7);
        let x = tr.span("lower", op, || 41 + 1);
        tr.span("sim", op, || ());
        tr.end(op);
        assert_eq!(x, 42);
        assert_eq!(tr.spans[1].parent, Some(op));
        assert_eq!(tr.spans[2].op, 7);
        assert!(tr.spans[0].ns() >= tr.spans[1].ns() + tr.spans[2].ns());
        let v = crate::json::parse(&tr.chrome_json()).unwrap();
        let crate::json::Value::Arr(ev) = v.get("traceEvents").unwrap() else {
            panic!("traceEvents is an array")
        };
        assert_eq!(ev.len(), 3);
        assert_eq!(
            ev[2].get("args").unwrap().get("parent").unwrap().num(),
            Some(0.0)
        );
        assert_eq!(tr.durations_ms("sim").len(), 1);
    }
}
