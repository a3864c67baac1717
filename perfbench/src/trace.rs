//! The benchmark's own span recorder, used only in the traced run. Spans
//! wrap the benchmark's calls into each layer's public functions; nothing
//! inside the program is instrumented. Spans stay in memory and are written
//! out once, as Chrome `trace_event` JSON, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    tid: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    tid: u64,
    counts: BTreeMap<&'static str, u64>,
}

/// The name of the per-op root span. It is the benchmark's own time (op
/// dispatch, oracle), not a layer's, so layer coverage leaves it out.
pub const OP: &str = "op";

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::on_thread(Instant::now(), 1)
    }

    /// A tracer for thread `tid` whose timestamps count from `epoch`, so
    /// several threads' spans [`merge`](Tracer::merge) onto one timeline.
    pub fn on_thread(epoch: Instant, tid: u64) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            tid,
            counts: BTreeMap::new(),
        }
    }

    /// Take over another thread's spans and counts.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + offset);
            span.op += self.op;
            self.spans.push(span);
        }
        self.op += other.op;
        for (name, count) in other.counts {
            *self.counts.entry(name).or_default() += count;
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: self.op,
            tid: self.tid,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now_ns();
        let result = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        result
    }

    /// Run one op under a fresh op id and an [`OP`] root span.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op += 1;
        self.span(OP, f)
    }

    /// Add `value` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_default() += value;
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Sum of every layer's self time (all spans but the op roots).
    pub fn layer_seconds(&self) -> f64 {
        self.self_seconds()
            .iter()
            .filter(|(name, _)| **name != OP)
            .map(|(_, s)| s)
            .sum()
    }

    pub fn to_chrome_json(&self) -> String {
        let events: Vec<qcirc::json::Json> = self
            .spans
            .iter()
            .map(|s| {
                qcirc::json::Json::obj()
                    .field("name", s.name)
                    .field("ph", "X")
                    .field("ts", s.start_ns as f64 / 1e3)
                    .field("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .field("pid", 1u64)
                    .field("tid", s.tid)
                    .field(
                        "args",
                        qcirc::json::Json::obj()
                            .field("op", s.op)
                            .field("parent", s.parent.map(|p| p as u64)),
                    )
                    .build()
            })
            .collect();
        qcirc::json::Json::obj()
            .field("traceEvents", qcirc::json::Json::Array(events))
            .build()
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.op(|t| {
            t.span("outer", |t| {
                t.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
        });
        let own = t.self_seconds();
        assert!(own["inner"] >= 0.005);
        assert!(own["outer"] < own["inner"]);
        assert!(t.layer_seconds() >= own["inner"]);
        assert!(t.to_chrome_json().contains("\"name\":\"inner\""));
    }
}
