//! Spans around the benchmark's calls into each layer.
//!
//! A span has a name, the layer it enters, start and end times, its
//! parent span and, inside a grid pass, the cell it belongs to. Spans are
//! kept in memory and written out when the run ends. A layer's self time
//! is the sum over its spans of each span's duration minus the time its
//! child spans cover. Spans inside the simulator are out of scope: the
//! benchmark records only the boundaries it calls through.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the call enters (`bench`, `workloads`, `isa`, `cpu`,
    /// `mem`, `core` or `exec`).
    pub layer: &'static str,
    /// The grid cell this span belongs to, inside a pass.
    pub cell: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds.
    pub start_ns: u64,
    /// End, in nanoseconds.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f` inside a span named `name` in `layer`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            cell,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// durations of its direct children (which nest inside it), summed by
/// layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.duration_ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, covered) in spans.iter().zip(children_ns) {
        *by_layer.entry(span.layer).or_insert(0) += span.duration_ns().saturating_sub(covered);
    }
    by_layer
}

/// Total duration of the root spans, in nanoseconds.
pub fn root_time(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|span| span.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let optional =
                |value: Option<usize>| value.map_or("null".to_string(), |v| v.to_string());
            format!(
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"cell\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                optional(span.parent),
                span.name,
                span.layer,
                optional(span.cell),
                span.start_ns,
                span.end_ns
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "call",
            layer,
            cell: None,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // bench [0, 100) holds exec [10, 70) and core [75, 95);
        // exec holds core [20, 50), which holds mem [30, 40).
        let spans = vec![
            span("bench", None, 0, 100),
            span("exec", Some(0), 10, 70),
            span("core", Some(1), 20, 50),
            span("mem", Some(2), 30, 40),
            span("core", Some(0), 75, 95),
        ];
        let times = self_times(&spans);
        assert_eq!(times["bench"], 100 - 60 - 20);
        assert_eq!(times["exec"], 60 - 30);
        assert_eq!(times["core"], (30 - 10) + 20);
        assert_eq!(times["mem"], 10);
        assert_eq!(times.values().sum::<u64>(), root_time(&spans));
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_off() {
        let mut tracer = Tracer::off();
        tracer.span("bench", "ignored", None, |_| ());
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        let value = tracer.span("bench", "pass", None, |t| {
            t.span("core", "try_run", Some(3), |_| 7)
        });
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, Some(3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = to_json(spans);
        assert!(json.contains("\"parent\":0,\"name\":\"try_run\",\"layer\":\"core\",\"cell\":3"));
    }
}
