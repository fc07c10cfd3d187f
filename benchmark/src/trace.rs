//! In-memory spans recorded by the benchmark's own code around calls into
//! each crate's public functions.  Nothing inside the engine is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One timed interval.  `parent` indexes the span that was open when this one
/// started; spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Collects spans on the calling thread; written out once, at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Starts the next operation: spans recorded from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The id of the latest operation; with [`seconds_per_op`](Self::seconds_per_op)
    /// it restricts a query to what was recorded afterwards.
    pub fn mark(&self) -> u64 {
        self.op
    }

    /// Seconds spent in spans named `name` per operation after `mark`, one
    /// entry per operation that recorded any.
    pub fn seconds_per_op(&self, name: &str, mark: u64) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name && s.op > mark) {
            *per_op.entry(span.op).or_default() += span.seconds();
        }
        per_op.into_values().collect()
    }

    pub fn to_json(&self) -> Value {
        let own = self_seconds(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, own)| {
                    Value::obj([
                        ("name", Value::str(s.name)),
                        ("start_us", Value::Num(s.start_us)),
                        ("end_us", Value::Num(s.end_us)),
                        ("self_us", Value::Num(own * 1e6)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("op", Value::Num(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span in seconds: its duration minus the part of it its
/// direct children cover.
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.seconds();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("op", 0.0, 10e6, None, 1),
            span("job", 1e6, 7e6, Some(0), 1),
            span("map", 2e6, 5e6, Some(1), 1),
            span("aes", 7e6, 9e6, Some(0), 1),
        ];
        assert_eq!(self_seconds(&spans), vec![2.0, 3.0, 3.0, 2.0]);
    }

    #[test]
    fn spans_nest_and_group_by_operation() {
        let mut tracer = Tracer::new();
        for _ in 0..2 {
            tracer.next_op();
            tracer.span("outer", |t| {
                t.span("inner", |_| ());
                t.span("inner", |_| ());
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].op, spans[5].op), (1, 2));
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        assert_eq!(tracer.seconds_per_op("inner", 0).len(), 2, "one sum per op");
        assert_eq!(
            tracer.seconds_per_op("inner", 1).len(),
            1,
            "ops after the mark only"
        );
        let own = self_seconds(spans);
        assert!(own[0] >= 0.0 && own[0] <= spans[0].seconds());
        assert_eq!(tracer.to_json().as_arr().unwrap().len(), 6);
    }
}
