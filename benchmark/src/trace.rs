//! In-memory spans for the traced pass. Spans are recorded from the
//! benchmark's own files, around calls into each layer's public functions;
//! they are kept in memory and written out when the run ends.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub workload: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted at the same boundary (events, confirmations, ops).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records a tree of spans; `open` nests under the innermost open span.
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize, counts: Vec<(&'static str, u64)>) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].counts = counts;
    }

    /// Run `f` inside a span named `name`; `f` returns its result and the
    /// counts to attach.
    pub fn span<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> (T, Vec<(&'static str, u64)>),
    ) -> T {
        let id = self.open(name);
        let (value, counts) = f(self);
        self.close(id, counts);
        value
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans: {:?}", self.open);
        self.spans
    }
}

/// Duration of the span named `name` (the first one, if several).
pub fn duration_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
}

/// Self time of every span: its duration minus the part its children cover.
/// `None` when a child reaches outside its parent or two siblings overlap,
/// i.e. when the spans are not well nested.
pub fn self_times_ns(spans: &[Span]) -> Option<Vec<u64>> {
    let mut covered = vec![0u64; spans.len()];
    let mut last_child_end = vec![0u64; spans.len()];
    for span in spans {
        if span.end_ns < span.start_ns {
            return None;
        }
        let Some(parent) = span.parent else { continue };
        let p = spans.get(parent)?;
        // Spans are stored in opening order, so siblings arrive in time order.
        if span.start_ns < p.start_ns.max(last_child_end[parent]) || span.end_ns > p.end_ns {
            return None;
        }
        last_child_end[parent] = span.end_ns;
        covered[parent] += span.duration_ns();
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(span, covered)| span.duration_ns().checked_sub(*covered))
        .collect()
}

/// Share of each root span's duration its direct children cover; the
/// smallest over all roots. 1.0 when there are no spans.
pub fn root_coverage(spans: &[Span]) -> f64 {
    let Some(self_ns) = self_times_ns(spans) else {
        return 0.0;
    };
    spans
        .iter()
        .zip(self_ns)
        .filter(|(span, _)| span.parent.is_none() && span.duration_ns() > 0)
        .map(|(span, own)| 1.0 - own as f64 / span.duration_ns() as f64)
        .fold(1.0, f64::min)
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|span| {
                Json::obj([
                    ("id", Json::Num(span.id as f64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("workload", Json::from(span.workload.as_str())),
                    ("name", Json::from(span.name.as_str())),
                    ("start_ns", Json::Num(span.start_ns as f64)),
                    ("end_ns", Json::Num(span.end_ns as f64)),
                    (
                        "counts",
                        Json::obj(span.counts.iter().map(|(k, v)| (*k, Json::Num(*v as f64)))),
                    ),
                ])
            })
            .collect(),
    )
}

/// One line per span name: calls, total and self milliseconds.
pub fn summary(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans).unwrap_or_else(|| vec![0; spans.len()]);
    let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_ns) {
        match rows.iter_mut().find(|row| row.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += span.duration_ns();
                row.3 += own;
            }
            None => rows.push((span.name.clone(), 1, span.duration_ns(), own)),
        }
    }
    let mut out = format!(
        "{:<28} {:>6} {:>12} {:>12}\n",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, calls, total, own) in rows {
        out.push_str(&format!(
            "{name:<28} {calls:>6} {:>12.3} {:>12.3}\n",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_have_non_negative_self_times() {
        let mut tracer = Tracer::new("w");
        tracer.span("root", |t| {
            t.span("a", |t| {
                t.span("a.1", |_| ((), vec![("ops", 3)]));
                ((), Vec::new())
            });
            t.span("b", |_| ((), Vec::new()));
            ((), Vec::new())
        });
        let spans = tracer.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].counts, vec![("ops", 3)]);
        let self_ns = self_times_ns(&spans).expect("well nested");
        let total: u64 = self_ns.iter().sum();
        assert_eq!(
            total,
            spans[0].duration_ns(),
            "self times partition the root"
        );
        assert!((0.0..=1.0).contains(&root_coverage(&spans)));
    }

    #[test]
    fn overlapping_or_escaping_spans_are_rejected() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            workload: "w".into(),
            name: format!("s{id}"),
            start_ns,
            end_ns,
            counts: Vec::new(),
        };
        let escaping = [span(0, None, 0, 10), span(1, Some(0), 5, 12)];
        assert!(self_times_ns(&escaping).is_none());
        let overlapping = [
            span(0, None, 0, 10),
            span(1, Some(0), 1, 6),
            span(2, Some(0), 5, 9),
        ];
        assert!(self_times_ns(&overlapping).is_none());
        assert_eq!(root_coverage(&overlapping), 0.0);
    }
}
