//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, case)`. Spans stay in memory
//! and are written out once, when the run ends, so recording costs two
//! clock reads and a push.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `verify.judge`.
    pub name: String,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Campaign case the span belongs to, if any.
    pub case: Option<u64>,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        case: Option<u64>,
    ) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
            case,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        ns_to_s(span.duration_ns())
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time, in seconds, of the spans called `name`.
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        let total: u64 = self_times_ns(&self.spans)
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum();
        ns_to_s(total)
    }

    /// The spans as a JSON array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"case\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.case),
            );
        }
        out.push_str("\n]");
        out
    }
}

#[allow(clippy::cast_precision_loss)]
fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".to_string(),
            start_ns,
            end_ns,
            parent,
            case: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the first child
            span(70, 80, Some(0)),
            span(25, 45, Some(2)), // grandchild: not the root's business
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[0], 100 - 40 - 10);
        assert_eq!(self_ns[2], 30 - 20);
        assert_eq!(self_ns[3], 10);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(10, 20, None),
            span(5, 15, Some(0)),
            span(18, 40, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10 - 5 - 2);
    }

    #[test]
    fn tracer_sums_self_time_by_name() {
        let mut tr = Tracer::default();
        let outer = tr.open("outer", None, None);
        let inner = tr.open("inner", Some(outer), Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.close(inner);
        tr.close(outer);
        let (outer_s, inner_s) = (tr.self_s("outer"), tr.self_s("inner"));
        assert!(inner_s >= 0.002);
        assert!(outer_s >= 0.0 && outer_s < inner_s);
        assert_eq!(tr.spans()[inner].case, Some(7));
        assert!(tr.to_json().contains("\"name\": \"inner\""));
    }
}
