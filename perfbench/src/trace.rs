//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! are kept in memory and written out once, when the benchmark ends. A
//! disabled tracer records nothing and only calls through, so the timed
//! code is the same in the traced and the untraced run.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (0 in a disabled tracer).
pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; `f` gets the new span's id to
    /// parent its own calls on. Safe to call from several threads.
    pub fn span<T>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce(SpanId) -> T) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Spans named `name`, in start order.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect()
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn secs(&self, name: &str) -> f64 {
        self.named(name).iter().map(Span::secs).sum()
    }

    /// Write every span with its self time as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns(s, &spans),
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `[start, end)` intervals.
pub fn covered_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (a, b) in sorted {
        open = match open {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children may overlap (they run on several
/// threads) or outlive the parent; each instant is subtracted once.
pub fn self_ns(span: &Span, all: &[Span]) -> u64 {
    let children: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    (span.end_ns - span.start_ns) - covered_ns(&children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_ignores_empty_intervals() {
        assert_eq!(covered_ns(&[]), 0);
        assert_eq!(covered_ns(&[(5, 5)]), 0);
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(covered_ns(&[(20, 30), (0, 10), (10, 12)]), 22);
        assert_eq!(covered_ns(&[(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_each_covered_instant_once() {
        let all = vec![
            span(1, None, 0, 100),
            // Two overlapping children on different threads: 10..50.
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            // A child that outlives its parent counts only up to 100.
            span(4, Some(1), 90, 120),
            // A grandchild does not count against the parent again.
            span(5, Some(2), 12, 14),
            // Another root's child does not count at all.
            span(6, None, 0, 10),
            span(7, Some(6), 60, 70),
        ];
        assert_eq!(self_ns(&all[0], &all), 100 - 40 - 10);
        assert_eq!(self_ns(&all[1], &all), 20 - 2);
        assert_eq!(self_ns(&all[4], &all), 2);
        assert_eq!(self_ns(&all[5], &all), 10);
    }

    #[test]
    fn tracer_records_nested_spans_and_disabled_records_none() {
        let on = Tracer::new(true);
        let inner = on.span("outer", None, |outer| {
            on.span("inner", Some(outer), |inner| inner)
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        let outer = &on.named("outer")[0];
        let child = &on.named("inner")[0];
        assert_eq!(child.id, inner);
        assert_eq!(child.parent, Some(outer.id));
        assert!(outer.start_ns <= child.start_ns && child.end_ns <= outer.end_ns);
        assert_eq!(
            self_ns(outer, &spans),
            outer.end_ns - outer.start_ns - (child.end_ns - child.start_ns)
        );

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", None, |id| id + 7), 7);
        assert!(off.spans().is_empty());
    }
}
