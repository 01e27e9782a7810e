//! In-memory span recording for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, the span that caused it, and the request it belongs
//! to. Spans stay in memory while the run measures and are written out once
//! it ends. A span's self time is its duration minus the part of it that
//! its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanRef = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanRef>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span log. Threads record into their own tracer and the
/// logs are merged with [`Tracer::absorb`] after the threads are joined.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its reference.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanRef>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        self.spans.push(Span {
            name,
            start: self.nanos(start),
            end: self.nanos(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is not known yet; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanRef>,
        request: u64,
        start: Instant,
    ) -> SpanRef {
        self.record(name, parent, request, start, start)
    }

    pub fn close(&mut self, span: SpanRef, end: Instant) {
        let end = self.nanos(end);
        self.spans[span].end = end;
    }

    /// Append another thread's spans, re-basing their parent references.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start: s.start + shift,
            end: s.end + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`, one sample per span.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e3)
            .collect()
    }

    /// Per-request total duration (µs) of the spans named `name`: one
    /// sample per request that has at least one such span.
    pub fn per_request_us(&self, name: &str) -> Vec<f64> {
        let mut totals: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(s.request).or_default() += s.duration();
        }
        let mut keys: Vec<u64> = totals.keys().copied().collect();
        keys.sort_unstable();
        keys.iter().map(|k| totals[k] as f64 / 1e3).collect()
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
            .collect()
    }

    /// Share of the time of the spans named `name` that none of their
    /// child spans covers.
    pub fn unattributed_ratio(&self, name: &str) -> f64 {
        let selves = self.self_times();
        let (mut own, mut total) = (0u64, 0u64);
        for (s, self_time) in self.spans.iter().zip(selves) {
            if s.name == name {
                own += self_time;
                total += s.duration();
            }
        }
        crate::stats::ratio(own as f64, total as f64)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start, s.end, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let o = Instant::now();
        let mut t = Tracer::new(o);
        let root = t.record("request", None, 1, at(o, 0), at(o, 100));
        // Overlapping children cover [10, 50); a child sticking out of the
        // parent counts only for the part inside it.
        t.record("a", Some(root), 1, at(o, 10), at(o, 30));
        t.record("b", Some(root), 1, at(o, 20), at(o, 50));
        let c = t.record("c", Some(root), 1, at(o, 90), at(o, 120));
        t.record("d", Some(c), 1, at(o, 95), at(o, 100));
        let selves = t.self_times();
        assert_eq!(selves[root], (100 - 40 - 10) * 1000);
        assert_eq!(selves[c], (30 - 5) * 1000);
        assert_eq!(selves[1], 20_000);
        let ratio = t.unattributed_ratio("request");
        assert!((ratio - 0.5).abs() < 1e-12, "{ratio}");
        assert_eq!(t.unattributed_ratio("c"), 25.0 / 30.0);
    }

    #[test]
    fn absorb_rebases_parents_and_times() {
        let o = Instant::now();
        let mut main = Tracer::new(o);
        main.record("x", None, 0, at(o, 0), at(o, 1));
        let mut other = Tracer::new(at(o, 50));
        let r = other.record("request", None, 7, at(o, 50), at(o, 60));
        other.record("child", Some(r), 7, at(o, 52), at(o, 58));
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[1].start, 50_000);
        assert_eq!(main.per_request_us("child"), vec![6.0]);
        assert_eq!(main.durations_us("request"), vec![10.0]);
    }
}
