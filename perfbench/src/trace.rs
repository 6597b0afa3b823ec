//! In-memory spans for the traced run: name, start, end, parent and
//! request id, written out once at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.optimize`.
    pub name: &'static str,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// End, µs since the tracer's origin.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose origin is now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::finish`] closes; returns its index.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Closes span `idx` now.
    pub fn finish(&mut self, idx: usize) {
        self.spans[idx].end_us = self.us(Instant::now());
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let idx = self.record(name, start, Instant::now(), parent, request);
        (out, idx)
    }

    /// Re-parents span `child` under `parent` (for spans recorded before
    /// their enclosing span closed).
    pub fn set_parent(&mut self, child: usize, parent: usize) {
        self.spans[child].parent = Some(parent);
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus the part of it that
    /// its direct children cover.
    pub fn self_time_us(&self, idx: usize) -> f64 {
        let span = &self.spans[idx];
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_us, s.end_us))
            .collect();
        self_time(span.start_us, span.end_us, &children)
    }

    /// The spans as one JSON document (`{"spans": [...]}`), self times
    /// included.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n  ");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}}}",
                s.name,
                s.request,
                s.start_us,
                s.end_us,
                self.self_time_us(i)
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Duration of `[start, end]` not covered by any of `children`; child
/// intervals are clipped to the parent and overlaps count once.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}
