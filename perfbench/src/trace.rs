//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer stage, e.g. `eval.label_seq`.
    pub name: &'static str,
    /// Request the span belongs to (a query or a protocol command).
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// Length of the interval.
    pub len: Duration,
}

/// Span store for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose origin is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty tracer measuring from `origin`, so spans of tracers
    /// sharing an origin line up when merged.
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Appends another tracer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Records a finished span that started at `start`; returns its index
    /// for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        len: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start: start.saturating_duration_since(self.origin),
            len,
        });
        self.spans.len() - 1
    }

    /// Sets the length of a span recorded before its end was known.
    pub fn set_len(&mut self, idx: usize, len: Duration) {
        self.spans[idx].len = len;
    }

    /// Times `f` as a span named `name` and returns its value.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, request, parent, start, start.elapsed());
        value
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.len.as_secs_f64() * 1e3)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_us\": {:.3}, \"len_us\": {:.3}}}",
                s.name,
                s.request,
                s.start.as_secs_f64() * 1e6,
                s.len.as_secs_f64() * 1e6
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merges_keep_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::with_origin(origin);
        let root = a.record("query", 1, None, origin, Duration::from_millis(10));
        a.record("stage", 1, Some(root), origin, Duration::from_millis(3));
        let mut b = Tracer::with_origin(origin);
        let root_b = b.record("query", 2, None, origin, Duration::from_millis(5));
        b.record("stage", 2, Some(root_b), origin, Duration::from_millis(4));
        a.absorb(b);
        assert!((a.total_ms("stage") - 7.0).abs() < 1e-9);
        assert_eq!(a.total_ms("missing"), 0.0);
        assert_eq!(a.spans()[3].parent, Some(2));
    }

    #[test]
    fn writes_one_line_per_span() {
        let mut t = Tracer::new();
        let v = t.time("x", 7, None, || 41 + 1);
        assert_eq!(v, 42);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out")
            .join(format!("trace-selftest-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\": \"x\", \"request\": 7"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
