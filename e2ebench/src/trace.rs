//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON lines when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: layer name, interval, the span that caused it, and
/// the request it served.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<u32>,
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Span id within one [`Tracer`].
pub type SpanId = u32;

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Start a span that ends at [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let now = Instant::now();
        self.push(Span {
            name,
            start: now,
            end: now,
            parent,
            req,
        })
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end = Instant::now();
    }

    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.push(Span {
            name,
            start,
            end: Instant::now(),
            parent,
            req,
        });
        out
    }

    /// Move `other`'s spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Durations of every span named `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64() * 1e6)
            .collect()
    }

    /// Mean duration of the spans named `name`, microseconds (`NaN` if
    /// there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        crate::report::mean(&self.durations_us(name))
    }

    /// Per root span named `root`: its request id, its duration, and the
    /// summed duration of its direct children — the part of the root the
    /// layer spans account for.
    pub fn root_cover(&self, root: &str) -> Vec<(u64, Duration, Duration)> {
        let mut children: HashMap<SpanId, Duration> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_default() += s.dur();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| {
                let covered = children.get(&(i as SpanId)).copied().unwrap_or_default();
                (s.req, s.dur(), covered)
            })
            .collect()
    }

    /// Summed child time over summed root time, for roots named `root`.
    pub fn coverage(&self, root: &str) -> f64 {
        let (total, covered) = self
            .root_cover(root)
            .into_iter()
            .fold((0.0, 0.0), |(t, c), (_, d, cov)| {
                (t + d.as_secs_f64(), c + cov.as_secs_f64())
            });
        covered / total
    }

    /// Write every span as one JSON object per line (times in
    /// nanoseconds since the tracer was created).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name,
                ns(s.start),
                ns(s.end),
                s.req
            )?;
        }
        out.flush()
    }
}
