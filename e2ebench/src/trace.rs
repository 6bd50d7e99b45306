//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a layer's public functions. A span's layer is the part of
//! its name before the first `.`; its self time is its duration minus
//! the durations of its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
    /// A disabled tracer runs the same calls without recording, so the
    /// difference between the two is the cost of tracing.
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            enabled: true,
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a new request: later spans share its id.
    pub fn begin_request(&mut self) -> u32 {
        self.request += 1;
        self.request
    }

    /// Runs `f` inside a span named `name`, nested under any open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let request = self.request;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(idx);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.open.pop();
        let s = &mut self.spans[idx as usize];
        s.start_ns = start;
        s.end_ns = end;
        out
    }

    /// Records an already-measured top-level span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u32) {
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: NO_PARENT,
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per layer, in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Total duration and call count of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.end_ns - s.start_ns, n + 1))
    }

    /// Mean duration of the spans named `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        crate::stats::frac(ns as f64 / 1e3, n as f64)
    }

    /// Time covered by the union of the top-level spans, in nanoseconds.
    pub fn covered_ns(&self) -> u64 {
        let mut top: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        top.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (start, end) in top {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin_request();
        t.span("optimizer.search", |t| {
            t.span("core.aggregate", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let layers = t.layer_self_ns();
        assert!(layers["core"] >= 4_000_000);
        assert!(layers["optimizer"] < layers["core"]);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].request, t.spans()[0].request);
    }

    #[test]
    fn coverage_counts_overlaps_once() {
        let mut t = Tracer::new();
        let at = |ms: u64| t.origin + std::time::Duration::from_millis(ms);
        let (a, b, c, d) = (at(0), at(10), at(5), at(20));
        t.record("queue.fill", a, b, 1);
        t.record("server.service", c, d, 1);
        assert_eq!(t.covered_ns(), 20_000_000);
    }
}
