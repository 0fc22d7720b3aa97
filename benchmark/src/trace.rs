//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory and are written as JSON lines when the run ends.
//! A span names the span that caused it (`parent`, 0 = none) and the
//! request it belongs to. A `shadow` span did not run inside its parent:
//! it is a direct call on the same inputs (e.g. `ModelSnapshot::score_cold`
//! on the ids a `shard.scatter` just scored), timed right after, standing
//! in for work the parent did behind a boundary the benchmark cannot see
//! into from outside.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Monotonic nanoseconds since the clock was created.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// 1-based; 0 is "no span".
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub shadow: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(clock: Clock) -> Tracer {
        Tracer { clock, spans: Vec::new() }
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u32, shadow: bool) -> u32 {
        let now = self.clock.now_ns();
        self.record(name, parent, request, now, now, shadow)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.clock.now_ns();
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        start_ns: u64,
        end_ns: u64,
        shadow: bool,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { name, id, parent, request, start_ns, end_ns, shadow });
        id
    }

    /// Times `f` as a child span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        shadow: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.clock.now_ns();
        let out = f();
        let end = self.clock.now_ns();
        self.record(name, parent, request, start, end, shadow);
        out
    }

    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// durations of its direct children (shadow children included — they stand
/// for work done inside the parent), floored at zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != 0 {
            child_sum[span.parent as usize - 1] += span.duration_ns();
        }
    }
    spans.iter().zip(child_sum).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Durations (ns) of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
}

/// Sum of self times over spans whose name starts with any of `prefixes`.
pub fn self_time_sum_ns(spans: &[Span], self_times: &[u64], prefixes: &[&str]) -> u64 {
    spans
        .iter()
        .zip(self_times)
        .filter(|(s, _)| prefixes.iter().any(|p| s.name.starts_with(p)))
        .map(|(_, &t)| t)
        .sum()
}

/// Writes spans as JSON lines: every layer span, and the client-side
/// `socket.*` spans (three per request, by far the most) up to
/// `socket_limit`. Returns how many were written.
pub fn write_jsonl(path: &Path, spans: &[Span], socket_limit: usize) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let (mut written, mut sockets) = (0usize, 0usize);
    for s in spans {
        if s.name.starts_with("socket.") {
            sockets += 1;
            if sockets > socket_limit {
                continue;
            }
        }
        written += 1;
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"shadow\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns, s.shadow
        )?;
    }
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start: u64, end: u64, shadow: bool) -> Span {
        Span { name, id, parent, request: 1, start_ns: start, end_ns: end, shadow }
    }

    #[test]
    fn self_time_subtracts_direct_children_including_shadows() {
        let spans = vec![
            span("request", 1, 0, 0, 100, false),
            span("protocol.request_decode", 2, 1, 0, 10, false),
            span("shard.scatter", 3, 1, 10, 90, false),
            // Shadow: ran after the scatter, stands for compute inside it.
            span("manager.score_cold", 4, 3, 100, 130, true),
            span("tensor.row_dot", 5, 4, 130, 150, true),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![100 - 10 - 80, 10, 80 - 30, 30 - 20, 20]);
        // Every nanosecond of the root is attributed exactly once.
        assert_eq!(selfs.iter().sum::<u64>(), 100);
        assert_eq!(self_time_sum_ns(&spans, &selfs, &["manager.", "tensor.", "ann."]), 30);
        assert_eq!(durations_of(&spans, "shard.scatter"), vec![80]);
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        let spans = vec![span("a", 1, 0, 0, 10, false), span("b", 2, 1, 50, 75, true)];
        assert_eq!(self_times_ns(&spans), vec![0, 25]);
    }

    #[test]
    fn tracer_assigns_sequential_ids_and_nests() {
        let mut t = Tracer::new(Clock::start());
        let root = t.open("request", 0, 7, false);
        let out = t.time("child", root, 7, false, || 42);
        t.close(root);
        assert_eq!(out, 42);
        let spans = t.spans();
        assert_eq!((spans[0].id, spans[1].id, spans[1].parent), (1, 2, 1));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[1].request, 7);
    }
}
