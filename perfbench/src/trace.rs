//! In-memory spans for the traced layer replay.
//!
//! A span records its name, the event it re-executes, start, end and its
//! parent span. Spans stay in memory while the replay runs and are
//! written out once at the end. A span's self time is its duration minus
//! the part of its interval that its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks spans that belong to no particular event.
pub const NO_EVENT: usize = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub event: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, event: usize) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            event,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, event: usize, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, event);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time of every span called `name`, in ns.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64)
            .collect()
    }

    /// Duration of every span called `name`, less its direct children
    /// called `except`, in ns.
    pub fn totals_less(&self, name: &str, except: &str) -> Vec<f64> {
        let mut skip_ns = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.name == except) {
            if let Some(p) = s.parent {
                skip_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(skip_ns[i]) as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let event = if s.event == NO_EVENT {
                "null".to_string()
            } else {
                s.event.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","event":{event},"start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 0);
        t.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let outer_self = t.self_times("outer")[0];
        let inner = t.self_times("inner")[0];
        let total = (t.spans[0].end_ns - t.spans[0].start_ns) as f64;
        assert!(inner >= 5e6);
        assert!((outer_self + inner - total).abs() < 1.0);
        assert_eq!(t.totals_less("outer", "inner"), vec![outer_self]);
        assert_eq!(t.totals_less("outer", "other"), vec![total]);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
