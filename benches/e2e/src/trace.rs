//! The harness's in-memory span recorder.
//!
//! The driver is single-threaded, so the open spans form a stack: a span
//! started while another is open is its child. Spans are kept in memory
//! and written once, at exit, in Chrome trace format (the viewer that
//! opens `flight.trace.json`). A recorder that is off records nothing and
//! costs one branch per span, so the untraced repetitions run the same
//! code as the traced one.

use std::path::Path;
use std::time::Instant;

use crate::stats::json_string;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Microseconds since the recorder was made.
    pub start_us: f64,
    /// Microseconds since the recorder was made (`start_us` while open).
    pub end_us: f64,
}

/// The recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Every span's self time: its duration minus the part its children
    /// cover (children of one parent never overlap here).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.end_us - span.start_us;
            }
        }
        own
    }

    /// Write the spans as Chrome `trace_event` JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times_us();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push_str(",\n");
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{index},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                json_string(&span.name),
                span.start_us,
                span.end_us - span.start_us,
                own[index],
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
