//! In-memory span recorder.
//!
//! A span is one call the benchmark makes into a library crate's public API:
//! its name (`<crate>.<call>`, or `bench.<step>` for the benchmark's own
//! bookkeeping), start and end on the process CPU clock, the span that was
//! open when it started, and the op it belongs to. Spans stay in a `Vec`
//! until the run ends and are written out as JSON lines. With tracing off,
//! [`Tracer::span`] calls its closure and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::clock::cpu_ns;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and call count of every span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub self_ns: u64,
    pub calls: u64,
}

impl Totals {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    /// Process CPU time when the tracer was made, in ns.
    origin_ns: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin_ns: cpu_ns(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags every span opened from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        cpu_ns() - self.origin_ns
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` (through the
    /// tracer it is handed) become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Duration of the most recently closed span called `name`, in seconds.
    pub fn last_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 * 1e-9)
    }

    /// Self time of every span: its duration minus its children's. Children
    /// run one after another on the calling thread, so they never overlap.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Self time and calls per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(span.name).or_default();
            t.self_ns += own;
            t.calls += 1;
        }
        out
    }

    /// Σ self time, in seconds, of library-crate spans nested under spans
    /// called `root` (the benchmark's own `bench.*` spans are excluded).
    pub fn layer_self_s_under(&self, root: &str) -> f64 {
        let own = self.self_ns();
        let under_root = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if self.spans[p].name == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| !self.spans[i].name.starts_with("bench.") && under_root(i))
            .map(|i| own[i])
            .sum();
        ns as f64 * 1e-9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}
