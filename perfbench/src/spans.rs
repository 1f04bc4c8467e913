//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end and the span open when it began
//! (its parent). Spans stay in memory and are written out once, when
//! the run ends. A span's self time is its duration minus the time its
//! direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
pub struct Span {
    /// Layer call this span wraps.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a range of spans.
#[derive(Clone, Copy, Default)]
pub struct Totals {
    /// Sum of span durations, ns.
    pub ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Records nested spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Number of spans recorded so far (a mark for [`Tracer::totals_since`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals of the spans recorded since `mark`.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len() - mark];
        for s in &self.spans[mark..] {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_ns[p - mark] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans[mark..].iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.ns += s.ns();
            t.self_ns += s.ns().saturating_sub(child);
            t.count += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
