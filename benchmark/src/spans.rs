//! The traced run's span recorder: one span around every call into a layer,
//! kept in memory and written out once at exit.
//!
//! Spans are recorded here, in the benchmark, around the layers' public
//! functions; the stage spans the program itself records
//! (`terra_trace::Profile::events`) are attached beneath the call that
//! produced them.

use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log for one workload.
#[derive(Debug)]
pub struct SpanLog {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(workload: &str) -> SpanLog {
        SpanLog {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span, and returns `f`'s result with the span's duration in seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Records an already-measured interval as a child of `parent` (used to
    /// attach the program's own stage spans). Returns the new span's id.
    pub fn attach(&mut self, parent: usize, name: &str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// The id the next recorded span will get.
    pub fn next_id(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by id: its duration minus the part
    /// of its interval that its direct children cover (overlapping children
    /// count once). One pass, so a log of tens of thousands of spans stays
    /// cheap to write out.
    pub fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(me, kids)| me.dur_ns() - covered_ns(kids, me.start_ns, me.end_ns))
            .collect()
    }

    /// Seconds covered by the spans whose name starts with `prefix`
    /// (overlaps counted once).
    pub fn covered_s(&self, prefix: &str) -> f64 {
        let named = self.spans.iter().filter(|s| s.name.starts_with(prefix));
        covered_ns(named.map(|s| (s.start_ns, s.end_ns)).collect(), 0, u64::MAX) as f64 / 1e9
    }

    /// Total duration in seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum::<u64>() as f64
            / 1e9
    }
}

/// Nanoseconds of `[from, to)` that `intervals` cover, overlaps counted once.
fn covered_ns(mut intervals: Vec<(u64, u64)>, from: u64, to: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = from;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(to));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// The logs as one JSON array of
/// `{id, parent, name, workload, start_ns, end_ns, self_ns}` objects; ids and
/// parents are per workload.
pub fn to_json(logs: &[SpanLog]) -> String {
    let mut rows = Vec::new();
    for log in logs {
        let self_ns = log.self_times();
        for (s, self_ns) in log.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            rows.push(format!(
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"workload\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.id,
                json_string(&s.name),
                json_string(&log.workload),
                s.start_ns,
                s.end_ns,
            ));
        }
    }
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
