//! In-memory spans of the traced pass, written as JSON lines when the
//! workload ends.
//!
//! Spans are recorded by the benchmark around its calls into each layer —
//! nothing under `crates/` is instrumented. Each has a name, start, end,
//! the span that caused it (`parent`, 0 = the workload's root), and an
//! operation id `workload/pass/cycle-or-round`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// 1-based id of the causing span; 0 = the root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated cycle (run workloads) or round (campaign workloads).
    pub at: u64,
    /// A layer re-executed by the benchmark on the live state, outside
    /// its parent's interval: it shows what the parent spent its time on,
    /// not when.
    pub replay: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        start: Instant,
        end: Instant,
        at: u64,
        replay: bool,
    ) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            at,
            replay,
        });
        self.spans.len() as u32
    }

    /// Opens a span whose end is not known yet; [`close`](Self::close)
    /// sets it. Returns the span's id, so children can name it.
    pub fn open(&mut self, name: &'static str, parent: u32, start: Instant, at: u64) -> u32 {
        self.push(name, parent, start, start, at, false)
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize - 1].end_ns = self.ns(end);
    }

    /// Total duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time of the spans called `name`: their duration minus the
    /// duration of their direct children.
    pub fn self_ns(&self, name: &str) -> i64 {
        let mut total = 0i64;
        let mut child = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child[s.parent as usize] += s.dur_ns();
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                total += s.dur_ns() as i64 - child[i + 1] as i64;
            }
        }
        total
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path, workload: &str, pass: usize) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 112);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":\"{}/{}/{}\",\"replay\":{}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                workload,
                pass,
                s.at,
                s.replay
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Trace::new();
        let o = t.origin;
        let at = |ns: u64| o + Duration::from_nanos(ns);
        let parent = t.push("core.detect", 0, at(0), at(100), 50, false);
        let child = t.push("cwg.analyze", parent, at(200), at(230), 50, true);
        t.push("cwg.scc", child, at(205), at(215), 50, true);
        t.push("core.detect", 0, at(300), at(340), 100, false);
        assert_eq!(t.total_ns("core.detect"), 140);
        assert_eq!(t.self_ns("core.detect"), 110);
        assert_eq!(t.self_ns("cwg.analyze"), 20);
    }
}
