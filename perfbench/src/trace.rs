//! In-memory spans for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side:
//! name, start, end and the span that caused it. Spans of one
//! transaction share its id. Nothing is written until the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The transaction (or request) the call served.
    pub txn: u64,
    /// Layer-qualified name, such as `storage.exec`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    /// Nanoseconds since the recorder was created.
    pub end: u64,
}

/// The span store of one run.
#[derive(Debug)]
pub struct Spans {
    base: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { base: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, txn: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.ns(Instant::now());
        self.spans.push(Span { txn, name, parent, start, end: start });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end = end;
    }

    /// Record a span whose bounds the caller already took.
    pub fn record(&mut self, txn: u64, name: &'static str, start: Instant, end: Instant) {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span { txn, name, parent: None, start, end });
    }

    /// Self time of every span: its duration minus the time its
    /// children cover. Children of one span never overlap, because the
    /// spans come from one thread calling the layers one at a time.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Self times, in nanoseconds, of the spans called `name`.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let own = self.self_times();
        self.spans.iter().zip(own).filter(|(s, _)| s.name == name).map(|(_, t)| t as f64).collect()
    }

    /// Summed self time of the spans called `name`, in nanoseconds.
    pub fn total_self_ns(&self, name: &str) -> f64 {
        self.self_ns(name).iter().sum()
    }

    /// Write every span as a tab-separated line: txn, id, parent, name,
    /// start, end, self (nanoseconds).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "txn\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(out, "{}\t{id}\t{parent}\t{}\t{}\t{}\t{own}", s.txn, s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        s.spans.push(Span { txn: 1, name: "root", parent: None, start: 0, end: 100 });
        s.spans.push(Span { txn: 1, name: "a", parent: Some(0), start: 10, end: 30 });
        s.spans.push(Span { txn: 1, name: "b", parent: Some(0), start: 40, end: 90 });
        s.spans.push(Span { txn: 1, name: "c", parent: Some(2), start: 50, end: 60 });
        assert_eq!(s.self_times(), vec![30, 20, 40, 10]);
        assert_eq!(s.total_self_ns("b"), 40.0);
    }
}
