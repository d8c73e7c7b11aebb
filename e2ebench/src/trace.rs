//! Spans recorded around calls into the program's public functions.
//!
//! The traced run keeps every span in memory (name, start, end,
//! parent, request id), writes them out as TSV when the run ends, and
//! derives each layer's self time from them: a span's duration minus
//! the time its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span from instants; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: usize,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, start_ns, end_ns, parent, request)
    }

    /// Record a span from offsets in ns; returns its id.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, in ns, indexed like `spans`.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self times in ms grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            out.entry(s.name).or_default().push(ns as f64 / 1e6);
        }
        out
    }

    /// Durations in ms of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write `request, id, parent, name, start_ns, end_ns` lines.
    /// Spans recorded with [`Spans::record_ns`] from a duration alone
    /// (the query stages) carry placed, not observed, start and end.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "request\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                w,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new();
        let root = s.record_ns("request", 0, 100, None, 0);
        let q = s.record_ns("query", 10, 90, Some(root), 0);
        s.record_ns("query.profile", 10, 40, Some(q), 0);
        s.record_ns("query.candidates", 40, 85, Some(q), 0);
        assert_eq!(s.self_ns(), vec![20, 5, 30, 45]);
    }
}
