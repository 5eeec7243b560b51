//! In-memory spans recorded from the benchmark's own files, around calls
//! into each crate's public API, and written out as JSON lines at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval: `trace_id` groups the spans of one tune or one
/// registry request; `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one clock origin.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds from this tracer's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn push(
        &mut self,
        trace_id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let span_id = self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            trace_id,
            span_id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        span_id
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace_id\":{},\"span_id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace_id, s.span_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once, children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> =
        spans.iter().map(|s| (s.span_id, (s.start_ns, s.end_ns))).collect();
    for s in spans {
        if let Some((ps, pe)) = s.parent.and_then(|p| bounds.get(&p)) {
            let (start, end) = (s.start_ns.max(*ps), s.end_ns.min(*pe));
            if start < end {
                children.entry(s.parent.expect("checked above")).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.span_id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
            }
            (s.span_id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += selfs[&s.span_id];
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span_id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { trace_id: 1, span_id, parent, name: "x", start_ns, end_ns }
    }

    #[test]
    fn nested_children_are_subtracted_level_by_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [span(1, None, 0, 100), span(2, Some(1), 10, 60), span(3, Some(2), 20, 30)];
        let t = self_times(&spans);
        assert_eq!(t[&1], 50, "root loses only its direct child");
        assert_eq!(t[&2], 40);
        assert_eq!(t[&3], 10);
        assert_eq!(t.values().sum::<u64>(), 100, "self times partition the root");
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Children 10..50 and 30..70 overlap; 90..120 sticks out of the parent.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
            span(4, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 60 - 10);
    }

    #[test]
    fn a_child_contained_in_a_sibling_adds_nothing() {
        let spans = [span(1, None, 0, 100), span(2, Some(1), 10, 90), span(3, Some(1), 20, 30)];
        assert_eq!(self_times(&spans)[&1], 20);
    }
}
