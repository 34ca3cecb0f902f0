//! In-memory spans for the traced run.
//!
//! Each span records its name, start, end, parent and request id. Spans
//! stay in memory while the run measures and are written out as JSON
//! lines when it ends. A span name is `<layer>.<call>`; the layer is the
//! crate whose public function the span times (`em-serve`, `em-codec`,
//! `core`, ...), or `bench`/`replay` for the benchmark's own work.
//! Self time is a span's duration minus the part of it its children
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use em_codec::json::Value;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    /// Nanoseconds since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or record) the span belongs to.
    pub request: u64,
}

impl Span {
    /// The layer part of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans; nesting follows `enter`/`exit` order.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let start = self.offset(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.offset(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = end;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an interval measured elsewhere (the live client phase).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start, end) = (self.offset(start), self.offset(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in nanoseconds.
    pub fn duration(&self, id: usize) -> u64 {
        self.spans[id].duration()
    }

    /// Self time of every span, in nanoseconds, indexed like `spans()`.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| span.duration() - covered(span.start, span.end, kids))
            .collect()
    }

    /// Per-name self times in nanoseconds, one entry per call.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(span.name).or_default().push(own);
        }
        by_name
    }

    /// Total self time per layer over the spans under the roots named
    /// `root`, and the roots' summed duration: the numerator and the
    /// denominator of a layer's share.
    pub fn layer_totals(&self, root: &str) -> (BTreeMap<&'static str, u64>, u64) {
        let own = self.self_times();
        let mut under_root = vec![false; self.spans.len()];
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut denominator = 0;
        // Parents always precede their children, so one forward pass
        // settles membership.
        for (i, span) in self.spans.iter().enumerate() {
            under_root[i] = span.name == root || span.parent.is_some_and(|p| under_root[p]);
            if span.name == root {
                denominator += span.duration();
            }
            if under_root[i] {
                *totals.entry(span.layer()).or_default() += own[i];
            }
        }
        (totals, denominator)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let line = Value::object(vec![
                ("id", i.into()),
                ("name", Value::string(span.name)),
                ("start_ns", Value::Number(span.start as f64)),
                ("end_ns", Value::Number(span.end as f64)),
                ("parent", span.parent.map_or(Value::Null, |p| p.into())),
                ("request", Value::Number(span.request as f64)),
            ])
            .to_json();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered(0, 100, vec![(10, 20), (15, 30), (90, 120)]), 30);
        assert_eq!(covered(0, 100, vec![]), 0);
        assert_eq!(covered(50, 60, vec![(0, 55)]), 5);
    }

    #[test]
    fn self_time_subtracts_children_and_shares_add_up() {
        let mut rec = Recorder::new();
        let t0 = rec.origin;
        let at = |us: u64| t0 + std::time::Duration::from_micros(us);
        let root = rec.record("replay.request", 1, at(0), at(100), None);
        let a = rec.record("em-serve.read", 1, at(0), at(30), Some(root));
        rec.record("em-codec.decode", 1, at(10), at(20), Some(a));
        rec.record("core.generate_view", 1, at(40), at(90), Some(root));
        let own = rec.self_times();
        assert_eq!(own, vec![20_000, 20_000, 10_000, 50_000]);
        let (totals, denominator) = rec.layer_totals("replay.request");
        assert_eq!(denominator, 100_000);
        assert_eq!(totals["em-serve"], 20_000);
        assert_eq!(totals.values().sum::<u64>(), denominator);
    }
}
