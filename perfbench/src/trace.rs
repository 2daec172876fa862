//! The traced run's span store: the benchmark's own spans around every
//! public call it makes, plus the program's telemetry spans, each tagged with
//! the op it belongs to and placed on the benchmark's timeline.

use slfe_metrics::{chrome_trace_json, json, SpanEvent, Table};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Category of the spans the benchmark records around its own calls.
pub const BENCH: &str = "bench";

/// Op tag of spans recorded outside the measured op sequence (set-up).
pub const SETUP_OP: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Tagged {
    op: u32,
    span: SpanEvent,
}

/// Self and total time of one `(category, name)` span kind.
#[derive(Debug, Clone, PartialEq)]
pub struct FlameRow {
    /// Span category (the layer).
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub count: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Spans of one traced phase.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Tagged>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record the benchmark's call `name` of op `op`, from `start` to `end`.
    pub fn call(&mut self, op: u32, name: &'static str, start: Instant, end: Instant) {
        let start_ns = self.ns(start);
        self.spans.push(Tagged {
            op,
            span: SpanEvent {
                name,
                cat: BENCH,
                track: 0,
                start_ns,
                dur_ns: self.ns(end).saturating_sub(start_ns),
            },
        });
    }

    /// Add program spans caused by the benchmark call `[start, end]` of op
    /// `op`. They were recorded on a telemetry hub whose clock origin is not
    /// exposed, so the block keeps its exact durations and relative offsets
    /// and is centred inside the call.
    pub fn absorb(&mut self, op: u32, spans: &[SpanEvent], start: Instant, end: Instant) {
        let lo = spans.iter().map(|s| s.start_ns).min();
        let hi = spans.iter().map(|s| s.start_ns + s.dur_ns).max();
        let (Some(lo), Some(hi)) = (lo, hi) else {
            return;
        };
        let (a, b) = (self.ns(start), self.ns(end));
        let base = a + (b - a).saturating_sub(hi - lo) / 2;
        for s in spans {
            self.spans.push(Tagged {
                op,
                span: SpanEvent {
                    start_ns: base + (s.start_ns - lo),
                    ..*s
                },
            });
        }
    }

    /// Summed duration of the spans `cat`/`name` of the measured ops, ms.
    pub fn total_ms(&self, cat: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|t| t.op != SETUP_OP && t.span.cat == cat && t.span.name == name)
            .map(|t| t.span.dur_ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Summed self time of the spans `cat`/`name` of the measured ops, ms.
    pub fn self_ms(&self, cat: &str, name: &str) -> f64 {
        self.flame(false)
            .iter()
            .find(|r| r.cat == cat && r.name == name)
            .map_or(0.0, |r| r.self_ns as f64 / 1e6)
    }

    /// Self and total time per span kind, largest total first. A span's
    /// children are the spans of the same op it contains, each assigned to
    /// its innermost container. Set-up spans count only with `with_setup`.
    pub fn flame(&self, with_setup: bool) -> Vec<FlameRow> {
        let end = |s: &SpanEvent| s.start_ns + s.dur_ns;
        let mut by_op: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, t) in self.spans.iter().enumerate() {
            if with_setup || t.op != SETUP_OP {
                by_op.entry(t.op).or_default().push(i);
            }
        }
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for idxs in by_op.values_mut() {
            idxs.sort_by(|&a, &b| {
                let (x, y) = (&self.spans[a].span, &self.spans[b].span);
                x.start_ns.cmp(&y.start_ns).then(end(y).cmp(&end(x)))
            });
            let mut open: Vec<usize> = Vec::new();
            for &i in idxs.iter() {
                let s = self.spans[i].span;
                open.retain(|&o| end(&self.spans[o].span) > s.start_ns);
                let parent = open
                    .iter()
                    .rev()
                    .find(|&&o| end(&self.spans[o].span) >= end(&s))
                    .copied();
                if let Some(p) = parent {
                    children[p].push((s.start_ns, end(&s)));
                }
                open.push(i);
            }
        }
        let mut rows: BTreeMap<(&'static str, &'static str), FlameRow> = BTreeMap::new();
        for (i, t) in self.spans.iter().enumerate() {
            if !with_setup && t.op == SETUP_OP {
                continue;
            }
            let covered = union_len(&mut children[i]);
            let row = rows.entry((t.span.cat, t.span.name)).or_insert(FlameRow {
                cat: t.span.cat,
                name: t.span.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += t.span.dur_ns;
            row.self_ns += t.span.dur_ns.saturating_sub(covered);
        }
        let mut rows: Vec<FlameRow> = rows.into_values().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        rows
    }

    /// Write `<stem>.trace.json` (Chrome trace), `<stem>.flame.json` and
    /// `<stem>.flame.txt` (self/total flame table) into `dir`, checking both
    /// JSON documents with the workspace parser.
    pub fn write(&self, dir: &Path, stem: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let spans: Vec<SpanEvent> = self.spans.iter().map(|t| t.span).collect();
        let trace = chrome_trace_json(&spans);
        let rows = self.flame(true);
        let mut table = Table::new(
            format!("{stem}: self/total time per span"),
            &["span", "cat", "count", "total_ms", "self_ms"],
        );
        let mut objects = Vec::with_capacity(rows.len());
        for r in &rows {
            let (total, own) = (r.total_ns as f64 / 1e6, r.self_ns as f64 / 1e6);
            table.add_row(&[
                r.name.to_string(),
                r.cat.to_string(),
                r.count.to_string(),
                format!("{total:.3}"),
                format!("{own:.3}"),
            ]);
            objects.push(format!(
                "{{\"span\": {}, \"cat\": {}, \"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                json::string(r.name),
                json::string(r.cat),
                r.count,
                json::float(total),
                json::float(own)
            ));
        }
        let flame = format!("{{\"rows\": [{}]}}", objects.join(", "));
        for (doc, what) in [(&trace, "Chrome trace"), (&flame, "flame table")] {
            json::parse(doc)
                .map_err(|e| io::Error::other(format!("{stem} {what} is not JSON: {e}")))?;
        }
        std::fs::write(dir.join(format!("{stem}.trace.json")), trace)?;
        std::fs::write(dir.join(format!("{stem}.flame.json")), flame)?;
        std::fs::write(dir.join(format!("{stem}.flame.txt")), table.render())
    }
}

/// Length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match current {
            Some((s, e)) if a <= e => current = Some((s, e.max(b))),
            _ => {
                if let Some((s, e)) = current {
                    total += e - s;
                }
                current = Some((a, b));
            }
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            name,
            cat: "t",
            track: 0,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let now = Instant::now();
        // One op: a 100 ns parent with two overlapping 30 ns children
        // covering 40 ns, and one grandchild inside the first child.
        let spans = [
            span("parent", 0, 100),
            span("child", 10, 30),
            span("child", 20, 30),
            span("leaf", 12, 5),
        ];
        t.absorb(0, &spans, now, now + std::time::Duration::from_nanos(100));
        let rows = t.flame(false);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("parent").self_ns, 60);
        assert_eq!(get("child").total_ns, 60);
        assert_eq!(get("child").self_ns, 55);
        assert_eq!(get("leaf").self_ns, 5);
    }
}
