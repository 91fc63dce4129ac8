//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around each call into a layer: a
//! name (`<layer>.<call>`), start, end and parent. They stay in memory
//! until the run ends, when they are written as Chrome trace-event JSON
//! and folded into a per-name table with self time (a span's duration
//! minus the part covered by its children). A disabled recorder reads no
//! clock and stores nothing, so untraced runs pay one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Spans::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const NONE: u32 = u32::MAX;

/// Events past which the Chrome trace stops at the next top-level span.
pub const MAX_TRACE_EVENTS: usize = 200_000;

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording on or off (spans already open are still closed).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(NONE);
        }
        let start_ns = self.ns(Instant::now());
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Close a span opened by [`Spans::begin`] (and any left open inside
    /// it).
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id.0 {
                break;
            }
        }
    }

    /// Record an already timed span as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
        };
        self.spans.push(span);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Share of the time of every `root` span that its direct children
    /// cover (1.0 when the children account for all of it).
    pub fn coverage(&self, root: &str) -> f64 {
        let mut root_ns = 0u64;
        let mut covered = 0u64;
        for s in &self.spans {
            if s.name == root {
                root_ns += s.dur_ns();
            } else if let Some(p) = s.parent {
                if self.spans[p as usize].name == root {
                    covered += s.dur_ns();
                }
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            covered as f64 / root_ns as f64
        }
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// The per-name table printed by traced runs: one row per span name,
    /// grouped by layer (the name's prefix before the first `.`).
    pub fn table(&self) -> String {
        let totals = self.totals();
        let wall: u64 = totals
            .iter()
            .filter(|(n, _)| **n == "round")
            .map(|(_, t)| t.total_ns)
            .sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>12} {:>12} {:>11} {:>7}",
            "span", "count", "total_ms", "self_ms", "mean_us", "self%"
        );
        for (name, t) in &totals {
            let share = if wall > 0 {
                100.0 * t.self_ns as f64 / wall as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>12.3} {:>12.3} {:>11.3} {:>6.2}%",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e3 / t.count.max(1) as f64,
                share
            );
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, with its parent index in
    /// `args`. To keep the file small it holds whole top-level spans (a
    /// round or a replay, with everything under it) up to
    /// [`MAX_TRACE_EVENTS`]; returns the JSON and the events it holds.
    pub fn chrome_json(&self) -> (String, usize) {
        let mut out = String::with_capacity(self.spans.len().min(MAX_TRACE_EVENTS) * 140 + 32);
        out.push_str("{\"traceEvents\":[");
        let mut written = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && i >= MAX_TRACE_EVENTS {
                break;
            }
            written += 1;
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                parent
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
        (out, written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut off = Spans::new(false);
        let id = off.begin("round");
        off.end(id);
        assert!(off.spans().is_empty());

        let mut sp = Spans::new(true);
        let root = sp.begin("round");
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(10);
        sp.record("a.child", t0, t1);
        sp.end(root);
        let totals = sp.totals();
        let r = totals["round"];
        let c = totals["a.child"];
        assert_eq!(c.self_ns, c.total_ns);
        assert_eq!(r.self_ns, r.total_ns.saturating_sub(c.total_ns));
        assert_eq!(sp.spans()[1].parent, Some(0));
        let (json, events) = sp.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(events, 2);
    }
}
