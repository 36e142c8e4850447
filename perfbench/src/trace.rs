//! The traced run's span recorder.
//!
//! Spans are opened and closed in the benchmark's own code around each
//! public call it makes into the program, so every layer is timed from
//! outside. A span has a name, a start, an end and a parent; spans stay
//! in memory until the run ends. A disabled recorder does nothing, so a
//! pass can run the same calls with and without recording and the
//! difference is the recorder's own cost.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.graph`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Summed duration, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), in nanoseconds.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off from the next span on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Opens a span; pair with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close in order");
        self.open.pop();
        self.spans[id].end_ns = end_ns;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per name over span `root` and everything under it, or over
    /// every span when `root` is `None`.
    pub fn totals(&self, root: Option<usize>) -> BTreeMap<&'static str, LayerTotal> {
        let mut counted = vec![false; self.spans.len()];
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().skip(root.unwrap_or(0)) {
            counted[i] = match root {
                None => true,
                Some(root) => i == root || span.parent.is_some_and(|p| counted[p]),
            };
            if !counted[i] {
                continue;
            }
            let duration = span.duration_ns();
            let entry = totals.entry(span.name).or_default();
            entry.total_ns += duration;
            entry.self_ns += duration;
            entry.count += 1;
            // A parent opens before its children, so it is counted already.
            if let Some(parent) = span.parent.filter(|&p| counted[p]) {
                let entry = totals
                    .get_mut(self.spans[parent].name)
                    .expect("parent counted");
                entry.self_ns = entry.self_ns.saturating_sub(duration);
            }
        }
        totals
    }

    /// The per-layer table: self time, count and share of all self time.
    pub fn render_table(&self) -> String {
        let totals = self.totals(None);
        let all: u64 = totals.values().map(|t| t.self_ns).sum();
        let mut rows: Vec<(&&str, &LayerTotal)> = totals.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<20} {:>12} {:>8} {:>7}\n",
            "layer", "self ms", "count", "share"
        );
        for (name, t) in rows {
            out.push_str(&format!(
                "{:<20} {:>12.3} {:>8} {:>6.1}%\n",
                name,
                t.self_ns as f64 / 1e6,
                t.count,
                100.0 * t.self_ns as f64 / all.max(1) as f64
            ));
        }
        out
    }

    /// The spans as a Chrome `trace_event` document (complete events on
    /// one track; nesting shows through the timestamps).
    pub fn render_chrome(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.duration_ns() as f64 / 1e3
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        let pass = rec.begin("pass");
        rec.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = rec.begin("outer");
        rec.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        rec.end(outer);
        rec.end(pass);
        let totals = rec.totals(pass);
        assert_eq!(totals["outer"].count, 2);
        assert_eq!(totals["inner"].count, 1);
        assert!(totals["inner"].self_ns >= 3_000_000);
        assert_eq!(
            totals["outer"].self_ns + totals["inner"].total_ns,
            totals["outer"].total_ns
        );
        assert_eq!(rec.totals(None), totals);
        assert!(rec.render_table().contains("inner"));

        rec.set_enabled(false);
        rec.span("ignored", || ());
        assert_eq!(rec.spans().len(), 4);
    }
}
