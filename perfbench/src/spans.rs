//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around calls into the
//! program's public API; nothing inside the program is instrumented.
//! They stay in memory until the run ends and are then written as
//! JSON lines (`kind: "span"`), which `dlb report` renders as a table.

use std::time::Instant;

use dlb_bench::results::{JsonlSink, Record};

/// One closed (or still open) span; times are host seconds since the
/// recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans with a parent link to whichever span was open when
/// each one started.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the first span called `name`.
    pub fn secs(&self, name: &str) -> Option<f64> {
        self.spans.iter().find(|s| s.name == name).map(Span::secs)
    }

    /// Durations of every span called `name`, in order.
    pub fn all_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration of the direct children of span `id`.
    pub fn children_secs(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum()
    }

    /// Writes every span as one `kind: "span"` JSON line.
    pub fn write(&self, sink: &mut JsonlSink, seed: u64) {
        for (id, span) in self.spans.iter().enumerate() {
            sink.record(
                &Record::new("span")
                    .int("id", id as i64)
                    .str("name", span.name)
                    .int("parent", span.parent.map_or(-1, |p| p as i64))
                    .num("start_s", span.start_s)
                    .num("end_s", span.end_s)
                    .num("secs", span.secs())
                    .int("seed", seed as i64),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_link_to_their_parent() {
        let mut spans = Spans::new();
        let root = spans.enter("root");
        spans.time("a", || ());
        spans.time("b", || ());
        spans.exit(root);
        let all = spans.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(root));
        assert_eq!(all[2].parent, Some(root));
        assert!(spans.children_secs(root) <= all[0].secs());
        assert_eq!(spans.all_secs("a").len(), 1);
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn closing_out_of_order_panics() {
        let mut spans = Spans::new();
        let a = spans.enter("a");
        let _b = spans.enter("b");
        spans.exit(a);
    }
}
