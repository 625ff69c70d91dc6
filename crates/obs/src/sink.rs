//! Trace sinks: where emitted [`TraceEvent`]s go.
//!
//! The executor threads one sink, monomorphized over its type, through
//! its hot loop and guards every emission with [`TraceSink::enabled`] —
//! with the default [`NullSink`] the whole observability plane costs
//! one predictable branch per hook, constructs no event, and allocates
//! nothing, so untraced runs stay byte-identical to the pre-obs
//! executor.

use crate::event::TraceEvent;
use crate::metrics::MetricSet;

/// Receives trace events in emission order (which, on the virtual
/// clock, is delivery order — deterministic per seed).
pub trait TraceSink {
    /// Whether emissions should be constructed at all. Hook sites
    /// check this *before* building the event, so a disabled sink
    /// costs one branch.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&mut self, ev: &TraceEvent);
}

/// A borrowed sink, so a caller can hand `&mut sink` to a run and read
/// the sink afterwards.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn emit(&mut self, ev: &TraceEvent) {
        (**self).emit(ev);
    }
}

/// The disabled plane: reports `enabled() == false` and ignores
/// everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _ev: &TraceEvent) {}
}

/// Buffers every event in memory — the recording sink behind
/// `trace=frames:FILE` and the comparison side of replay.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for MemorySink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// Streams events straight into a [`MetricSet`] without buffering —
/// the `trace=summary` sink.
#[derive(Debug, Default, Clone)]
pub struct SummarySink {
    /// The accumulated metrics.
    pub metrics: MetricSet,
}

impl TraceSink for SummarySink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.metrics.ingest(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceKind;

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(&TraceEvent::mark(TraceKind::RoundBegin, 0.0, 0));
    }

    #[test]
    fn memory_sink_keeps_order() {
        let mut s = MemorySink::default();
        assert!(s.enabled());
        for i in 0..5 {
            s.emit(&TraceEvent::mark(TraceKind::StreamArrival, i as f64, i));
        }
        assert_eq!(s.events.len(), 5);
        assert_eq!(s.events[3].node, 3);
    }

    #[test]
    fn summary_sink_counts() {
        let mut s = SummarySink::default();
        s.emit(&TraceEvent::mark(TraceKind::RoundBegin, 0.0, 0));
        s.emit(&TraceEvent::mark(TraceKind::RoundBegin, 1.0, 0));
        assert_eq!(s.metrics.count(TraceKind::RoundBegin), 2);
    }
}
