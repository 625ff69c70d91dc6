//! # dlb-obs — the deterministic observability plane
//!
//! Zero-overhead-when-off tracing and metrics for the virtual-time
//! runtime. Everything here is stamped in **virtual milliseconds** and
//! derived from the executor's deterministic delivery order, so two
//! runs of one scenario produce byte-identical traces — which is what
//! makes frame logs *replayable*: `dlb trace replay FILE` re-derives
//! the run from the spec embedded in the log header and cross-checks
//! every recorded event plus the recorded `event_hash` bit-for-bit.
//!
//! The pieces:
//! * [`TraceEvent`]/[`TraceKind`] — the flat event vocabulary
//!   (frames, timers, round phases, exchanges, detector verdicts,
//!   gossip exchanges, stream traffic).
//! * [`TraceSink`] — where events go: [`NullSink`] (disabled; one
//!   branch per hook, untraced runs stay byte-identical),
//!   [`MemorySink`] (recording), [`SummarySink`] (streaming metrics).
//! * [`Histogram`]/[`MetricSet`] — RNG-free log-bucketed metrics with
//!   integer-state merge: per-worker shards merge bit-identically for
//!   every `DLB_THREADS` value.
//! * [`FrameLog`] — the binary container (`header · events ·
//!   trailer`) with a property-tested codec.
//! * [`chrome`] — Chrome trace-event JSON export of the virtual
//!   timeline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod framelog;
pub mod metrics;
pub mod sink;

pub use event::{tag_label, Compact, TraceEvent, TraceKind, KIND_COUNT, NODE_COORD, NO_PEER};
pub use framelog::{FrameLog, Trailer, FORMAT_VERSION};
pub use metrics::{Histogram, MetricSet, ObsSummary, BUCKETS};
pub use sink::{MemorySink, NullSink, SummarySink, TraceSink};

#[cfg(all(test, feature = "proptests"))]
mod proptests;
