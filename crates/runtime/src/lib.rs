//! # dlb-runtime — the protocol as a deployable system, twice
//!
//! The analytic engine in `dlb-distributed` simulates the paper's
//! distributed algorithm on shared memory. This crate runs the same
//! protocol the way the paper deploys it (§IV): every organization
//! only sees
//!
//! * its **own request ledger** — who relayed how much to its server,
//! * the **gossiped load vector** — refreshed once per round,
//! * the **static configuration** — speeds and its latency column,
//!
//! and everything else travels as wire-encoded frames
//! ([`message::Frame`]): proposals, ledger handoffs, commits.
//!
//! The crate is split along a machine/driver seam:
//!
//! * [`machine`] — the protocol itself, as poll-style state machines
//!   ([`machine::NodeMachine`], [`machine::CoordinatorMachine`]) that
//!   consume one frame and emit frames, never blocking;
//! * [`cluster`] — the **thread runtime**: one OS thread per
//!   organization and a channel mesh. Real concurrency, real races —
//!   the deployment shape, practical to a few hundred nodes;
//! * [`executor`] — the **event-driven runtime**: a deterministic
//!   virtual-time heap delivers frames to thousands of machines in one
//!   process, with per-link latencies supplied by the caller (the
//!   scenario layer samples them from `dlb-netsim`) and delivery
//!   batches fanned out over the `dlb-par` worker pool. One entry
//!   point, [`run_cluster_events`], takes the fault script, request
//!   stream, and trace sink as [`EventInputs`], all empty by default.
//!
//! Two things make this more than a re-run of the engine:
//!
//! 1. **Partner choice uses local information only.** A real
//!    organization cannot evaluate `impr(i, j)` exactly — Algorithm 1
//!    needs both ledgers. Nodes rank partners with the closed-form
//!    score from the gossiped loads and fetch the one ledger they need
//!    only after the partner accepts. The integration tests verify
//!    this cheaper selection still reaches the engine's fixpoint.
//! 2. **Message timing is a first-class input.** The thread runtime
//!    exercises real collisions and commit/round races; the event
//!    executor replays the same protocol under *measured* link
//!    latencies, reports the simulated protocol time
//!    ([`ClusterReport::virtual_ms`]), and is deterministic: one seed
//!    gives one event order ([`ClusterReport::event_hash`]), however
//!    many worker threads drain the batches — the property every
//!    failure/staleness scenario test builds on.
//!
//! ```
//! use dlb_core::Instance;
//! use dlb_runtime::{run_cluster_events, ClusterOptions, EventInputs};
//!
//! let mut instance = Instance::homogeneous(4, 1.0, 1.0, 0.0);
//! instance.set_own_loads(vec![400.0, 0.0, 0.0, 0.0]);
//! // Virtual-time simulation: one-way link delay = half the RTT column.
//! let delays = |i: usize, j: usize| instance.c(i, j) / 2.0;
//! let report = run_cluster_events(
//!     &instance,
//!     &ClusterOptions::default(),
//!     delays,
//!     EventInputs::default(), // no faults, no stream, no tracing
//! );
//! assert!(report.quiescent);
//! assert!(report.assignment.load(3) > 90.0); // peak got spread
//! assert!(report.virtual_ms > 0.0); // simulated protocol time
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod executor;
pub mod machine;
pub mod message;
pub mod node;
#[cfg(all(test, feature = "proptests"))]
mod proptests;

pub use cluster::{
    run_cluster, ClusterOptions, ClusterReport, DetectMode, DetectorSummary, StreamSummary,
};
pub use executor::{run_cluster_events, EventInputs};
pub use machine::{
    CoordinatorMachine, Dest, NodeConfig, NodeMachine, Outbound, RtoKind, SelectPolicy,
    ADAPTIVE_BOOTSTRAP_MS,
};
pub use message::{Frame, RoundOutcome};
