//! The event-driven executor: Figure-2-scale clusters in one process.
//!
//! Instead of one OS thread per organization (m threads and an O(m²)
//! channel mesh), the executor drives every [`NodeMachine`] plus the
//! [`CoordinatorMachine`] from a single deterministic event heap
//! ([`dlb_core::events::EventHeap`], shared with the scheduled-gossip
//! simulation in `dlb-gossip`):
//!
//! 1. **Pop a delivery batch** — all events due at the earliest
//!    virtual time. Simulated time jumps straight to that instant, so
//!    hours of protocol time finish as fast as the heap drains.
//! 2. **Shard the batch** — events are grouped into per-destination
//!    run queues, and the destinations are fanned out over one
//!    *persistent* `dlb-par` worker pool ([`dlb_par::with_pool`],
//!    spawned once per run and fed every batch over channels — not a
//!    thread spawn/join per batch; static chunking: each worker owns a
//!    disjoint shard of node machines for the duration of the batch).
//!    Machines only touch node-local state, so the fan-out is
//!    race-free by construction, and the order-preserving, slot-
//!    reassembled map keeps results bit-identical for every
//!    `DLB_THREADS` value.
//! 3. **Schedule the replies** — outbound frames are collected in
//!    deterministic (destination, emission) order and pushed back into
//!    the heap with per-link latencies from the caller's delay
//!    function (`dlb-netsim`'s `LinkDelayModel` in the scenario
//!    layer), data-plane frames paying the measured one-way delay and
//!    control-plane frames (coordinator ↔ node) travelling free — the
//!    coordinator stands in for the converged gossip substrate, which
//!    has no single physical location.
//!
//! Determinism is the point: the heap orders events by `(virtual due
//! time, sequence number)`, both of which are pure functions of the
//! inputs, so the same instance + options + delay function reproduces
//! the same event order, final ledgers, and cost history bit for bit —
//! across repeats *and* across worker-pool sizes. The running
//! [`ClusterReport::event_hash`] fingerprints the delivered sequence
//! so tests can assert exactly that.
//!
//! Virtual time doubles as a measurement: `ClusterReport::virtual_ms`
//! is the simulated wall-clock span of the protocol under the given
//! link delays — the quantity the paper's deployment would observe,
//! which no thread-runtime stopwatch can produce faithfully.
//!
//! # Fault injection
//!
//! [`EventInputs::faults`] runs the same simulation under a compiled
//! [`FaultScript`] (`dlb-faults`), which the executor consults at two
//! deterministic points:
//!
//! * **Scheduling** a data-plane frame:
//!   [`FaultScript::reliable_link`] composes partition holds, delay
//!   spikes, and loss-retransmission timeouts into extra one-way
//!   delay. The §IV exchange moves request ownership, so its frames
//!   ride a reliable transport — loss makes them *late*, never torn
//!   (see the `dlb-faults` crate docs).
//! * **Delivering** a frame: a destination that is down takes nothing
//!   — except a [`Frame::Commit`], which completes an exchange the
//!   initiator already applied (the acceptor processed it just before
//!   dying; dropping it would split requests in half). Down nodes
//!   emit nothing.
//!
//! Crash instants are **latched at round boundaries**: a node that
//! crashes at `t` drops out of the first round starting at or after
//! `t` — the coordinator (whose liveness oracle the executor feeds
//! from the script) stops scheduling it, announces it in the round's
//! `excluded` set, and stops expecting its report, so every round's
//! causal chains complete among the nodes that entered it and the
//! survivors keep converging. A recovered node rejoins at the next
//! round start. At shutdown, nodes that are down reply nothing; once
//! in-flight traffic drains, the executor freezes their ledgers into
//! the final assignment (their requests stay where they were when the
//! node went down), so conservation holds exactly even under churn.
//!
//! The script is pure and every consultation happens on the
//! single-threaded scheduling path, so fault trajectories — including
//! the [`FaultSummary`] accounting — are as bit-reproducible as the
//! fault-free runs, across repeats and `DLB_THREADS` values. An empty
//! script takes none of these paths: `faults: None` and
//! `faults: Some(&FaultScript::empty(m))` produce byte-identical
//! reports.
//!
//! # Request streams
//!
//! [`EventInputs::stream`] runs the cluster under a live request
//! stream: the compiled [`StreamScript`]'s arrivals ride the same
//! `(due, seq)` event heap as the protocol frames, so the cluster
//! rebalances *while* requests flow instead of converging over a
//! frozen snapshot.
//!
//! Each arrival is routed to a live server in proportion to how much
//! of its organization's work that server currently hosts (the live
//! relay fractions), deposits one unit of load there — buffered by the
//! node machine while an exchange is open, so no transfer is ever torn
//! — and departs after its modeled sojourn (`c_ij + l_j/2s_j + 1/s_j`),
//! withdrawing the unit from wherever rebalancing moved it. Arrivals
//! routed to a crashed (or already-finished) server are counted as
//! dropped. While requests are still arriving or in flight the
//! coordinator is *held open*: quiet rounds park instead of quiescing
//! (see [`CoordinatorMachine::kick`]), and every stream event resumes
//! a parked coordinator. Once the stream drains, the hold is released
//! and the normal quiescence shutdown fires.
//!
//! The filled [`ClusterReport::stream`] carries requests served and
//! dropped, p50/p99 sojourn, and the virtual time the cluster spent
//! with its worst live utilization above twice the mean
//! ([`StreamSummary`]). An empty stream takes none of these paths: the
//! run is byte-identical to an unstreamed one.
//!
//! # Observability
//!
//! [`EventInputs::tracer`] observes the run through a [`TraceSink`].
//! Every hook sits on the executor's single-threaded scheduling /
//! classification path behind a `tracer.enabled()` branch, emits in
//! deterministic `(due, seq)` delivery order, and never feeds back
//! into protocol state — so the trace is as bit-reproducible as the
//! run itself (across repeats *and* `DLB_THREADS` values), and the
//! default [`NullSink`] leaves the event stream, hash, and report
//! byte-identical to an unobserved run.

use std::sync::Arc;

use dlb_core::events::EventHeap;
use dlb_core::Instance;
use dlb_faults::{FaultScript, FaultSummary};
use dlb_obs::event::{DROP_DEST_DOWN, DROP_SRC_DOWN};
use dlb_obs::{NullSink, TraceEvent, TraceKind, TraceSink, NODE_COORD, NO_PEER};
use dlb_par::with_pool;
use dlb_requestsim::stream::StreamScript;

use crate::cluster::{ClusterOptions, ClusterReport, DetectMode, StreamSummary};
use crate::machine::{CoordinatorMachine, Dest, NodeMachine, Outbound, RtoKind};
use crate::message::{ledger_to_wire, Frame};

/// One-way delay of control-plane frames (coordinator ↔ node), in
/// virtual ms. Zero: the coordinator models the already-converged
/// gossip layer, not a physical host (see the module docs).
const CONTROL_DELAY_MS: f64 = 0.0;

/// What travels on the heap: frame deliveries plus, under in-protocol
/// failure detection, the two timer species. Under
/// [`DetectMode::Oracle`] only frames are ever pushed, so the oracle
/// event stream (sequence numbers, hashes, everything) is byte-for-
/// byte what it was before timers existed.
enum Event {
    /// A frame headed for an inbox.
    Frame(Dest, Arc<Frame>),
    /// The coordinator's report deadline for the given round.
    Deadline(u64),
    /// An exchange retransmission timer: (node, round, guarded wait).
    Rto(u32, u64, RtoKind),
    /// A streamed request entering the system: index into the
    /// [`StreamScript`]'s arrival schedule. Only ever pushed when a
    /// non-empty stream drives the run, so no-stream event sequences
    /// (and their hashes) are untouched.
    Arrival(u32),
    /// A streamed request finishing service — its load leaves the
    /// cluster: `(org, server it was served on, amount, arrival idx)`.
    Departure(u32, u32, f64, u32),
}

/// What lands in a node's per-batch run queue.
enum Inbox {
    Frame(Arc<Frame>),
    Rto(u64, RtoKind),
}

/// What lands in the coordinator's per-batch queue.
enum CoordItem {
    Frame(Arc<Frame>),
    Deadline(u64),
}

/// FNV-1a-style mixing of one word into the event-order fingerprint.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// A frame's hashing identity: `(tag, from, round)`. The tags are the
/// append-only vocabulary shared by the event hash, the trace events,
/// and [`dlb_obs::tag_label`] — one extraction point so the fingerprint
/// and the trace can never disagree about what a frame *was*.
fn frame_identity(frame: &Frame) -> (u8, u32, u64) {
    match frame {
        Frame::RoundStart { round, .. } => (1u8, 0, *round),
        Frame::Propose { from, round } => (2, *from, *round),
        Frame::Accept { from, round, .. } => (3, *from, *round),
        Frame::Busy { from, round } => (4, *from, *round),
        Frame::Commit { from, round, .. } => (5, *from, *round),
        Frame::Report { from, round, .. } => (6, *from, *round),
        Frame::Shutdown => (7, 0, 0),
        Frame::FinalLedger { from, .. } => (8, *from, 0),
        Frame::CommitAck { from, round } => (9, *from, *round),
    }
}

/// The trace-facing sender of a frame: coordinator-originated tags
/// (RoundStart, Shutdown) hash `from = 0` but *mean* the coordinator.
fn frame_peer(tag: u8, from: u32) -> u32 {
    if tag == 1 || tag == 7 {
        NODE_COORD
    } else {
        from
    }
}

/// Folds an event's identity (due time, destination, frame shape) into
/// the running fingerprint. Ledger payloads are deliberately excluded:
/// the determinism tests compare final ledgers directly, and the hash
/// only needs to witness the *order* of deliveries.
fn hash_event(mut h: u64, due: f64, dest: Dest, frame: &Frame) -> u64 {
    h = mix(h, due.to_bits());
    h = mix(
        h,
        match dest {
            Dest::Node(j) => j as u64,
            Dest::Coordinator => u64::MAX,
        },
    );
    let (tag, from, round) = frame_identity(frame);
    h = mix(h, tag as u64);
    h = mix(h, from as u64);
    mix(h, round)
}

/// Folds a fired timer into the fingerprint. Tags 16/17 are disjoint
/// from the frame tags, and timers only exist under in-protocol
/// detection, so oracle hashes are untouched.
fn hash_timer(mut h: u64, due: f64, tag: u64, node: u64, round: u64) -> u64 {
    h = mix(h, due.to_bits());
    h = mix(h, node);
    h = mix(h, tag);
    mix(h, round)
}

/// The simulated network: the shared event heap plus the delay model
/// and fault script every scheduled frame passes through.
struct Fabric<'s, D, T: TraceSink> {
    heap: EventHeap<Event>,
    delays: D,
    script: &'s FaultScript,
    summary: FaultSummary,
    /// Exchange retransmission timeout under in-protocol detection:
    /// `Some(ms)` arms an abort timer whenever an exchange frame is
    /// dropped at a dead host (see [`Fabric::arm_abort`]); `None`
    /// (oracle) pushes no timers at all.
    rto: Option<f64>,
    /// The observability plane. Every emission is behind
    /// `tracer.enabled()`; with [`NullSink`] (a monomorphized constant
    /// `false`) the hooks compile down to nothing and the run is
    /// byte-identical to an unobserved one.
    tracer: T,
}

impl<D: Fn(usize, usize) -> f64, T: TraceSink> Fabric<'_, D, T> {
    /// Schedules a machine's emissions. `src` is `None` for the
    /// coordinator.
    fn schedule(&mut self, now: f64, src: Option<usize>, out: &mut Vec<Outbound>) {
        for o in out.drain(..) {
            let mut held = 0.0f64;
            let delay = match (src, o.to) {
                (Some(i), Dest::Node(j)) => {
                    let d = (self.delays)(i, j as usize);
                    debug_assert!(
                        d.is_finite() && d >= 0.0,
                        "delay({i}, {j}) = {d} must be finite and non-negative"
                    );
                    if self.script.is_empty() {
                        d
                    } else {
                        // A straggler's outbound frames crawl: the slow
                        // multiplier scales the base delay before the
                        // loss/partition composition on top of it.
                        let base = d * self.script.slow_factor(i, now);
                        // The seq this push will receive keys the
                        // per-frame loss decisions.
                        let fault = self.script.reliable_link(
                            now,
                            i,
                            j as usize,
                            self.heap.next_seq(),
                            base,
                        );
                        let extra = (base - d) + fault.extra_ms;
                        if extra > 0.0 {
                            self.summary.delayed_frames += 1;
                            self.summary.extra_delay_ms += extra;
                            held = extra;
                        }
                        d + extra
                    }
                }
                _ => CONTROL_DELAY_MS,
            };
            if self.tracer.enabled() {
                let (tag, _, round) = frame_identity(&o.frame);
                let node = match o.to {
                    Dest::Node(j) => j,
                    Dest::Coordinator => NODE_COORD,
                };
                let peer = match src {
                    Some(i) => i as u32,
                    None => NODE_COORD,
                };
                if held > 0.0 {
                    self.tracer.emit(&TraceEvent {
                        kind: TraceKind::FrameHeld,
                        at_ms: now,
                        node,
                        peer,
                        round,
                        tag,
                        detail: held,
                    });
                }
                self.tracer.emit(&TraceEvent {
                    kind: TraceKind::FrameScheduled,
                    at_ms: now,
                    node,
                    peer,
                    round,
                    tag,
                    detail: delay,
                });
            }
            self.heap.push(now + delay, Event::Frame(o.to, o.frame));
        }
    }

    /// A data-plane frame just vanished into a dead host. Under
    /// in-protocol detection the sender is now waiting on an answer
    /// that can never come: arm its retransmission timeout so the
    /// machine aborts the exchange after `exchange_rto_ms` of silence.
    ///
    /// Arming at the *drop* instead of blindly at every send keeps the
    /// abort exact — a timer only exists when the wait is provably
    /// unresolvable — which is the behavior of a correctly provisioned
    /// real-world RTO (one that exceeds the worst-case round trip, so
    /// it never tears an exchange both parties are still driving).
    fn arm_abort(&mut self, now: f64, frame: &Frame) {
        let Some(rto_ms) = self.rto else { return };
        let armed = match frame {
            // Our proposal died with the acceptor; nobody will answer.
            Frame::Propose { from, round } => Some((*from, *round, RtoKind::Answer)),
            // Our acceptance died with the initiator; no Commit comes.
            Frame::Accept { from, round, .. } => Some((*from, *round, RtoKind::CommitWait)),
            // Our Commit died with the acceptor; nothing was installed
            // and no ack comes — the held-back half must be dropped.
            Frame::Commit { from, round, .. } => Some((*from, *round, RtoKind::Ack)),
            _ => None,
        };
        if let Some((waiter, round, kind)) = armed {
            self.heap
                .push(now + rto_ms, Event::Rto(waiter, round, kind));
        }
    }
}

/// What a run takes besides the instance, the options, and the delay
/// function: a fault script, a request stream, and a trace sink.
/// `EventInputs::default()` is a fault-free, unstreamed, untraced run;
/// callers set only the fields they use:
///
/// ```
/// # use dlb_core::Instance;
/// # use dlb_faults::FaultPlan;
/// # use dlb_runtime::{run_cluster_events, ClusterOptions, EventInputs};
/// let instance = Instance::homogeneous(4, 1.0, 1.0, 50.0);
/// let script = FaultPlan::new().loss(0.1).compile(3, 4);
/// let inputs = EventInputs { faults: Some(&script), ..Default::default() };
/// let report = run_cluster_events(&instance, &ClusterOptions::default(), |_, _| 5.0, inputs);
/// assert!(report.quiescent);
/// ```
///
/// These inputs stay off [`ClusterOptions`] because the thread runtime
/// cannot honour them.
pub struct EventInputs<'a, T: TraceSink = NullSink> {
    /// Faults injected at deterministic virtual instants (see the
    /// [module docs](self)), compiled for this instance's size. `None`
    /// injects nothing.
    pub faults: Option<&'a FaultScript>,
    /// A live request stream (see [Request streams](self#request-streams)).
    /// `None` runs the closed system.
    pub stream: Option<&'a StreamScript>,
    /// Observes the run (see [Observability](self#observability)). Pass
    /// `&mut sink` to read the sink afterwards; [`NullSink`] compiles
    /// every hook away.
    pub tracer: T,
}

impl Default for EventInputs<'_> {
    fn default() -> Self {
        Self {
            faults: None,
            stream: None,
            tracer: NullSink,
        }
    }
}

/// Runs the full message-passing protocol for `instance` on the
/// event-driven executor. `delays(i, j)` is the one-way delivery
/// latency in ms from node `i` to node `j` (must be finite and
/// non-negative; control-plane frames travel free). Empty `inputs`
/// take none of the fault, stream, or trace paths: a run with an empty
/// fault script or stream is byte-identical to one without.
pub fn run_cluster_events<D, T>(
    instance: &Instance,
    options: &ClusterOptions,
    delays: D,
    inputs: EventInputs<'_, T>,
) -> ClusterReport
where
    D: Fn(usize, usize) -> f64,
    T: TraceSink,
{
    let m = instance.len();
    let no_faults;
    let script = match inputs.faults {
        Some(script) => script,
        None => {
            no_faults = FaultScript::empty(m);
            &no_faults
        }
    };
    let no_stream = StreamScript::empty();
    let stream = inputs.stream.unwrap_or(&no_stream);
    assert_eq!(
        script.len(),
        m,
        "fault script compiled for a different cluster size"
    );
    let shared = Arc::new(instance.clone());
    let mut coordinator = CoordinatorMachine::new(Arc::clone(&shared), options);
    let use_oracle = matches!(options.detect, DetectMode::Oracle);
    // In-protocol detection requires two-phase exchanges: an aborting
    // initiator may only roll back state it has not applied yet, so
    // the transfer must be held until the acceptor's CommitAck.
    let mut node_config = options.node;
    if !use_oracle {
        node_config.two_phase = true;
    }
    let mut machines: Vec<Option<NodeMachine>> = (0..m)
        .map(|id| {
            Some(NodeMachine::local(
                id as u32,
                Arc::clone(&shared),
                node_config,
            ))
        })
        .collect();
    let mut fabric = Fabric {
        heap: EventHeap::new(),
        delays,
        script,
        summary: FaultSummary::default(),
        rto: (!use_oracle).then_some(options.exchange_rto_ms),
        tracer: inputs.tracer,
    };
    // The per-batch work the pool's workers run: drain one node's
    // queue through its machine, collecting emissions. Spawning the
    // pool once for the whole run (instead of a thread scope per
    // batch) is what keeps the per-instant dispatch overhead flat at
    // Figure-2 scale.
    let handler = |(_, machine, items): &mut (u32, NodeMachine, Vec<Inbox>)| {
        let mut local_out = Vec::new();
        for item in items.drain(..) {
            match item {
                Inbox::Frame(frame) => machine.handle(&frame, &mut local_out),
                Inbox::Rto(round, kind) => machine.on_rto(round, kind, &mut local_out),
            }
        }
        local_out
    };
    with_pool(handler, move |pool| {
        let mut out: Vec<Outbound> = Vec::new();
        let mut now = 0.0f64;
        let mut hash = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
        let faulty = !script.is_empty();
        // Which nodes currently take no deliveries. Under the oracle
        // this is the coordinator's round-latched down set; under
        // in-protocol detection it is raw physics — the script's down
        // set at `now`, latched at nothing (the protocol is on its own
        // to notice).
        let mut down = vec![false; m];
        // The script's down set only changes at its crash/recovery
        // instants; cache the phase so the refresh is O(1) per batch
        // instead of an O(m) rebuild.
        let mut down_phase = script.down_phase(now);
        if faulty && use_oracle {
            coordinator.set_down(script.down_at(now));
        }
        // Streaming: the whole arrival schedule goes on the heap up
        // front (it is pure data, already time-sorted), and the
        // coordinator is held open until the stream drains. An empty
        // stream pushes nothing — the event sequence and its hash are
        // byte-identical to the unstreamed run.
        let streaming = !stream.is_empty();
        let last_arrival_ms = stream.arrivals().last().map_or(0.0, |a| a.at_ms);
        if streaming {
            debug_assert!(
                stream.arrivals().iter().all(|a| (a.org as usize) < m),
                "stream compiled for a different cluster size"
            );
            for (idx, a) in stream.arrivals().iter().enumerate() {
                fabric.heap.push(a.at_ms, Event::Arrival(idx as u32));
            }
            coordinator.set_hold(true);
        }
        let mut hold = streaming;
        let mut outstanding = 0u64; // departures still on the heap
        let mut served = 0u64;
        let mut stream_dropped = 0u64;
        let mut sojourns: Vec<f64> = Vec::new();
        let mut imbalance_ms = 0.0f64;
        let mut was_imbalanced = false;
        let mut last_sample_ms = 0.0f64;
        coordinator.start(&mut out);
        let mut latched_round = coordinator.round_number();
        // Observability round phases — tracked separately from the
        // oracle's `latched_round` (which only advances on
        // faulty-oracle runs). `obs_excl_round` dedups the per-round
        // exclusion announcement, which every RoundStart frame carries.
        let mut obs_round = coordinator.round_number();
        let mut obs_round_start = 0.0f64;
        let mut obs_excl_round = 0u64;
        if fabric.tracer.enabled() {
            fabric.tracer.emit(&TraceEvent {
                kind: TraceKind::RoundBegin,
                at_ms: 0.0,
                node: NODE_COORD,
                peer: NO_PEER,
                round: obs_round,
                tag: 0,
                detail: 0.0,
            });
        }
        if use_oracle {
            for &j in coordinator.down_now() {
                down[j as usize] = true;
                // Down from the very first round: the run experienced
                // this crash (the summary counts *latched* transitions,
                // not script instants a finished run never reached).
                fabric.summary.crashes += 1;
            }
        } else {
            for &j in &script.down_at(now) {
                down[j as usize] = true;
                fabric.summary.crashes += 1;
            }
        }
        fabric.schedule(now, None, &mut out);
        // In-protocol detection bookkeeping: the round whose report
        // deadline has been armed, the suspect set last seen (to
        // attribute detection latency), and the true-positive latency
        // accumulator.
        let mut armed_round = 0u64;
        let mut prev_suspects: Vec<u32> = Vec::new();
        let mut tp_count = 0u32;
        let mut tp_latency_sum = 0.0f64;
        if !use_oracle {
            armed_round = coordinator.round_number();
            if let Some(due) = coordinator.arm_deadline(now) {
                fabric.heap.push(due, Event::Deadline(armed_round));
            }
        }

        // Batch scratch, reused across iterations: per-node run queues plus
        // the list of destinations touched this batch (in first-delivery
        // order — deterministic, since events pop in (due, seq) order).
        let mut run_queues: Vec<Vec<Inbox>> = (0..m).map(|_| Vec::new()).collect();
        let mut touched: Vec<u32> = Vec::new();
        let mut coord_items: Vec<CoordItem> = Vec::new();

        loop {
            // Pop the next live event, silently discarding timers whose
            // wait already resolved (a cancelled timer never fires — it
            // neither advances virtual time nor enters the hash).
            // Machine state at pop time is deterministic, so the
            // discard decisions are too.
            let first = loop {
                match fabric.heap.pop() {
                    None => break None,
                    Some(ev) => {
                        let stale = match &ev.item {
                            Event::Frame(..) | Event::Arrival(..) | Event::Departure(..) => false,
                            Event::Deadline(round) => {
                                coordinator.is_collecting()
                                    || coordinator.is_done()
                                    || *round != coordinator.round_number()
                            }
                            Event::Rto(j, round, kind) => !machines[*j as usize]
                                .as_ref()
                                .expect("machine parked")
                                .rto_pending(*round, *kind),
                        };
                        if !stale {
                            break Some(ev);
                        }
                    }
                }
            };
            let Some(first) = first else {
                if hold {
                    // Defensive: the heap cannot normally dry up while
                    // arrivals or departures are pending, but if it
                    // does, release the hold so the run can terminate.
                    hold = false;
                    coordinator.set_hold(false);
                    coordinator.kick(&mut out);
                    if !out.is_empty() {
                        fabric.schedule(now, None, &mut out);
                        continue;
                    }
                }
                // In-flight traffic is exhausted. The shutdown cannot
                // reach crashed nodes: freeze their ledgers into the
                // final answer (their requests stay where they were when
                // the node went down). Under the oracle the missing set
                // is the latched down set; under in-protocol detection
                // it is whoever never answered the shutdown.
                if coordinator.is_collecting() {
                    let frozen: Vec<u32> = if use_oracle {
                        coordinator.down_now().to_vec()
                    } else {
                        coordinator.missing_ledgers()
                    };
                    for j in frozen {
                        let machine = machines[j as usize].as_ref().expect("machine parked");
                        let frame = Frame::FinalLedger {
                            from: j,
                            ledger: ledger_to_wire(machine.ledger()),
                        };
                        coordinator.handle(&frame, &mut out);
                        fabric.schedule(now, None, &mut out);
                    }
                }
                break;
            };
            now = first.due;
            if faulty && !use_oracle {
                // In-protocol detection takes raw crash physics: the
                // delivery gate follows the script's down set the
                // instant it changes, not at round boundaries — nobody
                // tells the protocol, which is the point.
                let phase = script.down_phase(now);
                if phase != down_phase {
                    down_phase = phase;
                    let phys = script.down_at(now);
                    let mut idx = 0usize;
                    for (j, flag) in down.iter_mut().enumerate() {
                        let now_down = phys.get(idx).is_some_and(|&d| d as usize == j);
                        if now_down {
                            idx += 1;
                        }
                        match (*flag, now_down) {
                            (false, true) => fabric.summary.crashes += 1,
                            (true, false) => fabric.summary.recoveries += 1,
                            _ => {}
                        }
                        *flag = now_down;
                    }
                }
            }
            // Classify the whole same-instant batch in (due, seq) order.
            let mut stream_batch = false;
            let mut next = Some(first);
            while let Some(event) = next {
                match event.item {
                    Event::Frame(dest, frame) => {
                        hash = hash_event(hash, event.due, dest, &frame);
                        match dest {
                            Dest::Node(j) => {
                                // Dead destination: one frame species per
                                // mode still lands — the instant the
                                // exchange became *decided*. Oracle: the
                                // Commit (the initiator applied on Accept).
                                // Detection: the CommitAck (the acceptor
                                // installed on Commit; the dead initiator
                                // applies its held-back half exactly as a
                                // recovery log would, so its frozen ledger
                                // matches the partner's installed one).
                                // Everything else is dropped, and under
                                // detection each dropped exchange frame
                                // arms the sender's abort timeout.
                                let spared = if use_oracle {
                                    matches!(*frame, Frame::Commit { .. })
                                } else {
                                    matches!(*frame, Frame::CommitAck { .. })
                                };
                                if faulty && down[j as usize] && !spared {
                                    fabric.summary.dropped_frames += 1;
                                    if fabric.tracer.enabled() {
                                        let (tag, from, round) = frame_identity(&frame);
                                        fabric.tracer.emit(&TraceEvent {
                                            kind: TraceKind::FrameDropped,
                                            at_ms: now,
                                            node: j,
                                            peer: frame_peer(tag, from),
                                            round,
                                            tag,
                                            detail: DROP_DEST_DOWN,
                                        });
                                    }
                                    if !use_oracle {
                                        fabric.arm_abort(now, &frame);
                                    }
                                } else {
                                    if fabric.tracer.enabled() {
                                        let (tag, from, round) = frame_identity(&frame);
                                        fabric.tracer.emit(&TraceEvent {
                                            kind: TraceKind::FrameDelivered,
                                            at_ms: now,
                                            node: j,
                                            peer: frame_peer(tag, from),
                                            round,
                                            tag,
                                            detail: 0.0,
                                        });
                                        // Exchange lifecycle markers ride
                                        // the frames that decide them.
                                        match &*frame {
                                            Frame::Propose { from, round } => {
                                                fabric.tracer.emit(&TraceEvent {
                                                    kind: TraceKind::ExchangePropose,
                                                    at_ms: now,
                                                    node: *from,
                                                    peer: j,
                                                    round: *round,
                                                    tag,
                                                    detail: 0.0,
                                                });
                                            }
                                            Frame::Commit { from, round, .. } => {
                                                fabric.tracer.emit(&TraceEvent {
                                                    kind: TraceKind::ExchangeCommit,
                                                    at_ms: now,
                                                    node: *from,
                                                    peer: j,
                                                    round: *round,
                                                    tag,
                                                    detail: 0.0,
                                                });
                                            }
                                            Frame::RoundStart {
                                                round, excluded, ..
                                            } if *round != obs_excl_round => {
                                                obs_excl_round = *round;
                                                for &e in excluded {
                                                    fabric.tracer.emit(&TraceEvent {
                                                        kind: TraceKind::DetectorExclude,
                                                        at_ms: now,
                                                        node: e,
                                                        peer: NODE_COORD,
                                                        round: *round,
                                                        tag,
                                                        detail: 0.0,
                                                    });
                                                }
                                            }
                                            _ => {}
                                        }
                                    }
                                    if run_queues[j as usize].is_empty() {
                                        touched.push(j);
                                    }
                                    run_queues[j as usize].push(Inbox::Frame(frame));
                                }
                            }
                            Dest::Coordinator => {
                                if fabric.tracer.enabled() {
                                    let (tag, from, round) = frame_identity(&frame);
                                    fabric.tracer.emit(&TraceEvent {
                                        kind: TraceKind::FrameDelivered,
                                        at_ms: now,
                                        node: NODE_COORD,
                                        peer: frame_peer(tag, from),
                                        round,
                                        tag,
                                        detail: 0.0,
                                    });
                                }
                                coord_items.push(CoordItem::Frame(frame));
                            }
                        }
                    }
                    Event::Deadline(round) => {
                        hash = hash_timer(hash, event.due, 16, u64::MAX, round);
                        if fabric.tracer.enabled() {
                            fabric.tracer.emit(&TraceEvent {
                                kind: TraceKind::TimerFired,
                                at_ms: now,
                                node: NODE_COORD,
                                peer: NO_PEER,
                                round,
                                tag: 16,
                                detail: 0.0,
                            });
                        }
                        coord_items.push(CoordItem::Deadline(round));
                    }
                    Event::Rto(j, round, kind) => {
                        hash = hash_timer(hash, event.due, 17, j as u64, round);
                        if fabric.tracer.enabled() {
                            fabric.tracer.emit(&TraceEvent {
                                kind: TraceKind::TimerFired,
                                at_ms: now,
                                node: j,
                                peer: NO_PEER,
                                round,
                                tag: 17,
                                detail: 0.0,
                            });
                        }
                        // A dead node's timer fires into the void; if it
                        // recovers later still mid-exchange, the drain
                        // freeze recovers its ledger.
                        if !(faulty && down[j as usize]) {
                            // Stale timers died at pop, so a live RTO
                            // reaching its machine aborts the exchange.
                            if fabric.tracer.enabled() {
                                fabric.tracer.emit(&TraceEvent {
                                    kind: TraceKind::ExchangeAbort,
                                    at_ms: now,
                                    node: j,
                                    peer: NO_PEER,
                                    round,
                                    tag: 17,
                                    detail: 0.0,
                                });
                            }
                            if run_queues[j as usize].is_empty() {
                                touched.push(j);
                            }
                            run_queues[j as usize].push(Inbox::Rto(round, kind));
                        }
                    }
                    Event::Arrival(idx) => {
                        hash = hash_timer(hash, event.due, 18, idx as u64, 0);
                        stream_batch = true;
                        let a = stream.arrivals()[idx as usize];
                        let org = a.org as usize;
                        // Route in proportion to how much of this
                        // organization's work each live server hosts —
                        // the relay fractions ρ_i· of the live,
                        // mid-rebalance assignment. All machines are
                        // present here: classification runs before the
                        // batch fan-out takes any of them.
                        let mut total = 0.0f64;
                        let weights: Vec<f64> = (0..m)
                            .map(|j| {
                                let machine = machines[j].as_ref().expect("machine present");
                                if (faulty && down[j]) || machine.is_done() {
                                    0.0
                                } else {
                                    let w = machine.ledger().get(a.org).max(0.0);
                                    total += w;
                                    w
                                }
                            })
                            .collect();
                        let target = if total > 0.0 {
                            // Inverse CDF over the hosting weights with
                            // the arrival's pre-drawn uniform; the last
                            // positive host absorbs any float slack.
                            let mut acc = 0.0f64;
                            let mut pick = None;
                            for (j, &w) in weights.iter().enumerate() {
                                if w <= 0.0 {
                                    continue;
                                }
                                acc += w;
                                pick = Some(j);
                                if a.route * total <= acc {
                                    break;
                                }
                            }
                            pick
                        } else {
                            // Nobody hosts this organization yet (its
                            // own load was zero): serve at home if the
                            // home server is alive.
                            let home = machines[org].as_ref().expect("machine present");
                            let dead = home.is_done() || (faulty && down[org]);
                            (!dead).then_some(org)
                        };
                        match target {
                            None => {
                                stream_dropped += 1;
                                if fabric.tracer.enabled() {
                                    fabric.tracer.emit(&TraceEvent {
                                        kind: TraceKind::StreamDrop,
                                        at_ms: now,
                                        node: a.org,
                                        peer: NO_PEER,
                                        round: 0,
                                        tag: 18,
                                        detail: 1.0,
                                    });
                                }
                            }
                            Some(j) => {
                                let machine = machines[j].as_mut().expect("machine present");
                                let backlog = machine.ledger().sum().max(0.0);
                                let s = shared.speed(j);
                                // Expected wait under random order plus
                                // own service — the model's per-request
                                // price, §II.
                                let wait = backlog / (2.0 * s) + 1.0 / s;
                                if machine.deposit(a.org, 1.0) {
                                    served += 1;
                                    outstanding += 1;
                                    sojourns.push((fabric.delays)(org, j) + wait);
                                    if fabric.tracer.enabled() {
                                        fabric.tracer.emit(&TraceEvent {
                                            kind: TraceKind::StreamArrival,
                                            at_ms: now,
                                            node: a.org,
                                            peer: j as u32,
                                            round: 0,
                                            tag: 18,
                                            detail: wait,
                                        });
                                    }
                                    fabric.heap.push(
                                        now + wait,
                                        Event::Departure(a.org, j as u32, 1.0, idx),
                                    );
                                } else {
                                    stream_dropped += 1;
                                    if fabric.tracer.enabled() {
                                        fabric.tracer.emit(&TraceEvent {
                                            kind: TraceKind::StreamDrop,
                                            at_ms: now,
                                            node: a.org,
                                            peer: j as u32,
                                            round: 0,
                                            tag: 18,
                                            detail: 1.0,
                                        });
                                    }
                                }
                            }
                        }
                    }
                    Event::Departure(org, server, amount, idx) => {
                        hash = hash_timer(hash, event.due, 19, server as u64, idx as u64);
                        if fabric.tracer.enabled() {
                            let sojourn = now - stream.arrivals()[idx as usize].at_ms;
                            fabric.tracer.emit(&TraceEvent {
                                kind: TraceKind::StreamDeparture,
                                at_ms: now,
                                node: org,
                                peer: server,
                                round: 0,
                                tag: 19,
                                detail: sojourn,
                            });
                        }
                        stream_batch = true;
                        outstanding -= 1;
                        // The unit may have been rebalanced since it
                        // arrived: drain it from the live hosts
                        // carrying the most of this organization's
                        // work. A shortfall stays frozen on whatever
                        // crashed server still holds it.
                        let mut hosts: Vec<(f64, usize)> = (0..m)
                            .filter(|&j| !(faulty && down[j]))
                            .filter_map(|j| {
                                let machine = machines[j].as_ref().expect("machine present");
                                if machine.is_done() {
                                    return None;
                                }
                                let w = machine.ledger().get(org);
                                (w > 0.0).then_some((w, j))
                            })
                            .collect();
                        hosts.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
                        let mut remaining = amount;
                        for (w, j) in hosts {
                            if remaining <= 0.0 {
                                break;
                            }
                            let take = w.min(remaining);
                            machines[j]
                                .as_mut()
                                .expect("machine present")
                                .withdraw(org, take);
                            remaining -= take;
                        }
                    }
                }
                next = match fabric.heap.peek_due() {
                    Some(due) if due == now => fabric.heap.pop(),
                    _ => None,
                };
            }

            if stream_batch {
                // Piecewise time-in-imbalance: close the interval
                // opened at the previous sample under its observation,
                // then observe the live landscape anew. "Imbalanced"
                // means the worst live utilization `l_j / s_j` exceeds
                // twice the live mean.
                if was_imbalanced {
                    imbalance_ms += now - last_sample_ms;
                }
                last_sample_ms = now;
                let mut max_util = 0.0f64;
                let mut sum_util = 0.0f64;
                let mut live = 0u32;
                for (j, machine) in machines.iter().enumerate() {
                    if faulty && down[j] {
                        continue;
                    }
                    let machine = machine.as_ref().expect("machine present");
                    if machine.is_done() {
                        continue;
                    }
                    let util = machine.ledger().sum() / shared.speed(j);
                    max_util = max_util.max(util);
                    sum_util += util;
                    live += 1;
                }
                was_imbalanced =
                    live > 0 && sum_util > 0.0 && max_util > 2.0 * (sum_util / live as f64);
                // Fresh stream activity resumes a parked coordinator —
                // latching any crash phase the oracle would otherwise
                // only see on its control-plane path.
                if faulty && use_oracle {
                    let phase = script.down_phase(now);
                    if phase != down_phase {
                        down_phase = phase;
                        coordinator.set_down(script.down_at(now));
                    }
                }
                coordinator.kick(&mut out);
                fabric.schedule(now, None, &mut out);
                // The stream has fully drained: release the hold so the
                // normal quiescence shutdown can fire.
                if hold && outstanding == 0 && now >= last_arrival_ms {
                    hold = false;
                    coordinator.set_hold(false);
                }
            }

            // Fan the touched shards out over the worker pool. Each entry
            // owns its machine for the batch, so `handle` runs without
            // locks; order-preserving `par_map_mut` keeps the collected
            // emissions independent of the worker count.
            let work: Vec<(u32, NodeMachine, Vec<Inbox>)> = touched
                .drain(..)
                .map(|j| {
                    let machine = machines[j as usize].take().expect("machine present");
                    (j, machine, std::mem::take(&mut run_queues[j as usize]))
                })
                .collect();
            let (work, emissions) = pool.map_mut(work);
            let sources: Vec<u32> = work
                .into_iter()
                .map(|(j, machine, queue)| {
                    machines[j as usize] = Some(machine);
                    run_queues[j as usize] = queue; // return the allocation
                    j
                })
                .collect();
            for (src, mut outs) in sources.into_iter().zip(emissions) {
                if faulty && down[src as usize] {
                    // A crashed node sends nothing (it only ever hears a
                    // final Commit; see above).
                    fabric.summary.dropped_frames += outs.len() as u64;
                    if fabric.tracer.enabled() {
                        for o in &outs {
                            let (tag, from, round) = frame_identity(&o.frame);
                            fabric.tracer.emit(&TraceEvent {
                                kind: TraceKind::FrameDropped,
                                at_ms: now,
                                node: match o.to {
                                    Dest::Node(j) => j,
                                    Dest::Coordinator => NODE_COORD,
                                },
                                peer: frame_peer(tag, from),
                                round,
                                tag,
                                detail: DROP_SRC_DOWN,
                            });
                        }
                    }
                    continue;
                }
                fabric.schedule(now, Some(src as usize), &mut outs);
            }

            if faulty && use_oracle && !coord_items.is_empty() {
                // Feed the liveness oracle before any report can close the
                // round: a round beginning now latches the crashes due by
                // now. The set is constant within a phase, so only a
                // phase crossing rebuilds it.
                let phase = script.down_phase(now);
                if phase != down_phase {
                    down_phase = phase;
                    coordinator.set_down(script.down_at(now));
                }
            }
            for item in coord_items.drain(..) {
                match item {
                    CoordItem::Frame(frame) => coordinator.handle_at(&frame, now, &mut out),
                    CoordItem::Deadline(round) => coordinator.on_deadline(round, now, &mut out),
                }
                fabric.schedule(now, None, &mut out);
            }
            if fabric.tracer.enabled() && coordinator.round_number() != obs_round {
                fabric.tracer.emit(&TraceEvent {
                    kind: TraceKind::RoundEnd,
                    at_ms: now,
                    node: NODE_COORD,
                    peer: NO_PEER,
                    round: obs_round,
                    tag: 0,
                    detail: now - obs_round_start,
                });
                obs_round = coordinator.round_number();
                obs_round_start = now;
                fabric.tracer.emit(&TraceEvent {
                    kind: TraceKind::RoundBegin,
                    at_ms: now,
                    node: NODE_COORD,
                    peer: NO_PEER,
                    round: obs_round,
                    tag: 0,
                    detail: 0.0,
                });
            }
            if faulty && use_oracle && coordinator.round_number() != latched_round {
                latched_round = coordinator.round_number();
                // Rebuild the delivery gate from the fresh latch, counting
                // the transitions the run actually experienced: a crash
                // (or recovery) whose round never started is not an event
                // of this run.
                let latched = coordinator.down_now();
                let mut idx = 0usize;
                for (j, flag) in down.iter_mut().enumerate() {
                    let now_down = latched.get(idx).is_some_and(|&d| d as usize == j);
                    if now_down {
                        idx += 1;
                    }
                    match (*flag, now_down) {
                        (false, true) => fabric.summary.crashes += 1,
                        (true, false) => fabric.summary.recoveries += 1,
                        _ => {}
                    }
                    *flag = now_down;
                }
            }
            if !use_oracle {
                if coordinator.round_number() != armed_round {
                    // A fresh round needs a fresh report deadline; the
                    // previous round's timer (if still queued) dies at
                    // pop time.
                    armed_round = coordinator.round_number();
                    if let Some(due) = coordinator.arm_deadline(now) {
                        fabric.heap.push(due, Event::Deadline(armed_round));
                    }
                }
                // Measurement hook, invisible to the protocol: a node
                // newly suspected while the script says it is down is a
                // true positive, and its detection latency runs from the
                // scripted crash instant.
                let cur = coordinator.suspects_now();
                if cur != prev_suspects {
                    // Sorted symmetric diff: ids only in `cur` are fresh
                    // suspicions, ids only in `prev_suspects` rejoined
                    // (probation readmission or recovery).
                    let (mut ci, mut pi) = (0usize, 0usize);
                    while ci < cur.len() || pi < prev_suspects.len() {
                        let both = ci < cur.len()
                            && pi < prev_suspects.len()
                            && cur[ci] == prev_suspects[pi];
                        let fresh = pi >= prev_suspects.len()
                            || (ci < cur.len() && cur[ci] < prev_suspects[pi]);
                        if both {
                            ci += 1;
                            pi += 1;
                        } else if fresh {
                            let s = cur[ci];
                            let mut latency = 0.0f64;
                            if script.node_down(s as usize, now) {
                                latency = now - script.crash_time(s as usize);
                                tp_count += 1;
                                tp_latency_sum += latency;
                            }
                            if fabric.tracer.enabled() {
                                fabric.tracer.emit(&TraceEvent {
                                    kind: TraceKind::DetectorSuspect,
                                    at_ms: now,
                                    node: s,
                                    peer: NODE_COORD,
                                    round: coordinator.round_number(),
                                    tag: 0,
                                    detail: latency,
                                });
                            }
                            ci += 1;
                        } else {
                            if fabric.tracer.enabled() {
                                fabric.tracer.emit(&TraceEvent {
                                    kind: TraceKind::DetectorRejoin,
                                    at_ms: now,
                                    node: prev_suspects[pi],
                                    peer: NODE_COORD,
                                    round: coordinator.round_number(),
                                    tag: 0,
                                    detail: 0.0,
                                });
                            }
                            pi += 1;
                        }
                    }
                    prev_suspects = cur;
                }
            }
            if coordinator.is_done() {
                break;
            }
        }

        if fabric.tracer.enabled() {
            fabric.tracer.emit(&TraceEvent {
                kind: TraceKind::RoundEnd,
                at_ms: now,
                node: NODE_COORD,
                peer: NO_PEER,
                round: obs_round,
                tag: 0,
                detail: now - obs_round_start,
            });
        }
        let mut report = coordinator.into_report();
        report.virtual_ms = now;
        report.event_hash = hash;
        report.faults = fabric.summary;
        if tp_count > 0 {
            report.detector.detection_latency_ms = tp_latency_sum / tp_count as f64;
        }
        if streaming {
            if was_imbalanced {
                imbalance_ms += now - last_sample_ms;
            }
            sojourns.sort_by(|x, y| x.total_cmp(y));
            let pct = |q: f64| {
                if sojourns.is_empty() {
                    0.0
                } else {
                    sojourns[((sojourns.len() as f64 * q) as usize).min(sojourns.len() - 1)]
                }
            };
            report.stream = StreamSummary {
                served,
                dropped: stream_dropped,
                p50_ms: pct(0.50),
                p99_ms: pct(0.99),
                imbalance_ms,
            };
        }
        report
    }) // with_pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::rngutil::rng_for;
    use dlb_core::workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};
    use dlb_core::LatencyMatrix;
    use dlb_distributed::{Engine, EngineOptions};
    use dlb_faults::FaultPlan;
    use dlb_requestsim::stream::ArrivalPlan;

    /// Half the instance's RTT as the one-way delay — the simplest
    /// honest delay model for tests that already carry a latency
    /// matrix.
    fn half_rtt(instance: &Instance) -> impl Fn(usize, usize) -> f64 + '_ {
        |i, j| instance.c(i, j) / 2.0
    }

    /// A run on the default options and inputs.
    fn run_plain(instance: &Instance, delays: impl Fn(usize, usize) -> f64) -> ClusterReport {
        run_cluster_events(
            instance,
            &ClusterOptions::default(),
            delays,
            EventInputs::default(),
        )
    }

    /// Inputs that carry only a fault script.
    fn faulted(script: &FaultScript) -> EventInputs<'_> {
        EventInputs {
            faults: Some(script),
            ..Default::default()
        }
    }

    #[test]
    fn two_nodes_split_a_peak() {
        let mut instance = Instance::homogeneous(2, 1.0, 1.0, 0.0);
        instance.set_own_loads(vec![1000.0, 0.0]);
        let report = run_plain(&instance, half_rtt(&instance));
        report.assignment.check_invariants(&instance).unwrap();
        // Lemma 1: optimal transfer is (l_0 − l_1 − c·s)/2 = 499.5.
        assert!((report.assignment.load(0) - 500.5).abs() < 1e-6);
        assert!((report.assignment.load(1) - 499.5).abs() < 1e-6);
        assert!(report.quiescent);
        assert!(report.virtual_ms > 0.0, "data frames paid link delay");
        assert!(report.faults.is_quiet(), "no script, no fault events");
    }

    #[test]
    fn matches_engine_fixpoint() {
        let mut rng = rng_for(3, 0xC1);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 80.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(12, 20.0), &mut rng);
        let report = run_cluster_events(
            &instance,
            &ClusterOptions::certified(12),
            half_rtt(&instance),
            EventInputs::default(),
        );
        report.assignment.check_invariants(&instance).unwrap();
        let mut engine = Engine::new(
            instance.clone(),
            EngineOptions {
                parallel: false,
                ..Default::default()
            },
        );
        let opt = engine.run_to_convergence(1e-12, 3, 300).final_cost;
        assert!(
            report.final_cost <= opt * 1.02,
            "events {} vs engine fixpoint {opt}",
            report.final_cost
        );
    }

    #[test]
    fn conservation_under_heavy_traffic() {
        let mut rng = rng_for(17, 0xC2);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Uniform,
            avg_load: 120.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(40, 5.0), &mut rng);
        let report = run_plain(&instance, half_rtt(&instance));
        report.assignment.check_invariants(&instance).unwrap();
        for k in 0..40 {
            let total = report.assignment.owner_total(k);
            assert!(
                (total - instance.own_load(k)).abs() < 1e-6,
                "owner {k}: {total} != {}",
                instance.own_load(k)
            );
        }
    }

    #[test]
    fn history_is_exact_and_decreasing() {
        let mut rng = rng_for(5, 0xC3);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 60.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(8, 10.0), &mut rng);
        let report = run_plain(&instance, half_rtt(&instance));
        let last = *report.history.last().unwrap();
        assert!(
            (last - report.final_cost).abs() <= 1e-6 * report.final_cost.max(1.0),
            "reported {last} vs exact {}",
            report.final_cost
        );
        for w in report.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9 * w[0].max(1.0), "cost rose");
        }
    }

    #[test]
    fn failed_nodes_take_no_part() {
        let mut instance = Instance::homogeneous(6, 1.0, 1.0, 0.0);
        instance.set_own_loads(vec![600.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let report = run_cluster_events(
            &instance,
            &ClusterOptions {
                failed: vec![4, 5],
                ..Default::default()
            },
            half_rtt(&instance),
            EventInputs::default(),
        );
        report.assignment.check_invariants(&instance).unwrap();
        assert_eq!(report.assignment.load(4), 0.0);
        assert_eq!(report.assignment.load(5), 0.0);
        for j in 0..4 {
            assert!(report.assignment.load(j) > 100.0);
        }
    }

    #[test]
    fn single_node_cluster_is_trivial() {
        let instance = Instance::homogeneous(1, 1.0, 0.0, 50.0);
        let report = run_plain(&instance, |_, _| 1.0);
        assert_eq!(report.exchanges, 0);
        assert!(report.quiescent);
        assert_eq!(report.assignment.load(0), 50.0);
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let mut rng = rng_for(9, 0xD1);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 70.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(16, 15.0), &mut rng);
        let a = run_plain(&instance, half_rtt(&instance));
        let b = run_plain(&instance, half_rtt(&instance));
        assert_eq!(a.event_hash, b.event_hash);
        assert_eq!(a.history, b.history);
        assert_eq!(a.virtual_ms, b.virtual_ms);
        assert_eq!(a.assignment.loads(), b.assignment.loads());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.exchanges, b.exchanges);
    }

    #[test]
    fn virtual_time_scales_with_link_delay() {
        let mut instance = Instance::homogeneous(4, 1.0, 1.0, 0.0);
        instance.set_own_loads(vec![400.0, 0.0, 0.0, 0.0]);
        let slow = run_plain(&instance, |_, _| 50.0);
        let fast = run_plain(&instance, |_, _| 5.0);
        assert!(
            slow.virtual_ms > fast.virtual_ms,
            "slow {} vs fast {}",
            slow.virtual_ms,
            fast.virtual_ms
        );
        // Same protocol, different pacing: identical outcome.
        assert_eq!(slow.history, fast.history);
        assert_eq!(slow.assignment.loads(), fast.assignment.loads());
    }

    /// One crashed node: the survivors keep balancing, the victim's
    /// ledger freezes, and conservation holds exactly.
    #[test]
    fn crash_freezes_the_victim_and_survivors_converge() {
        let mut instance = Instance::homogeneous(8, 1.0, 0.0, 0.0);
        instance.set_own_loads(vec![800.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let script = FaultPlan::new().crash(0.25, 30.0).compile(5, 8);
        let victims = script.down_at(1e12);
        assert_eq!(victims.len(), 2);
        let report = run_cluster_events(
            &instance,
            &ClusterOptions::default(),
            |_, _| 5.0,
            faulted(&script),
        );
        report.assignment.check_invariants(&instance).unwrap();
        for k in 0..8 {
            let total = report.assignment.owner_total(k);
            assert!(
                (total - instance.own_load(k)).abs() < 1e-6,
                "owner {k}: {total} != {}",
                instance.own_load(k)
            );
        }
        assert!(report.quiescent, "survivors must still quiesce");
        assert_eq!(report.faults.crashes, 2);
        assert_eq!(report.faults.recoveries, 0);
        // Crash latching works at round boundaries, so a pure crash
        // produces no in-flight drops: nothing is ever *sent* to a
        // node the round already knows is dead.
        // Survivors carry real load; the peak got spread among them.
        let live_loaded = (0..8u32)
            .filter(|j| !victims.contains(j))
            .filter(|&j| report.assignment.load(j as usize) > 50.0)
            .count();
        assert!(live_loaded >= 4, "survivors share the peak");
    }

    /// Loss and delay spikes stretch virtual time but cannot tear an
    /// exchange: the run still reaches a conservation-clean fixpoint.
    #[test]
    fn loss_and_spikes_delay_but_do_not_tear() {
        let mut rng = rng_for(23, 0xC4);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 90.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(12, 20.0), &mut rng);
        let clean = run_plain(&instance, half_rtt(&instance));
        let script = FaultPlan::new()
            .loss(0.15)
            .spike(5.0, 0.0, 2_000.0)
            .compile(4, 12);
        let faulted = run_cluster_events(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            faulted(&script),
        );
        faulted.assignment.check_invariants(&instance).unwrap();
        assert!(
            faulted.virtual_ms > clean.virtual_ms,
            "faults must cost time: {} vs {}",
            faulted.virtual_ms,
            clean.virtual_ms
        );
        assert!(faulted.faults.delayed_frames > 0);
        assert!(faulted.faults.extra_delay_ms > 0.0);
        assert_eq!(faulted.faults.crashes, 0);
        assert!(faulted.quiescent);
    }

    /// A partition holds crossing frames until it heals; the run
    /// completes afterwards with clean conservation.
    #[test]
    fn partition_heals_and_the_run_completes() {
        let mut rng = rng_for(41, 0xC6);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 100.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(10, 10.0), &mut rng);
        let script = FaultPlan::new().partition(10.0, 400.0).compile(6, 10);
        let report = run_cluster_events(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            faulted(&script),
        );
        report.assignment.check_invariants(&instance).unwrap();
        assert!(report.quiescent);
        assert!(
            report.virtual_ms > 400.0,
            "crossing traffic waits for the heal: {}",
            report.virtual_ms
        );
    }

    /// Recovery: nodes that crash and come back rejoin the rounds and
    /// end up carrying load again.
    #[test]
    fn recovered_nodes_rejoin() {
        let mut rng = rng_for(48, 0xC7);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 100.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(8, 10.0), &mut rng);
        let script = FaultPlan::new().churn(0.5, 20.0, 120.0).compile(2, 8);
        let report = run_cluster_events(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            faulted(&script),
        );
        report.assignment.check_invariants(&instance).unwrap();
        assert!(report.quiescent);
        assert_eq!(report.faults.crashes, 4);
        assert_eq!(report.faults.recoveries, 4);
        // After recovery every node is a balancing citizen again:
        // every server ends up carrying real load.
        let loaded = (0..8).filter(|&j| report.assignment.load(j) > 10.0).count();
        assert!(loaded >= 7, "recovered nodes take load: {loaded}");
    }

    /// The no-faults parity the scenario layer relies on: an
    /// explicitly compiled empty plan is byte-identical to the default
    /// (fault-free) inputs.
    #[test]
    fn empty_script_is_byte_identical_to_no_script() {
        let mut rng = rng_for(31, 0xC5);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 70.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(14, 15.0), &mut rng);
        let plain = run_plain(&instance, half_rtt(&instance));
        let script = FaultPlan::new().compile(31, 14);
        assert!(script.is_empty());
        let scripted = run_cluster_events(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            faulted(&script),
        );
        assert_eq!(plain.event_hash, scripted.event_hash);
        assert_eq!(plain.history, scripted.history);
        assert_eq!(plain.virtual_ms, scripted.virtual_ms);
        assert_eq!(plain.assignment.loads(), scripted.assignment.loads());
        assert_eq!(plain.faults, scripted.faults);
    }

    /// Exact per-owner conservation: every request ends up on exactly
    /// one server, aborted or not.
    fn assert_conserved(report: &ClusterReport, instance: &Instance) {
        report.assignment.check_invariants(instance).unwrap();
        for k in 0..instance.len() {
            let total = report.assignment.owner_total(k);
            assert!(
                (total - instance.own_load(k)).abs() < 1e-6,
                "owner {k}: {total} != {}",
                instance.own_load(k)
            );
        }
    }

    /// In-protocol timeout detection: nobody feeds the oracle (the
    /// coordinator asserts if anyone tries), yet scripted crashes are
    /// suspected from pure silence, survivors converge, and
    /// conservation holds exactly.
    #[test]
    fn timeout_detection_finds_crashes_from_silence() {
        let mut instance = Instance::homogeneous(8, 1.0, 0.0, 0.0);
        instance.set_own_loads(vec![800.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let script = FaultPlan::new().crash(0.25, 30.0).compile(5, 8);
        assert_eq!(script.down_at(1e12).len(), 2);
        let options = ClusterOptions {
            detect: DetectMode::Timeout(250.0),
            exchange_rto_ms: 400.0,
            ..Default::default()
        };
        let report = run_cluster_events(&instance, &options, |_, _| 5.0, faulted(&script));
        assert_conserved(&report, &instance);
        assert!(report.quiescent, "survivors must still quiesce");
        assert!(
            report.detector.suspicions >= 2,
            "both crashes suspected: {:?}",
            report.detector
        );
        assert!(
            report.detector.detection_latency_ms > 0.0
                && report.detector.detection_latency_ms <= 300.0,
            "silence noticed within a deadline: {:?}",
            report.detector
        );
        assert_eq!(report.faults.crashes, 2);
    }

    /// A straggler is slow, not dead: an over-aggressive fixed timeout
    /// wrongly suspects it, the probation path readmits it, its
    /// exclusion time is recorded, and not a single unit of load is
    /// lost across the wrongful exclusion.
    #[test]
    fn wrongly_suspected_straggler_rejoins_with_exact_conservation() {
        let mut rng = rng_for(84, 0xD5);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 90.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(12, 20.0), &mut rng);
        // A healthy exchange chain is ~4 link hops (40 ms); the 60 ms
        // deadline clears it, but a straggler's 5× outbound legs
        // overrun it — suspected, yet very much alive.
        let script = FaultPlan::new().slow(0.25, 5.0).compile(9, 12);
        assert!(script.straggler_count() > 0);
        let options = ClusterOptions {
            detect: DetectMode::Timeout(60.0),
            // Generous exchange RTO: partners must wait stragglers
            // out, only the coordinator gets impatient.
            exchange_rto_ms: 20_000.0,
            ..Default::default()
        };
        let report = run_cluster_events(&instance, &options, |_, _| 10.0, faulted(&script));
        assert_conserved(&report, &instance);
        assert!(report.quiescent);
        assert!(
            report.detector.false_positives > 0,
            "the tight timeout must fire on a straggler: {:?}",
            report.detector
        );
        assert!(report.detector.rejoin_ms > 0.0);
        assert!(report.detector.suspicions >= report.detector.false_positives);
        assert_eq!(report.faults.crashes, 0, "nobody actually died");
    }

    /// Adaptive detection learns the stragglers' latency instead of
    /// suspecting them forever: same workload and script as the tight
    /// fixed timeout, strictly fewer false positives.
    #[test]
    fn adaptive_detection_tolerates_stragglers() {
        let mut rng = rng_for(84, 0xD5);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 90.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(12, 20.0), &mut rng);
        let script = FaultPlan::new().slow(0.25, 5.0).compile(9, 12);
        let run = |detect: DetectMode| {
            let options = ClusterOptions {
                detect,
                exchange_rto_ms: 20_000.0,
                ..Default::default()
            };
            run_cluster_events(&instance, &options, |_, _| 10.0, faulted(&script))
        };
        let fixed = run(DetectMode::Timeout(60.0));
        let adaptive = run(DetectMode::Adaptive);
        assert_conserved(&adaptive, &instance);
        assert!(adaptive.quiescent);
        assert!(
            adaptive.detector.false_positives < fixed.detector.false_positives,
            "adaptive {:?} must beat fixed {:?} on false positives",
            adaptive.detector,
            fixed.detector
        );
    }

    /// Crashes and stragglers together, adaptive detection: the dead
    /// are detected, the slow survive, conservation is exact — the
    /// acceptance-drill scenario at test scale.
    #[test]
    fn adaptive_detection_under_crash_and_slow() {
        let mut rng = rng_for(77, 0xD7);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 90.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(12, 10.0), &mut rng);
        let script = FaultPlan::new()
            .crash(0.2, 120.0)
            .slow(0.2, 4.0)
            .compile(13, 12);
        let options = ClusterOptions {
            detect: DetectMode::Adaptive,
            exchange_rto_ms: 2_000.0,
            ..Default::default()
        };
        let report = run_cluster_events(&instance, &options, half_rtt(&instance), faulted(&script));
        assert_conserved(&report, &instance);
        assert!(report.quiescent);
        assert!(report.detector.suspicions > 0);
        assert!(report.faults.crashes > 0);
    }

    /// One detect-mode run, twice: every observable — event hash,
    /// history, detector counters — is bit-identical. The worker-count
    /// sweep lives in the scenario determinism tests; this pins the
    /// single-process replay.
    #[test]
    fn detect_runs_are_bit_identical_across_repeats() {
        let mut rng = rng_for(51, 0xD9);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 70.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(10, 10.0), &mut rng);
        let script = FaultPlan::new()
            .crash(0.2, 80.0)
            .slow(0.3, 8.0)
            .compile(3, 10);
        let options = ClusterOptions {
            detect: DetectMode::Adaptive,
            exchange_rto_ms: 1_500.0,
            ..Default::default()
        };
        let a = run_cluster_events(&instance, &options, half_rtt(&instance), faulted(&script));
        let b = run_cluster_events(&instance, &options, half_rtt(&instance), faulted(&script));
        assert_eq!(a.event_hash, b.event_hash);
        assert_eq!(a.history, b.history);
        assert_eq!(a.virtual_ms, b.virtual_ms);
        assert_eq!(a.assignment.loads(), b.assignment.loads());
        assert_eq!(a.detector, b.detector);
        assert_eq!(a.faults, b.faults);
    }

    /// The no-stream parity the scenario layer relies on: an
    /// explicitly compiled empty arrival plan is byte-identical to the
    /// default (unstreamed) inputs, and its summary stays quiet.
    #[test]
    fn empty_stream_is_byte_identical_to_unstreamed() {
        let mut rng = rng_for(12, 0xE1);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 70.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(10, 12.0), &mut rng);
        let plain = run_plain(&instance, half_rtt(&instance));
        let stream = ArrivalPlan::new().compile(12, 1000.0, instance.own_loads());
        assert!(stream.is_empty());
        let streamed = run_cluster_events(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            EventInputs {
                stream: Some(&stream),
                ..Default::default()
            },
        );
        assert_eq!(plain.event_hash, streamed.event_hash);
        assert_eq!(plain.history, streamed.history);
        assert_eq!(plain.virtual_ms, streamed.virtual_ms);
        assert_eq!(plain.assignment.loads(), streamed.assignment.loads());
        assert!(streamed.stream.is_quiet());
    }

    /// A live Poisson stream is served end to end: every arrival is
    /// either served or dropped, latency percentiles are finite, and
    /// the run outlives the last arrival before quiescing.
    #[test]
    fn streamed_arrivals_are_served_with_finite_latency() {
        let mut rng = rng_for(7, 0xE2);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 60.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(8, 8.0), &mut rng);
        let stream = ArrivalPlan::new()
            .poisson(300.0)
            .compile(3, 1_000.0, instance.own_loads());
        assert!(!stream.is_empty());
        let report = run_cluster_events(
            &instance,
            &ClusterOptions::default(),
            half_rtt(&instance),
            EventInputs {
                stream: Some(&stream),
                ..Default::default()
            },
        );
        let s = report.stream;
        assert_eq!(s.served + s.dropped, stream.len() as u64);
        assert!(s.served > 0, "no faults: requests get served: {s:?}");
        assert_eq!(s.dropped, 0, "no faults: nothing drops: {s:?}");
        assert!(s.p50_ms.is_finite() && s.p50_ms > 0.0, "{s:?}");
        assert!(s.p99_ms.is_finite() && s.p99_ms >= s.p50_ms, "{s:?}");
        assert!(s.imbalance_ms.is_finite() && s.imbalance_ms >= 0.0);
        let last = stream.arrivals().last().unwrap().at_ms;
        assert!(
            report.virtual_ms >= last,
            "run must outlive the stream: {} < {last}",
            report.virtual_ms
        );
        assert!(report.quiescent, "hold released, protocol quiesced");
    }

    /// Streamed runs replay bit-identically: same schedule, same
    /// summary, same event hash.
    #[test]
    fn streamed_runs_are_bit_identical() {
        let mut rng = rng_for(19, 0xE3);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Uniform,
            avg_load: 50.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(6, 10.0), &mut rng);
        let stream = ArrivalPlan::new()
            .poisson(150.0)
            .burst(300.0, 200.0, 400.0)
            .compile(11, 800.0, instance.own_loads());
        let run = || {
            run_cluster_events(
                &instance,
                &ClusterOptions::default(),
                half_rtt(&instance),
                EventInputs {
                    stream: Some(&stream),
                    ..Default::default()
                },
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.event_hash, b.event_hash);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.history, b.history);
        assert_eq!(a.virtual_ms, b.virtual_ms);
        assert_eq!(a.assignment.loads(), b.assignment.loads());
    }

    /// A crash mid-stream: arrivals whose organization's work is
    /// frozen on the dead server are counted as dropped, the rest keep
    /// being served, and the run still terminates.
    #[test]
    fn crash_mid_stream_drops_the_victims_requests() {
        // Homogeneous loads: no exchanges move work, so each org is
        // hosted exactly at home and a crash strands its stream.
        let instance = Instance::homogeneous(8, 1.0, 0.0, 50.0);
        let script = FaultPlan::new().crash(0.25, 100.0).compile(5, 8);
        assert_eq!(script.down_at(1e12).len(), 2);
        let stream = ArrivalPlan::new()
            .poisson(200.0)
            .compile(9, 600.0, instance.own_loads());
        let report = run_cluster_events(
            &instance,
            &ClusterOptions::default(),
            |_, _| 5.0,
            EventInputs {
                faults: Some(&script),
                stream: Some(&stream),
                ..Default::default()
            },
        );
        let s = report.stream;
        assert_eq!(s.served + s.dropped, stream.len() as u64);
        assert!(s.served > 0, "survivors keep serving: {s:?}");
        assert!(s.dropped > 0, "victims' requests strand: {s:?}");
        assert_eq!(report.faults.crashes, 2);
    }

    /// Two-phase exchanges under the oracle-free happy path reach the
    /// same fixpoint as the classic single-phase protocol — the extra
    /// ack round-trip costs time, not quality.
    #[test]
    fn two_phase_reaches_the_single_phase_fixpoint() {
        let mut rng = rng_for(62, 0xDA);
        let instance = WorkloadSpec {
            loads: LoadDistribution::Exponential,
            avg_load: 80.0,
            speeds: SpeedDistribution::paper_uniform(),
        }
        .sample(LatencyMatrix::homogeneous(9, 12.0), &mut rng);
        let classic = run_plain(&instance, half_rtt(&instance));
        let detect = run_cluster_events(
            &instance,
            &ClusterOptions {
                detect: DetectMode::Timeout(5_000.0),
                ..Default::default()
            },
            half_rtt(&instance),
            EventInputs::default(),
        );
        assert_conserved(&detect, &instance);
        assert!(detect.quiescent);
        let err: f64 = (detect.final_cost - classic.final_cost).abs();
        assert!(
            err < 1e-6 * classic.final_cost.max(1.0),
            "two-phase fixpoint drifted: {} vs {}",
            detect.final_cost,
            classic.final_cost
        );
        assert!(
            detect.virtual_ms > classic.virtual_ms,
            "the ack leg costs virtual time"
        );
    }
}
