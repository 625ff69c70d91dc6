//! Delta-encoded sharded gossip: the bandwidth-frugal control plane.
//!
//! [`crate::EventGossip`] ships the **full** m-entry view on every
//! exchange — at m = 5000 that is ~100 kB per frame, the bandwidth
//! bill the ROADMAP calls out. [`DeltaGossip`] runs the same versioned
//! push-pull merge on the same virtual-time heap but encodes what it
//! actually sends ([`crate::wire::DeltaFrame`]):
//!
//! - **Hot set (rumor mongering).** Every entry a node heard within the
//!   last `hot_ticks` of its own periods is "hot" and rides along in
//!   the frame's `changed` list. A fresh publish therefore spreads
//!   epidemically in O(log m) periods, exactly like full-view push-pull
//!   — but the frame carries only the entries that recently moved.
//! - **Rotating shard fallback (anti-entropy).** Each frame also
//!   carries the *complete* contents of one shard
//!   ([`crate::ShardMap`]), rotating through the shards with the
//!   sender's tick. Replies pick the shard whose per-shard version
//!   summary (`since`, carried in the request) lags the responder's
//!   view the most. The fallback guarantees convergence even when a
//!   rumor dies out or a summary comparison is uninformative: a missed
//!   delta costs *time* (until the rotation covers the shard), never
//!   correctness — the same loss philosophy as the fault layer.
//!
//! Steady-state traffic per frame is O(hot entries + one shard) instead
//! of O(m): at m = 5000 with 256-entry shards that is a ~17× cut,
//! measured end-to-end in `BENCH_gossip.json` (the frames really pass
//! through [`crate::wire::encode_delta`]/[`crate::wire::decode_delta`],
//! and [`GossipTraffic`] counts the encoded bytes).
//!
//! Unlike the one-shot [`EventGossip::run`](crate::EventGossip::run)
//! loop, the heap here is persistent: [`DeltaGossip::advance`] drains
//! events up to a virtual instant and returns, so an external driver —
//! the engine's `GossipFeed` — can interleave publishes and partial
//! advances with its own iteration clock. Everything is deterministic
//! per seed: peers come from a seeded RNG and the heap orders
//! deliveries by `(due, seq)`.

use dlb_core::events::{EventHeap, Scheduled};
use dlb_core::rngutil::rng_for;
use dlb_obs::{TraceEvent, TraceKind, TraceSink};
use rand::rngs::StdRng;
use rand::Rng;

use crate::push_pull::Entry;
use crate::shard::ShardMap;
use crate::wire::{self, DeltaFrame, WireEntry};
use bytes::Bytes;

/// Timing and rumor-window knobs for [`DeltaGossip`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaGossipConfig {
    /// Virtual ms between one node's successive exchange initiations.
    pub period_ms: f64,
    /// How many of a node's own ticks an entry stays "hot" (rides in
    /// the `changed` list) after being heard. `0` = auto:
    /// `2·⌈log2 m⌉ + 2`, enough for a rumor to spread w.h.p. before it
    /// cools.
    pub hot_ticks: u32,
}

impl Default for DeltaGossipConfig {
    fn default() -> Self {
        Self {
            period_ms: 100.0,
            hot_ticks: 0,
        }
    }
}

/// Wire-traffic counters for a delta-gossip network, accumulated over
/// its whole life (snapshot and subtract to meter an interval).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GossipTraffic {
    /// Frames put on the wire (requests + replies, even ones still in
    /// flight).
    pub frames: u64,
    /// Encoded bytes of those frames.
    pub bytes: u64,
    /// Completed push-pull exchanges (reply delivered and merged).
    pub exchanges: u64,
    /// Hot-set (`changed`) entries shipped.
    pub delta_entries: u64,
    /// Fallback-shard (`full`) entries shipped.
    pub full_entries: u64,
}

impl GossipTraffic {
    /// `true` when nothing was ever put on the wire — used to keep
    /// records of gossip-free runs byte-identical.
    pub fn is_quiet(&self) -> bool {
        self.frames == 0
    }

    /// Counter-wise difference since an earlier snapshot.
    pub fn since(&self, earlier: &GossipTraffic) -> GossipTraffic {
        GossipTraffic {
            frames: self.frames - earlier.frames,
            bytes: self.bytes - earlier.bytes,
            exchanges: self.exchanges - earlier.exchanges,
            delta_entries: self.delta_entries - earlier.delta_entries,
            full_entries: self.full_entries - earlier.full_entries,
        }
    }
}

#[derive(Debug, Clone)]
struct NodeState {
    /// `view[origin]` — what this node believes about `origin`.
    view: Vec<Entry>,
    /// Own tick at which each entry last changed; [`NEVER`] = cold.
    heard: Vec<u32>,
    /// Per-shard sum of held versions — the monotone summary shipped as
    /// a delta frame's `since` watermark.
    vsum: Vec<u64>,
    /// Completed initiation periods.
    tick: u32,
}

/// `heard` sentinel for entries that never changed (version 0, or
/// warm-started ancient history): never hot.
const NEVER: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum What {
    /// A node initiates its periodic exchange.
    Tick { node: u32 },
    /// An encoded delta frame arrives at `to`; it merges and replies.
    Request { from: u32, to: u32, frame: Bytes },
    /// The encoded reply frame arrives back at the initiator.
    Reply { from: u32, to: u32, frame: Bytes },
}

/// A sharded delta-gossip network on a persistent virtual-time heap
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct DeltaGossip {
    shards: ShardMap,
    nodes: Vec<NodeState>,
    /// Per origin: the globally freshest version.
    newest: Vec<u64>,
    /// Per origin: how many nodes hold the freshest version.
    fresh: Vec<usize>,
    /// Stale `(node, origin)` pairs; `0` ⇔ fully disseminated.
    deficit: usize,
    /// Virtual instant dissemination last completed (sticky until the
    /// next staleness-creating publish).
    completed_at: Option<f64>,
    now: f64,
    period_ms: f64,
    hot_ticks: u32,
    heap: EventHeap<What>,
    rng: StdRng,
    traffic: GossipTraffic,
}

impl DeltaGossip {
    /// A cold-started network: each node initially knows only its own
    /// load (version 1).
    pub fn new(loads: &[f64], seed: u64, config: DeltaGossipConfig) -> Self {
        let m = loads.len();
        let mut net = Self::bare(loads, seed, config, false);
        net.deficit = m * m.saturating_sub(1);
        net.completed_at = if net.deficit == 0 { Some(0.0) } else { None };
        net.debug_check();
        net
    }

    /// A warm-started network: every node already holds every entry at
    /// version 1 (as after an initial dissemination round), all cold.
    /// This is the steady-state starting point the engine feed uses —
    /// the balancer's paper model assumes dissemination ran before
    /// balancing starts.
    pub fn warm(loads: &[f64], seed: u64, config: DeltaGossipConfig) -> Self {
        let mut net = Self::bare(loads, seed, config, true);
        net.completed_at = Some(0.0);
        net.debug_check();
        net
    }

    fn bare(loads: &[f64], seed: u64, config: DeltaGossipConfig, warm: bool) -> Self {
        let m = loads.len();
        let shards = ShardMap::auto(m);
        let hot_ticks = if config.hot_ticks > 0 {
            config.hot_ticks
        } else {
            2 * (usize::BITS - m.max(1).leading_zeros()) + 2
        };
        let nodes: Vec<NodeState> = (0..m)
            .map(|node| {
                let view: Vec<Entry> = (0..m)
                    .map(|origin| Entry {
                        load: if warm || node == origin {
                            loads[origin]
                        } else {
                            0.0
                        },
                        version: if warm || node == origin { 1 } else { 0 },
                    })
                    .collect();
                let heard: Vec<u32> = (0..m)
                    .map(|origin| {
                        // A cold start's own entry is "just published";
                        // a warm start is all ancient history.
                        if !warm && node == origin {
                            0
                        } else {
                            NEVER
                        }
                    })
                    .collect();
                let mut vsum = vec![0u64; shards.count()];
                for (origin, e) in view.iter().enumerate() {
                    vsum[shards.shard_of(origin)] += e.version;
                }
                NodeState {
                    view,
                    heard,
                    vsum,
                    tick: 0,
                }
            })
            .collect();
        let mut heap = EventHeap::new();
        if m >= 2 {
            for node in 0..m as u32 {
                heap.push(0.0, What::Tick { node });
            }
        }
        Self {
            shards,
            nodes,
            newest: vec![1; m],
            fresh: vec![if warm { m } else { 1 }; m],
            deficit: 0,
            completed_at: Some(0.0),
            now: 0.0,
            period_ms: config.period_ms,
            hot_ticks,
            heap,
            rng: rng_for(seed, 0xDE17A),
            traffic: GossipTraffic::default(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for the empty network.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The shard layout in use.
    pub fn shards(&self) -> &ShardMap {
        &self.shards
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> f64 {
        self.now
    }

    /// Wire-traffic counters accumulated so far.
    pub fn traffic(&self) -> GossipTraffic {
        self.traffic
    }

    /// Virtual instant at which the last full dissemination completed,
    /// if currently complete.
    pub fn completed_at(&self) -> Option<f64> {
        self.completed_at
    }

    /// Returns `true` when every node holds the globally freshest
    /// version of every origin's entry (O(1) counter check).
    pub fn fully_disseminated(&self) -> bool {
        self.deficit == 0
    }

    /// A node publishes a new local load (bumps its version; the entry
    /// becomes hot and starts spreading on subsequent exchanges).
    pub fn publish(&mut self, node: usize, load: f64) {
        let v = self.nodes[node].view[node].version + 1;
        let tick = self.nodes[node].tick;
        let shard = self.shards.shard_of(node);
        let state = &mut self.nodes[node];
        state.view[node] = Entry { load, version: v };
        state.heard[node] = tick;
        state.vsum[shard] += 1;
        self.deficit += self.fresh[node] - 1;
        self.newest[node] = v;
        self.fresh[node] = 1;
        if self.deficit > 0 {
            self.completed_at = None;
        }
        self.debug_check();
    }

    /// The load vector as node `node` currently believes it.
    pub fn view(&self, node: usize) -> Vec<f64> {
        self.nodes[node].view.iter().map(|e| e.load).collect()
    }

    /// Copies node `node`'s believed load vector into `out` without
    /// allocating.
    pub fn view_into(&self, node: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.nodes[node].view.iter().map(|e| e.load));
    }

    /// Drains scheduled events up to virtual time `until_ms`
    /// (inclusive) and parks the clock there. `delays(i, j)` is the
    /// one-way delivery delay in virtual ms. The heap persists, so
    /// callers can interleave [`publish`](Self::publish) with repeated
    /// advances.
    ///
    /// `tracer` observes frame deliveries: every merged frame emits a
    /// `gossip_delta` event when its hot set is non-empty and a
    /// `gossip_full` event when its fallback shard is, stamped with
    /// receiver/sender and the shard index. Pass [`crate::NullSink`]
    /// to trace nothing; observation never changes the protocol's
    /// course.
    pub fn advance<D: Fn(usize, usize) -> f64, T: TraceSink>(
        &mut self,
        until_ms: f64,
        delays: D,
        tracer: &mut T,
    ) {
        assert!(
            until_ms >= self.now,
            "virtual time cannot run backwards ({} < {})",
            until_ms,
            self.now
        );
        while let Some(due) = self.heap.peek_due() {
            if due > until_ms {
                break;
            }
            let event = self.heap.pop().expect("peeked");
            self.now = event.due;
            self.handle(event, &delays, tracer);
        }
        self.now = until_ms;
    }

    /// Drains events until full dissemination or `max_ms` more virtual
    /// time elapses. Returns `(complete, virtual_ms)` where
    /// `virtual_ms` is the exact completion instant (or the deadline).
    /// `tracer` observes frame deliveries as in
    /// [`advance`](Self::advance).
    pub fn run_until_complete<D: Fn(usize, usize) -> f64, T: TraceSink>(
        &mut self,
        max_ms: f64,
        delays: D,
        tracer: &mut T,
    ) -> (bool, f64) {
        let deadline = self.now + max_ms;
        while self.completed_at.is_none() {
            match self.heap.peek_due() {
                Some(due) if due <= deadline => {
                    let event = self.heap.pop().expect("peeked");
                    self.now = event.due;
                    self.handle(event, &delays, tracer);
                }
                _ => {
                    self.now = deadline;
                    return (false, deadline);
                }
            }
        }
        let t = self.completed_at.expect("loop exit condition");
        self.now = self.now.max(t);
        (true, t)
    }

    /// Emits the dissemination events for a frame merged at `node` from
    /// `peer`: `gossip_delta` when the hot set rode along, `gossip_full`
    /// when the fallback shard did, `detail` carrying the entry count
    /// and `round` the shard index.
    fn trace_frame<T: TraceSink>(
        tracer: &mut T,
        now: f64,
        node: u32,
        peer: u32,
        frame: &DeltaFrame,
    ) {
        if !tracer.enabled() {
            return;
        }
        for (kind, entries) in [
            (TraceKind::GossipDelta, frame.changed.len()),
            (TraceKind::GossipFull, frame.full.len()),
        ] {
            if entries > 0 {
                tracer.emit(&TraceEvent {
                    kind,
                    at_ms: now,
                    node,
                    peer,
                    round: u64::from(frame.shard),
                    tag: 0,
                    detail: entries as f64,
                });
            }
        }
    }

    fn handle<D: Fn(usize, usize) -> f64, T: TraceSink>(
        &mut self,
        event: Scheduled<What>,
        delays: &D,
        tracer: &mut T,
    ) {
        let now = event.due;
        let m = self.len();
        match event.item {
            What::Tick { node } => {
                let n = node as usize;
                let mut peer = self.rng.gen_range(0..m - 1) as u32;
                if peer >= node {
                    peer += 1;
                }
                let fallback = (self.nodes[n].tick as usize) % self.shards.count();
                let frame = self.build_frame(n, fallback);
                self.nodes[n].tick += 1;
                self.heap.push(
                    now + delays(n, peer as usize),
                    What::Request {
                        from: node,
                        to: peer,
                        frame,
                    },
                );
                self.heap.push(now + self.period_ms, What::Tick { node });
            }
            What::Request { from, to, frame } => {
                let decoded = wire::decode_delta(frame).expect("internally produced frame");
                let t = to as usize;
                Self::trace_frame(tracer, now, to, from, &decoded);
                self.merge_frame(t, &decoded, now);
                // Reply with whatever shard the requester's summary
                // says it lags most on; when nothing lags, fall back to
                // the responder's own rotation so anti-entropy keeps
                // sweeping.
                let gap = |s: usize| {
                    let theirs = decoded.since.get(s).copied().unwrap_or(0);
                    self.nodes[t].vsum[s].saturating_sub(theirs)
                };
                let mut fallback = (self.nodes[t].tick as usize) % self.shards.count();
                let mut best = 0u64;
                for s in 0..self.shards.count() {
                    if gap(s) > best {
                        best = gap(s);
                        fallback = s;
                    }
                }
                let reply = self.build_frame(t, fallback);
                self.heap.push(
                    now + delays(t, from as usize),
                    What::Reply {
                        from: to,
                        to: from,
                        frame: reply,
                    },
                );
            }
            What::Reply { from, to, frame } => {
                let decoded = wire::decode_delta(frame).expect("internally produced frame");
                Self::trace_frame(tracer, now, to, from, &decoded);
                self.merge_frame(to as usize, &decoded, now);
                self.traffic.exchanges += 1;
            }
        }
    }

    /// Assembles and encodes node `n`'s frame: its hot set plus the
    /// complete known contents of `fallback`, metering the traffic
    /// counters.
    fn build_frame(&mut self, n: usize, fallback: usize) -> Bytes {
        let state = &self.nodes[n];
        let tick = state.tick;
        let in_fallback = self.shards.range(fallback);
        let hot = |origin: usize| {
            let heard = state.heard[origin];
            heard != NEVER && tick.saturating_sub(heard) < self.hot_ticks
        };
        let entry = |origin: usize| WireEntry {
            origin: origin as u32,
            version: state.view[origin].version,
            load: state.view[origin].load,
        };
        let changed: Vec<WireEntry> = (0..self.len())
            .filter(|&o| state.view[o].version > 0 && hot(o) && !in_fallback.contains(&o))
            .map(entry)
            .collect();
        let full: Vec<WireEntry> = in_fallback
            .clone()
            .filter(|&o| state.view[o].version > 0)
            .map(entry)
            .collect();
        let frame = DeltaFrame {
            shard: fallback as u32,
            since: state.vsum.clone(),
            changed,
            full,
        };
        let encoded = wire::encode_delta(&frame);
        self.traffic.frames += 1;
        self.traffic.bytes += encoded.len() as u64;
        self.traffic.delta_entries += frame.changed.len() as u64;
        self.traffic.full_entries += frame.full.len() as u64;
        encoded
    }

    /// Keep-freshest merge of a decoded frame into `node`'s view,
    /// maintaining the freshness counters and shard summaries.
    fn merge_frame(&mut self, node: usize, frame: &DeltaFrame, now: f64) {
        let m = self.len();
        for e in frame.changed.iter().chain(&frame.full) {
            let origin = e.origin as usize;
            if origin >= m {
                continue; // hostile frame; internally never happens
            }
            let tick = self.nodes[node].tick;
            let mine = &mut self.nodes[node].view[origin];
            if e.version > mine.version {
                debug_assert!(e.version <= self.newest[origin]);
                let gained = e.version - mine.version;
                *mine = Entry {
                    load: e.load,
                    version: e.version,
                };
                self.nodes[node].heard[origin] = tick;
                self.nodes[node].vsum[self.shards.shard_of(origin)] += gained;
                if e.version == self.newest[origin] {
                    self.fresh[origin] += 1;
                    self.deficit -= 1;
                    if self.deficit == 0 && self.completed_at.is_none() {
                        self.completed_at = Some(now);
                    }
                }
            }
        }
        self.debug_check();
    }

    /// Debug-only ground truth for the incremental counters. The full
    /// rescan is O(m²) per merge, so it only runs on test-sized
    /// networks — the counters it validates are size-independent.
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            let m = self.len();
            if m > 64 {
                return;
            }
            let mut stale = 0;
            for origin in 0..m {
                let newest = self
                    .nodes
                    .iter()
                    .map(|s| s.view[origin].version)
                    .max()
                    .unwrap_or(0);
                debug_assert_eq!(newest, self.newest[origin], "newest[{origin}] drifted");
                stale += self
                    .nodes
                    .iter()
                    .filter(|s| s.view[origin].version != newest)
                    .count();
            }
            debug_assert_eq!(stale, self.deficit, "deficit counter drifted");
            for (n, state) in self.nodes.iter().enumerate() {
                for s in 0..self.shards.count() {
                    let truth: u64 = self.shards.range(s).map(|o| state.view[o].version).sum();
                    debug_assert_eq!(truth, state.vsum[s], "vsum[{s}] drifted at node {n}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventGossip, EventGossipConfig, GossipInputs};
    use crate::NullSink;

    fn cfg() -> DeltaGossipConfig {
        DeltaGossipConfig::default()
    }

    #[test]
    fn cold_start_disseminates_fully() {
        let loads: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut net = DeltaGossip::new(&loads, 7, cfg());
        assert!(!net.fully_disseminated());
        let (complete, t) = net.run_until_complete(60_000.0, |_, _| 10.0, &mut NullSink);
        assert!(complete, "did not disseminate");
        assert!(t > 0.0 && t < 40.0 * 100.0, "completed at {t} ms");
        for node in 0..50 {
            assert_eq!(net.view(node), loads, "node {node} view wrong");
        }
        let traffic = net.traffic();
        assert!(traffic.frames > 0 && traffic.bytes > 0 && traffic.exchanges > 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let loads: Vec<f64> = (0..32).map(|i| (i * i) as f64).collect();
        let run = |seed| {
            let mut net = DeltaGossip::new(&loads, seed, cfg());
            let out = net.run_until_complete(
                60_000.0,
                |i, j| 1.0 + ((i * 31 + j * 17) % 13) as f64,
                &mut NullSink,
            );
            (out, net.traffic(), net.view(5))
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0, "seed must matter");
    }

    #[test]
    fn clones_replay_identically() {
        // The engine feed relies on Engine: Clone cloning the whole
        // network mid-flight (heap, RNG, counters and all).
        let loads: Vec<f64> = (0..24).map(|i| (i % 7) as f64).collect();
        let mut a = DeltaGossip::new(&loads, 9, cfg());
        a.advance(350.0, |_, _| 5.0, &mut NullSink);
        let mut b = a.clone();
        a.publish(3, 99.0);
        b.publish(3, 99.0);
        a.advance(5_000.0, |_, _| 5.0, &mut NullSink);
        b.advance(5_000.0, |_, _| 5.0, &mut NullSink);
        assert_eq!(a.traffic(), b.traffic());
        for node in 0..24 {
            assert_eq!(a.view(node), b.view(node));
        }
    }

    #[test]
    fn warm_start_is_complete_and_quiet_until_published() {
        let loads: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut net = DeltaGossip::warm(&loads, 3, cfg());
        assert!(net.fully_disseminated());
        assert_eq!(net.completed_at(), Some(0.0));
        for node in 0..40 {
            assert_eq!(net.view(node), loads);
        }
        net.publish(17, 1000.0);
        assert!(!net.fully_disseminated());
        let (complete, t) = net.run_until_complete(60_000.0, |_, _| 5.0, &mut NullSink);
        assert!(complete);
        assert!(t > 0.0);
        for node in 0..40 {
            assert_eq!(net.view(node)[17], 1000.0, "node {node} stale");
        }
    }

    #[test]
    fn delta_views_match_full_view_gossip_views() {
        // Protocol-level delta∘apply ≡ full view: after quiescence both
        // layers must hold the identical, exact load vector everywhere.
        let loads: Vec<f64> = (0..48).map(|i| (i * 3 % 11) as f64).collect();
        let mut full = EventGossip::new(&loads, 21);
        full.run(
            &EventGossipConfig::default(),
            |_, _| 4.0,
            GossipInputs::default(),
        );
        let mut delta = DeltaGossip::new(&loads, 21, cfg());
        let (complete, _) = delta.run_until_complete(60_000.0, |_, _| 4.0, &mut NullSink);
        assert!(complete);
        for node in 0..48 {
            assert_eq!(delta.view(node), full.view(node), "node {node} differs");
        }
    }

    #[test]
    fn interleaved_publishes_and_advances_converge() {
        let loads: Vec<f64> = (0..36).map(|i| i as f64).collect();
        let mut net = DeltaGossip::warm(&loads, 5, cfg());
        let delays = |i: usize, j: usize| 1.0 + ((i + 2 * j) % 7) as f64;
        for step in 0..30u32 {
            if step % 3 == 0 {
                let node = (step as usize * 7) % 36;
                net.publish(node, 500.0 + step as f64);
            }
            let until = net.now_ms() + 100.0;
            net.advance(until, delays, &mut NullSink);
        }
        let (complete, _) = net.run_until_complete(60_000.0, delays, &mut NullSink);
        assert!(complete);
        let reference = net.view(0);
        for node in 1..36 {
            assert_eq!(net.view(node), reference, "node {node} diverged");
        }
    }

    #[test]
    fn steady_state_frames_are_much_smaller_than_full_views() {
        // Once everything is cold, a frame is one shard + summaries —
        // nowhere near the m-entry full view. This is the bandwidth
        // property the bench quantifies at m=5000.
        let m = 512;
        let loads: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let mut net = DeltaGossip::warm(&loads, 1, cfg());
        let before = net.traffic();
        net.advance(1_000.0, |_, _| 1.0, &mut NullSink);
        let t = net.traffic().since(&before);
        assert!(t.frames > 0);
        let per_frame = t.bytes as f64 / t.frames as f64;
        let full_view = wire::view_bytes(m) as f64;
        assert!(
            per_frame * 4.0 < full_view,
            "steady frame {per_frame} B vs full view {full_view} B"
        );
        assert_eq!(t.delta_entries, 0, "cold network must ship no rumors");
    }

    #[test]
    fn traced_runs_observe_deltas_and_shards_without_perturbing_the_protocol() {
        use dlb_obs::MemorySink;
        // m = 100 so ShardMap::auto yields several shards — with a
        // single shard every entry rides in `full` and no delta can
        // ever ship.
        let loads: Vec<f64> = (0..100).map(|i| (i * 5 % 13) as f64).collect();
        let delays = |i: usize, j: usize| 2.0 + ((i + 3 * j) % 5) as f64;

        let mut traced = DeltaGossip::new(&loads, 11, cfg());
        let mut sink = MemorySink::default();
        let out_traced = traced.run_until_complete(60_000.0, delays, &mut sink);

        let mut plain = DeltaGossip::new(&loads, 11, cfg());
        let out_plain = plain.run_until_complete(60_000.0, delays, &mut NullSink);

        // Observation is passive: same completion instant, traffic, and
        // views whether or not a sink is attached.
        assert_eq!(out_traced, out_plain);
        assert_eq!(traced.traffic(), plain.traffic());
        for node in 0..100 {
            assert_eq!(traced.view(node), plain.view(node));
        }

        // A cold start spreads by rumor and shard alike, and every
        // frame merge is on the record.
        let deltas = sink
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::GossipDelta)
            .count();
        let fulls = sink
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::GossipFull)
            .count();
        assert!(deltas > 0, "cold start must ship rumors");
        assert!(fulls > 0, "anti-entropy shards must ride along");
        for e in &sink.events {
            assert!(e.detail >= 1.0, "events carry entry counts");
            assert!((e.node as usize) < 100 && (e.peer as usize) < 100);
            assert!((e.round as usize) < traced.shards().count());
        }
    }

    #[test]
    fn trivial_networks_are_complete_and_silent() {
        let mut single = DeltaGossip::new(&[9.0], 1, cfg());
        assert!(single.fully_disseminated());
        let (complete, t) = single.run_until_complete(1_000.0, |_, _| 1.0, &mut NullSink);
        assert!(complete);
        assert_eq!(t, 0.0);
        assert!(single.traffic().is_quiet());
        assert!(!single.is_empty());
        assert_eq!(single.len(), 1);
    }
}
