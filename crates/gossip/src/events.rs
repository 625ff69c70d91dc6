//! Push-pull dissemination as scheduled events under real link delays.
//!
//! [`GossipNetwork`](crate::push_pull::GossipNetwork) runs synchronous
//! rounds: every node exchanges with a random peer, instantaneously,
//! once per round. That answers "how many rounds?" but not the
//! question a deployment asks — *how much time* does dissemination
//! take when every exchange crosses a network link? This module runs
//! the same versioned push-pull merge on the shared virtual-time event
//! heap ([`dlb_core::events::EventHeap`], the same primitive the
//! `dlb-runtime` event executor schedules through): each node
//! initiates an exchange every `period_ms`, the request view travels
//! `delay(i, j)` ms, the pulled reply travels `delay(j, i)` ms back,
//! and dissemination completes at a measurable virtual instant.
//!
//! Completion is tracked *incrementally*: the network maintains, per
//! origin, how many nodes already hold the globally freshest version,
//! so "is everyone up to date?" is an O(1) counter check per delivery
//! instead of an O(m²) rescan — the rescan is what used to cap the
//! staleness ablation's event-time column at m = 1000.
//!
//! [`GossipInputs::faults`] injects a `dlb-faults` script: nodes
//! that are down neither initiate nor receive, and lossy or
//! partition-crossing frames are simply **dropped** — push-pull is
//! periodic and idempotent, so a lost frame costs time, not
//! correctness, and dissemination-under-churn becomes a measurable
//! virtual-ms quantity. (Contrast the protocol executor, where loss
//! must manifest as retransmission delay; see the `dlb-faults` crate
//! docs.)
//!
//! Everything is deterministic per seed: peers are drawn from a seeded
//! RNG, the heap orders deliveries by `(due time, sequence number)`,
//! and the delay function and fault script are pure — rerunning a
//! configuration reproduces the same exchanges, views, drops, and
//! completion time bit for bit.

use dlb_core::events::EventHeap;
use dlb_core::rngutil::rng_for;
use dlb_faults::FaultScript;
use dlb_obs::event::{DROP_DEST_DOWN, DROP_LINK_LOSS};
use dlb_obs::{NullSink, TraceEvent, TraceKind, TraceSink};
use rand::rngs::StdRng;
use rand::Rng;

use crate::push_pull::Entry;

/// Timing of an event-driven gossip run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventGossipConfig {
    /// Virtual ms between one node's successive exchange initiations.
    pub period_ms: f64,
    /// Give up (report incomplete) past this virtual time.
    pub max_ms: f64,
}

impl Default for EventGossipConfig {
    fn default() -> Self {
        Self {
            period_ms: 100.0,
            max_ms: 60_000.0,
        }
    }
}

/// What [`EventGossip::run`] takes besides the timing and the delay
/// function. `GossipInputs::default()` is a fault-free, untraced run;
/// callers set only the fields they use.
pub struct GossipInputs<'a, T: TraceSink = NullSink> {
    /// Faults applied to every frame, compiled for this network's size.
    /// `None` injects nothing.
    pub faults: Option<&'a FaultScript>,
    /// Observes the delivery decisions. Pass `&mut sink` to read the
    /// sink afterwards.
    pub tracer: T,
}

impl Default for GossipInputs<'_> {
    fn default() -> Self {
        Self {
            faults: None,
            tracer: NullSink,
        }
    }
}

/// Outcome of [`EventGossip::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventGossipStats {
    /// Virtual time at which every node held the freshest version of
    /// every entry (or `max_ms` when incomplete).
    pub virtual_ms: f64,
    /// Completed exchanges: replies delivered, plus a final push whose
    /// merge finished dissemination on its own (that exchange did the
    /// decisive work; not counting it undercounted every run that
    /// completed on a push).
    pub exchanges: usize,
    /// Whether full dissemination was reached within `max_ms`.
    pub complete: bool,
    /// Frames the fault script swallowed (loss, partition crossings,
    /// down destinations). Zero for fault-free runs.
    pub dropped: usize,
    /// The subset of `dropped` that were replies — exchanges whose push
    /// half merged but whose pull half silently vanished. Previously
    /// indistinguishable from dropped requests.
    pub dropped_replies: usize,
    /// Encoded bytes put on the wire (every frame is a full m-entry
    /// view in [`crate::wire::encode`]'s layout, counted when sent —
    /// dropped frames still burned their bandwidth).
    pub bytes: u64,
}

#[derive(Debug)]
enum What {
    /// A node initiates its periodic exchange.
    Tick { node: u32 },
    /// A pushed view arrives at `to`; it merges and replies.
    Request {
        from: u32,
        to: u32,
        view: Vec<Entry>,
    },
    /// The pulled view arrives back at the initiator.
    Reply {
        from: u32,
        to: u32,
        view: Vec<Entry>,
    },
}

/// A gossip network whose exchanges are scheduled events (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct EventGossip {
    /// `views[node][origin]` — what `node` believes about `origin`.
    views: Vec<Vec<Entry>>,
    /// Per origin: the globally freshest version (versions only
    /// originate at the origin itself, so this is
    /// `views[origin][origin].version`).
    newest: Vec<u64>,
    /// Per origin: how many nodes hold the freshest version.
    fresh: Vec<usize>,
    /// Total count of (node, origin) pairs still holding a stale
    /// version; `0` ⇔ fully disseminated.
    deficit: usize,
    rng: StdRng,
}

impl EventGossip {
    /// Creates a network where each node initially knows only its own
    /// load.
    pub fn new(loads: &[f64], seed: u64) -> Self {
        let m = loads.len();
        let views: Vec<Vec<Entry>> = (0..m)
            .map(|node| {
                (0..m)
                    .map(|origin| Entry {
                        load: if node == origin { loads[origin] } else { 0.0 },
                        version: if node == origin { 1 } else { 0 },
                    })
                    .collect()
            })
            .collect();
        Self {
            views,
            newest: vec![1; m],
            fresh: vec![1; m],
            deficit: m * m.saturating_sub(1),
            rng: rng_for(seed, 0x6E57),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Returns `true` for the empty network.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// A node publishes a new local load (bumps its version).
    pub fn publish(&mut self, node: usize, load: f64) {
        let v = self.views[node][node].version + 1;
        self.views[node][node] = Entry { load, version: v };
        // Everyone else just became stale for this origin.
        self.deficit += self.fresh[node] - 1;
        self.newest[node] = v;
        self.fresh[node] = 1;
        self.debug_check_deficit();
    }

    /// The load vector as node `node` currently believes it.
    pub fn view(&self, node: usize) -> Vec<f64> {
        self.views[node].iter().map(|e| e.load).collect()
    }

    /// Returns `true` when every node holds the globally freshest
    /// version of every origin's entry. O(1): the merge path maintains
    /// a stale-pair counter.
    pub fn fully_disseminated(&self) -> bool {
        self.deficit == 0
    }

    /// Debug-only ground truth for the incremental counter.
    fn debug_check_deficit(&self) {
        #[cfg(debug_assertions)]
        {
            let m = self.len();
            let mut stale = 0;
            for origin in 0..m {
                let newest = self
                    .views
                    .iter()
                    .map(|v| v[origin].version)
                    .max()
                    .unwrap_or(0);
                debug_assert_eq!(newest, self.newest[origin], "newest[{origin}] drifted");
                stale += self
                    .views
                    .iter()
                    .filter(|v| v[origin].version != newest)
                    .count();
            }
            debug_assert_eq!(stale, self.deficit, "deficit counter drifted");
        }
    }

    /// Keep-freshest merge of a received view into `node`'s,
    /// maintaining the per-origin freshness counters.
    fn merge(&mut self, node: u32, view: &[Entry]) {
        for (origin, (mine, theirs)) in self.views[node as usize].iter_mut().zip(view).enumerate() {
            if theirs.version > mine.version {
                *mine = *theirs;
                // Versions only originate at the origin, so an incoming
                // copy is never fresher than the global newest; it can
                // only promote this node *to* the newest.
                debug_assert!(theirs.version <= self.newest[origin]);
                if theirs.version == self.newest[origin] {
                    self.fresh[origin] += 1;
                    self.deficit -= 1;
                }
            }
        }
        self.debug_check_deficit();
    }

    /// Runs scheduled exchanges until full dissemination (or
    /// `config.max_ms`). `delays(i, j)` is the one-way delivery delay
    /// in virtual ms.
    ///
    /// [`GossipInputs::faults`] injects a fault script: down nodes
    /// neither initiate nor receive, and lossy or partition-crossing
    /// frames are dropped (see the [module docs](self)). Deterministic
    /// per `(seed, script)`; an empty script reproduces the fault-free
    /// run bit for bit.
    ///
    /// [`GossipInputs::tracer`] observes the delivery decisions: every
    /// merged view emits a `gossip_full` event (`detail` = entries
    /// carried) and every frame the fault script swallows emits a
    /// `frame_dropped` event whose `detail` names the reason —
    /// [`DROP_DEST_DOWN`] when the receiver is down, [`DROP_LINK_LOSS`]
    /// for loss and partition crossings. A [`NullSink`] run is
    /// bit-identical to an untraced one.
    pub fn run<D: Fn(usize, usize) -> f64, T: TraceSink>(
        &mut self,
        config: &EventGossipConfig,
        delays: D,
        inputs: GossipInputs<'_, T>,
    ) -> EventGossipStats {
        let m = self.len();
        let no_faults;
        let script = match inputs.faults {
            Some(script) => script,
            None => {
                no_faults = FaultScript::empty(m);
                &no_faults
            }
        };
        let mut tracer = inputs.tracer;
        assert_eq!(
            script.len(),
            m,
            "fault script compiled for a different size"
        );
        let mut exchanges = 0usize;
        let mut dropped = 0usize;
        let mut dropped_replies = 0usize;
        let mut bytes = 0u64;
        let frame_bytes = crate::wire::view_bytes(m) as u64;
        if m < 2 || self.fully_disseminated() {
            return EventGossipStats {
                virtual_ms: 0.0,
                exchanges,
                complete: true,
                dropped,
                dropped_replies,
                bytes,
            };
        }
        let mut heap: EventHeap<What> = EventHeap::new();
        for node in 0..m as u32 {
            heap.push(0.0, What::Tick { node });
        }
        while let Some(event) = heap.pop() {
            let now = event.due;
            if now > config.max_ms {
                return EventGossipStats {
                    virtual_ms: config.max_ms,
                    exchanges,
                    complete: false,
                    dropped,
                    dropped_replies,
                    bytes,
                };
            }
            match event.item {
                What::Tick { node } => {
                    if script.node_down(node as usize, now) {
                        // A crashed node sits the period out (it keeps
                        // its view for a warm restart).
                        heap.push(now + config.period_ms, What::Tick { node });
                        continue;
                    }
                    let mut peer = self.rng.gen_range(0..m - 1) as u32;
                    if peer >= node {
                        peer += 1;
                    }
                    bytes += frame_bytes;
                    heap.push(
                        now + delays(node as usize, peer as usize),
                        What::Request {
                            from: node,
                            to: peer,
                            view: self.views[node as usize].clone(),
                        },
                    );
                    heap.push(now + config.period_ms, What::Tick { node });
                }
                What::Request { from, to, view } => {
                    let dest_down = script.node_down(to as usize, now);
                    if dest_down
                        || script.crossing_blocked(now, from as usize, to as usize)
                        || script.loss_drops(now, event.seq)
                    {
                        Self::trace_drop(&mut tracer, now, to, from, dest_down);
                        dropped += 1;
                        continue;
                    }
                    Self::trace_merge(&mut tracer, now, to, from, view.len());
                    self.merge(to, &view);
                    // The push half alone can finish the job; checking
                    // only on replies would overstate the completion
                    // time by up to a full round trip. The exchange
                    // that did the decisive work still counts.
                    if self.fully_disseminated() {
                        exchanges += 1;
                        return EventGossipStats {
                            virtual_ms: now,
                            exchanges,
                            complete: true,
                            dropped,
                            dropped_replies,
                            bytes,
                        };
                    }
                    bytes += frame_bytes;
                    heap.push(
                        now + delays(to as usize, from as usize),
                        What::Reply {
                            from: to,
                            to: from,
                            view: self.views[to as usize].clone(),
                        },
                    );
                }
                What::Reply { from, to, view } => {
                    let dest_down = script.node_down(to as usize, now);
                    if dest_down
                        || script.crossing_blocked(now, from as usize, to as usize)
                        || script.loss_drops(now, event.seq)
                    {
                        Self::trace_drop(&mut tracer, now, to, from, dest_down);
                        dropped += 1;
                        dropped_replies += 1;
                        continue;
                    }
                    Self::trace_merge(&mut tracer, now, to, from, view.len());
                    self.merge(to, &view);
                    exchanges += 1;
                    if self.fully_disseminated() {
                        return EventGossipStats {
                            virtual_ms: now,
                            exchanges,
                            complete: true,
                            dropped,
                            dropped_replies,
                            bytes,
                        };
                    }
                }
            }
        }
        unreachable!("ticks reschedule forever; the max_ms guard exits first")
    }

    /// Emits the `frame_dropped` event for a frame the fault script
    /// swallowed at `to` (sent by `from`).
    fn trace_drop<T: TraceSink>(tracer: &mut T, now: f64, to: u32, from: u32, dest_down: bool) {
        if tracer.enabled() {
            tracer.emit(&TraceEvent {
                kind: TraceKind::FrameDropped,
                at_ms: now,
                node: to,
                peer: from,
                round: 0,
                tag: 0,
                detail: if dest_down {
                    DROP_DEST_DOWN
                } else {
                    DROP_LINK_LOSS
                },
            });
        }
    }

    /// Emits the `gossip_full` event for a full view merged at `to`
    /// (sent by `from`), `detail` carrying the entry count.
    fn trace_merge<T: TraceSink>(tracer: &mut T, now: f64, to: u32, from: u32, entries: usize) {
        if tracer.enabled() {
            tracer.emit(&TraceEvent {
                kind: TraceKind::GossipFull,
                at_ms: now,
                node: to,
                peer: from,
                round: 0,
                tag: 0,
                detail: entries as f64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_faults::FaultPlan;

    /// A fault-free, untraced run on the default timing.
    fn run_plain(net: &mut EventGossip, delays: impl Fn(usize, usize) -> f64) -> EventGossipStats {
        net.run(
            &EventGossipConfig::default(),
            delays,
            GossipInputs::default(),
        )
    }

    /// Inputs that carry only a fault script.
    fn faulted(script: &FaultScript) -> GossipInputs<'_> {
        GossipInputs {
            faults: Some(script),
            ..Default::default()
        }
    }

    #[test]
    fn disseminates_in_bounded_virtual_time() {
        let loads: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut net = EventGossip::new(&loads, 7);
        let stats = run_plain(&mut net, |_, _| 10.0);
        assert!(stats.complete, "did not disseminate: {stats:?}");
        assert!(net.fully_disseminated());
        assert!(stats.virtual_ms > 0.0);
        assert_eq!(stats.dropped, 0);
        // Push-pull completes in O(log m) periods w.h.p.
        assert!(
            stats.virtual_ms < 40.0 * 100.0,
            "took {} ms",
            stats.virtual_ms
        );
        for node in 0..50 {
            assert_eq!(net.view(node), loads);
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let loads: Vec<f64> = (0..32).map(|i| (i * i) as f64).collect();
        let run = |seed| {
            let mut net = EventGossip::new(&loads, seed);
            let stats = run_plain(&mut net, |i, j| 1.0 + ((i * 31 + j * 17) % 13) as f64);
            (stats, net.view(5))
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0, "seed must matter");
    }

    #[test]
    fn slower_links_mean_later_completion() {
        let loads: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let config = EventGossipConfig::default();
        let mut fast = EventGossip::new(&loads, 9);
        let fast_stats = fast.run(&config, |_, _| 1.0, GossipInputs::default());
        let mut slow = EventGossip::new(&loads, 9);
        let slow_stats = slow.run(&config, |_, _| 400.0, GossipInputs::default());
        assert!(fast_stats.complete && slow_stats.complete);
        assert!(
            slow_stats.virtual_ms > fast_stats.virtual_ms,
            "slow {} vs fast {}",
            slow_stats.virtual_ms,
            fast_stats.virtual_ms
        );
    }

    #[test]
    fn completion_via_push_counts_at_request_time() {
        // Two nodes, symmetric delay d: both tick at t=0, both request
        // views land at t=d, and the two push merges alone disseminate
        // everything. Completion must be reported at d — not at the
        // first reply's 2d.
        let mut net = EventGossip::new(&[1.0, 2.0], 1);
        let stats = net.run(
            &EventGossipConfig {
                period_ms: 1000.0,
                max_ms: 10_000.0,
            },
            |_, _| 7.0,
            GossipInputs::default(),
        );
        assert!(stats.complete);
        assert_eq!(stats.virtual_ms, 7.0, "one-way push completes at d");
        assert_eq!(
            stats.exchanges, 1,
            "the completing push is a real exchange and must be counted"
        );
        assert!(net.fully_disseminated());
    }

    #[test]
    fn updates_propagate_with_versions() {
        let mut net = EventGossip::new(&[5.0, 6.0, 7.0, 8.0], 3);
        run_plain(&mut net, |_, _| 2.0);
        net.publish(2, 70.0);
        assert!(!net.fully_disseminated());
        let stats = run_plain(&mut net, |_, _| 2.0);
        assert!(stats.complete);
        for node in 0..4 {
            assert_eq!(net.view(node)[2], 70.0, "node {node} has stale entry");
        }
    }

    #[test]
    fn max_ms_bounds_a_partitioned_network() {
        // Infinite-delay links: requests never arrive, so the run must
        // stop at max_ms... but infinity would poison the heap order;
        // use a delay beyond the horizon instead.
        let loads = vec![1.0, 2.0, 3.0];
        let mut net = EventGossip::new(&loads, 1);
        let stats = net.run(
            &EventGossipConfig {
                period_ms: 50.0,
                max_ms: 500.0,
            },
            |_, _| 1e9,
            GossipInputs::default(),
        );
        assert!(!stats.complete);
        assert_eq!(stats.virtual_ms, 500.0);
    }

    #[test]
    fn trivial_networks_complete_instantly() {
        let mut single = EventGossip::new(&[9.0], 1);
        let stats = run_plain(&mut single, |_, _| 1.0);
        assert!(stats.complete);
        assert_eq!(stats.virtual_ms, 0.0);
        assert_eq!(stats.exchanges, 0);
        assert_eq!(stats.bytes, 0);
        assert!(!single.is_empty());
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn every_sent_frame_is_billed() {
        let loads: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut net = EventGossip::new(&loads, 7);
        let stats = run_plain(&mut net, |_, _| 10.0);
        assert!(stats.complete);
        let frame = crate::wire::view_bytes(40) as u64;
        assert!(stats.bytes >= frame * stats.exchanges as u64);
        assert_eq!(stats.bytes % frame, 0, "bytes must be whole frames");
    }

    #[test]
    fn dropped_replies_are_surfaced_separately() {
        let loads: Vec<f64> = (0..30).map(|i| (i * 3) as f64).collect();
        let script = FaultPlan::new().loss(0.5).compile(11, 30);
        let mut net = EventGossip::new(&loads, 11);
        let stats = net.run(&EventGossipConfig::default(), |_, _| 10.0, faulted(&script));
        assert!(stats.complete);
        assert!(
            stats.dropped_replies > 0,
            "50% loss must swallow some replies: {stats:?}"
        );
        assert!(
            stats.dropped_replies < stats.dropped,
            "requests are dropped too: {stats:?}"
        );
    }

    #[test]
    fn incremental_completion_matches_reality_through_publishes() {
        let mut net = EventGossip::new(&[1.0, 2.0, 3.0, 4.0, 5.0], 2);
        assert!(!net.fully_disseminated());
        run_plain(&mut net, |_, _| 3.0);
        assert!(net.fully_disseminated());
        net.publish(0, 10.0);
        net.publish(0, 11.0); // double publish: still one stale origin
        assert!(!net.fully_disseminated());
        run_plain(&mut net, |_, _| 3.0);
        assert!(net.fully_disseminated());
        for node in 0..5 {
            assert_eq!(net.view(node)[0], 11.0);
        }
    }

    #[test]
    fn empty_script_reproduces_the_unfaulted_run() {
        let loads: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let delays = |i: usize, j: usize| 1.0 + ((i * 7 + j * 3) % 5) as f64;
        let mut plain = EventGossip::new(&loads, 5);
        let a = run_plain(&mut plain, delays);
        let mut scripted = EventGossip::new(&loads, 5);
        let script = FaultPlan::new().compile(5, 20);
        assert!(script.is_empty());
        let b = scripted.run(&EventGossipConfig::default(), delays, faulted(&script));
        assert_eq!(a, b);
        for node in 0..20 {
            assert_eq!(plain.view(node), scripted.view(node));
        }
    }

    #[test]
    fn loss_costs_time_not_correctness() {
        let loads: Vec<f64> = (0..30).map(|i| (i * 3) as f64).collect();
        let delays = |_: usize, _: usize| 10.0;
        let mut clean = EventGossip::new(&loads, 11);
        let clean_stats = run_plain(&mut clean, delays);
        let script = FaultPlan::new().loss(0.5).compile(11, 30);
        let mut lossy = EventGossip::new(&loads, 11);
        let lossy_stats = lossy.run(&EventGossipConfig::default(), delays, faulted(&script));
        assert!(lossy_stats.complete);
        assert!(lossy.fully_disseminated());
        assert!(lossy_stats.dropped > 0, "loss must bite: {lossy_stats:?}");
        assert!(
            lossy_stats.virtual_ms > clean_stats.virtual_ms,
            "lossy {} vs clean {}",
            lossy_stats.virtual_ms,
            clean_stats.virtual_ms
        );
    }

    #[test]
    fn dissemination_waits_for_crashed_nodes() {
        let loads: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let script = FaultPlan::new().churn(0.25, 0.0, 2_000.0).compile(3, 12);
        let mut net = EventGossip::new(&loads, 3);
        let stats = net.run(&EventGossipConfig::default(), |_, _| 5.0, faulted(&script));
        assert!(stats.complete);
        // Nodes that were down until t=2000 cannot have been caught up
        // before then.
        assert!(
            stats.virtual_ms > 2_000.0,
            "completion at {} must wait for recovery",
            stats.virtual_ms
        );
        for node in 0..12 {
            assert_eq!(net.view(node), loads);
        }
    }

    #[test]
    fn partition_defers_completion_until_heal() {
        let loads: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let script = FaultPlan::new().partition(0.0, 1_500.0).compile(9, 16);
        let mut net = EventGossip::new(&loads, 9);
        let stats = net.run(&EventGossipConfig::default(), |_, _| 5.0, faulted(&script));
        assert!(stats.complete);
        assert!(stats.dropped > 0, "crossing frames dropped");
        assert!(
            stats.virtual_ms > 1_500.0,
            "cross-cut entries spread only after the heal: {}",
            stats.virtual_ms
        );
    }

    #[test]
    fn traced_runs_observe_merges_and_drops_without_perturbing_the_protocol() {
        use dlb_obs::MemorySink;
        let loads: Vec<f64> = (0..30).map(|i| (i * 3) as f64).collect();
        let delays = |_: usize, _: usize| 10.0;
        let script = FaultPlan::new()
            .loss(0.4)
            .churn(0.2, 0.0, 1_000.0)
            .compile(11, 30);

        let mut traced = EventGossip::new(&loads, 11);
        let mut sink = MemorySink::default();
        let stats_traced = traced.run(
            &EventGossipConfig::default(),
            delays,
            GossipInputs {
                faults: Some(&script),
                tracer: &mut sink,
            },
        );

        let mut plain = EventGossip::new(&loads, 11);
        let stats_plain = plain.run(&EventGossipConfig::default(), delays, faulted(&script));

        // Observation is passive: identical stats and views either way.
        assert_eq!(stats_traced, stats_plain);
        for node in 0..30 {
            assert_eq!(traced.view(node), plain.view(node));
        }

        // Every swallowed frame is on the record with a reason, and
        // every merge too.
        let drops: Vec<_> = sink
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::FrameDropped)
            .collect();
        assert_eq!(drops.len(), stats_traced.dropped);
        assert!(
            drops.iter().any(|e| e.detail == DROP_LINK_LOSS),
            "40% loss must drop some frames on the link"
        );
        assert!(
            drops.iter().any(|e| e.detail == DROP_DEST_DOWN),
            "frames to crashed nodes must name the receiver as the reason"
        );
        // Frames still in flight when dissemination completes are never
        // merged, so only a lower bound relates merges to exchanges: a
        // completed exchange merged its reply (or was the decisive
        // push's request merge).
        let merges: Vec<_> = sink
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::GossipFull)
            .collect();
        assert!(merges.len() >= stats_traced.exchanges);
        assert!(
            merges.iter().all(|e| e.detail == 30.0),
            "full m-entry views"
        );
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let loads: Vec<f64> = (0..24).map(|i| (i % 7) as f64).collect();
        let script = FaultPlan::new()
            .loss(0.3)
            .churn(0.2, 50.0, 800.0)
            .compile(13, 24);
        let run = || {
            let mut net = EventGossip::new(&loads, 13);
            let stats = net.run(&EventGossipConfig::default(), |_, _| 4.0, faulted(&script));
            (stats, net.view(7))
        };
        assert_eq!(run(), run());
    }
}
