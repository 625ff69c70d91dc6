//! Runners: execute a [`ScenarioSpec`] on the system its `algo` names.
//!
//! Every runner produces the same [`RunRecord`] — the scenario's text
//! form, the cost trajectory, the iteration count, whether the
//! termination criterion was met, and the wall time — so downstream
//! tooling (the `dlb` CLI, the bench harnesses, `dlb report`) handles
//! all four systems through one shape.

use std::time::Instant;

use dlb_core::cost::total_cost;
use dlb_core::Assignment;
use dlb_distributed::mine::PartnerSelection;
use dlb_distributed::{Engine, EngineOptions, RoundMode};
use dlb_faults::{FaultSummary, MAX_RETRANSMITS, RETRANSMIT_MS};
use dlb_game::{run_best_response_dynamics, DynamicsOptions};
use dlb_gossip::GossipTraffic;
use dlb_netsim::rtt::QueueModel;
use dlb_netsim::LinkDelayModel;
use dlb_obs::{FrameLog, MemorySink, MetricSet, NullSink, ObsSummary, TraceSink, Trailer};
use dlb_runtime::{
    run_cluster, run_cluster_events, ClusterOptions, ClusterReport, DetectMode, DetectorSummary,
    EventInputs, NodeConfig, SelectPolicy, StreamSummary,
};
use dlb_solver::solve_bcd;

use crate::spec::{
    AlgoSpec, DetectSpec, GossipSpec, RuntimeSpec, ScenarioSpec, SelectSpec, TraceSpec,
};
use dlb_core::Instance;

/// The uniform result of running any scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The scenario's canonical text form.
    pub scenario: String,
    /// Algorithm label (`sequential`, `batched`, `nash`, `protocol`,
    /// `bcd`).
    pub algo: &'static str,
    /// Network size.
    pub m: usize,
    /// `ΣC` trajectory; index 0 is the initial (all-local) cost, the
    /// last entry the final cost. Runners without per-step cost
    /// observability record `[initial, final]`.
    pub history: Vec<f64>,
    /// Iterations / rounds / sweeps executed.
    pub iterations: usize,
    /// Whether the termination criterion was met within the budget.
    pub converged: bool,
    /// Wall-clock seconds of the run (excluding instance sampling) —
    /// except for `runtime=events` protocol runs, where it is the
    /// *simulated* protocol time under the sampled link delays: the
    /// quantity a deployment would measure, and deterministic per
    /// seed, so whole records are bit-reproducible.
    pub wall_secs: f64,
    /// Fault-event summary: what the scenario's `faults=` schedule
    /// actually injected (crashes, recoveries, dropped and delayed
    /// frames). All zeros when the scenario has no fault schedule.
    pub faults: FaultSummary,
    /// Failure-detector summary: what the scenario's `detect=` mode
    /// observed (suspicions, false positives, detection latency,
    /// rejoin time, aborted exchanges). All zeros under the default
    /// `detect=oracle`, which consults the fault script directly and
    /// never suspects anyone.
    pub detector: DetectorSummary,
    /// Streaming summary: what the scenario's `arrivals=`/`duration=`
    /// stream experienced (requests served and dropped, p50/p99
    /// sojourn in virtual ms, time spent imbalanced). All zeros when
    /// the scenario does not stream.
    pub stream: StreamSummary,
    /// Gossip-traffic summary: what the scenario's `gossip=event:...`
    /// control plane put on the wire (frames, bytes, completed
    /// exchanges, delta vs full-view entries). All zeros under the
    /// default emulated snapshot, which moves no bytes.
    pub gossip: GossipTraffic,
    /// Observability summary: what the scenario's `trace=` mode saw
    /// (events emitted, frames delivered/dropped/held, frame-latency
    /// percentiles). All zeros under the default `trace=off`, which
    /// observes nothing and keeps the run byte-identical to an
    /// untraced one.
    pub obs: ObsSummary,
}

impl RunRecord {
    /// `ΣC` of the initial (all-local) assignment.
    pub fn initial_cost(&self) -> f64 {
        self.history.first().copied().unwrap_or(f64::NAN)
    }

    /// `ΣC` when the run stopped.
    pub fn final_cost(&self) -> f64 {
        self.history.last().copied().unwrap_or(f64::NAN)
    }

    /// First trajectory index within `rel_err` of `optimum` (`None`
    /// when never reached) — the Tables I/II measurement.
    pub fn iterations_to_reach(&self, optimum: f64, rel_err: f64) -> Option<usize> {
        let target = optimum * (1.0 + rel_err);
        self.history.iter().position(|&c| c <= target + 1e-12)
    }
}

/// Every runner's first check: a fault plan may only reach the event
/// executor — any other system would silently measure a fault-free
/// run and report it as a faulted one.
fn assert_faults_runnable(spec: &ScenarioSpec) {
    assert!(
        spec.faults.is_empty()
            || (spec.algo == AlgoSpec::Protocol && spec.runtime == RuntimeSpec::Events),
        "faults= requires algo=protocol runtime=events, got '{spec}'"
    );
    assert!(
        spec.detect == DetectSpec::Oracle
            || (spec.algo == AlgoSpec::Protocol && spec.runtime == RuntimeSpec::Events),
        "detect= requires algo=protocol runtime=events, got '{spec}'"
    );
    assert!(
        spec.arrivals.is_empty()
            || (spec.algo == AlgoSpec::Protocol && spec.runtime == RuntimeSpec::Events),
        "arrivals= requires algo=protocol runtime=events, got '{spec}'"
    );
    assert!(
        spec.arrivals.is_empty() == (spec.duration <= 0.0),
        "arrivals= and duration= come as a pair, got '{spec}'"
    );
    assert!(
        spec.gossip == GossipSpec::default()
            || spec.algo == AlgoSpec::Sequential
            || spec.algo == AlgoSpec::Batched,
        "gossip= requires algo=sequential or algo=batched, got '{spec}'"
    );
    assert!(
        spec.trace == TraceSpec::Off
            || (spec.algo == AlgoSpec::Protocol && spec.runtime == RuntimeSpec::Events),
        "trace= requires algo=protocol runtime=events, got '{spec}'"
    );
}

/// An exchange retransmission timeout that cannot tear an alive–alive
/// exchange under this scenario's own fault plan: twice the worst-case
/// one-way frame time, plus margin. The worst case stacks the slowest
/// link (max one-way latency plus the jitter tail bound the netsim
/// tests use), the straggler and spike multipliers, the reliable
/// transport's full retransmission budget when loss is scheduled, and
/// the longest partition hold. Deterministic — a pure function of the
/// spec and the instance's latency matrix — so records stay
/// bit-reproducible.
fn exchange_rto_ms(spec: &ScenarioSpec, instance: &Instance) -> f64 {
    let jitter_tail = 40.0 * QueueModel::default().base_jitter_ms;
    let d_max = instance.latency().max_latency() / 2.0 + jitter_tail;
    let slow = spec.faults.slow.map_or(1.0, |s| s.factor);
    let spike = spec.faults.spike.map_or(1.0, |s| s.factor);
    let retrans = spec
        .faults
        .loss
        .map_or(0.0, |_| f64::from(MAX_RETRANSMITS) * RETRANSMIT_MS);
    let hold = spec.faults.partition.map_or(0.0, |p| p.to_ms - p.from_ms);
    2.0 * (d_max * slow.max(1.0) * spike.max(1.0) + retrans + hold) + 50.0
}

/// Executes scenarios for one algorithm family.
pub trait Runner {
    /// Stable name of the runner (for diagnostics).
    fn name(&self) -> &'static str;

    /// Runs the scenario and reports its [`RunRecord`].
    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        self.run_on(spec, spec.build_instance())
    }

    /// Runs the scenario on a prebuilt instance — callers holding
    /// several scenarios over one grid point (the CLI aliases, bench
    /// sweeps) sample once and share it. `instance` must be what
    /// [`ScenarioSpec::build_instance`] would produce (or an
    /// intentional override with the same size).
    fn run_on(&self, spec: &ScenarioSpec, instance: Instance) -> RunRecord;
}

/// Runs [`dlb_distributed::Engine`] (both round modes) to convergence.
pub struct EngineRunner;

/// Candidate count the `gossip=` axis forces on the engine. Stale
/// views only reach the pruned pre-scoring — exact selection
/// recomputes improvements from true loads and would never observe
/// them — so a non-default gossip axis switches the engine to
/// `Pruned { top_k: GOSSIP_TOP_K }`.
pub const GOSSIP_TOP_K: usize = 8;

impl Runner for EngineRunner {
    fn name(&self) -> &'static str {
        "engine"
    }

    fn run_on(&self, spec: &ScenarioSpec, instance: Instance) -> RunRecord {
        assert_faults_runnable(spec);
        let round_mode = match spec.algo {
            AlgoSpec::Batched => RoundMode::Batched,
            _ => RoundMode::Sequential,
        };
        let mut options = EngineOptions {
            seed: spec.seed,
            granularity: spec.gran,
            round_mode,
            ..Default::default()
        };
        match spec.gossip {
            GossipSpec::Emulated { staleness: 0 } => {}
            GossipSpec::Emulated { staleness } => {
                options.load_staleness = staleness;
                options.selection = Some(PartnerSelection::Pruned {
                    top_k: GOSSIP_TOP_K,
                });
            }
            GossipSpec::Event { .. } => {
                options.selection = Some(PartnerSelection::Pruned {
                    top_k: GOSSIP_TOP_K,
                });
            }
        }
        let mut engine = Engine::new(instance, options);
        if let GossipSpec::Event { period_ms } = spec.gossip {
            engine.attach_gossip_feed(period_ms);
        }
        let start = Instant::now();
        let report = engine.run_to_convergence(spec.eps, spec.patience, spec.budget);
        RunRecord {
            scenario: spec.to_string(),
            algo: spec.algo.label(),
            m: spec.m,
            history: engine.history().to_vec(),
            iterations: report.iterations,
            converged: report.converged,
            wall_secs: start.elapsed().as_secs_f64(),
            faults: FaultSummary::default(),
            detector: DetectorSummary::default(),
            stream: StreamSummary::default(),
            gossip: engine.gossip_traffic().unwrap_or_default(),
            obs: ObsSummary::default(),
        }
    }
}

/// Runs selfish best-response dynamics
/// ([`dlb_game::run_best_response_dynamics`]). `eps` is the paper's
/// per-organization change threshold (§VI-C uses `0.01`), `patience`
/// the calm-round count, `budget` the round budget.
pub struct NashRunner;

impl Runner for NashRunner {
    fn name(&self) -> &'static str {
        "nash"
    }

    fn run_on(&self, spec: &ScenarioSpec, instance: Instance) -> RunRecord {
        assert_faults_runnable(spec);
        let mut assignment = Assignment::local(&instance);
        let initial = total_cost(&instance, &assignment);
        let start = Instant::now();
        let report = run_best_response_dynamics(
            &instance,
            &mut assignment,
            &DynamicsOptions {
                change_threshold: spec.eps,
                calm_rounds: spec.patience,
                max_rounds: spec.budget,
                seed: spec.seed,
                ..Default::default()
            },
        );
        RunRecord {
            scenario: spec.to_string(),
            algo: spec.algo.label(),
            m: spec.m,
            history: vec![initial, total_cost(&instance, &assignment)],
            iterations: report.rounds,
            converged: report.converged,
            wall_secs: start.elapsed().as_secs_f64(),
            faults: FaultSummary::default(),
            detector: DetectorSummary::default(),
            stream: StreamSummary::default(),
            gossip: GossipTraffic::default(),
            obs: ObsSummary::default(),
        }
    }
}

/// Runs the message-passing cluster on the runtime the spec's
/// `runtime=` key names: [`dlb_runtime::run_cluster`] (OS threads) or
/// [`dlb_runtime::run_cluster_events`] (deterministic virtual-time
/// executor, link delays sampled per seed from
/// [`dlb_netsim::LinkDelayModel`] over the instance's latency matrix).
/// `eps` is the quiescent-volume threshold, `patience` the quiet-round
/// count (`m − 1` certifies pairwise optimality), `budget` the round
/// budget. Event runs report *simulated* seconds as `wall_secs` (see
/// [`RunRecord::wall_secs`]).
pub struct ProtocolRunner;

/// The cluster options a scenario spec pins down: round budget,
/// quiescence thresholds, partner selection, failure detection, and
/// the deterministic exchange RTO derived from the instance's latency
/// matrix (see [`exchange_rto_ms`]).
fn protocol_options(spec: &ScenarioSpec, instance: &Instance) -> ClusterOptions {
    ClusterOptions {
        max_rounds: spec.budget,
        quiescent_rounds: spec.patience.max(1),
        quiescent_volume: spec.eps,
        node: NodeConfig {
            select: match spec.select {
                SelectSpec::Exact => SelectPolicy::Exact,
                SelectSpec::TopK(k) => SelectPolicy::TopK(k),
            },
            ..Default::default()
        },
        detect: match spec.detect {
            DetectSpec::Oracle => DetectMode::Oracle,
            DetectSpec::Timeout(ms) => DetectMode::Timeout(ms),
            DetectSpec::Adaptive => DetectMode::Adaptive,
        },
        exchange_rto_ms: exchange_rto_ms(spec, instance),
        ..Default::default()
    }
}

/// Runs the spec on the deterministic event executor with `tracer`
/// attached. This is *the* event path: the [`ProtocolRunner`] calls it
/// for live runs (with [`NullSink`] when `trace=off`) and the replay
/// verifier ([`crate::replay`]) calls it to re-derive a recorded run —
/// both therefore compile the same link delays, fault script, and
/// arrival stream from the spec's one seed.
pub(crate) fn run_protocol_events<T: TraceSink>(
    spec: &ScenarioSpec,
    instance: &Instance,
    tracer: &mut T,
) -> ClusterReport {
    let options = protocol_options(spec, instance);
    let delays = LinkDelayModel::new(instance.latency(), spec.seed);
    // The scenario's seed compiles the fault plan, so one seed fixes
    // the workload, the link delays, *and* the fault trajectory. An
    // empty plan compiles to the empty script, which the executor
    // treats exactly as "no faults" — byte-equal records.
    let script = spec.faults.compile(spec.seed, instance.len());
    // The same seed also compiles the arrival stream, with the
    // sampled own-loads as the per-organization weights. An empty
    // plan compiles to the empty script — byte-equal records to an
    // unstreamed run.
    let stream = spec
        .arrivals
        .compile(spec.seed, spec.duration, instance.own_loads());
    let inputs = EventInputs {
        faults: Some(&script),
        stream: Some(&stream),
        tracer,
    };
    run_cluster_events(instance, &options, |i, j| delays.one_way_ms(i, j), inputs)
}

impl Runner for ProtocolRunner {
    fn name(&self) -> &'static str {
        "protocol"
    }

    fn run_on(&self, spec: &ScenarioSpec, instance: Instance) -> RunRecord {
        assert_faults_runnable(spec);
        let start = Instant::now();
        let mut obs = ObsSummary::default();
        let (report, secs) = match spec.runtime {
            RuntimeSpec::Threads => {
                let options = protocol_options(spec, &instance);
                let report = run_cluster(&instance, &options);
                (report, start.elapsed().as_secs_f64())
            }
            RuntimeSpec::Events => {
                let report = match spec.trace {
                    TraceSpec::Off => run_protocol_events(spec, &instance, &mut NullSink),
                    TraceSpec::Summary | TraceSpec::Frames(_) => {
                        let mut sink = MemorySink::default();
                        let report = run_protocol_events(spec, &instance, &mut sink);
                        obs = MetricSet::from_events(&sink.events).summary();
                        if let TraceSpec::Frames(path) = spec.trace {
                            // The header records the spec *without* its
                            // trace key: replay re-derives the run, and
                            // re-recording during replay would be both
                            // circular and a determinism hazard.
                            let mut header = *spec;
                            header.trace = TraceSpec::Off;
                            let log = FrameLog {
                                spec: header.to_string(),
                                events: sink.events,
                                trailer: Trailer {
                                    event_hash: report.event_hash,
                                    final_cost: report.final_cost,
                                    rounds: report.rounds as u64,
                                    exchanges: report.exchanges as u64,
                                    virtual_ms: report.virtual_ms,
                                },
                            };
                            assert!(
                                std::fs::write(path.as_str(), log.encode()).is_ok(),
                                "trace=frames:{}: cannot write frame log",
                                path.as_str()
                            );
                        }
                        report
                    }
                };
                let secs = report.virtual_ms / 1000.0;
                (report, secs)
            }
        };
        RunRecord {
            scenario: spec.to_string(),
            algo: spec.algo.label(),
            m: spec.m,
            history: report.history,
            iterations: report.rounds,
            converged: report.quiescent,
            wall_secs: secs,
            faults: report.faults,
            detector: report.detector,
            stream: report.stream,
            gossip: GossipTraffic::default(),
            obs,
        }
    }
}

/// Runs the centralized BCD solver baseline ([`dlb_solver::solve_bcd`])
/// with `budget` sweeps and tolerance `eps`.
pub struct BcdRunner;

impl Runner for BcdRunner {
    fn name(&self) -> &'static str {
        "bcd"
    }

    fn run_on(&self, spec: &ScenarioSpec, instance: Instance) -> RunRecord {
        assert_faults_runnable(spec);
        let initial = total_cost(&instance, &Assignment::local(&instance));
        let start = Instant::now();
        let (_, report) = solve_bcd(&instance, spec.budget, spec.eps);
        RunRecord {
            scenario: spec.to_string(),
            algo: spec.algo.label(),
            m: spec.m,
            history: vec![initial, report.objective],
            iterations: report.iters,
            converged: report.converged,
            wall_secs: start.elapsed().as_secs_f64(),
            faults: FaultSummary::default(),
            detector: DetectorSummary::default(),
            stream: StreamSummary::default(),
            gossip: GossipTraffic::default(),
            obs: ObsSummary::default(),
        }
    }
}

/// The runner responsible for an algorithm.
pub fn runner_for(algo: AlgoSpec) -> &'static dyn Runner {
    match algo {
        AlgoSpec::Sequential | AlgoSpec::Batched => &EngineRunner,
        AlgoSpec::Nash => &NashRunner,
        AlgoSpec::Protocol => &ProtocolRunner,
        AlgoSpec::Bcd => &BcdRunner,
    }
}

impl ScenarioSpec {
    /// Runs this scenario on the system its `algo` names.
    ///
    /// # Panics
    /// Panics when a fault schedule is attached to anything but
    /// `algo=protocol runtime=events` — the builder cannot enforce
    /// what [`ScenarioSpec::parse`] rejects, so every runner does (a
    /// silently ignored fault plan would masquerade as a clean
    /// measurement).
    pub fn run(&self) -> RunRecord {
        runner_for(self.algo).run(self)
    }

    /// Runs this scenario on a prebuilt instance (one sample shared
    /// across several scenarios — see [`Runner::run_on`]).
    ///
    /// # Panics
    /// Panics on a fault schedule outside `algo=protocol
    /// runtime=events` (see [`ScenarioSpec::run`]).
    pub fn run_on(&self, instance: Instance) -> RunRecord {
        runner_for(self.algo).run_on(self, instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetSpec;

    /// The engine runners must reproduce a direct
    /// `Engine::run_to_convergence` call bit for bit — the scenario
    /// layer adds naming, not behavior.
    #[test]
    fn engine_runners_match_direct_engine_exactly() {
        for (algo, mode) in [
            (AlgoSpec::Sequential, RoundMode::Sequential),
            (AlgoSpec::Batched, RoundMode::Batched),
        ] {
            let spec = ScenarioSpec::new()
                .algo(algo)
                .servers(15)
                .seed(3)
                .termination(1e-10, 3, 80);
            let run = spec.run();
            let mut engine = Engine::new(
                spec.build_instance(),
                EngineOptions {
                    seed: 3,
                    round_mode: mode,
                    ..Default::default()
                },
            );
            let report = engine.run_to_convergence(1e-10, 3, 80);
            assert_eq!(run.history, engine.history(), "{algo:?}");
            assert_eq!(run.final_cost(), report.final_cost, "{algo:?}");
            assert_eq!(run.iterations, report.iterations);
            assert_eq!(run.converged, report.converged);
        }
    }

    /// One spec value, round-tripped through its text form, must drive
    /// every deterministic runner to identical results.
    #[test]
    fn text_round_trip_preserves_results() {
        for algo in [AlgoSpec::Sequential, AlgoSpec::Batched, AlgoSpec::Bcd] {
            let spec = ScenarioSpec::new()
                .algo(algo)
                .net(NetSpec::Pl)
                .servers(12)
                .seed(9)
                .termination(1e-8, 2, 60);
            let reparsed: ScenarioSpec = spec.to_string().parse().unwrap();
            assert_eq!(reparsed, spec);
            assert_eq!(reparsed.run().history, spec.run().history, "{algo:?}");
        }
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Nash)
            .servers(10)
            .seed(4)
            .termination(0.01, 2, 500);
        let reparsed: ScenarioSpec = spec.to_string().parse().unwrap();
        assert_eq!(reparsed.run().history, spec.run().history);
    }

    #[test]
    fn nash_runner_matches_direct_dynamics() {
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Nash)
            .servers(10)
            .seed(2)
            .termination(0.01, 2, 1_000);
        let run = spec.run();
        let instance = spec.build_instance();
        let mut nash = Assignment::local(&instance);
        let report = run_best_response_dynamics(
            &instance,
            &mut nash,
            &DynamicsOptions {
                seed: 2,
                ..Default::default()
            },
        );
        assert_eq!(run.final_cost(), total_cost(&instance, &nash));
        assert_eq!(run.iterations, report.rounds);
        assert!(run.converged);
    }

    /// The cluster's collision resolution races on real threads, so
    /// protocol runs are compared against the engine fixpoint rather
    /// than against a second run.
    #[test]
    fn protocol_runner_lands_near_the_engine_fixpoint() {
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Protocol)
            .servers(8)
            .avg_load(80.0)
            .seed(5)
            .termination(1e-9, 7, 300);
        let run = spec.run();
        assert_eq!(run.history.len(), run.iterations + 1);
        let coop = spec.algo(AlgoSpec::Sequential).termination(1e-12, 3, 300);
        let fixpoint = coop.run().final_cost();
        assert!(
            run.final_cost() <= fixpoint * 1.05,
            "protocol {} vs engine {fixpoint}",
            run.final_cost()
        );
    }

    /// The event-driven protocol runtime is fully deterministic: the
    /// whole record — including `wall_secs`, which carries simulated
    /// protocol time — must reproduce bit for bit, and land at the
    /// same quality as the thread runtime.
    #[test]
    fn event_protocol_runner_is_deterministic_and_matches_the_engine() {
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Protocol)
            .runtime(crate::spec::RuntimeSpec::Events)
            .servers(10)
            .avg_load(80.0)
            .seed(5)
            .termination(1e-9, 9, 300);
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b, "event runs must be bit-identical");
        assert!(a.converged);
        assert!(a.wall_secs > 0.0, "virtual time recorded");
        let fixpoint = spec
            .algo(AlgoSpec::Sequential)
            .runtime(crate::spec::RuntimeSpec::Threads)
            .termination(1e-12, 3, 300)
            .run()
            .final_cost();
        assert!(
            a.final_cost() <= fixpoint * 1.05,
            "events {} vs engine {fixpoint}",
            a.final_cost()
        );
    }

    /// The builder can construct what parse() rejects; every runner
    /// must refuse to silently ignore a fault plan.
    #[test]
    #[should_panic(expected = "faults= requires algo=protocol runtime=events")]
    fn builder_fault_plans_cannot_ride_the_thread_runtime() {
        ScenarioSpec::new()
            .algo(AlgoSpec::Protocol)
            .servers(4)
            .faults(dlb_faults::FaultPlan::new().loss(0.1))
            .run();
    }

    /// ...including on the direct-Runner path for non-protocol
    /// algorithms, which have no fault support at all.
    #[test]
    #[should_panic(expected = "faults= requires algo=protocol runtime=events")]
    fn direct_engine_runner_rejects_fault_plans() {
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Batched)
            .servers(4)
            .faults(dlb_faults::FaultPlan::new().loss(0.1));
        EngineRunner.run_on(&spec, spec.build_instance());
    }

    /// The same goes for the `detect=` axis: in-protocol failure
    /// detection needs the virtual clock, so the thread runtime must
    /// refuse rather than silently fall back to the oracle.
    #[test]
    #[should_panic(expected = "detect= requires algo=protocol runtime=events")]
    fn builder_detect_modes_cannot_ride_the_thread_runtime() {
        ScenarioSpec::new()
            .algo(AlgoSpec::Protocol)
            .servers(4)
            .detect(crate::spec::DetectSpec::Adaptive)
            .run();
    }

    /// A faulted `detect=adaptive` run carries a populated detector
    /// summary in its record, reproduces bit for bit, and still
    /// converges — crashes detected from silence, stragglers
    /// re-admitted, all without consulting the oracle.
    #[test]
    fn detector_summary_rides_the_record_deterministically() {
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Protocol)
            .runtime(crate::spec::RuntimeSpec::Events)
            .servers(16)
            .avg_load(80.0)
            .seed(5)
            .termination(1e-9, 9, 800)
            .faults(
                dlb_faults::FaultPlan::new()
                    .crash(0.2, 150.0)
                    .slow(0.2, 4.0),
            )
            .detect(crate::spec::DetectSpec::Adaptive);
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b, "detect runs must be bit-identical");
        assert!(a.converged);
        assert!(
            a.detector.suspicions > 0,
            "crashed nodes must be suspected from silence: {:?}",
            a.detector
        );
        assert!(a.detector.detection_latency_ms > 0.0);
        // The oracle mode on the same scenario reports a quiet detector.
        let oracle = spec.detect(crate::spec::DetectSpec::Oracle).run();
        assert!(oracle.detector.is_quiet(), "{:?}", oracle.detector);
    }

    /// A streamed run carries a populated stream summary in its
    /// record, reproduces bit for bit, and serves the whole workload
    /// with finite percentile latencies.
    #[test]
    fn stream_summary_rides_the_record_deterministically() {
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Protocol)
            .runtime(crate::spec::RuntimeSpec::Events)
            .servers(12)
            .avg_load(60.0)
            .seed(7)
            .termination(1e-9, 9, 300)
            .arrivals("poisson:150,burst:300@200ms..600ms".parse().unwrap())
            .duration_ms(1_200.0);
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b, "streamed runs must be bit-identical");
        assert!(!a.stream.is_quiet(), "{:?}", a.stream);
        assert!(a.stream.served > 0);
        assert_eq!(a.stream.dropped, 0, "no crashes scheduled");
        assert!(a.stream.p50_ms.is_finite() && a.stream.p50_ms > 0.0);
        assert!(a.stream.p99_ms >= a.stream.p50_ms);
        // The identical spec with the stream removed is a different
        // scenario — and reports a quiet summary.
        let calm = spec
            .arrivals(dlb_requestsim::stream::ArrivalPlan::default())
            .duration_ms(0.0)
            .run();
        assert!(calm.stream.is_quiet(), "{:?}", calm.stream);
    }

    /// The builder can construct what parse() rejects; arrival streams
    /// need the virtual clock, so the thread runtime must refuse.
    #[test]
    #[should_panic(expected = "arrivals= requires algo=protocol runtime=events")]
    fn builder_arrival_streams_cannot_ride_the_thread_runtime() {
        ScenarioSpec::new()
            .algo(AlgoSpec::Protocol)
            .servers(4)
            .arrivals("poisson:100".parse().unwrap())
            .duration_ms(500.0)
            .run();
    }

    /// `arrivals=` and `duration=` only make sense together — a
    /// stream with no horizon (or a horizon with no stream) is a
    /// silent no-op the runner refuses to guess about.
    #[test]
    #[should_panic(expected = "arrivals= and duration= come as a pair")]
    fn arrival_streams_require_a_duration() {
        ScenarioSpec::new()
            .algo(AlgoSpec::Protocol)
            .runtime(crate::spec::RuntimeSpec::Events)
            .servers(4)
            .arrivals("poisson:100".parse().unwrap())
            .run();
    }

    /// The derived exchange RTO clears the worst frame any plan can
    /// produce, so alive–alive exchanges never tear (see
    /// `exchange_rto_ms`).
    #[test]
    fn derived_rto_dominates_the_plan_worst_case() {
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Protocol)
            .runtime(crate::spec::RuntimeSpec::Events)
            .servers(12)
            .faults(
                dlb_faults::FaultPlan::new()
                    .loss(0.2)
                    .spike(3.0, 100.0, 600.0)
                    .partition(200.0, 450.0)
                    .slow(0.2, 4.0),
            );
        let instance = spec.build_instance();
        let rto = exchange_rto_ms(&spec, &instance);
        let d_max = instance.latency().max_latency() / 2.0;
        // One maximally unlucky one-way frame: slowest link × both
        // multipliers, the full retransmission budget, the partition.
        let worst = d_max * 4.0 * 3.0 + f64::from(MAX_RETRANSMITS) * RETRANSMIT_MS + 250.0;
        assert!(rto > worst, "rto {rto} vs worst one-way {worst}");
        // A fault-free spec still gets a sane, small timeout.
        let calm = ScenarioSpec::new()
            .algo(AlgoSpec::Protocol)
            .runtime(crate::spec::RuntimeSpec::Events)
            .servers(12);
        let calm_rto = exchange_rto_ms(&calm, &instance);
        assert!(calm_rto > 2.0 * d_max);
        assert!(calm_rto < worst);
    }

    /// `gossip=emulated:T` is exactly the engine's `load_staleness`
    /// option plus the forced pruned selection — bit-identical to
    /// driving the engine directly.
    #[test]
    fn emulated_gossip_matches_direct_engine_staleness() {
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Sequential)
            .servers(25)
            .seed(11)
            .termination(1e-10, 3, 120)
            .gossip(crate::spec::GossipSpec::Emulated { staleness: 4 });
        let run = spec.run();
        let mut engine = Engine::new(
            spec.build_instance(),
            EngineOptions {
                seed: 11,
                load_staleness: 4,
                selection: Some(PartnerSelection::Pruned {
                    top_k: GOSSIP_TOP_K,
                }),
                ..Default::default()
            },
        );
        engine.run_to_convergence(1e-10, 3, 120);
        assert_eq!(run.history, engine.history());
        assert!(
            run.gossip.is_quiet(),
            "the emulated snapshot moves no bytes: {:?}",
            run.gossip
        );
    }

    /// `gossip=event:PERIODms` runs the real delta-gossip control
    /// plane: the record carries metered traffic, reproduces bit for
    /// bit, and still lands at the fresh-scoring fixpoint's quality.
    #[test]
    fn event_gossip_meters_traffic_and_converges() {
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Batched)
            .servers(30)
            .seed(3)
            .termination(1e-10, 3, 200)
            .gossip(crate::spec::GossipSpec::Event { period_ms: 100.0 });
        let a = spec.run();
        let mut b = spec.run();
        // Engine runs report real wall time; everything else must
        // replay bit for bit.
        b.wall_secs = a.wall_secs;
        assert_eq!(a, b, "gossip-fed runs must be bit-identical");
        assert!(a.converged);
        assert!(!a.gossip.is_quiet(), "{:?}", a.gossip);
        assert!(a.gossip.bytes > 0 && a.gossip.frames > 0);
        let fresh = spec
            .gossip(crate::spec::GossipSpec::default())
            .run()
            .final_cost();
        assert!(
            a.final_cost() <= fresh * 1.01,
            "gossip-fed {} vs fresh {fresh}",
            a.final_cost()
        );
        // The fresh default reports a quiet summary.
        assert!(spec
            .gossip(crate::spec::GossipSpec::default())
            .run()
            .gossip
            .is_quiet());
    }

    /// The builder can construct what parse() rejects; the gossip axis
    /// only exists on the engine runners.
    #[test]
    #[should_panic(expected = "gossip= requires algo=sequential or algo=batched")]
    fn builder_gossip_axes_cannot_ride_other_runners() {
        ScenarioSpec::new()
            .algo(AlgoSpec::Nash)
            .servers(6)
            .gossip(crate::spec::GossipSpec::Event { period_ms: 100.0 })
            .run();
    }

    #[test]
    fn bcd_runner_reports_a_converged_optimum() {
        let spec = ScenarioSpec::new()
            .algo(AlgoSpec::Bcd)
            .servers(10)
            .seed(6)
            .termination(1e-10, 3, 2_000);
        let run = spec.run();
        assert!(run.converged);
        assert!(run.final_cost() <= run.initial_cost());
        let engine = spec.algo(AlgoSpec::Sequential).run();
        assert!(
            engine.final_cost() <= run.final_cost() * 1.01,
            "engine {} vs solver {}",
            engine.final_cost(),
            run.final_cost()
        );
    }

    #[test]
    fn iterations_to_reach_matches_engine_semantics() {
        let spec = ScenarioSpec::new()
            .servers(15)
            .seed(5)
            .termination(1e-12, 2, 80);
        let run = spec.run();
        let exact = run.iterations_to_reach(run.final_cost(), 0.0).unwrap();
        let loose = run.iterations_to_reach(run.final_cost(), 0.02).unwrap();
        assert!(loose <= exact);
    }
}
