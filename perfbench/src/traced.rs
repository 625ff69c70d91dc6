//! The traced run: the same scenario once more, with a span around
//! every public call the benchmark makes, plus the layer probes and
//! the checks that need the sampled instance or a directly driven
//! engine.

use std::hint::black_box;

use dlb_bench::results::{JsonlSink, Record};
use dlb_core::rngutil::rng_for;
use dlb_core::{Instance, LatencyMatrix, WorkloadSpec};
use dlb_distributed::mine::PartnerSelection;
use dlb_distributed::{Engine, EngineOptions, GossipFeed, IterationStats, RoundMode};
use dlb_netsim::LinkDelayModel;
use dlb_scenario::runner::GOSSIP_TOP_K;
use dlb_scenario::spec::SAMPLE_SALT;
use dlb_scenario::{AlgoSpec, GossipSpec, GossipTraffic, RunRecord, ScenarioSpec};

use crate::spans::Spans;

/// Tolerance of the triangle-inequality check, in ms.
const METRIC_TOL_MS: f64 = 1e-9;

/// What the traced run measured and which of its checks failed.
pub struct Traced {
    pub spans: Spans,
    /// Id of the span from spec text to record written.
    pub root: usize,
    pub run: RunRecord,
    /// Per-iteration statistics of the directly driven engine (empty
    /// on protocol workloads).
    pub iterations: Vec<IterationStats>,
    /// `m³` when the sampled matrix is dense, else 0: the relaxations
    /// one `metric_close` performs.
    pub relaxations: f64,
    /// Entries of the sampled matrix a second `metric_close` changed.
    pub reclose_changed: f64,
    /// Wire traffic of the standalone gossip feed, on gossip workloads.
    pub feed_traffic: Option<GossipTraffic>,
    pub failures: Vec<String>,
}

/// Whether the spec runs on the deterministic event executor, whose
/// `RunRecord::wall_secs` is virtual time.
pub fn is_events(spec: &ScenarioSpec) -> bool {
    spec.algo == AlgoSpec::Protocol && spec.runtime == dlb_scenario::RuntimeSpec::Events
}

fn is_engine(spec: &ScenarioSpec) -> bool {
    matches!(spec.algo, AlgoSpec::Sequential | AlgoSpec::Batched)
}

/// Runs the traced repetition of `text` (already known to parse to
/// `untraced`) and its probes.
pub fn traced_run(
    text: &str,
    untraced: &ScenarioSpec,
    seed: u64,
    sink: &mut JsonlSink,
) -> Result<Traced, String> {
    // Protocol runs add `trace=summary` for the `obs_*` counts; engine
    // runs are traced by driving the engine directly instead.
    let traced_text = if is_events(untraced) {
        format!("{text} trace=summary")
    } else {
        text.to_string()
    };
    let mut spans = Spans::new();
    let mut failures = Vec::new();

    let root = spans.enter("e2e");
    let spec = spans
        .time("scenario.parse", || ScenarioSpec::parse(&traced_text))
        .map_err(|e| e.0)?;
    // `build_instance`, split at its two stages so each gets a span.
    let sample = spans.enter("sample");
    let latency = spans.time("topology.build_latency", || spec.build_latency());
    let instance = spans.time("core.workload_sample", || {
        WorkloadSpec {
            loads: spec.load,
            avg_load: spec.avg,
            speeds: spec.speeds.distribution(),
        }
        .sample(latency, &mut rng_for(spec.seed, SAMPLE_SALT))
    });
    spans.exit(sample);
    let probe_instance = instance.clone();
    let run_span = spans.enter("run");
    let (run, engine) = if is_engine(&spec) {
        let (run, engine) = drive_engine(&spec, instance, &mut spans);
        (run, Some(engine))
    } else {
        (
            spans.time("scenario.run_on", || spec.run_on(instance)),
            None,
        )
    };
    spans.exit(run_span);
    spans.time("scenario.record_io", || {
        sink.record(&Record::from_run("run", &run).int("seed", seed as i64))
    });
    spans.exit(root);

    // Probes: layer entry points the run above calls internally (or
    // never), timed on this workload's own inputs.
    let mut closed = probe_instance.latency().clone();
    spans.time("core.metric_close", || closed.metric_close());
    let relaxations = match probe_instance.latency().homogeneous_value() {
        Some(_) => 0.0,
        None => (probe_instance.len() as f64).powi(3),
    };
    spans.time("netsim.link_delays", || {
        black_box(LinkDelayModel::new(probe_instance.latency(), spec.seed));
    });
    spans.time("faults.compile", || {
        black_box(spec.faults.compile(spec.seed, probe_instance.len()));
    });
    spans.time("requestsim.compile", || {
        black_box(
            spec.arrivals
                .compile(spec.seed, spec.duration, probe_instance.own_loads()),
        );
    });
    if engine.is_none() {
        spans.time("distributed.engine_new", || {
            black_box(Engine::new(probe_instance.clone(), engine_options(&spec)));
        });
    }

    let reclose_changed =
        check_matrix(probe_instance.latency(), &closed, &mut spans, &mut failures);

    let mut iterations = Vec::new();
    let mut feed_traffic = None;
    if let Some(EngineTrace {
        engine,
        stats,
        loads_before,
    }) = engine
    {
        if let Err(e) = engine.assignment().check_invariants(engine.instance()) {
            failures.push(format!("conservation: {e}"));
        }
        if let GossipSpec::Event { period_ms } = spec.gossip {
            // A standalone feed fed the loads the engine's own feed saw
            // at the start of each iteration.
            let mut feed = GossipFeed::new(&loads_before[0], period_ms, spec.seed);
            for loads in &loads_before {
                spans.time("gossip.feed_step", || {
                    feed.step(engine.instance().latency(), loads)
                });
            }
            feed_traffic = Some(feed.traffic());
        }
        iterations = stats;
    }
    Ok(Traced {
        spans,
        root,
        run,
        iterations,
        relaxations,
        reclose_changed,
        feed_traffic,
        failures,
    })
}

/// The matrix checks: complete, metric, and `metric_close` equal bit
/// for bit to the reference closure of the same input. Returns how
/// many entries a second closure changed: floating-point
/// Floyd–Warshall is not idempotent, so a closed matrix can still
/// lose an ulp or two on re-closing.
fn check_matrix(
    sampled: &LatencyMatrix,
    reclosed: &LatencyMatrix,
    spans: &mut Spans,
    failures: &mut Vec<String>,
) -> f64 {
    if !sampled.is_complete() {
        failures.push("matrix: sampled latency matrix is not complete".into());
    }
    if !spans.time("check.is_metric", || sampled.is_metric(METRIC_TOL_MS)) {
        failures.push("matrix: sampled latency matrix violates the triangle inequality".into());
    }
    if sampled.homogeneous_value().is_some() {
        // Stored as one value, which no closure changes.
        return 0.0;
    }
    let m = sampled.len();
    let reference = spans.time("check.reference_close", || reference_close(sampled));
    let mut changed = 0u64;
    for i in 0..m {
        for j in 0..m {
            let got = reclosed.get(i, j).to_bits();
            if got != reference[i * m + j].to_bits() {
                failures.push(format!(
                    "matrix: metric_close differs from the reference closure at ({i}, {j})"
                ));
                return changed as f64;
            }
            changed += u64::from(got != sampled.get(i, j).to_bits());
        }
    }
    changed as f64
}

/// Serial Floyd–Warshall over a dense row-major copy, in the pivot,
/// row, column order `LatencyMatrix::metric_close` uses at the time
/// this benchmark was written. A faster closure must match it bit for
/// bit or be re-pinned on purpose.
fn reference_close(lat: &LatencyMatrix) -> Vec<f64> {
    let m = lat.len();
    let mut d: Vec<f64> = (0..m)
        .flat_map(|i| (0..m).map(move |j| lat.get(i, j)))
        .collect();
    for k in 0..m {
        for i in 0..m {
            let cik = d[i * m + k];
            if !cik.is_finite() {
                continue;
            }
            for j in 0..m {
                let through = cik + d[k * m + j];
                if through < d[i * m + j] {
                    d[i * m + j] = through;
                }
            }
        }
    }
    d
}

/// The options `EngineRunner` derives from a spec.
fn engine_options(spec: &ScenarioSpec) -> EngineOptions {
    let mut options = EngineOptions {
        seed: spec.seed,
        granularity: spec.gran,
        round_mode: match spec.algo {
            AlgoSpec::Batched => RoundMode::Batched,
            _ => RoundMode::Sequential,
        },
        ..Default::default()
    };
    let pruned = Some(PartnerSelection::Pruned {
        top_k: GOSSIP_TOP_K,
    });
    match spec.gossip {
        GossipSpec::Emulated { staleness: 0 } => {}
        GossipSpec::Emulated { staleness } => {
            options.load_staleness = staleness;
            options.selection = pruned;
        }
        GossipSpec::Event { .. } => options.selection = pruned,
    }
    options
}

struct EngineTrace {
    engine: Engine,
    stats: Vec<IterationStats>,
    /// Server loads at the start of each iteration (gossip workloads
    /// only): what the engine's feed was stepped with.
    loads_before: Vec<Vec<f64>>,
}

/// `EngineRunner::run_on`, driven call by call: `Engine::new`,
/// `attach_gossip_feed` and each `run_iteration` under their own span,
/// with `Engine::run_to_convergence`'s stopping rule.
fn drive_engine(
    spec: &ScenarioSpec,
    instance: Instance,
    spans: &mut Spans,
) -> (RunRecord, EngineTrace) {
    let mut engine = spans.time("distributed.engine_new", || {
        Engine::new(instance, engine_options(spec))
    });
    let gossip = match spec.gossip {
        GossipSpec::Event { period_ms } => {
            spans.time("distributed.attach_gossip_feed", || {
                engine.attach_gossip_feed(period_ms)
            });
            true
        }
        GossipSpec::Emulated { .. } => false,
    };
    let mut stats = Vec::new();
    let mut loads_before = Vec::new();
    let mut calm = 0;
    let mut converged = false;
    while stats.len() < spec.budget {
        let before = engine.current_cost();
        if gossip {
            loads_before.push(engine.assignment().loads().to_vec());
        }
        let s = spans.time("distributed.run_iteration", || engine.run_iteration());
        stats.push(s);
        let rel_drop = if before > 0.0 {
            (before - s.cost) / before
        } else {
            0.0
        };
        if rel_drop <= spec.eps {
            calm += 1;
            if calm >= spec.patience {
                converged = true;
                break;
            }
        } else {
            calm = 0;
        }
    }
    // As in `EngineRunner`: the iterations only, not `Engine::new`.
    let host_secs = spans.all_secs("distributed.run_iteration").iter().sum();
    let run = RunRecord {
        scenario: spec.to_string(),
        algo: spec.algo.label(),
        m: spec.m,
        history: engine.history().to_vec(),
        iterations: stats.len(),
        converged,
        wall_secs: host_secs,
        faults: Default::default(),
        detector: Default::default(),
        stream: Default::default(),
        gossip: engine.gossip_traffic().unwrap_or_default(),
        obs: Default::default(),
    };
    (
        run,
        EngineTrace {
            engine,
            stats,
            loads_before,
        },
    )
}
