//! End-to-end benchmark of the `dlb` scenario path.
//!
//! Each workload is scenario text that goes through the calls a user's
//! `dlb run` makes — `ScenarioSpec::parse` → `build_instance` →
//! `run_on` → `Record::from_run` + `JsonlSink` — timed call by call
//! with this program's own host clock. Repetitions form a closed
//! batch: one process, one scenario at a time, the next repetition
//! starting after the previous record is written. After the timed
//! repetitions one traced repetition records spans around the same
//! calls (see `traced.rs`).
//!
//! Usage (from the repository root; `run.py` builds and calls this):
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); every measured metric is printed above it. The
//! end-to-end times are scaled to a reference host speed measured by a
//! calibration kernel (see `REFERENCE_CALIBRATION_S`); the raw host
//! medians are the `host.*` per-layer metrics.

mod spans;
mod traced;

use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dlb_bench::report::{parse_jsonl, Value};
use dlb_bench::results::{JsonlSink, Record};
use dlb_scenario::{RunRecord, ScenarioSpec};

use crate::traced::{is_events, traced_run, Traced};

/// The workloads: name and scenario text without its seed, which the
/// benchmark appends as `seed=N`. `README.md` records why each exists
/// and which layer each one loads.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "pl_cold_start",
        "algo=batched net=pl m=900 load=peak budget=15",
    ),
    (
        "topk_rounds",
        "algo=protocol runtime=events net=homog m=50000 select=topk:32 budget=5",
    ),
    (
        "stream_faults",
        "algo=protocol runtime=events net=euclid m=1500 avg=60 patience=5 budget=25 \
         arrivals=poisson:1500 duration=4000 faults=crash:0.1@500ms,loss:0.05 detect=adaptive",
    ),
    (
        "engine_gossip",
        "algo=batched net=euclid m=700 gossip=event:100ms budget=8",
    ),
];

/// Timed repetitions made even when `--seconds` runs out first, so
/// every median has at least this many samples.
const MIN_REPS: usize = 3;

/// Set-ups timed alone before the repetitions, as many as fit in a
/// tenth of `--seconds`.
const SETUP_SAMPLES: usize = 60;

/// Host seconds the calibration kernel takes at the reference speed.
/// End-to-end times are scaled by this over the run's median kernel
/// time, which cancels the shared host's speed drift (see README.md).
const REFERENCE_CALIBRATION_S: f64 = 0.03;

/// Side of the calibration kernel's matrix: 256³ relaxations, ~30 ms,
/// in 512 KiB that stay in cache.
const CALIBRATION_M: usize = 256;

/// End-to-end metrics: name and unit. Medians over the timed
/// (untraced) repetitions, in reference-speed seconds.
const END_TO_END: [(&str, &str); 4] = [
    ("e2e_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. A count or rate of a layer the
/// workload never enters is 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("host.e2e_s", "s"),
    ("host.setup_s", "s"),
    ("host.run_s", "s"),
    ("host.calibration_s", "s"),
    ("scenario.parse_s", "s"),
    ("scenario.record_io_s", "s"),
    ("topology.latency_s", "s"),
    ("core.workload_s", "s"),
    ("core.metric_close_s", "s"),
    ("core.metric_close_relax_per_s", "1/s"),
    ("core.reclose_changed", "count"),
    ("netsim.delays_s", "s"),
    ("faults.compile_s", "s"),
    ("requestsim.compile_s", "s"),
    ("runtime.rounds_per_s", "1/s"),
    ("runtime.events_per_s", "1/s"),
    ("runtime.events", "count"),
    ("runtime.frames", "count"),
    ("runtime.dropped", "count"),
    ("runtime.held", "count"),
    ("runtime.delivered_frac", "frac"),
    ("runtime.suspicions", "count"),
    ("runtime.false_positives", "count"),
    ("obs.overhead_pct", "%"),
    ("distributed.engine_new_s", "s"),
    ("distributed.iterations_per_s", "1/s"),
    ("distributed.exchanges_per_iter", "count"),
    ("distributed.moved", "requests"),
    ("gossip.steps_per_s", "1/s"),
    ("gossip.frames", "count"),
    ("gossip.exchanges", "count"),
    ("gossip.delta_share", "frac"),
    ("cost_ratio", "ratio"),
    ("sim_s", "virtual_s"),
    ("sojourn_p50_ms", "virtual_ms"),
    ("sojourn_p99_ms", "virtual_ms"),
    ("dropped_frac", "frac"),
    ("gossip_mb", "MB"),
    ("failed_frac", "frac"),
];

struct Args {
    workload: &'static str,
    base: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut out = PathBuf::from("perfbench/out");
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .find(|(name, _)| *name == value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("--seed: '{value}'"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("--seconds: '{value}'"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                    })
                }
                "--out" => out = PathBuf::from(value),
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        let &(workload, base) = workload.ok_or("--workload is required")?;
        Ok(Self {
            workload,
            base,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out,
        })
    }
}

/// Host seconds of one repetition's calls.
#[derive(Debug, Clone, Copy)]
struct RepTimes {
    parse: f64,
    sample: f64,
    run: f64,
    record_io: f64,
    e2e: f64,
}

/// One repetition exactly as `dlb run` performs it, each call timed
/// with this program's clock. `RunRecord::wall_secs` is never read
/// here: under `runtime=events` it holds virtual seconds.
fn timed_rep(text: &str, seed: u64, sink: &mut JsonlSink) -> Result<(RunRecord, RepTimes), String> {
    let t0 = Instant::now();
    let spec = ScenarioSpec::parse(text).map_err(|e| e.0)?;
    let t1 = Instant::now();
    let instance = spec.build_instance();
    let t2 = Instant::now();
    let run = spec.run_on(instance);
    let t3 = Instant::now();
    sink.record(&Record::from_run("run", &run).int("seed", seed as i64));
    let t4 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        run,
        RepTimes {
            parse: secs(t0, t1),
            sample: secs(t1, t2),
            run: secs(t2, t3),
            record_io: secs(t3, t4),
            e2e: secs(t0, t4),
        },
    ))
}

/// Virtual seconds of protocol time, the only quantity the benchmark
/// takes from `RunRecord::wall_secs`; 0 where that field holds host
/// time (every runner but the event executor).
fn sim_secs(spec: &ScenarioSpec, run: &RunRecord) -> f64 {
    if is_events(spec) {
        run.wall_secs
    } else {
        0.0
    }
}

/// The record fields a seed fixes: everything but the scenario text
/// (the traced run appends `trace=summary`), the `obs_*` group (only
/// the traced run has one) and, off the event executor, `wall_secs`.
fn deterministic(spec: &ScenarioSpec, run: &RunRecord) -> RunRecord {
    let mut r = run.clone();
    r.scenario.clear();
    r.obs = Default::default();
    if !is_events(spec) {
        r.wall_secs = 0.0;
    }
    r
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn rate(count: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Host seconds of one run of the calibration kernel: a dense
/// Floyd–Warshall over a fixed matrix, code of this file only, so no
/// change to the program can move it. It measures how fast the host is
/// running right now.
fn calibration_secs() -> f64 {
    let m = CALIBRATION_M;
    let mut d: Vec<f64> = (0..m * m).map(|k| ((k * 7919) % 1000 + 1) as f64).collect();
    let t = Instant::now();
    for k in 0..m {
        for i in 0..m {
            let cik = d[i * m + k];
            for j in 0..m {
                let through = cik + d[k * m + j];
                if through < d[i * m + j] {
                    d[i * m + j] = through;
                }
            }
        }
    }
    black_box(&d);
    t.elapsed().as_secs_f64()
}

/// Process high-water resident set in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// Attempts made and the reasons of those that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts one attempt, failed when `problems` is non-empty.
    fn attempt(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Checks of one untraced repetition against the first one.
fn rep_problems(spec: &ScenarioSpec, run: &RunRecord, first: Option<&RunRecord>) -> Vec<String> {
    let mut problems = Vec::new();
    match first {
        Some(first) if deterministic(spec, run) != deterministic(spec, first) => {
            problems.push("deterministic record fields differ from the first repetition".into())
        }
        Some(_) => {}
        None => {
            if spec.faults.is_empty() && run.history.windows(2).any(|w| w[1] > w[0]) {
                problems.push("ΣC increased along history on a fault-free workload".into());
            }
        }
    }
    problems
}

/// Checks of the traced repetition against the first untraced one.
fn traced_problems(spec: &ScenarioSpec, traced: &Traced, first: &RunRecord) -> Vec<String> {
    let mut problems = traced.failures.clone();
    if deterministic(spec, &traced.run) != deterministic(spec, first) {
        problems.push(if is_events(spec) {
            "trace=summary changed deterministic record fields".into()
        } else {
            "the directly driven engine did not reproduce the runner's record".into()
        });
    }
    if let Some(traffic) = traced.feed_traffic {
        if traffic != first.gossip {
            problems.push(format!(
                "standalone gossip feed traffic {traffic:?} differs from the record's {:?}",
                first.gossip
            ));
        }
    }
    if is_events(spec) && traced.run.obs.is_quiet() {
        problems.push("trace=summary produced no obs_* counts".into());
    }
    problems
}

/// Every `run` row written to the results file must parse back and
/// carry the final cost its repetition produced.
fn record_problems(path: &Path, runs: &[f64]) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read back {}: {e}", path.display())],
    };
    let rows = match parse_jsonl(&text) {
        Ok(rows) => rows,
        Err(e) => return vec![format!("{}: {e}", path.display())],
    };
    let costs: Vec<f64> = rows
        .iter()
        .filter(|row| {
            row.iter()
                .any(|(k, v)| k == "kind" && *v == Value::Str("run".into()))
        })
        .filter_map(|row| {
            row.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("final_cost", Value::Num(x)) => Some(*x),
                _ => None,
            })
        })
        .collect();
    if costs.len() != runs.len() || costs.iter().zip(runs).any(|(a, b)| a != b) {
        vec![format!(
            "{}: {} run rows read back for {} repetitions, or their final costs differ",
            path.display(),
            costs.len(),
            runs.len()
        )]
    } else {
        Vec::new()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if dlb_par::num_threads() > host_cores {
        // The worker pool stays within the host's cores.
        std::env::set_var("DLB_THREADS", host_cores.to_string());
    }
    let dlb_threads = dlb_par::num_threads();
    let text = format!("{} seed={}", args.base, args.seed);
    let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{text}: {}", e.0))?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let stem = format!("{}.seed{}", args.workload, args.seed);
    let rows_path = args.out.join(format!("{stem}.jsonl"));
    let mut sink = JsonlSink::create_at(&rows_path)
        .map_err(|e| format!("cannot create {}: {e}", rows_path.display()))?;
    let budget = Duration::from_secs_f64(args.seconds);

    // Set-ups alone first, from the fresh process's allocator state, so
    // `setup_s` is a median of many samples even where a whole
    // repetition is long.
    let mut setups = Vec::new();
    let start = Instant::now();
    while setups.len() < SETUP_SAMPLES && start.elapsed() < budget / 10 {
        let t = Instant::now();
        let spec = ScenarioSpec::parse(&text).map_err(|e| e.0)?;
        black_box(spec.build_instance());
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut tally = Tally::default();
    let mut reps: Vec<RepTimes> = Vec::new();
    let mut speed = Vec::new();
    let mut final_costs = Vec::new();
    let mut first: Option<RunRecord> = None;
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let calibration = calibration_secs();
        let attempt = catch_unwind(AssertUnwindSafe(|| timed_rep(&text, args.seed, &mut sink)));
        match attempt {
            Ok(Ok((run, times))) => {
                tally.attempt("repetition", rep_problems(&spec, &run, first.as_ref()));
                reps.push(times);
                speed.push(calibration);
                final_costs.push(run.final_cost());
                first.get_or_insert(run);
            }
            Ok(Err(e)) => tally.attempt("repetition", vec![e]),
            Err(p) => tally.attempt(
                "repetition",
                vec![format!("panicked: {}", panic_message(&*p))],
            ),
        }
        if tally.failures.len() >= MIN_REPS {
            break;
        }
    }
    let timed_secs = start.elapsed().as_secs_f64();
    let first = first.ok_or_else(|| format!("no repetition succeeded: {:?}", tally.failures))?;
    let rss_mb = peak_rss_mb()?;
    setups.extend(reps.iter().map(|r| r.parse + r.sample));

    let traced = if args.trace {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            traced_run(&text, &spec, args.seed, &mut sink)
        }));
        match attempt {
            Ok(Ok(t)) => {
                tally.attempt("traced run", traced_problems(&spec, &t, &first));
                final_costs.push(t.run.final_cost());
                Some(t)
            }
            Ok(Err(e)) => {
                tally.attempt("traced run", vec![e]);
                None
            }
            Err(p) => {
                tally.attempt(
                    "traced run",
                    vec![format!("panicked: {}", panic_message(&*p))],
                );
                None
            }
        }
    } else {
        None
    };
    tally.attempt(
        "record read-back",
        record_problems(&rows_path, &final_costs),
    );

    let col = |f: fn(&RepTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let run_s = col(|r| r.run);
    let calibration_s = median(&speed);
    let to_reference = REFERENCE_CALIBRATION_S / calibration_s;
    let gossip = first.gossip;
    let mut metrics: Vec<(&str, f64)> = vec![
        ("e2e_s", col(|r| r.e2e) * to_reference),
        ("setup_s", median(&setups) * to_reference),
        ("run_s", run_s * to_reference),
        ("peak_rss_mb", rss_mb),
        ("host.e2e_s", col(|r| r.e2e)),
        ("host.setup_s", median(&setups)),
        ("host.run_s", run_s),
        ("host.calibration_s", calibration_s),
        ("scenario.parse_s", col(|r| r.parse)),
        ("scenario.record_io_s", col(|r| r.record_io)),
        ("cost_ratio", first.final_cost() / first.initial_cost()),
        ("sim_s", sim_secs(&spec, &first)),
        ("sojourn_p50_ms", first.stream.p50_ms),
        ("sojourn_p99_ms", first.stream.p99_ms),
        (
            "dropped_frac",
            frac(
                first.stream.dropped as f64,
                (first.stream.served + first.stream.dropped) as f64,
            ),
        ),
        ("gossip_mb", gossip.bytes as f64 / 1e6),
        ("runtime.suspicions", first.detector.suspicions as f64),
        (
            "runtime.false_positives",
            first.detector.false_positives as f64,
        ),
        ("gossip.frames", gossip.frames as f64),
        ("gossip.exchanges", gossip.exchanges as f64),
        (
            "gossip.delta_share",
            frac(
                gossip.delta_entries as f64,
                (gossip.delta_entries + gossip.full_entries) as f64,
            ),
        ),
        (
            "failed_frac",
            tally.failures.len() as f64 / tally.attempted as f64,
        ),
    ];
    if let Some(traced) = &traced {
        metrics.extend(layer_metrics(traced, &spec, &first, run_s));
    }
    let value = |name: &str| -> Option<f64> {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| if v.is_nan() { 0.0 } else { v })
    };
    let listed = |set: &'static [(&'static str, &'static str)]| {
        set.iter()
            .filter_map(move |&(name, unit)| Some((name, value(name)?, unit)))
    };

    // Result rows: one per repetition's timings and one with every
    // metric; each is stamped with host_cores/dlb_threads.
    for (i, r) in reps.iter().enumerate() {
        sink.record(
            &Record::new("timing")
                .str("workload", args.workload)
                .int("seed", args.seed as i64)
                .int("rep", i as i64)
                .num("parse_s", r.parse)
                .num("sample_s", r.sample)
                .num("run_s", r.run)
                .num("record_io_s", r.record_io)
                .num("e2e_s", r.e2e)
                .num("calibration_s", speed[i]),
        );
    }
    let mut row = Record::new("metrics")
        .str("workload", args.workload)
        .int("seed", args.seed as i64)
        .int("attempted", tally.attempted as i64)
        .int("failed", tally.failures.len() as i64)
        .int("setup_samples", setups.len() as i64);
    for (name, v, _) in listed(&END_TO_END).chain(listed(&PER_LAYER)) {
        row = row.num(name, v);
    }
    sink.record(&row);

    println!(
        "perfbench {} seed={}: {} timed repetitions in {timed_secs:.1} s, {} set-ups{}; \
         host_cores={host_cores} dlb_threads={dlb_threads}",
        args.workload,
        args.seed,
        reps.len(),
        setups.len(),
        if args.trace { ", 1 traced run" } else { "" },
    );
    println!("scenario: {text}");
    for (name, v, unit) in listed(&END_TO_END).chain(listed(&PER_LAYER)) {
        println!("{name} = {v} {unit}");
    }
    if let Some(traced) = &traced {
        let spans_path = args.out.join(format!("{stem}.trace.jsonl"));
        let mut span_sink = JsonlSink::create_at(&spans_path)
            .map_err(|e| format!("cannot create {}: {e}", spans_path.display()))?;
        traced.spans.write(&mut span_sink, args.seed);
        let covered = traced.spans.children_secs(traced.root);
        println!(
            "traced run: parse/sample/run/record spans cover {:.1}% of its e2e span \
             and {:.1}% of the median e2e_s; spans: {}",
            100.0 * covered / traced.spans.all()[traced.root].secs(),
            100.0 * covered / col(|r| r.e2e),
            spans_path.display()
        );
    }
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    println!("rows: {}", rows_path.display());

    let set: &'static [(&'static str, &'static str)] =
        if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    for &(name, unit) in set {
        let v = value(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.failures.is_empty(),
        tally.attempted,
        tally.failures.len()
    );
    Ok(())
}

/// The per-layer metrics only the traced run measures.
fn layer_metrics(
    traced: &Traced,
    spec: &ScenarioSpec,
    first: &RunRecord,
    run_s: f64,
) -> Vec<(&'static str, f64)> {
    let spans = &traced.spans;
    let span = |name: &str| spans.secs(name).unwrap_or(0.0);
    let it = &traced.iterations;
    let obs = traced.run.obs;
    vec![
        ("topology.latency_s", span("topology.build_latency")),
        ("core.workload_s", span("core.workload_sample")),
        ("core.metric_close_s", span("core.metric_close")),
        (
            "core.metric_close_relax_per_s",
            rate(traced.relaxations, span("core.metric_close")),
        ),
        ("core.reclose_changed", traced.reclose_changed),
        ("netsim.delays_s", span("netsim.link_delays")),
        ("faults.compile_s", span("faults.compile")),
        ("requestsim.compile_s", span("requestsim.compile")),
        (
            "runtime.rounds_per_s",
            if is_events(spec) {
                rate(first.iterations as f64, run_s)
            } else {
                0.0
            },
        ),
        ("runtime.events_per_s", rate(obs.events as f64, run_s)),
        ("runtime.events", obs.events as f64),
        ("runtime.frames", obs.frames as f64),
        ("runtime.dropped", obs.dropped as f64),
        ("runtime.held", obs.held as f64),
        (
            "runtime.delivered_frac",
            frac(obs.frames as f64, (obs.frames + obs.dropped) as f64),
        ),
        ("obs.overhead_pct", 100.0 * (span("run") - run_s) / run_s),
        ("distributed.engine_new_s", span("distributed.engine_new")),
        (
            "distributed.iterations_per_s",
            rate(1.0, median(&spans.all_secs("distributed.run_iteration"))),
        ),
        (
            "distributed.exchanges_per_iter",
            frac(
                it.iter().fold(0.0, |a, s| a + s.exchanges as f64),
                it.len() as f64,
            ),
        ),
        ("distributed.moved", it.iter().fold(0.0, |a, s| a + s.moved)),
        (
            "gossip.steps_per_s",
            rate(1.0, median(&spans.all_secs("gossip.feed_step"))),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clock trap: under `runtime=events`, `RunRecord::wall_secs`
    /// is virtual time — identical on every run and unrelated to the
    /// host time the call took. The benchmark's host timings come from
    /// its own clock, and `sim_secs` is the only reader of the field.
    #[test]
    fn wall_secs_is_read_only_as_virtual_time() {
        let text = "algo=protocol runtime=events m=40 seed=3";
        // Unset DLB_RESULTS_DIR makes this sink a no-op.
        let mut sink = JsonlSink::create("perfbench_clock_trap");
        let (a, ta) = timed_rep(text, 3, &mut sink).unwrap();
        let (b, _) = timed_rep(text, 3, &mut sink).unwrap();
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(
            a.wall_secs.to_bits(),
            b.wall_secs.to_bits(),
            "virtual time repeats"
        );
        assert_eq!(sim_secs(&spec, &a), a.wall_secs);
        assert!(
            a.wall_secs > 10.0 * ta.run,
            "virtual {} s vs host {} s: a 40-node run simulates more than it costs",
            a.wall_secs,
            ta.run
        );
        // On an engine run the field holds host time, which the
        // benchmark never reports.
        let engine = ScenarioSpec::parse("algo=batched m=40 seed=3").unwrap();
        let run = engine.run();
        assert!(run.wall_secs > 0.0);
        assert_eq!(sim_secs(&engine, &run), 0.0);
    }

    #[test]
    fn deterministic_fields_ignore_host_time_only_off_the_event_executor() {
        let engine = ScenarioSpec::parse("algo=batched m=20 seed=2").unwrap();
        let a = engine.run();
        let mut b = a.clone();
        b.wall_secs += 1.0;
        assert_eq!(deterministic(&engine, &a), deterministic(&engine, &b));
        let events = ScenarioSpec::parse("algo=protocol runtime=events m=20 seed=2").unwrap();
        assert_ne!(deterministic(&events, &a), deterministic(&events, &b));
    }

    #[test]
    fn args_reject_unknown_workloads_and_bad_values() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        assert!(parse("--workload topk_rounds --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload topk_rounds --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload topk_rounds --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload topk_rounds --seconds 2 --trace 0").is_err());
    }

    /// Every workload's text parses with any seed, and the metric
    /// tables agree with `BENCHMARK.json`.
    #[test]
    fn workloads_and_metrics_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        for (name, base) in WORKLOADS {
            ScenarioSpec::parse(&format!("{base} seed=11")).unwrap();
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
    }
}
