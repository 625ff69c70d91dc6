//! `dlb` — run the paper's systems from a shell.
//!
//! ```text
//! dlb run algo=batched net=pl m=500 load=peak avg=200 seed=7
//! dlb run algo=protocol runtime=events faults=crash:0.1@500ms,loss:0.05 m=2000
//! dlb run algo=protocol runtime=events m=100000 net=homog select=topk:32 patience=8
//! dlb run --scenario "algo=nash m=24 eps=0.01 patience=2" --out nash.jsonl
//! dlb report BENCH_figure2.json
//! dlb optimize --servers 50 --network pl --load exp --avg 50
//! ```
//!
//! Every command names its experiment through one
//! [`dlb_scenario::ScenarioSpec`] (deterministic per `seed`), runs it
//! through the shared [`dlb_scenario::Runner`] layer, prints a compact
//! report, and emits the run as a JSON-lines record through
//! [`dlb_bench::results::JsonlSink`] — `--out FILE` writes to an
//! explicit file, otherwise `DLB_RESULTS_DIR` selects the directory
//! (unset = no record). `dlb report` renders those records (and the
//! committed bench artifacts) as aligned tables. The full experiment
//! grids live in `cargo bench -p dlb-bench`.

mod args;
mod trace;

use args::{ArgError, Args};
use dlb_bench::report::render_report;
use dlb_bench::results::{JsonlSink, Record};
use dlb_coords::{Estimator, EstimatorConfig};
use dlb_scenario::{AlgoSpec, NetSpec, RunRecord, RuntimeSpec, ScenarioSpec};
use std::process::ExitCode;

const USAGE: &str = "\
dlb — network delay-aware load balancing (Skowron & Rzadca, IPDPS'13)

commands:
  run        run one declaratively named scenario
  report     render tables from JSON-lines result files
  trace      inspect, replay-verify, or export a recorded frame log
  optimize   alias for `run algo=sequential` (+ BCD reference on small nets)
  nash       alias for `run algo=nash` vs the cooperative engine
  protocol   alias for `run algo=protocol` (threads + wire frames)
  estimate   run Vivaldi latency estimation against a synthetic network
  help       show this text

run:
  dlb run [KEY=VALUE]... [--scenario TEXT] [--out FILE]
  scenario keys (defaults shown):
    algo=sequential   sequential | batched | nash | protocol | bcd
    net=homog         homog | euclid | pl
    m=20              number of organizations
    lat=20            homogeneous latency in ms (net=homog only)
    load=exp          const | uniform | exp | peak
    avg=50            average initial load per server
    speeds=uniform    uniform | const
    seed=1            RNG seed (sampling + iteration order)
    gran=0            transfer quantum (0 = continuous)
    eps=1e-10         termination tolerance
    patience=3        consecutive calm rounds to stop
    budget=2000       iteration/round/sweep budget
    runtime=threads   threads | events — protocol host: OS threads or
                      the deterministic virtual-time executor (scales
                      to m=5000 in one process; reports simulated
                      protocol seconds)
    select=exact      exact | topk:K — partner selection, algo=protocol
                      only. exact scores every peer per round (O(m)
                      per node); topk:K scores the K delay-nearest
                      peers plus the gossiped hot set (most/least
                      loaded), rebuilt only when the load vector
                      changes. topk:32 runs m=100000 event rounds:
                      dlb run algo=protocol runtime=events m=100000 \\
                        net=homog select=topk:32 patience=8
    faults=           deterministic fault schedule, algo=protocol
                      runtime=events only. Comma-separated primitives:
                      crash:F@Tms[..Tms] (fraction F crashes at T,
                      optional recovery), loss:P[@Tms..Tms] (per-frame
                      loss), spike:Fx@Tms..Tms (delay multiplier),
                      part:Tms..Tms (bipartition), slow:F@Fx[@Tms..Tms]
                      (fraction F straggles at Fx× outbound delay).
                      Example: faults=crash:0.1@500ms,loss:0.05 — one
                      seed fixes workload, delays, and the fault
                      trajectory, so records reproduce bit for bit
    detect=oracle     oracle | timeout:MS | adaptive — liveness source,
                      algo=protocol runtime=events only. oracle consults
                      the fault script directly (the idealized baseline);
                      timeout:MS suspects any node silent MS past the
                      round start; adaptive learns per-node report
                      cadence (phi-accrual-style) and sets per-node
                      deadlines. Suspected nodes are excluded from the
                      next round, wrongly suspected stragglers rejoin
                      with exact load conservation, and the record
                      carries a detector_* summary
    arrivals=         open-system request stream, algo=protocol
                      runtime=events only; requires duration=.
                      Comma-separated processes, rates in requests per
                      second of virtual time: poisson:RATE (constant
                      rate over the whole run), burst:RATE@Tms..Tms
                      (extra rate inside the window),
                      diurnal:RATE@PERIODms (sinusoidal rate, one
                      cycle per period). Requests arrive at their home
                      organization, are routed where the protocol has
                      placed that organization's load, and are served
                      at the host's speed; the protocol keeps
                      rebalancing while the stream runs instead of
                      quiescing. The record carries a stream_* summary
                      (served/dropped counts, p50/p99 sojourn in
                      virtual ms, time spent imbalanced). One seed
                      fixes the arrival times, routing draws, delays,
                      and faults, so records reproduce bit for bit.
                      Example: dlb run algo=protocol runtime=events \\
                        m=2000 arrivals=poisson:500,burst:2000@1000ms..2000ms \\
                        duration=4000
    duration=         stream horizon in virtual ms (accepts an 'ms'
                      suffix); requires arrivals=
    gossip=emulated   emulated[:T] | event:PERIODms — control plane
                      behind the engine's partner scoring,
                      algo=sequential|batched only. emulated:T scores
                      on one shared snapshot refreshed every T
                      iterations (T=0, the default, is fresh; no bytes
                      move). event:PERIODms runs the real delta-gossip
                      protocol from dlb-gossip: per-server views fed
                      by sharded delta frames every PERIOD virtual ms,
                      advanced ~log2(m) periods per engine iteration,
                      with every byte metered — the record carries a
                      gossip_* summary. A non-default value switches
                      the engine to pruned partner selection (stale
                      views only reach the pruned pre-scoring).
                      Example: dlb run algo=batched m=500 net=pl \\
                        gossip=event:100ms
    trace=off         off | summary | frames:FILE — deterministic
                      observability, algo=protocol runtime=events only.
                      off (the default) observes nothing and keeps the
                      run byte-identical to an untraced one. summary
                      attaches the trace plane and adds an obs_*
                      summary to the record (event counts, frame
                      latency percentiles — all stamped in virtual
                      time, so they reproduce bit for bit per seed).
                      frames:FILE additionally writes the full event
                      stream as a binary frame log for `dlb trace`.
                      Example: dlb run algo=protocol runtime=events \\
                        m=2000 faults=crash:0.1@500ms detect=adaptive \\
                        trace=frames:run.dlbf

report:
  dlb report FILE...          (e.g. dlb report BENCH_figure2.json)

trace:
  dlb trace show FILE [--node N|coord] [--kind LABEL|FAMILY]
                      [--from MS] [--to MS] [--limit N]
                      render the recorded event stream as an aligned
                      table; families: frame, timer, round, exchange,
                      detector, gossip, stream
  dlb trace replay FILE
                      re-derive the run from the log's own scenario
                      header and verify it reproduces the recording
                      bit-exactly (event stream, event_hash, outcomes);
                      a divergence is a non-zero exit naming the first
                      disagreement
  dlb trace chrome FILE [--out FILE.json]
                      export Chrome trace-event JSON for
                      chrome://tracing / Perfetto

alias options (translated onto a scenario):
  --servers N   --network homog|euclid|pl   --latency C   --load D
  --avg L       --speeds uniform|const      --seed N      --max-iters N
  --out FILE

estimate options:
  --servers N  --ticks N  --probes N  --seed N  --out FILE
";

/// Opens the run sink: `--out FILE` explicitly, the
/// `DLB_RESULTS_DIR`-driven sink otherwise.
fn open_sink(args: &Args) -> Result<JsonlSink, ArgError> {
    match args.get("out") {
        Some(path) => JsonlSink::create_at(path)
            .map_err(|e| ArgError(format!("--out {path}: cannot create ({e})"))),
        None => Ok(JsonlSink::create("cli")),
    }
}

/// Runs one scenario through the shared runner layer on a prebuilt
/// instance (aliases sample one grid point and share it across their
/// comparison runs), prints the compact report, and emits the
/// `RunRecord` through the sink.
fn execute(spec: &ScenarioSpec, instance: dlb_core::Instance, sink: &mut JsonlSink) -> RunRecord {
    let run = spec.run_on(instance);
    sink.record(&Record::from_run("run", &run));
    println!("scenario: {}", run.scenario);
    println!("m = {}, initial ΣC = {:.1}", run.m, run.initial_cost());
    let trajectory = &run.history[1..];
    let shown = 12usize;
    for (i, c) in trajectory.iter().take(shown).enumerate() {
        println!("iteration {:>3}: ΣC = {c:.1}", i + 1);
    }
    if trajectory.len() > shown {
        println!("... ({} more)", trajectory.len() - shown);
    }
    // Event-executor runs report simulated protocol time in wall_secs.
    let time_kind = if spec.algo == AlgoSpec::Protocol && spec.runtime == RuntimeSpec::Events {
        "simulated"
    } else {
        "wall"
    };
    println!(
        "converged: {} after {} iterations; final ΣC = {:.1} ({:.3} s {time_kind})",
        run.converged,
        run.iterations,
        run.final_cost(),
        run.wall_secs
    );
    if !run.stream.is_quiet() {
        println!(
            "stream: {} served, {} dropped; sojourn p50 = {:.1} ms, p99 = {:.1} ms; \
             imbalanced {:.1} ms",
            run.stream.served,
            run.stream.dropped,
            run.stream.p50_ms,
            run.stream.p99_ms,
            run.stream.imbalance_ms
        );
    }
    if !run.gossip.is_quiet() {
        println!(
            "gossip: {} frames, {:.2} MB on the wire, {} exchanges",
            run.gossip.frames,
            run.gossip.bytes as f64 / 1e6,
            run.gossip.exchanges
        );
    }
    println!();
    run
}

/// Translates the legacy alias flags onto a scenario spec by mapping
/// each flag to its spec key and going through [`ScenarioSpec::parse`]
/// — one token vocabulary, defined once in `dlb-scenario`.
fn spec_from_flags(args: &Args, algo: AlgoSpec) -> Result<ScenarioSpec, ArgError> {
    let mut text = format!("algo={}", algo.label());
    for (flag, key) in [
        ("servers", "m"),
        ("network", "net"),
        ("latency", "lat"),
        ("load", "load"),
        ("avg", "avg"),
        ("speeds", "speeds"),
        ("seed", "seed"),
    ] {
        if let Some(value) = args.get(flag) {
            text.push_str(&format!(" {key}={value}"));
        }
    }
    ScenarioSpec::parse(&text).map_err(|e| ArgError(e.0))
}

fn cmd_run(args: &Args) -> Result<(), ArgError> {
    let mut text = args.positionals.join(" ");
    if let Some(flag) = args.get("scenario") {
        if !text.is_empty() {
            text.push(' ');
        }
        text.push_str(flag);
    }
    let spec = ScenarioSpec::parse(&text).map_err(|e| ArgError(e.0))?;
    let mut sink = open_sink(args)?;
    execute(&spec, spec.build_instance(), &mut sink);
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), ArgError> {
    if args.positionals.is_empty() {
        return Err(ArgError(
            "report needs at least one JSON-lines file (try 'dlb report BENCH_figure2.json')"
                .into(),
        ));
    }
    for path in &args.positionals {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("{path}: cannot read ({e})")))?;
        if args.positionals.len() > 1 {
            println!("-- {path} --");
        }
        println!(
            "{}",
            render_report(&text).map_err(|e| ArgError(format!("{path}: {e}")))?
        );
    }
    Ok(())
}

fn cmd_optimize(args: &Args) -> Result<(), ArgError> {
    let spec = spec_from_flags(args, AlgoSpec::Sequential)?.termination(
        1e-10,
        3,
        args.get_usize("max-iters", 200)?,
    );
    let mut sink = open_sink(args)?;
    let instance = spec.build_instance();
    let run = execute(&spec, instance.clone(), &mut sink);
    if spec.m <= 30 {
        let opt = execute(
            &spec.algo(AlgoSpec::Bcd).termination(1e-10, 3, 2_000),
            instance,
            &mut sink,
        );
        println!(
            "solver optimum (BCD): {:.1} (engine ratio {:.4})",
            opt.final_cost(),
            run.final_cost() / opt.final_cost()
        );
    }
    Ok(())
}

fn cmd_nash(args: &Args) -> Result<(), ArgError> {
    // The paper's §VI-C termination rule: all organizations change by
    // < 1 % for two consecutive rounds.
    let spec = spec_from_flags(args, AlgoSpec::Nash)?.termination(0.01, 2, 10_000);
    let mut sink = open_sink(args)?;
    let instance = spec.build_instance();
    let nash = execute(&spec, instance.clone(), &mut sink);
    let coop = execute(
        &spec.algo(AlgoSpec::Sequential).termination(1e-12, 3, 300),
        instance.clone(),
        &mut sink,
    );
    println!(
        "cost of selfishness = {:.4}",
        nash.final_cost() / coop.final_cost()
    );
    if instance.is_homogeneous(1e-9) {
        let c = instance.c(0, 1.min(instance.len() - 1));
        let s = instance.speed(0);
        let lav = instance.average_load();
        let (lo, hi) = dlb_game::theorem1_bounds(c, s, lav);
        println!("Theorem 1 PoA band (c={c}, s={s}, l_av={lav:.1}): [{lo:.4}, {hi:.4}]");
    }
    Ok(())
}

fn cmd_protocol(args: &Args) -> Result<(), ArgError> {
    let m = args.get_usize("servers", 20)?;
    // `m − 1` quiet rounds certify pairwise optimality (the audit
    // rotation has then re-examined every pair).
    let spec = spec_from_flags(args, AlgoSpec::Protocol)?.termination(
        1e-9,
        m.saturating_sub(1).max(1),
        args.get_usize("max-iters", 200)?,
    );
    let mut sink = open_sink(args)?;
    let instance = spec.build_instance();
    let protocol = execute(&spec, instance.clone(), &mut sink);
    let engine = execute(
        &spec.algo(AlgoSpec::Sequential).termination(1e-12, 3, 300),
        instance,
        &mut sink,
    );
    println!(
        "engine fixpoint = {:.1} (protocol ratio {:.4})",
        engine.final_cost(),
        protocol.final_cost() / engine.final_cost()
    );
    Ok(())
}

fn cmd_estimate(args: &Args) -> Result<(), ArgError> {
    let m = args.get_usize("servers", 40)?;
    let seed = args.get_u64("seed", 1)?;
    let ticks = args.get_usize("ticks", 50)?;
    let probes = args.get_usize("probes", 4)?;
    let truth = ScenarioSpec::new()
        .net(NetSpec::Pl)
        .servers(m)
        .seed(seed)
        .build_latency();
    let mut est = Estimator::new(
        m,
        EstimatorConfig {
            probes_per_tick: probes,
            seed,
            ..Default::default()
        },
    );
    let mut sink = open_sink(args)?;
    println!("tick  median relative error");
    let step = (ticks / 10).max(1);
    let mut errors = Vec::with_capacity(ticks);
    for t in 0..ticks {
        est.tick(&truth);
        errors.push(est.median_relative_error(&truth));
        if t % step == 0 || t + 1 == ticks {
            println!("{:>4}  {:.4}", t + 1, errors[t]);
        }
    }
    sink.record(
        &Record::new("estimate")
            .int("m", m as i64)
            .int("ticks", ticks as i64)
            .int("probes", probes as i64)
            .int("seed", seed as i64)
            .num(
                "final_median_rel_error",
                errors.last().copied().unwrap_or(f64::NAN),
            )
            .nums("history", &errors),
    );
    Ok(())
}

fn run() -> Result<(), ArgError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" || raw[0] == "-h" {
        print!("{USAGE}");
        return Ok(());
    }
    const ALIAS_KEYS: &[&str] = &[
        "servers",
        "network",
        "latency",
        "load",
        "avg",
        "speeds",
        "seed",
        "max-iters",
        "out",
    ];
    let allowed: &[&str] = match raw[0].as_str() {
        "run" => &["scenario", "out"],
        "report" => &[],
        "trace" => &["node", "kind", "from", "to", "limit", "out"],
        "estimate" => &["servers", "ticks", "probes", "seed", "out"],
        _ => ALIAS_KEYS,
    };
    let args = Args::parse(raw, allowed)?;
    // Only `run` (scenario tokens), `report` (file paths), and `trace`
    // (action + file) take bare positionals; everywhere else a stray
    // token is an error, not a silently ignored flag.
    if !matches!(args.command.as_str(), "run" | "report" | "trace") {
        if let Some(tok) = args.positionals.first() {
            return Err(ArgError(format!(
                "unexpected argument '{tok}' for '{}' (key=value scenario tokens only work \
                 with 'dlb run')",
                args.command
            )));
        }
    }
    match args.command.as_str() {
        "run" => cmd_run(&args),
        "report" => cmd_report(&args),
        "trace" => trace::cmd_trace(&args),
        "optimize" => cmd_optimize(&args),
        "nash" => cmd_nash(&args),
        "protocol" => cmd_protocol(&args),
        "estimate" => cmd_estimate(&args),
        other => Err(ArgError(format!(
            "unknown command '{other}' (try 'dlb help')"
        ))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
