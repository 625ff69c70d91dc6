//! End-to-end tests of the `dlb` binary.
//!
//! * `dlb run` with `algo=sequential` and `algo=batched` must
//!   reproduce a direct [`Engine::run_to_convergence`] call *exactly*
//!   — same instance (one sampling path), same trajectory, bit-equal
//!   final cost — with the comparison made through the emitted
//!   JSON-lines record, so the whole spec → runner → sink path is
//!   under test.
//! * `dlb report` output over a committed fixture is pinned by a
//!   golden string.

use dlb_bench::report::{parse_jsonl, Value};
use dlb_distributed::{Engine, EngineOptions, RoundMode};
use dlb_scenario::ScenarioSpec;
use std::process::Command;

fn dlb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dlb"))
}

fn field<'a>(row: &'a [(String, Value)], key: &str) -> &'a Value {
    &row.iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("record lacks '{key}'"))
        .1
}

#[test]
fn run_reproduces_engine_costs_exactly() {
    for (algo, mode) in [
        ("sequential", RoundMode::Sequential),
        ("batched", RoundMode::Batched),
    ] {
        let text = format!("algo={algo} m=14 avg=35 seed=5 budget=60");
        let out_path = std::env::temp_dir().join(format!("dlb_cli_smoke_{algo}.jsonl"));
        let output = dlb()
            .args([
                "run",
                "--scenario",
                &text,
                "--out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("dlb binary runs");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        // Engine runs time the host.
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(" s wall)"), "{algo}: {stdout}");

        // The record the CLI emitted through the shared sink...
        let rows = parse_jsonl(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(*field(row, "algo"), Value::Str(algo.to_string()));

        // ...must match a direct engine run on the shared sampling
        // path bit for bit (JSON numbers use Rust's shortest
        // round-trip form, so parsing them back is lossless).
        let spec: ScenarioSpec = text.parse().unwrap();
        let mut engine = Engine::new(
            spec.build_instance(),
            EngineOptions {
                seed: 5,
                round_mode: mode,
                ..Default::default()
            },
        );
        let report = engine.run_to_convergence(1e-10, 3, 60);
        assert_eq!(
            *field(row, "final_cost"),
            Value::Num(report.final_cost),
            "{algo}: CLI final cost differs from direct engine run"
        );
        assert_eq!(
            *field(row, "iterations"),
            Value::Num(report.iterations as f64)
        );
        let expected: Vec<Value> = engine.history().iter().map(|&c| Value::Num(c)).collect();
        assert_eq!(*field(row, "history"), Value::Arr(expected), "{algo}");
        let _ = std::fs::remove_file(&out_path);
    }
}

/// `runtime=events` protocol runs are deterministic end to end: two
/// CLI invocations of the same scenario must emit byte-identical
/// JSON-lines records (including `wall_secs`, which carries simulated
/// protocol time), and they must match the in-process runner.
#[test]
fn event_protocol_runs_emit_reproducible_records() {
    let text = "algo=protocol runtime=events m=10 avg=40 seed=3 patience=5 budget=80";
    let mut records = Vec::new();
    for tag in ["a", "b"] {
        let out_path = std::env::temp_dir().join(format!("dlb_cli_events_{tag}.jsonl"));
        let output = dlb()
            .args([
                "run",
                "--scenario",
                text,
                "--out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("dlb binary runs");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        // wall_secs holds simulated seconds here, and the summary says so.
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(" s simulated)"), "{stdout}");
        assert!(!stdout.contains(" s wall)"), "{stdout}");
        records.push(std::fs::read_to_string(&out_path).unwrap());
        let _ = std::fs::remove_file(&out_path);
    }
    assert_eq!(records[0], records[1], "event records must be bit-equal");
    let rows = parse_jsonl(&records[0]).unwrap();
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(*field(row, "algo"), Value::Str("protocol".into()));
    let spec: ScenarioSpec = text.parse().unwrap();
    let run = spec.run();
    assert_eq!(*field(row, "final_cost"), Value::Num(run.final_cost()));
    assert_eq!(*field(row, "wall_secs"), Value::Num(run.wall_secs));
    assert_eq!(*field(row, "iterations"), Value::Num(run.iterations as f64));
}

/// The `detect=` axis end to end: a faulted adaptive-detector run
/// succeeds, emits the v2 record shape (fault_* and detector_* always
/// present), reproduces bit for bit, and a misplaced `detect=` on the
/// thread runtime is rejected at parse time with a pointed message.
#[test]
fn detect_axis_rides_the_cli_end_to_end() {
    let text = "algo=protocol runtime=events m=16 avg=80 seed=5 patience=9 budget=800 \
                faults=crash:0.2@150ms,slow:0.2@4x detect=adaptive";
    let mut records = Vec::new();
    for tag in ["a", "b"] {
        let out_path = std::env::temp_dir().join(format!("dlb_cli_detect_{tag}.jsonl"));
        let output = dlb()
            .args([
                "run",
                "--scenario",
                text,
                "--out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("dlb binary runs");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        records.push(std::fs::read_to_string(&out_path).unwrap());
        let _ = std::fs::remove_file(&out_path);
    }
    assert_eq!(records[0], records[1], "detect records must be bit-equal");
    let rows = parse_jsonl(&records[0]).unwrap();
    let row = &rows[0];
    assert_eq!(*field(row, "converged"), Value::Bool(true));
    let Value::Num(suspicions) = *field(row, "detector_suspicions") else {
        panic!("detector_suspicions must be numeric");
    };
    assert!(suspicions > 0.0, "crashes must be suspected from silence");
    let Value::Num(crashes) = *field(row, "fault_crashes") else {
        panic!("fault_crashes must be numeric");
    };
    assert_eq!(crashes, 3.0, "20% of 16 nodes");

    let output = dlb()
        .args(["run", "--scenario", "algo=protocol m=8 detect=adaptive"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("detect= requires"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn legacy_aliases_emit_run_records_through_the_sink() {
    let out_path = std::env::temp_dir().join("dlb_cli_alias.jsonl");
    let output = dlb()
        .args([
            "optimize",
            "--servers",
            "10",
            "--seed",
            "2",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("dlb binary runs");
    assert!(output.status.success());
    let rows = parse_jsonl(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    // The engine run plus the small-network BCD reference.
    assert_eq!(rows.len(), 2);
    assert_eq!(*field(&rows[0], "algo"), Value::Str("sequential".into()));
    assert_eq!(*field(&rows[1], "algo"), Value::Str("bcd".into()));
    let _ = std::fs::remove_file(&out_path);
}

// The column union respects each record's own key order: the later
// records' fault_*/detector_*/stream_* groups sit where those records
// carry them — before the trailing `history` — instead of being
// appended behind the first record's last column.
const GOLDEN_REPORT: &str = "\
== run (4 records) ==
scenario                                                                                                algo          m  initial_cost  final_cost  iterations  converged  wall_secs  fault_crashes  fault_recoveries  fault_dropped_frames  fault_delayed_frames  fault_extra_delay_ms  detector_suspicions  detector_false_positives  detector_latency_ms  detector_rejoin_ms  detector_aborted_exchanges  stream_served  stream_dropped  stream_p50_ms  stream_p99_ms  stream_imbalance_ms  history
algo=sequential net=homog m=8                                                                           sequential    8     1234.5000        1000           7       true     0.2500              -                 -                     -                     -                     -                    -                         -                    -                   -                           -              -               -              -              -                    -  [3 pts]
algo=batched net=pl m=500 load=peak avg=200 seed=7                                                      batched     500      2.3349e9    1.2278e7          20      false     5.5000              -                 -                     -                     -                     -                    -                         -                    -                   -                           -              -               -              -              -                    -  [2 pts]
algo=protocol net=homog m=16 runtime=events faults=crash:0.2@150ms,slow:0.2@4x detect=adaptive          protocol     16    60943.2000  38049.9300         539       true    41.4080              3                 0                    15                  3188            98918.2700                   12                         9             134.2400           1094.1200                           9              -               -              -              -                    -  [2 pts]
algo=protocol net=homog m=24 runtime=events arrivals=poisson:200,burst:400@500ms..1500ms duration=2000  protocol     24    71234.5000  40321.7500          88       true     2.4020              0                 0                     0                     0                     0                    0                         0                    0                   0                           0            412               0        15.8200        47.3100             612.4000  [2 pts]

== table_row (1 record) ==
table   bucket   dist     avg  max     std   n
table1  m <= 50  exp   2.3500    3  0.4787  12

";

#[test]
fn report_matches_golden_fixture() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/report_fixture.jsonl"
    );
    let output = dlb().args(["report", fixture]).output().expect("dlb runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert_eq!(stdout, GOLDEN_REPORT, "golden mismatch:\n{stdout}");
}

#[test]
fn report_renders_the_committed_figure2_artifact() {
    let artifact = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figure2.json");
    let output = dlb().args(["report", artifact]).output().expect("dlb runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("== figure2_series"), "{stdout}");
    assert!(stdout.contains("== scaling"), "{stdout}");
    assert!(stdout.contains("secs_per_iter"), "{stdout}");
}

#[test]
fn bad_specs_and_missing_files_fail_cleanly() {
    let output = dlb().args(["run", "algo=warp"]).output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("not one of"));
    let output = dlb()
        .args(["report", "/nonexistent/x.jsonl"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let output = dlb()
        .args(["run", "m=50", "seed=1", "m=60"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("twice"));
}
