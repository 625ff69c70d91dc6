//! Deterministic simulation: the event executor must produce
//! bit-identical runs however many workers drain its delivery batches,
//! and however many times a configuration is replayed.
//!
//! The executor shards each batch over the `dlb-par` pool with the
//! order-preserving `par_map_mut`, so the delivered event order — and
//! therefore every ledger, every cost history entry, and the whole
//! `RunRecord` the scenario layer emits — is a pure function of
//! (instance, options, delay function). These tests pin that down
//! across `DLB_THREADS ∈ {1, 4, default}` and across repeats at the
//! executor API; `crates/scenario/tests/event_record_determinism.rs`
//! extends the same property to the whole `RunRecord`.
//!
//! This file is its own test binary so the `DLB_THREADS` mutations
//! cannot race with unrelated tests.

use dlb_core::workload::LoadDistribution;
use dlb_core::Instance;
use dlb_faults::{FaultPlan, FaultScript};
use dlb_runtime::{run_cluster_events, ClusterOptions, ClusterReport, EventInputs};
use std::sync::Mutex;

mod common;
use common::{planetlab_like, workload};

/// Both tests mutate the process-wide `DLB_THREADS` variable; they must
/// not interleave within this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// An instance big enough that delivery batches clear `dlb-par`'s
/// sequential cutoff (32 destinations), so the parallel sharding path
/// really runs under `DLB_THREADS=4`.
fn instance(m: usize, seed: u64) -> Instance {
    workload(
        LoadDistribution::Exponential,
        70.0,
        planetlab_like(m, seed),
        seed,
    )
}

fn simulate(instance: &Instance) -> ClusterReport {
    run_cluster_events(
        instance,
        &ClusterOptions::default(),
        |i, j| instance.c(i, j) / 2.0,
        EventInputs::default(),
    )
}

/// Everything observable about a run that must be bit-stable. Wall
/// time is excluded on purpose — it is the one quantity the host may
/// legitimately vary (the scenario-level test covers `wall_secs`,
/// which carries *virtual* time for event runs).
fn fingerprint(report: &ClusterReport) -> (u64, Vec<u64>, Vec<u64>, usize, usize, u64, bool) {
    (
        report.event_hash,
        report.history.iter().map(|c| c.to_bits()).collect(),
        report
            .assignment
            .loads()
            .iter()
            .map(|l| l.to_bits())
            .collect(),
        report.rounds,
        report.exchanges,
        report.virtual_ms.to_bits(),
        report.quiescent,
    )
}

#[test]
fn event_order_and_results_are_thread_count_invariant() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let inst = instance(64, 1);
    std::env::set_var("DLB_THREADS", "1");
    let one = fingerprint(&simulate(&inst));
    std::env::set_var("DLB_THREADS", "4");
    let four = fingerprint(&simulate(&inst));
    std::env::remove_var("DLB_THREADS");
    let default = fingerprint(&simulate(&inst));
    assert_eq!(one, four, "DLB_THREADS=1 vs 4 diverged");
    assert_eq!(one, default, "pinned vs default thread count diverged");
}

/// A crash+loss+spike+partition script over the same workload: fault
/// trajectories must be exactly as thread-count-invariant as clean
/// runs — every script consultation happens on the single-threaded
/// scheduling path.
fn chaos_script(m: usize) -> FaultScript {
    FaultPlan::new()
        .churn(0.2, 40.0, 400.0)
        .loss(0.1)
        .spike(3.0, 20.0, 300.0)
        .partition(60.0, 200.0)
        .compile(5, m)
}

fn simulate_faulted(instance: &Instance, script: &FaultScript) -> ClusterReport {
    run_cluster_events(
        instance,
        &ClusterOptions::default(),
        |i, j| instance.c(i, j) / 2.0,
        EventInputs {
            faults: Some(script),
            ..Default::default()
        },
    )
}

#[test]
fn fault_trajectories_are_thread_count_invariant() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let inst = instance(64, 1);
    let script = chaos_script(64);
    // An explicitly compiled empty plan must take no fault path: at
    // every worker count it reproduces the default (fault-free) inputs.
    let empty = FaultPlan::new().compile(5, 64);
    assert!(empty.is_empty());
    let empty_is_clean = |label: &str| {
        assert_eq!(
            fingerprint(&simulate_faulted(&inst, &empty)),
            fingerprint(&simulate(&inst)),
            "{label}: empty script diverged from the default inputs"
        );
    };
    std::env::set_var("DLB_THREADS", "1");
    let one = fingerprint(&simulate_faulted(&inst, &script));
    let one_faults = simulate_faulted(&inst, &script).faults;
    empty_is_clean("DLB_THREADS=1");
    std::env::set_var("DLB_THREADS", "4");
    let four = fingerprint(&simulate_faulted(&inst, &script));
    let four_faults = simulate_faulted(&inst, &script).faults;
    empty_is_clean("DLB_THREADS=4");
    std::env::remove_var("DLB_THREADS");
    let default = fingerprint(&simulate_faulted(&inst, &script));
    empty_is_clean("default DLB_THREADS");
    assert_eq!(one, four, "faulted DLB_THREADS=1 vs 4 diverged");
    assert_eq!(one, default, "faulted pinned vs default diverged");
    assert_eq!(one_faults, four_faults, "fault summaries diverged");
    // The script really bit: the trajectory differs from the clean run.
    let clean = fingerprint(&simulate(&inst));
    assert_ne!(one.0, clean.0, "faults must change the event order");
}

#[test]
fn repeated_runs_are_bit_identical_per_seed_and_differ_across_seeds() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var("DLB_THREADS");
    for seed in [2u64, 3] {
        let inst = instance(48, seed);
        let a = fingerprint(&simulate(&inst));
        let b = fingerprint(&simulate(&inst));
        assert_eq!(a, b, "seed {seed}: repeat diverged");
    }
    assert_ne!(
        fingerprint(&simulate(&instance(48, 2))).0,
        fingerprint(&simulate(&instance(48, 3))).0,
        "different instances must produce different event orders"
    );
}
