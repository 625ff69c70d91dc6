//! Fixpoint parity between the two protocol runtimes.
//!
//! The event executor replays the exact same [`NodeMachine`] protocol
//! the thread runtime deploys — only message *timing* differs (per-link
//! virtual delays vs real channel races). Mirroring
//! `crates/distributed/tests/batched_parity.rs`, these tests pin the
//! consequence down: run both runtimes with the certified round budget
//! (`m − 1` quiet rounds requested, 20m + 100 rounds available — deep
//! into the audit rotation's tail either way), and the final `ΣC` must
//! agree within 1% across seeds, workload shapes, and network
//! substrates. Quiescence itself is *not* asserted: on tie-heavy
//! workloads (e.g. homogeneous latencies) Algorithm 1 legally shuffles
//! zero-improvement volume between equally good hosts forever, so
//! either runtime may exhaust the round budget at the fixpoint cost
//! without ever certifying.
//!
//! [`NodeMachine`]: dlb_runtime::NodeMachine

use dlb_core::workload::LoadDistribution;
use dlb_core::{Instance, LatencyMatrix};
use dlb_runtime::{run_cluster, run_cluster_events, ClusterOptions, EventInputs};

mod common;
use common::{planetlab_like, workload};

/// Certified options with a quiescent volume loose enough for the
/// thread runtime's racy exchange order to settle: the default 1e-9
/// can keep FP-noise volumes circulating for hundreds of rounds, while
/// 1e-6 is still ~8 orders below the workloads here.
fn certified(m: usize) -> ClusterOptions {
    ClusterOptions {
        quiescent_volume: 1e-6,
        ..ClusterOptions::certified(m)
    }
}

fn assert_parity(instance: &Instance, seed: u64, label: &str) {
    let m = instance.len();
    let options = certified(m);
    let threads = run_cluster(instance, &options);
    threads.assignment.check_invariants(instance).unwrap();
    let events = run_cluster_events(
        instance,
        &options,
        |i, j| instance.c(i, j) / 2.0,
        EventInputs::default(),
    );
    events.assignment.check_invariants(instance).unwrap();
    assert!(
        events.final_cost <= threads.final_cost * 1.01
            && threads.final_cost <= events.final_cost * 1.01,
        "{label} seed {seed}: events {} vs threads {}",
        events.final_cost,
        threads.final_cost
    );
}

#[test]
fn parity_uniform_homogeneous() {
    for seed in 1..=3u64 {
        let instance = workload(
            LoadDistribution::Uniform,
            50.0,
            LatencyMatrix::homogeneous(16, 20.0),
            seed,
        );
        assert_parity(&instance, seed, "uniform/homogeneous");
    }
}

#[test]
fn parity_exponential_heterogeneous() {
    for seed in 1..=3u64 {
        let instance = workload(
            LoadDistribution::Exponential,
            60.0,
            planetlab_like(14, seed),
            seed,
        );
        assert_parity(&instance, seed, "exponential/heterogeneous");
    }
}

#[test]
fn parity_peak_workload() {
    // The paper's hardest shape: all load on one server, spread by
    // doubling. Event timing must not change where the peak lands.
    for seed in 1..=2u64 {
        let m = 16;
        let mut instance = Instance::homogeneous(m, 1.0, 0.0, 20.0);
        let mut loads = vec![0.0; m];
        loads[0] = 50_000.0;
        instance.set_own_loads(loads);
        assert_parity(&instance, seed, "peak/homogeneous");
    }
}

#[test]
fn parity_with_failed_nodes() {
    let instance = workload(
        LoadDistribution::Exponential,
        80.0,
        planetlab_like(12, 5),
        5,
    );
    let options = ClusterOptions {
        failed: vec![3, 7],
        ..certified(12)
    };
    let threads = run_cluster(&instance, &options);
    let events = run_cluster_events(
        &instance,
        &options,
        |i, j| instance.c(i, j) / 2.0,
        EventInputs::default(),
    );
    for &f in &[3usize, 7] {
        assert_eq!(events.assignment.load(f), instance.own_load(f));
        assert_eq!(events.assignment.load(f), threads.assignment.load(f));
    }
    assert!(
        events.final_cost <= threads.final_cost * 1.01
            && threads.final_cost <= events.final_cost * 1.01,
        "failed-node parity: events {} vs threads {}",
        events.final_cost,
        threads.final_cost
    );
}
