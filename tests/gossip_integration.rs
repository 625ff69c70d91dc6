//! The gossip layer and the engine working together: loads
//! disseminated by push-pull gossip feed the partner-selection
//! heuristic, and the engine tolerates the resulting staleness.

use delay_lb::distributed::mine::PartnerSelection;
use delay_lb::gossip::wire::{decode, encode, WireEntry};
use delay_lb::gossip::{EventGossip, EventGossipConfig, GossipInputs, GossipNetwork};
use delay_lb::prelude::*;

#[test]
fn gossip_views_converge_to_real_loads() {
    let mut rng = delay_lb::core::rngutil::rng_for(1, 1300);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 50.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(LatencyMatrix::homogeneous(64, 20.0), &mut rng);
    let a = Assignment::local(&instance);
    let mut gossip = GossipNetwork::new(a.loads(), 3);
    let stats = gossip.run_until_complete(1000);
    assert!(
        stats.rounds <= 40,
        "dissemination took {} rounds",
        stats.rounds
    );
    for node in 0..64 {
        assert_eq!(gossip.view(node), a.loads());
    }
}

#[test]
fn event_gossip_gives_every_node_the_theorem1_band() {
    let mut rng = delay_lb::core::rngutil::rng_for(2, 1301);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Uniform,
        avg_load: 100.0,
        speeds: SpeedDistribution::Constant(1.0),
    }
    .sample(LatencyMatrix::homogeneous(100, 20.0), &mut rng);
    let mut net = EventGossip::new(instance.own_loads(), 5);
    let stats = net.run(
        &EventGossipConfig::default(),
        |i, j| instance.c(i, j) / 2.0,
        GossipInputs::default(),
    );
    assert!(stats.complete, "gossip stopped at {} ms", stats.virtual_ms);
    // Every node can now evaluate the Theorem 1 PoA band locally.
    let true_avg = instance.average_load();
    let (lo_true, hi_true) = theorem1_bounds(20.0, 1.0, true_avg);
    for node in 0..100 {
        let view = net.view(node);
        let avg = view.iter().sum::<f64>() / view.len() as f64;
        let (lo, hi) = theorem1_bounds(20.0, 1.0, avg);
        assert!((lo - lo_true).abs() < 1e-9 && (hi - hi_true).abs() < 1e-9);
    }
}

#[test]
fn stale_views_cost_little() {
    let mut rng = delay_lb::core::rngutil::rng_for(3, 1302);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 60.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(LatencyMatrix::homogeneous(80, 20.0), &mut rng);
    let run = |staleness: usize| {
        let mut engine = Engine::new(
            instance.clone(),
            EngineOptions {
                seed: 4,
                parallel: false,
                load_staleness: staleness,
                selection: Some(PartnerSelection::Pruned { top_k: 6 }),
                ..Default::default()
            },
        );
        engine.run_to_convergence(1e-12, 3, 200).final_cost
    };
    let fresh = run(0);
    let stale = run(4);
    assert!(
        stale <= fresh * 1.01,
        "staleness-4 result {stale} vs fresh {fresh}"
    );
}

#[test]
fn load_views_survive_the_wire() {
    let mut rng = delay_lb::core::rngutil::rng_for(4, 1303);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 40.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(LatencyMatrix::homogeneous(32, 20.0), &mut rng);
    let a = Assignment::local(&instance);
    let entries: Vec<WireEntry> = a
        .loads()
        .iter()
        .enumerate()
        .map(|(origin, &load)| WireEntry {
            origin: origin as u32,
            version: 1,
            load,
        })
        .collect();
    let decoded = decode(encode(&entries)).expect("wire roundtrip");
    for (e, d) in entries.iter().zip(decoded.iter()) {
        assert_eq!(e, d);
    }
}
