//! Criterion micro-benchmarks of the hot kernels.
//!
//! Run: `cargo bench -p dlb-bench --bench kernels`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use dlb_bench::{sample_instance, NetworkKind};
use dlb_core::cost::total_cost;
use dlb_core::workload::{LoadDistribution, SpeedDistribution};
use dlb_core::Assignment;
use dlb_distributed::mine::{mine_step, MineParams, PartnerSelection};
use dlb_distributed::transfer::calc_best_transfer;
use dlb_flow::ssp::min_cost_max_flow;
use dlb_flow::FlowNetwork;
use dlb_solver::projection::project_simplex;
use dlb_solver::waterfill::waterfill;

fn bench_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("calc_best_transfer");
    for &m in &[50usize, 200] {
        let instance = sample_instance(
            m,
            NetworkKind::PlanetLab,
            LoadDistribution::Exponential,
            50.0,
            SpeedDistribution::paper_uniform(),
            1,
        );
        let a = Assignment::local(&instance);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| calc_best_transfer(&instance, a.ledger(0), a.ledger(1), 0, 1, 0.0))
        });
    }
    group.finish();
}

fn bench_mine_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("mine_step_exact");
    for &m in &[50usize, 200] {
        let instance = sample_instance(
            m,
            NetworkKind::PlanetLab,
            LoadDistribution::Exponential,
            50.0,
            SpeedDistribution::paper_uniform(),
            2,
        );
        let a = Assignment::local(&instance);
        let params = MineParams {
            selection: PartnerSelection::Exact,
            min_improvement: 1e-9,
            parallel: false,
            granularity: 0.0,
        };
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter_batched(
                || a.clone(),
                |mut a| mine_step(&instance, &mut a, 0, &params, None),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("total_cost");
    for &m in &[200usize, 1000] {
        let instance = sample_instance(
            m,
            NetworkKind::Homogeneous,
            LoadDistribution::Uniform,
            50.0,
            SpeedDistribution::paper_uniform(),
            3,
        );
        let a = Assignment::local(&instance);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| total_cost(&instance, &a))
        });
    }
    group.finish();
}

fn bench_waterfill(c: &mut Criterion) {
    let mut group = c.benchmark_group("waterfill");
    for &m in &[100usize, 1000] {
        let a: Vec<f64> = (0..m).map(|i| (i % 37) as f64).collect();
        let s: Vec<f64> = (0..m).map(|i| 1.0 + (i % 5) as f64).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| waterfill(&a, &s, 500.0))
        });
    }
    group.finish();
}

fn bench_projection(c: &mut Criterion) {
    let mut group = c.benchmark_group("project_simplex");
    for &m in &[100usize, 1000] {
        let v: Vec<f64> = (0..m)
            .map(|i| ((i * 31) % 100) as f64 / 10.0 - 5.0)
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter_batched(
                || v.clone(),
                |mut v| project_simplex(&mut v, 1.0),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_min_cost_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_cost_max_flow");
    group.sample_size(20);
    for &n in &[50usize, 200] {
        // Bipartite transport instance: n supplies, n demands.
        let build = move || {
            let mut g = FlowNetwork::new(2 * n + 2);
            let (s, t) = (2 * n, 2 * n + 1);
            for i in 0..n {
                g.add_edge(s, i, 10.0, 0.0);
                g.add_edge(n + i, t, 10.0, 0.0);
                for j in 0..n {
                    let cost = ((i * 7 + j * 13) % 50) as f64;
                    g.add_edge(i, n + j, f64::INFINITY, cost);
                }
            }
            (g, s, t)
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                build,
                |(mut g, s, t)| min_cost_max_flow(&mut g, s, t, f64::INFINITY),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_transfer,
    bench_mine_step,
    bench_cost,
    bench_waterfill,
    bench_projection,
    bench_min_cost_flow
);
criterion_main!(kernels);
