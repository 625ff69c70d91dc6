//! The PlanetLab metric closure against the serial loop it replaced.
//!
//! `LatencyMatrix::metric_close` fills the missing PlanetLab pairs with
//! shortest-path distances (paper footnote 3) and is most of the
//! sampling time of every `net=pl` scenario. It fuses four
//! Floyd–Warshall pivots per pass over the matrix and must stay bit
//! for bit equal to the textbook serial loop, which this harness keeps
//! as its baseline. For each size it samples one PlanetLab matrix
//! (seed 7), closes interleaved clones of it with both kernels, asserts
//! the two results agree on every bit, and writes the median times to
//! `BENCH_closure.json` at the workspace root
//! (`dlb report BENCH_closure.json` renders it). The sampled matrix is
//! already closed, as in perfbench's traced run; closing it again still
//! relaxes all m³ (i, k, j) triples.
//!
//! Run: `cargo bench -p dlb-bench --bench closure`.

use std::time::Instant;

use dlb_bench::results::{JsonlSink, Record};
use dlb_bench::NetworkKind;

/// Matrix sides: the largest of the criterion group this replaced,
/// perfbench's `pl_cold_start`, and the largest size of Figure 2's fast
/// PlanetLab grid.
const SIZES: [usize; 3] = [300, 900, 2000];

const SEED: u64 = 7;

/// Interleaved repetitions per kernel; the median decorrelates machine
/// drift from the comparison.
const REPS: usize = 3;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// The serial Floyd–Warshall `metric_close` ran before its pivots were
/// fused, on a dense row-major copy.
fn reference_close(m: usize, data: &mut [f64]) {
    for k in 0..m {
        for i in 0..m {
            let cik = data[i * m + k];
            if !cik.is_finite() {
                continue;
            }
            for j in 0..m {
                let through = cik + data[k * m + j];
                if through < data[i * m + j] {
                    data[i * m + j] = through;
                }
            }
        }
    }
}

fn main() {
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_closure.json");
    let mut sink = JsonlSink::create_at(out_path).expect("BENCH_closure.json must be writable");

    println!("== metric closure — PlanetLab, seed {SEED}, median of {REPS} ==");
    println!(
        "{:>6} {:>13} {:>16} {:>9}",
        "m", "reference s", "metric_close s", "speedup"
    );
    for m in SIZES {
        let lat = NetworkKind::PlanetLab.build(m, SEED);
        let dense: Vec<f64> = (0..m * m).map(|idx| lat.get(idx / m, idx % m)).collect();
        let (mut reference_s, mut fused_s) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            let mut expected = dense.clone();
            let t0 = Instant::now();
            reference_close(m, &mut expected);
            reference_s.push(t0.elapsed().as_secs_f64());

            let mut closed = lat.clone();
            let t0 = Instant::now();
            closed.metric_close();
            fused_s.push(t0.elapsed().as_secs_f64());

            for (idx, want) in expected.iter().enumerate() {
                let (i, j) = (idx / m, idx % m);
                let got = closed.get(i, j);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "m={m}: metric_close gives {got} at ({i}, {j}), the serial loop {want}"
                );
            }
        }
        let (reference_s, fused_s) = (median(reference_s), median(fused_s));
        let speedup = reference_s / fused_s;
        println!("{m:>6} {reference_s:>13.3} {fused_s:>16.3} {speedup:>8.2}×");
        sink.record(
            &Record::new("closure")
                .int("m", m as i64)
                .int("seed", SEED as i64)
                .num("reference_s", reference_s)
                .num("metric_close_s", fused_s)
                .num("speedup", speedup),
        );
    }
    println!("\nclosure rows written to BENCH_closure.json");
}
