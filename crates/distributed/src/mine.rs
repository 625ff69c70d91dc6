//! Algorithm 2: the Min-Error (MinE) step.
//!
//! Server `id` evaluates `impr(id, j)` — the exact `ΣC` reduction of
//! running Algorithm 1 with partner `j` — and exchanges with the best
//! partner. Evaluating all `m−1` partners exactly costs
//! `O(m · nnz log nnz)` per server, which is what the paper's Algorithm 2
//! prescribes; for very large networks (Figure 2 runs up to 5000
//! servers) this module also provides a *pruned* mode that pre-scores
//! partners with a closed-form bound and evaluates only the top `K`
//! candidates exactly. At table scale (`m ≤ 300`) the two modes pick
//! identical partners in virtually every step (property-tested).
//!
//! The step has one entry point, [`choose_partner`]: the argmax and
//! the winning exchange's [`TransferOutcome`], not yet installed.
//! [`mine_step`] is the same choice followed by the install. The
//! per-step constants — selection policy, improvement threshold,
//! parallel evaluation and transfer quantum — travel together in one
//! [`MineParams`].

use dlb_core::{Assignment, Instance};

use crate::transfer::{calc_best_transfer, TransferOutcome};

/// Exact improvement `impr(i, j)`: the `ΣC` reduction Algorithm 1 would
/// achieve on the pair under the transfer quantum `granularity` (see
/// [`calc_best_transfer`]; `0.0` is the continuous algorithm), computed
/// on scratch copies.
pub fn improvement(
    instance: &Instance,
    a: &Assignment,
    i: usize,
    j: usize,
    granularity: f64,
) -> f64 {
    if i == j {
        return 0.0;
    }
    calc_best_transfer(instance, a.ledger(i), a.ledger(j), i, j, granularity).improvement
}

/// Closed-form partner score: the gain of moving one optimal
/// *homogeneous blob* between the servers, using the pair latency
/// `c_ij` as the representative transfer cost:
///
/// ```text
/// Δ* = (s_j l_i − s_i l_j − s_i s_j c) / (s_i + s_j)   (per direction)
/// gain = Δ*² (s_i + s_j) / (2 s_i s_j)
/// ```
///
/// This is exact when all requests on the loaded server belong to its
/// own organization (true for the peak workload) and an upper-envelope
/// heuristic otherwise. Used only to *rank* candidates in pruned mode.
pub fn partner_score(instance: &Instance, loads: &[f64], i: usize, j: usize) -> f64 {
    if i == j {
        return 0.0;
    }
    let si = instance.speed(i);
    let sj = instance.speed(j);
    let li = loads[i];
    let lj = loads[j];
    let gain = |from: usize, to: usize, lf: f64, lt: f64, sf: f64, st: f64| -> f64 {
        let c = instance.c(from, to);
        if !c.is_finite() {
            return 0.0;
        }
        let delta = ((st * lf - sf * lt) - sf * st * c) / (sf + st);
        if delta <= 0.0 {
            return 0.0;
        }
        let delta = delta.min(lf);
        // Exact quadratic gain of moving `delta` at latency `c`:
        // f(0)−f(Δ) = Δ(l_f/s_f − Δ(1/2s_f+1/2s_t) − l_t/s_t − c) + ...
        let inv = 1.0 / (2.0 * sf) + 1.0 / (2.0 * st);
        delta * (lf / sf - lt / st - c) - delta * delta * inv
    };
    gain(i, j, li, lj, si, sj).max(gain(j, i, lj, li, sj, si))
}

/// Partner-selection policy for the MinE step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartnerSelection {
    /// Evaluate `impr` exactly against every other server (Algorithm 2
    /// as written).
    Exact,
    /// Pre-rank partners with [`partner_score`] and evaluate `impr`
    /// exactly only for the `top_k` best-ranked candidates.
    Pruned {
        /// Number of candidates to evaluate exactly.
        top_k: usize,
    },
}

/// The per-step constants of Algorithm 2, shared by every server of
/// an iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MineParams {
    /// How candidates are chosen for exact evaluation.
    pub selection: PartnerSelection,
    /// Absolute improvement threshold at or below which an exchange is
    /// treated as noise and skipped.
    pub min_improvement: f64,
    /// Evaluate candidates over the `dlb-par` pool.
    pub parallel: bool,
    /// Transfer quantum of Algorithm 1 (`0.0` = continuous): a
    /// positive choice is always evaluated with the same quantized
    /// exchange it will apply, so it corresponds to a real move.
    pub granularity: f64,
}

/// Reusable per-caller buffers for [`choose_partner`].
///
/// One MinE step allocates a candidate list, a score table, and an
/// improvement table; at Figure-2 scale the engine runs millions of
/// steps, so the engine (and each propose-phase worker thread) keeps
/// one `PartnerScratch` alive and reuses the buffers instead of
/// allocating three fresh `Vec`s per server per iteration.
#[derive(Debug, Clone, Default)]
pub struct PartnerScratch {
    candidates: Vec<usize>,
    scored: Vec<(usize, f64)>,
    improvements: Vec<f64>,
}

/// Outcome of one MinE step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MineOutcome {
    /// Chosen partner (`None` when no partner improves `ΣC`).
    pub partner: Option<usize>,
    /// Improvement achieved.
    pub improvement: f64,
    /// Request volume moved.
    pub moved: f64,
}

/// Computes server `id`'s MinE partner choice without applying it:
/// `argmax_j impr(id, j)` over the reachable candidates, exactly as
/// Algorithm 2 prescribes. Returns the partner and the full
/// [`TransferOutcome`] of the winning exchange, or `None` when no
/// partner improves `ΣC` by more than `params.min_improvement`.
///
/// `active[j] == false` marks server `j` as failed or partitioned this
/// round. Because every exchange involves exactly two servers, the
/// algorithm keeps making progress with whatever subset is reachable —
/// the robustness property the paper argues for in §IV.
///
/// `score_loads` optionally overrides the load vector used by the
/// pruned mode's closed-form *pre-scoring* (the engine passes a
/// gossip-stale view here). The exact Algorithm-1 evaluation of the
/// surviving candidates always runs on the live ledgers, so a positive
/// choice still corresponds to a real improving exchange — staleness
/// can only misrank candidates, exactly like a real dissemination
/// layer.
///
/// Algorithm 2's evaluation already runs Algorithm 1 against every
/// candidate, so the chosen partner's post-exchange ledgers exist the
/// moment the argmax is known; returning them lets callers (the
/// engine's sequential sweep and the batched round's apply phase)
/// install the exchange without recomputing it. `scratch` holds the
/// candidate buffers, reused across calls.
pub fn choose_partner(
    instance: &Instance,
    a: &Assignment,
    id: usize,
    params: &MineParams,
    active: Option<&[bool]>,
    score_loads: Option<&[f64]>,
    scratch: &mut PartnerScratch,
) -> Option<(usize, TransferOutcome)> {
    let MineParams {
        selection,
        min_improvement,
        parallel,
        granularity,
    } = *params;
    let m = instance.len();
    if m < 2 {
        return None;
    }
    // Inside a fan-out worker (the batched propose phase) the inner
    // maps would degrade to sequential anyway, but through
    // `par_map_indexed`, which returns a fresh Vec per call. Take the
    // scratch-filling sequential arms directly instead, so the propose
    // hot path stays allocation-free as intended.
    let parallel = parallel && !dlb_par::in_parallel_region();
    let PartnerScratch {
        candidates,
        scored,
        improvements,
    } = scratch;
    let reachable = |j: usize| j != id && active.is_none_or(|mask| mask[j]);
    candidates.clear();
    match selection {
        PartnerSelection::Exact => candidates.extend((0..m).filter(|&j| reachable(j))),
        PartnerSelection::Pruned { top_k } => {
            // Pre-scoring is the hot loop of the pruned large-network
            // mode: every server scores all m−1 partners, so one engine
            // iteration at Figure 2's m = 5000 performs ~25M closed-form
            // evaluations. Fan it out over the index range; the map
            // preserves index order (and degrades to the very same
            // sequential loop under `DLB_THREADS=1`, below the small-n
            // cutoff, or nested inside the batched round's outer
            // fan-out), so the ranking — and therefore the fixpoint —
            // is identical however many workers run.
            let loads = score_loads.unwrap_or_else(|| a.loads());
            let score = |j: usize| {
                if reachable(j) {
                    partner_score(instance, loads, id, j)
                } else {
                    f64::NEG_INFINITY
                }
            };
            scored.clear();
            if parallel {
                scored.extend(
                    dlb_par::par_map_indexed(m, score)
                        .into_iter()
                        .enumerate()
                        .filter(|&(j, _)| reachable(j)),
                );
            } else {
                scored.extend((0..m).filter(|&j| reachable(j)).map(|j| (j, score(j))));
            }
            // Stable descending sort: ties keep index order, matching
            // the sequential pass bit for bit. `total_cmp` orders every
            // float, so a pathological NaN score can never panic the
            // run the way `partial_cmp(..).expect(..)` did — a positive
            // NaN merely wastes one top-k slot and is then rejected by
            // the exact improvement pass below.
            scored.sort_by(|x, y| y.1.total_cmp(&x.1));
            candidates.extend(scored.iter().take(top_k.max(1)).map(|&(j, _)| j));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    // Exact Algorithm-1 evaluation of the surviving candidates — the
    // dominant cost in Exact mode (m−1 ledger merges per server).
    // Index-ordered parallel map keeps results identical to sequential.
    // NaN improvements are rejected up front — a NaN reaching the
    // argmax `match` would overwrite a finite best (NaN fails every
    // comparison) and silently skip a genuinely improving exchange.
    // For finite values the early threshold filter is equivalent to
    // filtering the argmax at the end.
    if parallel {
        let evaluate = |j: usize| improvement(instance, a, id, j, granularity);
        improvements.clear();
        improvements.extend(dlb_par::par_map_indexed(candidates.len(), |idx| {
            evaluate(candidates[idx])
        }));
        let mut best: Option<(usize, f64)> = None;
        for (j, &impr) in candidates.iter().zip(improvements.iter()) {
            if impr.is_nan() || impr <= min_improvement {
                continue;
            }
            match best {
                Some((_, b)) if impr <= b => {}
                _ => best = Some((*j, impr)),
            }
        }
        // The fan-out keeps only the scalar improvements; one extra
        // Algorithm-1 run materializes the winner's ledgers.
        let (j, impr) = best?;
        let outcome = calc_best_transfer(instance, a.ledger(id), a.ledger(j), id, j, granularity);
        debug_assert!(
            (outcome.improvement - impr).abs() <= 1e-9 * impr.abs().max(1.0),
            "winner re-evaluation drifted: {impr} vs {}",
            outcome.improvement
        );
        Some((j, outcome))
    } else {
        // The sequential scan keeps the best outcome as it goes, so the
        // winning exchange's ledgers are never computed twice.
        let mut best: Option<(usize, TransferOutcome)> = None;
        for &j in candidates.iter() {
            let out = calc_best_transfer(instance, a.ledger(id), a.ledger(j), id, j, granularity);
            if out.improvement.is_nan() || out.improvement <= min_improvement {
                continue;
            }
            match &best {
                Some((_, b)) if out.improvement <= b.improvement => {}
                _ => best = Some((j, out)),
            }
        }
        best
    }
}

/// Executes Algorithm 2 for server `id`: [`choose_partner`] with live
/// scoring loads, then installs the winning exchange.
pub fn mine_step(
    instance: &Instance,
    a: &mut Assignment,
    id: usize,
    params: &MineParams,
    active: Option<&[bool]>,
) -> MineOutcome {
    let mut scratch = PartnerScratch::default();
    match choose_partner(instance, a, id, params, active, None, &mut scratch) {
        Some((j, outcome)) => {
            a.replace_ledger(id, outcome.ledger_i);
            a.replace_ledger(j, outcome.ledger_j);
            MineOutcome {
                partner: Some(j),
                improvement: outcome.improvement,
                moved: outcome.moved,
            }
        }
        None => MineOutcome {
            partner: None,
            improvement: 0.0,
            moved: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::cost::total_cost;
    use dlb_core::rngutil::rng_for;
    use dlb_core::LatencyMatrix;
    use rand::Rng;

    fn params(selection: PartnerSelection, parallel: bool) -> MineParams {
        MineParams {
            selection,
            min_improvement: 1e-9,
            parallel,
            granularity: 0.0,
        }
    }

    /// One live-scored, unmasked MinE step.
    fn step(
        instance: &Instance,
        a: &mut Assignment,
        id: usize,
        selection: PartnerSelection,
        parallel: bool,
    ) -> MineOutcome {
        mine_step(instance, a, id, &params(selection, parallel), None)
    }

    fn random_instance(m: usize, seed: u64) -> Instance {
        let mut rng = rng_for(seed, 13);
        let mut lat = LatencyMatrix::zero(m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    lat.set(i, j, rng.gen_range(0.5..12.0));
                }
            }
        }
        Instance::new(
            (0..m).map(|_| rng.gen_range(1.0..5.0)).collect(),
            (0..m).map(|_| rng.gen_range(0.0..50.0)).collect(),
            lat,
        )
    }

    #[test]
    fn picks_the_globally_best_partner() {
        let instance = random_instance(8, 1);
        let a = Assignment::local(&instance);
        // exhaustively find argmax impr(0, j)
        let mut best_j = 1;
        let mut best = f64::NEG_INFINITY;
        for j in 1..8 {
            let v = improvement(&instance, &a, 0, j, 0.0);
            if v > best {
                best = v;
                best_j = j;
            }
        }
        let mut a2 = a.clone();
        let out = step(&instance, &mut a2, 0, PartnerSelection::Exact, false);
        if best > 1e-9 {
            assert_eq!(out.partner, Some(best_j));
            assert!((out.improvement - best).abs() < 1e-9);
        } else {
            assert_eq!(out.partner, None);
        }
    }

    #[test]
    fn step_reduces_total_cost() {
        let instance = random_instance(10, 2);
        let mut a = Assignment::local(&instance);
        let before = total_cost(&instance, &a);
        let out = step(&instance, &mut a, 0, PartnerSelection::Exact, false);
        let after = total_cost(&instance, &a);
        assert!(
            (before - after - out.improvement).abs() < 1e-6 * before.max(1.0),
            "claimed {} actual {}",
            out.improvement,
            before - after
        );
        a.check_invariants(&instance).unwrap();
    }

    #[test]
    fn no_step_at_optimum() {
        // Perfectly balanced homogeneous system: nothing to do.
        let instance = Instance::homogeneous(4, 1.0, 10.0, 20.0);
        let mut a = Assignment::local(&instance);
        let out = step(&instance, &mut a, 0, PartnerSelection::Exact, false);
        assert_eq!(out.partner, None);
        assert_eq!(out.moved, 0.0);
    }

    #[test]
    fn pruned_matches_exact_on_peak_workload() {
        // One hot server: the pruned score is exact there, so pruned and
        // exact must pick the same partner.
        for seed in 0..5 {
            let mut instance = random_instance(20, seed);
            let mut loads = vec![0.0; 20];
            loads[3] = 1000.0;
            instance.set_own_loads(loads);
            let a = Assignment::local(&instance);
            let mut a_exact = a.clone();
            let mut a_pruned = a.clone();
            let exact = step(&instance, &mut a_exact, 3, PartnerSelection::Exact, false);
            let pruned = step(
                &instance,
                &mut a_pruned,
                3,
                PartnerSelection::Pruned { top_k: 4 },
                false,
            );
            assert_eq!(exact.partner, pruned.partner, "seed {seed}");
        }
    }

    #[test]
    fn pruned_improvement_close_to_exact_generally() {
        let instance = random_instance(24, 9);
        let a = Assignment::local(&instance);
        let mut a_exact = a.clone();
        let mut a_pruned = a.clone();
        let exact = step(&instance, &mut a_exact, 0, PartnerSelection::Exact, false);
        let pruned = step(
            &instance,
            &mut a_pruned,
            0,
            PartnerSelection::Pruned { top_k: 8 },
            false,
        );
        // The pruned step must achieve at least half the exact gain
        // (in practice it is nearly always identical).
        assert!(pruned.improvement >= 0.5 * exact.improvement - 1e-9);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let instance = random_instance(80, 4);
        let a = Assignment::local(&instance);
        let mut a_seq = a.clone();
        let mut a_par = a.clone();
        let seq = step(&instance, &mut a_seq, 5, PartnerSelection::Exact, false);
        let par = step(&instance, &mut a_par, 5, PartnerSelection::Exact, true);
        assert_eq!(seq.partner, par.partner);
        assert!((seq.improvement - par.improvement).abs() < 1e-12);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let instance = random_instance(40, 6);
        let mut a = Assignment::local(&instance);
        // Leave some requests off their owners so the quantized and
        // masked evaluations see non-trivial ledgers.
        for id in [0, 7, 19] {
            step(&instance, &mut a, id, PartnerSelection::Exact, false);
        }
        let mask: Vec<bool> = (0..40).map(|j| j % 3 != 1).collect();
        let stale: Vec<f64> = a.loads().iter().rev().copied().collect();
        let mut scratch = PartnerScratch::default();
        for id in 0..10 {
            // Every combination of the four inputs that steer which
            // buffers fill and how: quantum, mask, stale scoring view
            // and the parallel evaluation arm.
            for case in 0..32u32 {
                let selection = if case & 1 == 0 {
                    PartnerSelection::Exact
                } else {
                    PartnerSelection::Pruned { top_k: 5 }
                };
                let p = MineParams {
                    granularity: if case & 2 == 0 { 0.0 } else { 1.0 },
                    ..params(selection, case & 16 != 0)
                };
                let active = (case & 4 != 0).then_some(mask.as_slice());
                let score_loads = (case & 8 != 0).then_some(stale.as_slice());
                let choose = |scratch: &mut PartnerScratch| {
                    choose_partner(&instance, &a, id, &p, active, score_loads, scratch)
                };
                let fresh = choose(&mut PartnerScratch::default());
                assert_eq!(fresh, choose(&mut scratch), "id {id} case {case:05b}");
            }
        }
    }

    #[test]
    fn stale_score_loads_change_pruned_ranking_only() {
        // Live loads say server 1 is idle; the stale snapshot says
        // server 2 is. With top_k = 1 the snapshot decides which single
        // candidate gets an exact evaluation, so the chosen partner
        // must follow it — the gossip-staleness emulation the engine
        // relies on.
        let mut instance = Instance::homogeneous(3, 1.0, 0.0, 5.0);
        instance.set_own_loads(vec![100.0, 0.0, 50.0]);
        let a = Assignment::local(&instance);
        let stale = vec![100.0, 50.0, 0.0];
        let selection = PartnerSelection::Pruned { top_k: 1 };
        let mut scratch = PartnerScratch::default();
        let live_choice = choose_partner(
            &instance,
            &a,
            0,
            &params(selection, false),
            None,
            None,
            &mut scratch,
        );
        let stale_choice = choose_partner(
            &instance,
            &a,
            0,
            &params(selection, false),
            None,
            Some(&stale),
            &mut scratch,
        );
        assert_eq!(live_choice.map(|(j, _)| j), Some(1));
        assert_eq!(stale_choice.map(|(j, _)| j), Some(2));
    }

    #[test]
    fn partner_score_is_zero_for_balanced_pairs() {
        let instance = Instance::homogeneous(3, 1.0, 5.0, 10.0);
        let loads = vec![10.0, 10.0, 10.0];
        assert_eq!(partner_score(&instance, &loads, 0, 1), 0.0);
    }

    #[test]
    fn partner_score_positive_for_imbalanced_pairs() {
        let instance = Instance::homogeneous(3, 1.0, 1.0, 10.0);
        let loads = vec![30.0, 0.0, 10.0];
        assert!(partner_score(&instance, &loads, 0, 1) > 0.0);
        // symmetric: evaluating from the idle side sees the same gain
        assert!(
            (partner_score(&instance, &loads, 0, 1) - partner_score(&instance, &loads, 1, 0)).abs()
                < 1e-12
        );
    }
}
