//! Online query kernels: MCSP, MCSS (two estimators) and MCAP.
//!
//! All queries evaluate the truncated series
//! `s(i,j) = Σ_{t=0..T} cᵗ (Pᵗeᵢ)ᵀ D (Pᵗeⱼ)` from fresh `R'`-walker
//! cohorts plus the stored diagonal `D`:
//!
//! * **MCSP** intersects the two cohorts' per-step histograms —
//!   `O(T·R')` after simulation.
//! * **MCSS** propagates `D ûₜ` forward `t` steps with mass-carrying walks
//!   (`O(T²·R'·log d)`, the paper's bound) or, as the deterministic
//!   ablation variant, with exact sparse pushes.
//! * **MCAP** runs MCSS from every node — `O(n·T²·R'·log d)`.
//!
//! Query randomness derives from a *different* stream than indexing (salted
//! master seed) so query estimates do not correlate with the index's own
//! sampling error.

use crate::config::SimRankConfig;
use pasco_graph::{CsrGraph, ForwardSampler, GraphSampler, NodeId, ReverseChainIndex};
use pasco_mc::counts::MassMap;
use pasco_mc::forward::{forward_walks_on, push_measure};
use pasco_mc::rng::mix;
use pasco_mc::walks::{reverse_walk_distributions, StepDistributions, WalkParams};

/// Salt distinguishing query walks from index walks.
pub const QUERY_SALT: u64 = 0x0009_a5c0_9e71;
/// Salt for MCSS forward-propagation walks.
pub const FORWARD_SALT: u64 = 0x0009_a5c0_f0c4;

/// The seed for all query cohorts under `cfg`.
#[inline]
pub fn query_seed(cfg: &SimRankConfig) -> u64 {
    mix(&[cfg.seed, QUERY_SALT])
}

/// The seed for the forward-walk stage of an MCSS query from `source` at
/// series term `t`.
#[inline]
pub fn forward_seed(cfg: &SimRankConfig, source: NodeId, t: usize) -> u64 {
    mix(&[cfg.seed, FORWARD_SALT, source as u64, t as u64])
}

/// Simulates the query cohort (`R'` walkers, `T` steps) for `source`.
pub fn query_cohort(graph: &CsrGraph, cfg: &SimRankConfig, source: NodeId) -> StepDistributions {
    reverse_walk_distributions(graph, source, WalkParams::new(cfg.t, cfg.r_query), query_seed(cfg))
}

/// Scores a pair from two cohorts' distributions:
/// `Σ_t cᵗ Σ_k x_k ûₜ(k) v̂ₜ(k)` (merge over the sorted histograms).
pub fn score_pair(di: &StepDistributions, dj: &StepDistributions, diag: &[f64], c: f64) -> f64 {
    debug_assert_eq!(di.steps(), dj.steps());
    let ri = di.walkers as f64;
    let rj = dj.walkers as f64;
    let mut score = 0.0;
    let mut ct = 1.0;
    for (u, v) in di.counts.iter().zip(&dj.counts) {
        let mut term = 0.0;
        let (mut a, mut b) = (u.iter().peekable(), v.iter().peekable());
        while let (Some(&&(ka, ca)), Some(&&(kb, cb))) = (a.peek(), b.peek()) {
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    term += diag[ka as usize] * (ca as f64 / ri) * (cb as f64 / rj);
                    a.next();
                    b.next();
                }
            }
        }
        score += ct * term;
        ct *= c;
    }
    score
}

/// MCSP: the single-pair query. `s(i, i)` is 1 by definition.
pub fn single_pair(
    graph: &CsrGraph,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
    j: NodeId,
) -> f64 {
    if i == j {
        return 1.0;
    }
    let di = query_cohort(graph, cfg, i);
    let dj = query_cohort(graph, cfg, j);
    score_pair(&di, &dj, diag, cfg.c)
}

/// The weighted support `yₜ = D ûₜ` of a cohort's step-`t` histogram.
pub fn weighted_support(dists: &StepDistributions, t: usize, diag: &[f64]) -> Vec<(NodeId, f64)> {
    let r = dists.walkers as f64;
    dists.counts[t].iter().map(|&(k, cnt)| (k, diag[k as usize] * cnt as f64 / r)).collect()
}

/// Mass-proportional walker allocation for the forward stage: entry `k`
/// with mass `y_k` receives `max(1, round(total · y_k / Σy))` walkers, so
/// the per-term budget is ≈ `total` (the paper's `R'` in its `O(T²R′ log d)`
/// bound) and concentrated where the mass is — a fixed per-entry count
/// under-samples hub-heavy supports and wrecks ranking quality.
///
/// Deterministic: identical inputs yield identical allocations on every
/// engine, preserving cross-mode trajectory equality.
pub fn forward_allocation(y: &[(NodeId, f64)], total: u32) -> Vec<(NodeId, f64, u32)> {
    let sum: f64 = y.iter().map(|&(_, v)| v).sum();
    if sum <= 0.0 {
        return Vec::new();
    }
    y.iter()
        .filter(|&&(_, v)| v > 0.0)
        .map(|&(k, v)| {
            let n = ((total as f64 * v / sum).round() as u32).max(1);
            (k, v, n)
        })
        .collect()
}

/// MCSS from precomputed cohort distributions (shared by the execution
/// modes): `s_i = Σ_t cᵗ (Pᵀ)ᵗ (D ûₜ)`, the transpose powers estimated by
/// mass-carrying forward walks keyed by [`forward_seed`].
pub fn single_source_from_dists(
    graph: &CsrGraph,
    rci: &ReverseChainIndex,
    dists: &StepDistributions,
    diag: &[f64],
    cfg: &SimRankConfig,
) -> Vec<f64> {
    single_source_from_dists_on(
        graph.node_count() as usize,
        &GraphSampler::new(graph, rci),
        dists,
        diag,
        cfg,
    )
}

/// [`single_source_from_dists`] generic over the forward-sampling source —
/// the one dense-MCSS kernel behind the resident-graph engines and the
/// sharded engine's routed view, so their bit-equality is structural.
pub fn single_source_from_dists_on<S: ForwardSampler>(
    n: usize,
    sampler: &S,
    dists: &StepDistributions,
    diag: &[f64],
    cfg: &SimRankConfig,
) -> Vec<f64> {
    let mut out = vec![0.0f64; n];
    forward_stage_on(sampler, dists, diag, cfg, |node, mass| out[node as usize] += mass);
    out[dists.source as usize] = 1.0;
    out
}

/// The forward stage of MCSS for one cohort, shared by the dense and the
/// sparse accumulators: calls `emit(node, cᵗ·mass)` for every term of the
/// series `Σ_t cᵗ (Pᵀ)ᵗ (D ûₜ)` — the `t = 0` support as is, then for each
/// `t ≥ 1` every surviving walker of [`forward_allocation`]'s walkers,
/// keyed by [`forward_seed`] and advanced step-major by
/// [`forward_walks_on`]. Emission follows allocation order, walker by
/// walker, so each accumulator sums its f64s in one fixed order on every
/// engine.
fn forward_stage_on<S: ForwardSampler>(
    sampler: &S,
    dists: &StepDistributions,
    diag: &[f64],
    cfg: &SimRankConfig,
    mut emit: impl FnMut(NodeId, f64),
) {
    let mut ct = 1.0;
    for t in 0..=cfg.t {
        let y = weighted_support(dists, t, diag);
        if t == 0 {
            for &(k, m) in &y {
                emit(k, ct * m);
            }
        } else {
            let seed = forward_seed(cfg, dists.source, t);
            let walkers =
                forward_allocation(&y, cfg.r_forward).into_iter().flat_map(|(k, yk, nk)| {
                    let per = yk / nk as f64;
                    (0..nk).map(move |w| (k, per, mix(&[seed, k as u64, w as u64, t as u64])))
                });
            forward_walks_on(sampler, walkers, t, |node, mass| emit(node, ct * mass));
        }
        ct *= cfg.c;
    }
}

/// MCSS: the single-source query (Monte-Carlo forward propagation).
pub fn single_source(
    graph: &CsrGraph,
    rci: &ReverseChainIndex,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
) -> Vec<f64> {
    let dists = query_cohort(graph, cfg, i);
    single_source_from_dists(graph, rci, &dists, diag, cfg)
}

/// Ablation variant of MCSS: the `(Pᵀ)ᵗ` powers are applied by exact sparse
/// pushes instead of walks. Exact *given the cohort*; cost grows with the
/// push frontier (sum of out-degrees), which experiment A1 measures.
pub fn single_source_push(
    graph: &CsrGraph,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
) -> Vec<f64> {
    let dists = query_cohort(graph, cfg, i);
    let n = graph.node_count() as usize;
    let mut out = vec![0.0f64; n];
    let mut ct = 1.0;
    for t in 0..=cfg.t {
        let mut z = weighted_support(&dists, t, diag);
        for _ in 0..t {
            z = push_measure(graph, &z);
        }
        for &(k, m) in &z {
            out[k as usize] += ct * m;
        }
        ct *= cfg.c;
    }
    out[i as usize] = 1.0;
    out
}

/// Sparse MCSS: like [`single_source`] but accumulating only the nodes any
/// walker actually reaches (`O(T²·R′)` entries) instead of a dense length-n
/// vector — the right shape for top-`k` retrieval on very large graphs.
/// Returns the top `k` scoring nodes (query node excluded), sorted by
/// descending score with node-id tie-breaks.
pub fn single_source_topk(
    graph: &CsrGraph,
    rci: &ReverseChainIndex,
    diag: &[f64],
    cfg: &SimRankConfig,
    i: NodeId,
    k: usize,
) -> Vec<(NodeId, f64)> {
    let dists = query_cohort(graph, cfg, i);
    let acc = sparse_masses_on(&GraphSampler::new(graph, rci), &dists, diag, cfg);
    rank_topk(acc.iter(), i, k)
}

/// The sparse accumulation stage shared by every top-`k` path: the
/// reached-node masses of the MCSS series for one cohort, as a
/// [`MassMap`] over the (at most `O(T²·R')`) nodes any walker lands on.
/// Generic over the forward-sampling source so the local and sharded
/// engines accumulate through the identical kernel.
pub fn sparse_masses_on<S: ForwardSampler>(
    sampler: &S,
    dists: &StepDistributions,
    diag: &[f64],
    cfg: &SimRankConfig,
) -> MassMap {
    let mut acc = MassMap::with_capacity(cfg.r_forward as usize);
    forward_stage_on(sampler, dists, diag, cfg, |node, mass| acc.add(node, mass));
    acc
}

/// The total order every ranking path sorts by: descending score, node-id
/// tie-break. Uses [`f64::total_cmp`] so a NaN score (e.g. from a poisoned
/// diagonal entry) can never panic a query; NaN orders above every finite
/// score under `total_cmp`, deterministically. The sharded engine's k-way
/// merge and [`rank_topk`] share this comparator — the cross-engine
/// ranking-equality guarantee depends on there being exactly one.
#[inline]
pub(crate) fn ranking_cmp(a: &(NodeId, f64), b: &(NodeId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// The shared ranking tail of every top-`k` path: clamp into `[0, 1]`,
/// drop the query node, unreached (zero-score) and NaN entries, sort by
/// [`ranking_cmp`], truncate to `k`. Local sparse, sharded merged and
/// cluster dense top-`k` all rank through here, so the cross-mode
/// ranking-equality guarantee depends on exactly one tie-break
/// implementation.
pub(crate) fn rank_topk(
    items: impl IntoIterator<Item = (NodeId, f64)>,
    exclude: NodeId,
    k: usize,
) -> Vec<(NodeId, f64)> {
    let mut out: Vec<(NodeId, f64)> = items
        .into_iter()
        .map(|(v, s)| (v, s.clamp(0.0, 1.0)))
        .filter(|&(v, s)| v != exclude && s > 0.0)
        .collect();
    out.sort_unstable_by(ranking_cmp);
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_diagonal, ExactSimRank};
    use pasco_graph::generators;

    fn setup(g: &CsrGraph, cfg: &SimRankConfig) -> (ReverseChainIndex, Vec<f64>) {
        let rci = ReverseChainIndex::build(g);
        let diag = exact_diagonal(g, cfg.c, cfg.t, 50);
        (rci, diag.as_slice().to_vec())
    }

    #[test]
    fn identical_nodes_score_one() {
        let g = generators::barabasi_albert(100, 3, 1);
        let cfg = SimRankConfig::fast();
        let (_, diag) = setup(&g, &cfg);
        assert_eq!(single_pair(&g, &diag, &cfg, 5, 5), 1.0);
    }

    #[test]
    fn shared_parent_pair_close_to_exact() {
        // 2 -> 0, 2 -> 1 ⇒ s(0,1) = c = 0.6 exactly.
        let g = CsrGraph::from_edges(3, &[(2, 0), (2, 1)]);
        let cfg = SimRankConfig::default_paper().with_r_query(20_000);
        let (_, diag) = setup(&g, &cfg);
        let s = single_pair(&g, &diag, &cfg, 0, 1);
        assert!((s - 0.6).abs() < 0.02, "s = {s}");
    }

    #[test]
    fn mcsp_approximates_exact_simrank() {
        let g = generators::barabasi_albert(80, 3, 11);
        let cfg = SimRankConfig::default_paper().with_r_query(8_000).with_t(8);
        let (_, diag) = setup(&g, &cfg);
        let exact = ExactSimRank::compute(&g, cfg.c, 25);
        let mut worst = 0.0f64;
        for &(i, j) in &[(0u32, 1u32), (3, 40), (10, 60), (79, 2), (25, 26)] {
            let est = single_pair(&g, &diag, &cfg, i, j);
            worst = worst.max((est - exact.get(i, j)).abs());
        }
        assert!(worst < 0.06, "worst pair error {worst}");
    }

    #[test]
    fn mcss_and_push_variants_agree_with_exact() {
        let g = generators::barabasi_albert(80, 3, 13);
        let cfg = SimRankConfig::default_paper().with_r_query(4_000).with_t(8);
        let (rci, diag) = setup(&g, &cfg);
        let exact = ExactSimRank::compute(&g, cfg.c, 25);
        let i = 7u32;
        let mc = single_source(&g, &rci, &diag, &cfg, i);
        let push = single_source_push(&g, &diag, &cfg, i);
        let truth = exact.row(i);
        let mean_err_mc: f64 = mc.iter().zip(truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / 80.0;
        let mean_err_push: f64 =
            push.iter().zip(truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / 80.0;
        assert!(mean_err_mc < 0.03, "MC mean err {mean_err_mc}");
        assert!(mean_err_push < 0.03, "push mean err {mean_err_push}");
        // The push variant removes the forward-walk noise; it should not be
        // (much) worse than the MC variant.
        assert!(mean_err_push <= mean_err_mc + 0.01);
        assert_eq!(mc[i as usize], 1.0);
    }

    #[test]
    fn queries_are_deterministic() {
        let g = generators::rmat(8, 1200, generators::RmatParams::default(), 2);
        let cfg = SimRankConfig::fast();
        let (rci, diag) = setup(&g, &cfg);
        assert_eq!(single_pair(&g, &diag, &cfg, 3, 99), single_pair(&g, &diag, &cfg, 3, 99));
        assert_eq!(
            single_source(&g, &rci, &diag, &cfg, 3),
            single_source(&g, &rci, &diag, &cfg, 3)
        );
    }

    #[test]
    fn mcsp_is_symmetric_in_its_arguments() {
        let g = generators::barabasi_albert(60, 3, 3);
        let cfg = SimRankConfig::fast();
        let (_, diag) = setup(&g, &cfg);
        // The estimator reuses per-node cohorts, so swapping arguments uses
        // the same two cohorts and must give the identical score.
        assert_eq!(single_pair(&g, &diag, &cfg, 10, 20), single_pair(&g, &diag, &cfg, 20, 10));
    }

    #[test]
    fn sparse_topk_matches_dense_single_source() {
        let g = generators::barabasi_albert(100, 3, 21);
        let cfg = SimRankConfig::fast();
        let (rci, diag) = setup(&g, &cfg);
        let i = 8u32;
        let dense = single_source(&g, &rci, &diag, &cfg, i);
        let clamped: Vec<f64> = dense.iter().map(|s| s.clamp(0.0, 1.0)).collect();
        let expect = crate::metrics::top_k(&clamped, 10, Some(i));
        let got = single_source_topk(&g, &rci, &diag, &cfg, i, 10);
        assert_eq!(got.len(), expect.len());
        for ((gn, gs), (en, es)) in got.iter().zip(&expect) {
            assert_eq!(gn, en);
            assert!((gs - es).abs() < 1e-12, "{gs} vs {es}");
        }
    }

    #[test]
    fn rank_topk_tolerates_nan_scores() {
        // Regression: the comparator used `partial_cmp(..).unwrap()`, so a
        // single NaN score (e.g. a poisoned diagonal entry) could panic the
        // whole query. total_cmp ranks without panicking; NaN entries are
        // dropped by the zero-score filter after the clamp.
        let items = vec![(1u32, f64::NAN), (2, 0.5), (3, 0.5), (4, 0.9), (5, f64::NAN)];
        let ranked = rank_topk(items, 0, 10);
        assert_eq!(ranked, vec![(4, 0.9), (2, 0.5), (3, 0.5)]);
    }

    #[test]
    fn queries_with_poisoned_diagonal_do_not_panic() {
        // End-to-end version of the NaN regression: a NaN diagonal entry
        // must degrade the ranking, never panic the serving path.
        let g = generators::barabasi_albert(60, 3, 17);
        let cfg = SimRankConfig::fast();
        let (rci, mut diag) = setup(&g, &cfg);
        diag[7] = f64::NAN;
        let ranked = single_source_topk(&g, &rci, &diag, &cfg, 3, 5);
        assert!(ranked.len() <= 5);
        assert!(ranked.iter().all(|&(_, s)| s.is_finite()));
        let scores = single_source(&g, &rci, &diag, &cfg, 3);
        let _ = crate::metrics::top_k(&scores, 5, Some(3)); // must not panic
    }

    #[test]
    fn topk_ranks_self_out_and_sorts_for_every_source() {
        let g = generators::two_communities(40, 150, 4, 5);
        let cfg = SimRankConfig::fast();
        let (rci, diag) = setup(&g, &cfg);
        for i in g.nodes() {
            let list = single_source_topk(&g, &rci, &diag, &cfg, i, 5);
            assert!(list.len() <= 5);
            assert!(list.iter().all(|&(j, _)| j != i), "self excluded");
            assert!(list.windows(2).all(|w| w[0].1 >= w[1].1), "sorted desc");
        }
    }
}
