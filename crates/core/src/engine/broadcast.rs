//! Broadcasting-model execution: the graph replicated to every worker.
//!
//! The fast model of the paper's evaluation. Indexing partitions *nodes*
//! into ranges (one task each); queries partition the *walker cohort*.
//! Nothing is shuffled — the only communication is the initial broadcast,
//! which fails when `graph + sampling index` exceed the per-worker budget
//! (the paper's clue-web `N/A`).

use crate::ai::ai_row;
use crate::api::QueryError;
use crate::config::{AiStrategy, SimRankConfig};
use crate::diag::DiagonalIndex;
use crate::engine::{topk_from_dense, BuildOutcome, EngineFootprint, SimRankEngine};
use crate::error::SimRankError;
use crate::queries::{forward_seed, query_seed, score_pair, weighted_support};
use pasco_cluster::{Broadcast, Cluster, ClusterConfig, ClusterReport};
use pasco_graph::partition::Partitioner;
use pasco_graph::{CsrGraph, GraphSampler, NodeId, ReverseChainIndex};
use pasco_mc::counts::{CountMap, MassMap};
use pasco_mc::forward::forward_walks_on;
use pasco_mc::rng::mix;
use pasco_mc::walks::{
    reverse_walk_distributions, reverse_walk_histograms_on, StepDistributions, WalkParams,
};
use std::sync::Arc;

/// Materialised `aᵢ` rows, grouped per node-range task.
type RowsByRange = Vec<Vec<Vec<(u32, f64)>>>;
/// Forward-stage work item: `(t, cᵗ, support node, mass, walkers)`.
type ForwardItem = (usize, f64, NodeId, f64, u32);

/// Broadcasting-model engine: holds the cluster and the replicated graph.
pub struct BroadcastEngine {
    cluster: Cluster,
    graph: Broadcast<Arc<CsrGraph>>,
    rci: Broadcast<Arc<ReverseChainIndex>>,
}

impl BroadcastEngine {
    /// Replicates `graph` and its sampling index to every worker.
    ///
    /// # Errors
    /// [`SimRankError::Cluster`] when the combined footprint exceeds the
    /// per-worker memory budget.
    pub fn new(
        cluster_cfg: ClusterConfig,
        graph: Arc<CsrGraph>,
        rci: Arc<ReverseChainIndex>,
    ) -> Result<Self, SimRankError> {
        let cluster = Cluster::new(cluster_cfg);
        let bytes = graph.memory_bytes() + rci.memory_bytes();
        let graph = cluster.broadcast(graph, bytes)?;
        // Footprint fully accounted with the graph broadcast above.
        let rci = cluster.broadcast(rci, 0)?;
        Ok(Self { cluster, graph, rci })
    }

    /// The underlying cluster (metrics access).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn node_ranges(&self, n: u32) -> Vec<(u32, u32)> {
        let parts = (self.cluster.config().default_partitions() as u32).min(n.max(1));
        let p = Partitioner::range(n, parts);
        (0..parts).filter_map(|i| p.range_of(i)).collect()
    }

    /// Offline indexing in the Broadcasting model. Row generation is one
    /// task per node range; each Jacobi sweep re-broadcasts `x` (small) and
    /// updates ranges in parallel. Bitwise identical to the local engine.
    fn build_diagonal_impl(&self, cfg: &SimRankConfig) -> (DiagonalIndex, Vec<f64>, Option<u64>) {
        let n = self.graph.node_count();
        let params = WalkParams::new(cfg.t, cfg.r);
        let strategy = cfg.resolve_ai_strategy(n);
        let ranges = self.node_ranges(n);

        // Row generation (Store) — one task per node range.
        let stored: Option<RowsByRange> = match strategy {
            AiStrategy::Recompute => None,
            _ => {
                let graph = &self.graph;
                Some(self.cluster.run_stage("index/walks", ranges.clone(), |_, (lo, hi)| {
                    (lo..hi)
                        .map(|i| {
                            ai_row(&reverse_walk_distributions(graph, i, params, cfg.seed), cfg.c)
                        })
                        .collect::<Vec<_>>()
                }))
            }
        };
        let rows_bytes = stored
            .as_ref()
            .map(|parts| parts.iter().flatten().map(|r| 24 + 12 * r.len() as u64).sum());
        let stored = stored.map(Arc::new);

        // Jacobi sweeps: x lives on the driver, conceptually re-broadcast
        // each sweep (8n bytes — always under the budget by a wide margin).
        let mut x = vec![1.0 - cfg.c; n as usize];
        let mut residuals = Vec::with_capacity(cfg.l);
        for _ in 0..cfg.l {
            let x_ref = &x;
            let graph = &self.graph;
            let stored_ref = stored.as_ref();
            let new_parts: Vec<Vec<f64>> = self.cluster.run_stage(
                "index/jacobi",
                ranges.iter().copied().enumerate().collect(),
                |_, (part_idx, (lo, hi))| {
                    let mut out = Vec::with_capacity((hi - lo) as usize);
                    let mut row_buf: Vec<(u32, f64)> = Vec::new();
                    for i in lo..hi {
                        let row: &[(u32, f64)] = match stored_ref {
                            Some(parts) => &parts[part_idx][(i - lo) as usize],
                            None => {
                                row_buf.clear();
                                row_buf.extend(ai_row(
                                    &reverse_walk_distributions(graph, i, params, cfg.seed),
                                    cfg.c,
                                ));
                                &row_buf
                            }
                        };
                        let mut off = 0.0;
                        let mut diagv = 0.0;
                        for &(j, a) in row {
                            if j == i {
                                diagv = a;
                            } else {
                                off += a * x_ref[j as usize];
                            }
                        }
                        assert!(diagv != 0.0, "zero diagonal at row {i}");
                        out.push((1.0 - off) / diagv);
                    }
                    out
                },
            );
            x = new_parts.into_iter().flatten().collect();
            // Residual pass (matches the local engine's bookkeeping).
            let x_ref = &x;
            let graph = &self.graph;
            let stored_ref = stored.as_ref();
            let partial: Vec<f64> = self.cluster.run_stage(
                "index/residual",
                ranges.iter().copied().enumerate().collect(),
                |_, (part_idx, (lo, hi))| {
                    let mut worst = 0.0f64;
                    let mut row_buf: Vec<(u32, f64)> = Vec::new();
                    for i in lo..hi {
                        let row: &[(u32, f64)] = match stored_ref {
                            Some(parts) => &parts[part_idx][(i - lo) as usize],
                            None => {
                                row_buf.clear();
                                row_buf.extend(ai_row(
                                    &reverse_walk_distributions(graph, i, params, cfg.seed),
                                    cfg.c,
                                ));
                                &row_buf
                            }
                        };
                        let ax: f64 = row.iter().map(|&(j, a)| a * x_ref[j as usize]).sum();
                        worst = worst.max((ax - 1.0).abs());
                    }
                    worst
                },
            );
            residuals.push(partial.into_iter().fold(0.0, f64::max));
        }
        (DiagonalIndex::new(x), residuals, rows_bytes)
    }

    /// Simulates the query cohort for `source`, splitting the `R'` walkers
    /// across tasks. Identical counts to the local cohort because walker
    /// `w`'s trajectory depends only on `(seed, source, w, step)`.
    pub fn query_cohort(&self, cfg: &SimRankConfig, source: NodeId) -> StepDistributions {
        let seed = query_seed(cfg);
        let tasks = self.cluster.config().default_partitions() as u32;
        let chunk = cfg.r_query.div_ceil(tasks).max(1);
        let ranges: Vec<(u32, u32)> = (0..tasks)
            .map(|k| (k * chunk, ((k + 1) * chunk).min(cfg.r_query)))
            .filter(|&(lo, hi)| lo < hi)
            .collect();
        let graph: &CsrGraph = &self.graph;
        let t_steps = cfg.t;
        let partials: Vec<Vec<Vec<(u32, u64)>>> =
            self.cluster.run_stage("query/cohort", ranges, |_, (w_lo, w_hi)| {
                reverse_walk_histograms_on(graph, source, w_lo..w_hi, t_steps, seed)
            });
        // Merge per-step histograms across tasks.
        let mut counts = Vec::with_capacity(t_steps + 1);
        counts.push(vec![(source, cfg.r_query as u64)]);
        for t in 0..t_steps {
            let mut merged = CountMap::with_capacity(cfg.r_query as usize);
            for part in &partials {
                for &(node, c) in &part[t] {
                    merged.add(node, c);
                }
            }
            counts.push(merged.into_sorted_vec());
        }
        StepDistributions { source, walkers: cfg.r_query, counts }
    }

    /// MCSS in the Broadcasting model: cohort stage, then one stage of
    /// mass-carrying forward walks over all `(t, support-entry)` items.
    fn single_source_impl(&self, diag: &[f64], cfg: &SimRankConfig, i: NodeId) -> Vec<f64> {
        let dists = self.query_cohort(cfg, i);
        let n = self.graph.node_count() as usize;
        let mut out = vec![0.0f64; n];

        // t = 0 term handled on the driver (no propagation); later terms
        // become (t, cᵗ, node, mass, walkers) work items with the same
        // mass-proportional walker allocation as the local engine.
        let mut ct = 1.0;
        let mut items: Vec<ForwardItem> = Vec::new();
        for t in 0..=cfg.t {
            let y = weighted_support(&dists, t, diag);
            if t == 0 {
                for &(k, m) in &y {
                    out[k as usize] += ct * m;
                }
            } else {
                items.extend(
                    crate::queries::forward_allocation(&y, cfg.r_forward)
                        .into_iter()
                        .map(|(k, yk, nk)| (t, ct, k, yk, nk)),
                );
            }
            ct *= cfg.c;
        }
        let tasks = self.cluster.config().default_partitions();
        let chunk = items.len().div_ceil(tasks).max(1);
        let batches: Vec<Vec<ForwardItem>> = items.chunks(chunk).map(|c| c.to_vec()).collect();
        if batches.is_empty() {
            out[i as usize] = 1.0;
            return out;
        }
        let sampler = GraphSampler::new(&self.graph, &self.rci);
        let partials: Vec<Vec<(u32, f64)>> =
            self.cluster.run_stage("query/forward", batches, |_, batch| {
                let mut acc = MassMap::with_capacity(batch.len() * 4);
                // A batch is a slice of the (t, entry)-ordered item list:
                // walk each run of one term's items as one step-major batch.
                for run in batch.chunk_by(|a, b| a.0 == b.0) {
                    let (t, ct) = (run[0].0, run[0].1);
                    let seed = forward_seed(cfg, i, t);
                    let walkers = run.iter().flat_map(|&(_, _, k, yk, nk)| {
                        let per = yk / nk as f64;
                        (0..nk).map(move |w| (k, per, mix(&[seed, k as u64, w as u64, t as u64])))
                    });
                    forward_walks_on(&sampler, walkers, t, |node, mass| acc.add(node, ct * mass));
                }
                acc.into_sorted_vec()
            });
        for part in partials {
            for (node, mass) in part {
                out[node as usize] += mass;
            }
        }
        out[i as usize] = 1.0;
        out
    }
}

impl SimRankEngine for BroadcastEngine {
    fn name(&self) -> &'static str {
        "broadcast"
    }

    fn build_diagonal(&self, cfg: &SimRankConfig) -> Result<BuildOutcome, SimRankError> {
        let strategy = cfg.resolve_ai_strategy(self.graph.node_count());
        let (diag, residuals, rows_bytes) = self.build_diagonal_impl(cfg);
        Ok(BuildOutcome {
            diag,
            strategy,
            residuals,
            rows_bytes,
            cluster: Some(self.cluster.report()),
        })
    }

    fn query_cohort(
        &self,
        cfg: &SimRankConfig,
        source: NodeId,
    ) -> Result<StepDistributions, QueryError> {
        // Resolves to the inherent cluster-staged implementation.
        Ok(BroadcastEngine::query_cohort(self, cfg, source))
    }

    fn single_pair(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
        j: NodeId,
    ) -> Result<f64, QueryError> {
        if i == j {
            return Ok(1.0);
        }
        let di = BroadcastEngine::query_cohort(self, cfg, i);
        let dj = BroadcastEngine::query_cohort(self, cfg, j);
        Ok(score_pair(&di, &dj, diag, cfg.c))
    }

    fn single_source(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
    ) -> Result<Vec<f64>, QueryError> {
        Ok(self.single_source_impl(diag, cfg, i))
    }

    fn single_source_topk(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, QueryError> {
        let scores = self.single_source_impl(diag, cfg, i);
        Ok(topk_from_dense(&scores, i, k))
    }

    fn cluster_report(&self) -> Option<ClusterReport> {
        Some(self.cluster.report())
    }

    fn memory_footprint(&self) -> EngineFootprint {
        EngineFootprint {
            per_worker_bytes: self.graph.memory_bytes() + self.rci.memory_bytes(),
            partitioned: false,
        }
    }
}

impl std::fmt::Debug for BroadcastEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BroadcastEngine")
            .field("nodes", &self.graph.node_count())
            .field("cluster", &self.cluster.config())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::local;
    use pasco_cluster::ClusterError;
    use pasco_graph::generators;

    fn engine(g: &Arc<CsrGraph>, workers: usize) -> BroadcastEngine {
        let rci = Arc::new(ReverseChainIndex::build(g));
        BroadcastEngine::new(ClusterConfig::local(workers), Arc::clone(g), rci).unwrap()
    }

    #[test]
    fn broadcast_diagonal_matches_local_bitwise() {
        let g = Arc::new(generators::barabasi_albert(200, 3, 4));
        let cfg = SimRankConfig::fast().with_seed(77);
        let eng = engine(&g, 3);
        let out_b = eng.build_diagonal(&cfg).unwrap();
        let out_l = local::build_diagonal(&g, &cfg);
        assert_eq!(out_b.diag, out_l.diag);
        assert_eq!(out_b.residuals, out_l.residuals);
        assert!(out_b.rows_bytes.is_some());
        assert!(out_b.cluster.is_some());
    }

    #[test]
    fn broadcast_cohort_matches_local_cohort() {
        let g = Arc::new(generators::rmat(8, 1500, generators::RmatParams::default(), 6));
        let cfg = SimRankConfig::fast();
        let eng = engine(&g, 4);
        let b = eng.query_cohort(&cfg, 9);
        let l = crate::queries::query_cohort(&g, &cfg, 9);
        assert_eq!(b, l);
    }

    #[test]
    fn broadcast_queries_match_local() {
        let g = Arc::new(generators::barabasi_albert(120, 3, 2));
        let cfg = SimRankConfig::fast();
        let eng = engine(&g, 3);
        let out = local::build_diagonal(&g, &cfg);
        let diag = out.diag.as_slice();

        let sp_b = eng.single_pair(diag, &cfg, 4, 70).unwrap();
        let sp_l = crate::queries::single_pair(&g, diag, &cfg, 4, 70);
        assert_eq!(sp_b, sp_l, "MCSP must be bitwise identical");

        let rci = ReverseChainIndex::build(&g);
        let ss_b = eng.single_source(diag, &cfg, 4).unwrap();
        let ss_l = crate::queries::single_source(&g, &rci, diag, &cfg, 4);
        for (a, b) in ss_b.iter().zip(&ss_l) {
            assert!((a - b).abs() < 1e-12, "MCSS {a} vs {b}");
        }
    }

    #[test]
    fn broadcast_fails_beyond_memory_budget() {
        let g = Arc::new(generators::barabasi_albert(500, 4, 3));
        let rci = Arc::new(ReverseChainIndex::build(&g));
        let tiny = ClusterConfig::local(2).with_memory_per_worker(100);
        let err = BroadcastEngine::new(tiny, Arc::clone(&g), rci).unwrap_err();
        match err {
            SimRankError::Cluster(ClusterError::BroadcastExceedsMemory { needed, budget }) => {
                assert!(needed > budget);
            }
            other => panic!("expected broadcast memory error, got {other}"),
        }
    }

    #[test]
    fn stage_metrics_are_recorded() {
        let g = Arc::new(generators::barabasi_albert(100, 3, 8));
        let cfg = SimRankConfig::fast();
        let eng = engine(&g, 2);
        let _ = eng.build_diagonal(&cfg).unwrap();
        let report = eng.cluster().report();
        assert!(report.stages > cfg.l * 2, "stages: {}", report.stages);
        assert_eq!(report.shuffle_bytes, 0, "broadcast mode never shuffles");
    }
}
