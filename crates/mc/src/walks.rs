//! Reverse random walks along in-links — the SimRank chain.
//!
//! A walker at node `v` steps to a uniformly random in-neighbour; if `v` has
//! no in-neighbours the walker **dies** (the empirical distribution loses
//! mass, matching the sub-stochastic truncated series `Pᵗeᵢ`).
//!
//! Randomness is *stateless per step*: the uniform used by walker `w` from
//! source `s` at step `t` is a pure function of `(master_seed, s, w, t)`
//! (see [`step_u64`]). Walks therefore take identical trajectories whether
//! they are simulated locally, on a broadcast worker pool, or shuffled
//! across RDD partitions step by step — the property the cross-mode equality
//! tests rely on.
//!
//! The cohort kernel ([`reverse_walk_histograms_on`]) is *step-major*: it
//! keeps the live walkers' positions and keys in one array, advances every
//! live walker once per step, and compacts dead walkers out in place. A
//! walker-at-a-time loop chases `T` dependent cache misses per walker; here
//! the loads of different walkers are independent, so their misses overlap.
//! Each step's histogram is the sorted positions, run-length counted into a
//! `Vec` of exactly its distinct length. Counts are integer sums, so the
//! order walkers are visited in cannot change a bit: the cohort equals the
//! sum of its walkers' [`reverse_walk_path`]s.

use crate::rng::{mix, SplitMix64};
use pasco_graph::{CsrGraph, NodeId, WalkAdjacency};
use std::ops::Range;

/// Walk-cohort parameters: `steps` is the paper's `T`, `walkers` its `R`
/// (indexing) or `R'` (queries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkParams {
    /// Number of steps `T` each walker takes.
    pub steps: usize,
    /// Cohort size (`R` / `R'`).
    pub walkers: u32,
}

impl WalkParams {
    /// Convenience constructor.
    pub fn new(steps: usize, walkers: u32) -> Self {
        assert!(walkers > 0, "need at least one walker");
        Self { steps, walkers }
    }
}

/// The per-walker RNG key; combine with a step index via [`step_u64`].
#[inline]
pub fn walker_key(seed: u64, source: NodeId, walker: u32) -> u64 {
    mix(&[seed, source as u64, walker as u64])
}

/// The 64 uniform bits consumed by one walk step — a pure function of the
/// walker key and step index, independent of where the step executes.
#[inline]
pub fn step_u64(walker_key: u64, t: u32) -> u64 {
    SplitMix64::new(walker_key ^ (t as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Picks index `< len` from 64 uniform bits (Lemire multiply-shift).
#[inline]
pub fn pick(u: u64, len: usize) -> usize {
    (((u >> 32) * len as u64) >> 32) as usize
}

/// One reverse-walk step from `pos`; `None` when `pos` is dangling.
#[inline]
pub fn reverse_step(graph: &CsrGraph, pos: NodeId, key: u64, t: u32) -> Option<NodeId> {
    let ins = graph.in_neighbors(pos);
    if ins.is_empty() {
        None
    } else {
        Some(ins[pick(step_u64(key, t), ins.len())])
    }
}

/// Empirical per-step distributions of a walker cohort from one source:
/// `counts[t]` is the visit histogram at step `t` (sorted by node id),
/// normalising by `walkers` estimates `Pᵗ e_source`.
#[derive(Clone, Debug, PartialEq)]
pub struct StepDistributions {
    /// The source node all walkers started from.
    pub source: NodeId,
    /// Cohort size used for normalisation.
    pub walkers: u32,
    /// `counts[t]` for `t = 0..=steps`; `counts[0] = [(source, walkers)]`.
    pub counts: Vec<Vec<(NodeId, u64)>>,
}

impl StepDistributions {
    /// Number of steps simulated (`T`).
    pub fn steps(&self) -> usize {
        self.counts.len() - 1
    }

    /// The estimated probability `P̂ᵗe_s(v) = count / walkers` at step `t`.
    pub fn prob(&self, t: usize, v: NodeId) -> f64 {
        match self.counts[t].binary_search_by_key(&v, |&(k, _)| k) {
            Ok(i) => self.counts[t][i].1 as f64 / self.walkers as f64,
            Err(_) => 0.0,
        }
    }

    /// Surviving mass at step `t` (≤ 1; < 1 once walkers hit dangling nodes).
    pub fn mass(&self, t: usize) -> f64 {
        let total: u64 = self.counts[t].iter().map(|&(_, c)| c).sum();
        total as f64 / self.walkers as f64
    }
}

/// Simulates the full cohort from `source` and records every step's
/// distribution. This is the building block of offline indexing (`R`
/// walkers per node) and of MCSP/MCSS (`R'` walkers per query node).
pub fn reverse_walk_distributions(
    graph: &CsrGraph,
    source: NodeId,
    params: WalkParams,
    seed: u64,
) -> StepDistributions {
    reverse_walk_distributions_on(graph, source, params, seed)
}

/// [`reverse_walk_distributions`] generic over the adjacency source —
/// the one kernel behind the resident-graph engines *and* the sharded
/// engine's routed [`pasco_graph::partitioned::PartitionedView`], so
/// cross-engine bit-equality is structural, not merely test-enforced.
pub fn reverse_walk_distributions_on<G: WalkAdjacency>(
    graph: &G,
    source: NodeId,
    params: WalkParams,
    seed: u64,
) -> StepDistributions {
    let mut counts = Vec::with_capacity(params.steps + 1);
    counts.push(vec![(source, params.walkers as u64)]);
    counts.extend(reverse_walk_histograms_on(graph, source, 0..params.walkers, params.steps, seed));
    StepDistributions { source, walkers: params.walkers, counts }
}

/// The step-major cohort kernel over the walker range `walkers` of
/// `source`'s cohort: the visit histograms after steps `1..=steps`, each
/// sorted by node id in a `Vec` of exactly its distinct length.
///
/// Every live walker advances once per step before any walker takes the
/// next, so the in-neighbour loads of different walkers are independent
/// and their cache misses overlap; dead walkers are compacted out in
/// place. Each step's histogram run-length counts the sorted positions.
/// Counts are integer sums and walker `w`'s trajectory depends only on
/// `(seed, source, w, step)`, so the result equals the walker-at-a-time
/// sum of [`reverse_walk_path`] bit for bit — and a cohort split into
/// walker ranges merges back to the whole cohort by adding counts.
pub fn reverse_walk_histograms_on<G: WalkAdjacency>(
    graph: &G,
    source: NodeId,
    walkers: Range<u32>,
    steps: usize,
    seed: u64,
) -> Vec<Vec<(NodeId, u64)>> {
    assert!(source < graph.node_count(), "source out of range");
    let mut live: Vec<(NodeId, u64)> =
        walkers.map(|w| (source, walker_key(seed, source, w))).collect();
    let mut sorted: Vec<NodeId> = Vec::with_capacity(live.len());
    let mut hists = Vec::with_capacity(steps);
    for t in 1..=steps as u32 {
        live.retain_mut(|(pos, key)| {
            let ins = graph.in_neighbors(*pos);
            if ins.is_empty() {
                return false;
            }
            *pos = ins[pick(step_u64(*key, t), ins.len())];
            true
        });
        sorted.clear();
        sorted.extend(live.iter().map(|&(pos, _)| pos));
        sorted.sort_unstable();
        hists.push(run_lengths(&sorted));
    }
    hists
}

/// `(node, run length)` per run of equal ids in `sorted`, allocated at
/// exactly the number of runs.
fn run_lengths(sorted: &[NodeId]) -> Vec<(NodeId, u64)> {
    let runs = sorted.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!sorted.is_empty());
    let mut hist = Vec::with_capacity(runs);
    hist.extend(sorted.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u64)));
    hist
}

/// The full trajectory of a single walker (positions after steps `1..=steps`;
/// shorter if the walker dies). Used by tests and by the FMT baseline's
/// fingerprint construction.
pub fn reverse_walk_path(
    graph: &CsrGraph,
    source: NodeId,
    walker: u32,
    steps: usize,
    seed: u64,
) -> Vec<NodeId> {
    let key = walker_key(seed, source, walker);
    let mut path = Vec::with_capacity(steps);
    let mut pos = source;
    for t in 1..=steps {
        match reverse_step(graph, pos, key, t as u32) {
            Some(next) => {
                pos = next;
                path.push(pos);
            }
            None => break,
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;

    #[test]
    fn cycle_walks_are_deterministic_shifts() {
        // On a directed cycle every node has exactly one in-neighbour, so
        // the reverse walk is deterministic: position after t steps from s
        // is (s - t) mod n.
        let g = generators::cycle(7);
        let d = reverse_walk_distributions(&g, 3, WalkParams::new(5, 10), 42);
        for t in 0..=5 {
            let expected = ((3 + 7 - (t as u32 % 7)) % 7) as NodeId;
            assert_eq!(d.counts[t], vec![(expected, 10)], "step {t}");
            assert!((d.mass(t) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn walkers_die_on_dangling_nodes() {
        // Path 0 -> 1 -> 2: reverse walk from 2 reaches 0 at t=2 and dies
        // at t=3 (node 0 has no in-neighbours).
        let g = generators::path(3);
        let d = reverse_walk_distributions(&g, 2, WalkParams::new(4, 8), 1);
        assert_eq!(d.counts[1], vec![(1, 8)]);
        assert_eq!(d.counts[2], vec![(0, 8)]);
        assert!(d.counts[3].is_empty());
        assert!(d.counts[4].is_empty());
        assert_eq!(d.mass(3), 0.0);
    }

    #[test]
    fn distributions_are_seed_deterministic() {
        let g = generators::barabasi_albert(200, 3, 9);
        let a = reverse_walk_distributions(&g, 17, WalkParams::new(6, 50), 5);
        let b = reverse_walk_distributions(&g, 17, WalkParams::new(6, 50), 5);
        assert_eq!(a, b);
        let c = reverse_walk_distributions(&g, 17, WalkParams::new(6, 50), 6);
        assert_ne!(a, c);
    }

    #[test]
    fn step_uniform_is_stateless() {
        let key = walker_key(3, 14, 2);
        assert_eq!(step_u64(key, 5), step_u64(key, 5));
        assert_ne!(step_u64(key, 5), step_u64(key, 6));
    }

    #[test]
    fn path_matches_distributions_for_single_walker() {
        let g = generators::barabasi_albert(100, 3, 4);
        let params = WalkParams::new(8, 1);
        let d = reverse_walk_distributions(&g, 30, params, 11);
        let p = reverse_walk_path(&g, 30, 0, 8, 11);
        for (t, &node) in p.iter().enumerate() {
            assert_eq!(d.counts[t + 1], vec![(node, 1)]);
        }
    }

    #[test]
    fn complete_graph_distribution_approaches_uniform() {
        // On K_n the reverse-walk distribution after any t >= 1 step is
        // uniform over the other n-1 nodes... in expectation. With many
        // walkers the empirical distribution should be close.
        let g = generators::complete(10);
        let d = reverse_walk_distributions(&g, 0, WalkParams::new(3, 20_000), 7);
        for &(node, c) in &d.counts[1] {
            assert_ne!(node, 0, "step away from source on K_n");
            let p = c as f64 / 20_000.0;
            assert!((p - 1.0 / 9.0).abs() < 0.01, "node {node}: {p}");
        }
    }

    #[test]
    fn prob_lookup_matches_counts() {
        let g = generators::complete(5);
        let d = reverse_walk_distributions(&g, 2, WalkParams::new(2, 100), 3);
        let total: f64 = (0..5).map(|v| d.prob(1, v)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(d.prob(0, 2), 1.0);
        assert_eq!(d.prob(0, 3), 0.0);
    }
}
