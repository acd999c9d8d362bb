//! Golden digests and single-walker oracles for the two walk kernels.
//!
//! The cross-engine suites compare engines that share one kernel, so they
//! cannot notice the kernel itself drifting. The golden table pins its
//! output: each row digests the reverse-walk cohorts, the sparse top-k
//! masses and the dense MCSS vectors of a fixed source set, and any change
//! to a trajectory, a count or the order of an f64 sum changes a digest.
//! The oracles rebuild the same answers one walker at a time from
//! `reverse_walk_path` and `forward_walk`.

use pasco::graph::{generators, CsrGraph, GraphBuilder, GraphSampler, NodeId, ReverseChainIndex};
use pasco::mc::forward::forward_walk;
use pasco::mc::rng::mix;
use pasco::mc::walks::{reverse_walk_distributions, reverse_walk_path, WalkParams};
use pasco::simrank::queries::{
    forward_allocation, forward_seed, query_seed, single_source_from_dists_on, sparse_masses_on,
    weighted_support,
};
use pasco::simrank::SimRankConfig;
use proptest::prelude::*;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The graphs of the golden table: rmat leaves many nodes without
/// in-links (walkers die) or out-links (forward mass drops).
fn golden_graph(name: &str) -> CsrGraph {
    match name {
        "rmat" => generators::rmat(10, 3_000, generators::RmatParams::default(), 17),
        "ba" => generators::barabasi_albert(2_000, 4, 5),
        "path" => generators::path(40),
        "cycle" => generators::cycle(40),
        _ => unreachable!("unknown golden graph {name}"),
    }
}

fn golden_sources(n: u32) -> [NodeId; 6] {
    [0, 1, 7 % n, n / 3, n / 2, n - 1]
}

/// A fixed, non-uniform diagonal (no index build in the loop).
fn golden_diag(n: u32) -> Vec<f64> {
    (0..n).map(|v| 0.4 + (v % 7) as f64 * 0.013).collect()
}

fn golden_cfg(walkers: u32, t: usize) -> SimRankConfig {
    let mut cfg = SimRankConfig::default_paper().with_seed(0x601d).with_t(t).with_r_query(walkers);
    cfg.r_forward = walkers;
    cfg
}

/// `[cohort, sparse masses, dense MCSS]` digests of one table row.
fn golden_row(g: &CsrGraph, walkers: u32, t: usize) -> [u64; 3] {
    let cfg = golden_cfg(walkers, t);
    let rci = ReverseChainIndex::build(g);
    let sampler = GraphSampler::new(g, &rci);
    let diag = golden_diag(g.node_count());
    let (mut cohort, mut sparse, mut dense) = (Digest::new(), Digest::new(), Digest::new());
    for s in golden_sources(g.node_count()) {
        let d = reverse_walk_distributions(g, s, WalkParams::new(t, walkers), query_seed(&cfg));
        for step in &d.counts {
            cohort.word(step.len() as u64);
            for &(v, c) in step {
                cohort.word(v as u64);
                cohort.word(c);
            }
        }
        for (v, m) in sparse_masses_on(&sampler, &d, &diag, &cfg).into_sorted_vec() {
            sparse.word(v as u64);
            sparse.word(m.to_bits());
        }
        let scores =
            single_source_from_dists_on(g.node_count() as usize, &sampler, &d, &diag, &cfg);
        for x in scores {
            dense.word(x.to_bits());
        }
    }
    [cohort.0, sparse.0, dense.0]
}

/// `(graph, walkers, T, [cohort, sparse, dense])`, recorded from the
/// walker-major kernels the step-major ones replaced.
const GOLDEN: &[(&str, u32, usize, [u64; 3])] = &[
    ("rmat", 1, 0, [0x6fd8b28c8a0026fd, 0xd572d3941923ccbb, 0x34b651d4f6caf765]),
    ("rmat", 1, 10, [0xf551526ff717be72, 0x067b793191835bf0, 0xaf93d3ea4ac857ee]),
    ("rmat", 100, 0, [0x50713d4872ec8e91, 0xd572d3941923ccbb, 0x34b651d4f6caf765]),
    ("rmat", 100, 10, [0x729ed225a0a1d159, 0xc9c2b7acbbce9da8, 0xa8f5fda1172e46ac]),
    ("rmat", 2000, 0, [0x1ee0fe83d76668ad, 0xd572d3941923ccbb, 0x34b651d4f6caf765]),
    ("rmat", 2000, 10, [0xc66b7f9ade550ed8, 0xfbab871d6055e0a4, 0x71378c070b9765f4]),
    ("ba", 1, 0, [0x4c42b3096068ae08, 0x8b669be0c5ed97c1, 0xa763b4005f9b3c45]),
    ("ba", 1, 10, [0x55dcaf5965a2f5c9, 0xb596ba6f855d8cbc, 0x36c0e691c62b14d1]),
    ("ba", 100, 0, [0xf95b4985e13834ec, 0x8b669be0c5ed97c1, 0xa763b4005f9b3c45]),
    ("ba", 100, 10, [0x32649c5c6e65aed8, 0xa4659eb055ef79c8, 0x73f61f9cd79f7f72]),
    ("ba", 2000, 0, [0x667949df03d9a654, 0x8b669be0c5ed97c1, 0xa763b4005f9b3c45]),
    ("ba", 2000, 10, [0x98e122327aba87ed, 0x7a2f5382f47ac18b, 0x367718cd20566a68]),
    ("path", 1, 0, [0x2a3a1b062b6d947d, 0x65b3b2cfdf5a8d26, 0x72ef00618aff60e5]),
    ("path", 1, 10, [0x50a5c76fd6c6552f, 0x9614ea283ffd12fd, 0x72ef00618aff60e5]),
    ("path", 100, 0, [0x109288e8b206e55d, 0x65b3b2cfdf5a8d26, 0x72ef00618aff60e5]),
    ("path", 100, 10, [0xd2b692216fad292f, 0x791a456c09e1af51, 0x72ef00618aff60e5]),
    ("path", 2000, 0, [0x03f3f2cf4fa70c61, 0x65b3b2cfdf5a8d26, 0x72ef00618aff60e5]),
    ("path", 2000, 10, [0xae04ecce2db1e1db, 0xbdb921a46432c133, 0x72ef00618aff60e5]),
    ("cycle", 1, 0, [0x2a3a1b062b6d947d, 0x65b3b2cfdf5a8d26, 0x72ef00618aff60e5]),
    ("cycle", 1, 10, [0xbb634ec550a23055, 0x98cd04b7363ec17d, 0x72ef00618aff60e5]),
    ("cycle", 100, 0, [0x109288e8b206e55d, 0x65b3b2cfdf5a8d26, 0x72ef00618aff60e5]),
    ("cycle", 100, 10, [0x4fd942ad1c2814f5, 0xd090115d15bc5cbc, 0x72ef00618aff60e5]),
    ("cycle", 2000, 0, [0x03f3f2cf4fa70c61, 0x65b3b2cfdf5a8d26, 0x72ef00618aff60e5]),
    ("cycle", 2000, 10, [0x9a27b66f1515b77d, 0xc900922d279a8ff0, 0x72ef00618aff60e5]),
];

#[test]
fn kernels_reproduce_the_golden_digests() {
    let mut got = Vec::new();
    for name in ["rmat", "ba", "path", "cycle"] {
        let g = golden_graph(name);
        for walkers in [1u32, 100, 2_000] {
            for t in [0usize, 10] {
                got.push((name, walkers, t, golden_row(&g, walkers, t)));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(n, w, t, d)| {
            format!("    (\"{n}\", {w}, {t}, [{:#018x}, {:#018x}, {:#018x}]),\n", d[0], d[1], d[2])
        })
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for (row, want) in got.iter().zip(GOLDEN) {
        assert_eq!(row, want, "golden table:\n{table}");
    }
}

/// Arbitrary graphs over 30 nodes, dangling nodes included.
fn small_graph(edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.ensure_nodes(30);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..30, 0u32..30), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cohort's step-`t` histogram counts the step-`t` positions of its
    /// walkers' single-walker paths, and carries no spare capacity.
    #[test]
    fn cohort_is_the_sum_of_its_walker_paths(
        edges in edges_strategy(),
        source in 0u32..30,
        walkers in 1u32..60,
        steps in 0usize..9,
        seed in any::<u64>(),
    ) {
        let g = small_graph(&edges);
        let d = reverse_walk_distributions(&g, source, WalkParams::new(steps, walkers), seed);
        let mut want = vec![std::collections::BTreeMap::<NodeId, u64>::new(); steps + 1];
        want[0].insert(source, walkers as u64);
        for w in 0..walkers {
            for (t, v) in reverse_walk_path(&g, source, w, steps, seed).into_iter().enumerate() {
                *want[t + 1].entry(v).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(d.counts.len(), steps + 1);
        for (got, want) in d.counts.iter().zip(&want) {
            let want: Vec<(NodeId, u64)> = want.iter().map(|(&v, &c)| (v, c)).collect();
            prop_assert_eq!(got, &want);
            prop_assert_eq!(got.capacity(), got.len());
        }
    }

    /// The forward stage accumulates exactly what a walker-major loop of
    /// `forward_walk` over `forward_allocation` does, f64 sums in the same
    /// order: the sparse masses and the dense MCSS vector agree bit for bit.
    #[test]
    fn forward_stage_matches_walker_major_accumulation(
        edges in edges_strategy(),
        source in 0u32..30,
        r_query in 1u32..80,
        r_forward in 1u32..80,
        steps in 0usize..8,
        seed in any::<u64>(),
    ) {
        let g = small_graph(&edges);
        let rci = ReverseChainIndex::build(&g);
        let diag = golden_diag(30);
        let mut cfg = SimRankConfig::default_paper()
            .with_seed(seed)
            .with_t(steps)
            .with_r_query(r_query);
        cfg.r_forward = r_forward;
        let d = reverse_walk_distributions(&g, source, WalkParams::new(steps, r_query), seed);

        let mut sparse = std::collections::BTreeMap::<NodeId, f64>::new();
        let mut dense = vec![0.0f64; 30];
        let mut add = |v: NodeId, x: f64| {
            sparse.entry(v).and_modify(|m| *m += x).or_insert(x);
            dense[v as usize] += x;
        };
        let mut ct = 1.0;
        for t in 0..=steps {
            let y = weighted_support(&d, t, &diag);
            if t == 0 {
                for &(k, m) in &y {
                    add(k, ct * m);
                }
            } else {
                let fseed = forward_seed(&cfg, source, t);
                for (k, yk, nk) in forward_allocation(&y, cfg.r_forward) {
                    let per = yk / nk as f64;
                    for w in 0..nk {
                        let key = mix(&[fseed, k as u64, w as u64, t as u64]);
                        if let Some((v, m)) = forward_walk(&g, &rci, k, per, t, key) {
                            add(v, ct * m);
                        }
                    }
                }
            }
            ct *= cfg.c;
        }
        dense[source as usize] = 1.0;

        let sampler = GraphSampler::new(&g, &rci);
        let got: Vec<(NodeId, u64)> = sparse_masses_on(&sampler, &d, &diag, &cfg)
            .into_sorted_vec()
            .into_iter()
            .map(|(v, m)| (v, m.to_bits()))
            .collect();
        let want: Vec<(NodeId, u64)> = sparse.iter().map(|(&v, m)| (v, m.to_bits())).collect();
        prop_assert_eq!(got, want);
        let got: Vec<u64> = single_source_from_dists_on(30, &sampler, &d, &diag, &cfg)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        let want: Vec<u64> = dense.into_iter().map(f64::to_bits).collect();
        prop_assert_eq!(got, want);
    }
}
