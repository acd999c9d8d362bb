//! Microbenchmarks: the two walk kernels — reverse-walk cohorts (under
//! both offline indexing and every online query) and the MCSS forward
//! stage (under every single-source and top-k query).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pasco_graph::{generators, GraphSampler, ReverseChainIndex};
use pasco_mc::walks::{reverse_walk_distributions, WalkParams};
use pasco_simrank::queries::{query_cohort, sparse_masses_on};
use pasco_simrank::SimRankConfig;
use std::hint::black_box;

fn bench_cohorts(c: &mut Criterion) {
    let g = generators::barabasi_albert(10_000, 8, 42);
    let mut group = c.benchmark_group("walks/cohort");
    group.sample_size(20);
    for &walkers in &[100u32, 1_000, 10_000] {
        let params = WalkParams::new(10, walkers);
        group.throughput(Throughput::Elements(walkers as u64 * 10));
        group.bench_with_input(BenchmarkId::from_parameter(walkers), &params, |b, &params| {
            b.iter(|| black_box(reverse_walk_distributions(&g, 7, params, 1)));
        });
    }
    group.finish();
}

fn bench_all_nodes(c: &mut Criterion) {
    let g = generators::rmat(12, 32_768, generators::RmatParams::default(), 7);
    let mut group = c.benchmark_group("walks/index-phase");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.node_count() as u64 * 10 * 10));
    group.bench_function("4096-nodes-R10-T10", |b| {
        let params = WalkParams::new(10, 10);
        b.iter(|| {
            black_box(pasco_mc::parallel::map_all_nodes(&g, params, 3, |_, d| d.counts.len()))
        });
    });
    group.finish();
}

fn bench_forward_stage(c: &mut Criterion) {
    let g = generators::barabasi_albert(10_000, 8, 42);
    let rci = ReverseChainIndex::build(&g);
    let sampler = GraphSampler::new(&g, &rci);
    let diag = vec![0.5; g.node_count() as usize];
    let mut group = c.benchmark_group("walks/forward-stage");
    group.sample_size(10);
    for &walkers in &[1_000u32, 10_000] {
        let mut cfg = SimRankConfig::default_paper().with_r_query(walkers);
        cfg.r_forward = walkers;
        let dists = query_cohort(&g, &cfg, 7);
        // Σ_{t=1..T} t steps per walker of a term's ≈ r_forward walkers.
        group.throughput(Throughput::Elements(walkers as u64 * (cfg.t * (cfg.t + 1) / 2) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(walkers), &cfg, |b, cfg| {
            b.iter(|| black_box(sparse_masses_on(&sampler, &dists, &diag, cfg).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cohorts, bench_all_nodes, bench_forward_stage);
criterion_main!(benches);
