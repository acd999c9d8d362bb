//! The traced run: each workload's request sequence replayed in process,
//! every call into a layer's public function wrapped in a span, plus the
//! counters the layers expose. The benchmark is code outside the
//! program, so a layer is measured by timing calls into it.
//!
//! A replay calls the layers the way the engine does, so every replay
//! checks its answers against the engine's bit for bit and the run
//! refuses to report (exit 3) when they differ: a change to the engine's
//! kernels or its parallel split then shows instead of being timed on a
//! stale copy. Each replay runs twice, once [`Untraced`] and once with
//! spans; `trace.overhead_frac` compares the two.

use crate::inputs::{self, Input, InputDir};
use crate::load::{Mix, Tally};
use crate::report::RunReport;
use crate::serve::{Stack, SESSION_CAPACITY};
use crate::stats::{mean, Rng};
use crate::trace::{Spans, Tracer, Untraced, ROOT};
use crate::workloads::{Args, Pass};
use pasco_graph::{io, CsrGraph, ForwardSampler, ReverseChainIndex, WalkAdjacency};
use pasco_mc::walks::{reverse_walk_distributions_on, StepDistributions, WalkParams};
use pasco_simrank::ai::{ai_row, StoredRows};
use pasco_simrank::queries::{
    forward_allocation, query_seed, score_pair, sparse_masses_on, weighted_support,
};
use pasco_simrank::{
    CloudWalker, Envelope, QueryRequest, QueryResponse, QueryService, QuerySession, SimRankConfig,
};
use pasco_solver::jacobi::{self, JacobiConfig};
use pasco_store::MappedStore;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics every workload's traced run reports (the
/// `per_layer` list of `BENCHMARK.json`); the full ledger is printed too.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("walks.ns_per_step", "ns"),
    ("walks.entries_per_cohort", "count"),
    ("walks.size_ratio", "ratio"),
    ("score.ns_per_entry", "ns"),
    ("session.hit_ratio", "fraction"),
    ("session.evictions_per_req", "count"),
    ("session.cached_mb", "MB"),
    ("session.lookup_us", "us"),
    ("server.frontdoor_us", "us"),
    ("server.wakeups_per_req", "count"),
    ("server.reads_per_req", "count"),
    ("wire.req_bytes", "B"),
    ("wire.resp_bytes", "B"),
    ("wire.codec_us", "us"),
    ("trace.overhead_frac", "fraction"),
    ("trace.covered_frac", "fraction"),
];

/// Requests replayed in process (each costs milliseconds).
const REPLAY: usize = 96;
/// Cohorts walked for the n-independence reference.
const REF_WALKS: usize = 64;
/// Threads of the build replay (the machine's two cores).
const BUILD_THREADS: u32 = 2;

/// The first `n` requests of load thread 0's stream.
fn replay_requests(args: &Args, n: usize, mix: &Mix) -> Vec<QueryRequest> {
    let mut rng = Rng::new(args.seed, 0);
    (0..n as u64).map(|q| mix.next(&mut rng, q)).collect()
}

/// The seed a replay walks with: the engine's, or a wrong one when the
/// replay check is deliberately broken.
fn replay_seed(args: &Args, seed: u64) -> u64 {
    seed ^ u64::from(args.break_check.as_deref() == Some("replay"))
}

/// One query cohort, as the engines simulate it with `seed`.
fn walk(adj: &impl WalkAdjacency, v: u32, cfg: &SimRankConfig, seed: u64) -> StepDistributions {
    reverse_walk_distributions_on(adj, v, WalkParams::new(cfg.t, cfg.r_query), seed)
}

/// Walker-steps actually taken (walkers that died stop counting).
fn steps_of(d: &StepDistributions) -> u64 {
    d.counts[1..].iter().flatten().map(|&(_, c)| c).sum()
}

fn entries_of(d: &StepDistributions) -> usize {
    d.counts.iter().map(Vec::len).sum()
}

/// The ranking tail of a top-k answer as the engine applies it to the
/// forward masses: clamp into [0, 1], drop the source and unreached
/// nodes, order by descending score then node id, keep `k`.
fn rank(masses: impl Iterator<Item = (u32, f64)>, source: u32, k: usize) -> Vec<(u32, f64)> {
    let mut out: Vec<(u32, f64)> = masses
        .map(|(v, s)| (v, s.clamp(0.0, 1.0)))
        .filter(|&(v, s)| v != source && s > 0.0)
        .collect();
    out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(k);
    out
}

fn same_ranking(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
}

/// Executes `req` on `svc`; its microseconds and the answer.
fn execute_one(svc: &dyn QueryService, req: &QueryRequest) -> Result<(f64, QueryResponse), String> {
    let t0 = Instant::now();
    let resp = svc.execute(req.clone()).map_err(|e| format!("replay: {e}"))?;
    Ok((t0.elapsed().as_secs_f64() * 1e6, resp))
}

fn mean_where(values: &[f64], reqs: &[QueryRequest], pair: bool) -> f64 {
    let v: Vec<f64> = values
        .iter()
        .zip(reqs)
        .filter(|(_, r)| matches!(r, QueryRequest::SinglePair { .. }) == pair)
        .map(|(v, _)| *v)
        .collect();
    mean(&v)
}

fn rtt_mean(tally: &Tally, pair: Option<bool>) -> f64 {
    mean(&tally.sorted(pair))
}

/// Envelope encode + decode of every request and its answer, µs each.
fn codec_us(reqs: &[QueryRequest], resps: &[QueryResponse]) -> Result<f64, String> {
    let max = u32::MAX;
    let t = Instant::now();
    for (k, (req, resp)) in reqs.iter().zip(resps).enumerate() {
        let sent: Envelope = Envelope::request(k as u64, req);
        let answer: Envelope = Envelope::response(k as u64, resp);
        let a = Envelope::from_bytes(&sent.to_bytes(), max);
        a.and_then(|e| e.decode_request()).map_err(|e| e.to_string())?;
        let b = Envelope::from_bytes(&answer.to_bytes(), max);
        b.and_then(|e| e.decode_response()).map_err(|e| e.to_string())?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / reqs.len().max(1) as f64)
}

/// Front-door, session and wire counters of a client pass.
fn client_side(r: &mut RunReport, pass: &Pass, exec_sp_us: f64, exec_topk_us: f64) {
    let n = pass.tally.completed().max(1) as f64;
    let rtt_sp = rtt_mean(&pass.tally, Some(true));
    r.layer("server.frontdoor_us", rtt_sp - exec_sp_us, "us");
    r.layer("server.frontdoor_us.topk", rtt_mean(&pass.tally, Some(false)) - exec_topk_us, "us");
    r.layer("server.wakeups_per_req", pass.wakeups as f64 / pass.requests.max(1) as f64, "count");
    r.layer("server.reads_per_req", pass.reads as f64 / pass.requests.max(1) as f64, "count");
    r.layer("wire.req_bytes", pass.tally.req_bytes as f64 / n, "B");
    r.layer("wire.resp_bytes", pass.tally.resp_bytes as f64 / n, "B");
    r.layer("session.evictions_per_req", pass.evictions as f64 / n, "count");
    r.layer("session.cached_mb", pass.cached_bytes as f64 / 1e6, "MB");
}

/// Mean µs of a cache-hit `try_cohort` for nodes already resident.
fn lookup_us(session: &QuerySession, nodes: &[u32]) -> Result<f64, String> {
    let t = Instant::now();
    for &v in nodes {
        session.try_cohort(v).map_err(|e| e.to_string())?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / nodes.len().max(1) as f64)
}

/// ns per walker-step of `REF_WALKS` cohorts on the BA 16k graph: the
/// denominator of `walks.size_ratio` (the paper's n-independence claim).
fn reference_ns_per_step(args: &Args) -> Result<f64, String> {
    let inp = inputs::ensure_input(Input::Ba16k)?;
    let g = io::read_binary(inp.graph_file()).map_err(|e| e.to_string())?;
    let linked = inputs::linked_nodes(&g);
    let mut rng = Rng::new(args.seed, 0x5e);
    let cfg = inputs::bench_config();
    let (mut ns, mut steps) = (0u128, 0u64);
    for _ in 0..REF_WALKS {
        let v = linked[rng.below(linked.len())];
        let t = Instant::now();
        let d = walk(&g, v, &cfg, query_seed(&cfg));
        ns += t.elapsed().as_nanos();
        steps += steps_of(&d);
    }
    Ok(ns as f64 / steps.max(1) as f64)
}

/// What one run of the miss-path replay measured (span sums are 0 when
/// it ran untraced).
#[derive(Default)]
struct MissReplay {
    wall_s: f64,
    walk_ns: u64,
    steps: u64,
    cohorts: usize,
    entries: usize,
    score_ns: u64,
    score_entries: usize,
    fwd_ns: u64,
    fwd_walkers: u64,
    reached: usize,
    /// Per top-k request: its index and its walk + forward span ns.
    topk_ns: Vec<(usize, u64)>,
    /// Answers that differ from the engine's.
    mismatches: usize,
}

/// The fixed inputs of a miss-path replay: the adjacency the layers are
/// called on (the walker's mapped store), and the engine's config, walk
/// seed and diagonal.
struct MissPath<'a, A> {
    adj: &'a A,
    cfg: &'a SimRankConfig,
    seed: u64,
    diag: &'a [f64],
}

impl<A: WalkAdjacency + ForwardSampler> MissPath<'_, A> {
    /// Replays request `k` by calling the layers directly: cohorts,
    /// `score_pair` for a single pair, `sparse_masses_on` and the ranking
    /// tail for top-k. The answer is compared with `want`, the engine's
    /// answer to the same request, and everything measured is added to
    /// `m`.
    fn replay<S: Spans>(
        &self,
        spans: &S,
        k: usize,
        req: &QueryRequest,
        want: &QueryResponse,
        m: &mut MissReplay,
    ) -> Result<(), String> {
        let MissPath { adj, cfg, seed, diag } = *self;
        let t = Instant::now();
        let id = k as u64;
        let root = spans.open_span("request", id, ROOT);
        let cohort = |v: u32, m: &mut MissReplay| {
            let (d, ns) = spans.in_span("mc::walks", id, root, || walk(adj, v, cfg, seed));
            m.walk_ns += ns;
            m.steps += steps_of(&d);
            m.entries += entries_of(&d);
            m.cohorts += 1;
            (d, ns)
        };
        let same = match req {
            QueryRequest::SinglePair { i, j } => {
                let (di, _) = cohort(*i, m);
                let (dj, _) = cohort(*j, m);
                let (s, ns) = spans
                    .in_span("queries::score_pair", id, root, || score_pair(&di, &dj, diag, cfg.c));
                m.score_ns += ns;
                m.score_entries += entries_of(&di) + entries_of(&dj);
                matches!(want, QueryResponse::Score(v) if v.to_bits() == s.clamp(0.0, 1.0).to_bits())
            }
            QueryRequest::SingleSourceTopK { i, k: top } => {
                let (d, walk_ns) = cohort(*i, m);
                let (masses, ns) =
                    spans.in_span("mc::forward", id, root, || sparse_masses_on(adj, &d, diag, cfg));
                m.fwd_ns += ns;
                m.reached += masses.len();
                m.fwd_walkers += (1..=cfg.t)
                    .flat_map(|t| forward_allocation(&weighted_support(&d, t, diag), cfg.r_forward))
                    .map(|(_, _, n)| u64::from(n))
                    .sum::<u64>();
                m.topk_ns.push((k, walk_ns + ns));
                let ranked = rank(masses.iter(), *i, usize::try_from(*top).unwrap_or(usize::MAX));
                matches!(want, QueryResponse::Ranked(list) if same_ranking(&ranked, list))
            }
            other => return Err(format!("no miss-path replay for {other:?}")),
        };
        m.mismatches += usize::from(!same);
        spans.close_span(root);
        m.wall_s += t.elapsed().as_secs_f64();
        Ok(())
    }
}

/// Refuses a run whose replay no longer computes what the engine serves.
fn replay_check(mismatches: usize, what: &str) -> Result<(), String> {
    if mismatches == 0 {
        Ok(())
    } else {
        Err(format!(
            "self-check failed: {mismatches} {what} replay result(s) differ from the engine's, \
             so the per-layer figures would time a stale copy of its path"
        ))
    }
}

/// Attribution of the miss-path replay.
struct MissTrace {
    /// Walk + forward span time over the engine's execute time of the
    /// same requests.
    covered: f64,
    /// The traced replay's wall time over the untraced one's, less 1.
    overhead: f64,
    /// Mean execute µs on the stack's walker, and on `local`.
    exec_us: f64,
    local_us: f64,
}

/// Executes the miss-path sequence through a fresh session on the
/// stack's walker (and on `local`, an in-process walker over the same
/// store, when the stack's walks run elsewhere), and replays each
/// request right after on the walker's mapped store, untraced and
/// traced. Running the three side by side per request keeps a drift in
/// the machine's speed out of their ratios; the two replays alternate
/// which goes first, so neither always finds the caches warmer.
fn trace_serving(
    args: &Args,
    r: &mut RunReport,
    tracer: &Tracer,
    stack: &Stack,
    pass: &Pass,
    mix: &Mix,
    local: Option<Arc<CloudWalker>>,
) -> Result<MissTrace, String> {
    let walker: &Arc<CloudWalker> = stack.cloud_walker();
    let store: &Arc<MappedStore> = walker.store().ok_or("walker is not store-backed")?;
    let cfg = *walker.config();
    let diag = walker.diagonal().as_slice();
    let seed = replay_seed(args, query_seed(&cfg));
    let reqs = replay_requests(args, REPLAY, mix);
    let fresh = QuerySession::new(Arc::clone(walker), SESSION_CAPACITY);
    let local = local.map(|w| QuerySession::new(w, SESSION_CAPACITY));
    let (mut exec, mut local_exec, mut resps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain, mut m) = (MissReplay::default(), MissReplay::default());
    let path = MissPath { adj: &**store, cfg: &cfg, seed, diag };
    for (k, req) in reqs.iter().enumerate() {
        let (us, resp) = execute_one(&fresh, req)?;
        exec.push(us);
        if let Some(session) = &local {
            local_exec.push(execute_one(session, req)?.0);
        }
        if k % 2 == 0 {
            path.replay(&Untraced, k, req, &resp, &mut plain)?;
            path.replay(tracer, k, req, &resp, &mut m)?;
        } else {
            path.replay(tracer, k, req, &resp, &mut m)?;
            path.replay(&Untraced, k, req, &resp, &mut plain)?;
        }
        resps.push(resp);
    }
    replay_check(plain.mismatches.max(m.mismatches), "query")?;
    let pairs: Vec<u32> = reqs
        .iter()
        .filter_map(|q| match q {
            QueryRequest::SinglePair { i, .. } => Some(*i),
            _ => None,
        })
        .rev()
        .take(32)
        .collect();
    r.layer("session.lookup_us", lookup_us(&fresh, &pairs)?, "us");
    let ns_per_step = m.walk_ns as f64 / m.steps.max(1) as f64;
    let topks = m.topk_ns.len().max(1) as f64;
    let rank_us: f64 = m.topk_ns.iter().map(|&(k, ns)| exec[k] - ns as f64 / 1e3).sum();
    r.layer("walks.ns_per_step", ns_per_step, "ns");
    r.layer("walks.entries_per_cohort", m.entries as f64 / m.cohorts.max(1) as f64, "count");
    r.layer("walks.size_ratio", ns_per_step / reference_ns_per_step(args)?, "ratio");
    r.layer("score.ns_per_entry", m.score_ns as f64 / m.score_entries.max(1) as f64, "ns");
    r.layer("forward.walkers_per_query", m.fwd_walkers as f64 / topks, "count");
    r.layer("forward.ns_per_walker", m.fwd_ns as f64 / m.fwd_walkers.max(1) as f64, "ns");
    r.layer("forward.reached_nodes", m.reached as f64 / topks, "count");
    r.layer("rank.us", rank_us / topks, "us");
    r.layer("wire.codec_us", codec_us(&reqs, &resps)?, "us");
    client_side(r, pass, mean_where(&exec, &reqs, true), mean_where(&exec, &reqs, false));
    let (mapped_bytes, edges) = (store.mapped_bytes(), store.edge_count());
    r.layer("store.mapped_mb", mapped_bytes as f64 / 1e6, "MB");
    r.layer("store.bytes_per_edge", mapped_bytes as f64 / edges.max(1) as f64, "B");
    let t = Instant::now();
    store.verify().map_err(|e| format!("store verify: {e}"))?;
    r.layer("store.verify_s", t.elapsed().as_secs_f64(), "s");
    let exec_total_ns = exec.iter().sum::<f64>() * 1e3;
    Ok(MissTrace {
        covered: (m.walk_ns + m.fwd_ns) as f64 / exec_total_ns,
        overhead: m.wall_s / plain.wall_s - 1.0,
        exec_us: mean(&exec),
        local_us: if local_exec.is_empty() { mean(&exec) } else { mean(&local_exec) },
    })
}

/// `cold` / `dist`: the miss-path replay, plus (on `dist`) the link cost
/// against a local mapped walker and the fleet's counters.
pub fn trace_mapped(
    args: &Args,
    r: &mut RunReport,
    stack: &Stack,
    pass: &Pass,
    mix: &Mix,
    inp: &InputDir,
    dist: bool,
) -> Result<Tracer, String> {
    let tracer = Tracer::new();
    let local = if dist {
        let w = CloudWalker::open_store(inp.store_dir(), inputs::bench_config())
            .map_err(|e| e.to_string())?;
        Some(Arc::new(w))
    } else {
        None
    };
    let miss = trace_serving(args, r, &tracer, stack, pass, mix, local)?;
    r.layer("trace.covered_frac", miss.covered, "fraction");
    r.layer("trace.overhead_frac", miss.overhead, "fraction");
    if dist {
        r.layer("dist.link_us", miss.exec_us - miss.local_us, "us");
        r.layer("dist.wait_us", rtt_mean(&pass.tally, None) - miss.exec_us, "us");
        r.layer(
            "dist.wire_bytes_per_req",
            pass.shuffle_bytes as f64 / pass.requests.max(1) as f64,
            "B",
        );
        let q: Vec<f64> = pass.worker_queries.iter().map(|&v| v as f64).collect();
        r.layer("dist.worker_imbalance", q.iter().copied().fold(0.0, f64::max) / mean(&q), "ratio");
    }
    Ok(tracer)
}

/// What one run of the build replay measured (span sums are 0 untraced).
struct BuildReplay {
    /// Wall time of the walk + row phase, and of the whole replay.
    rows_wall_s: f64,
    wall_s: f64,
    /// Span time summed over the threads: walks and `ai_row`.
    walk_ns: u64,
    row_ns: u64,
    solve_ns: u64,
    /// The solved diagonal and the last Jacobi residual.
    x: Vec<f64>,
    residual: f64,
}

/// The offline build as `ExecMode::Local` runs it, layer by layer: each
/// node's R-walker cohort and its `ai_row` on `BUILD_THREADS` threads,
/// then `L` Jacobi sweeps over the stored rows.
fn replay_build<S: Spans>(
    spans: &S,
    graph: &CsrGraph,
    cfg: &SimRankConfig,
    seed: u64,
) -> BuildReplay {
    let n = graph.node_count();
    let params = WalkParams::new(cfg.t, cfg.r);
    let t = Instant::now();
    // Per thread: its rows, then nanoseconds in walks and in `ai_row`.
    type Part = (Vec<Vec<(u32, f64)>>, u64, u64);
    let parts: Vec<Part> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..BUILD_THREADS)
            .map(|p| {
                s.spawn(move || {
                    let (lo, hi) = (n * p / BUILD_THREADS, n * (p + 1) / BUILD_THREADS);
                    let (mut walk_ns, mut row_ns) = (0u64, 0u64);
                    let rows = (lo..hi)
                        .map(|i| {
                            let id = u64::from(i);
                            let (d, a) = spans.in_span("mc::walks", id, ROOT, || {
                                reverse_walk_distributions_on(graph, i, params, seed)
                            });
                            let (row, b) =
                                spans.in_span("ai::ai_row", id, ROOT, || ai_row(&d, cfg.c));
                            walk_ns += a;
                            row_ns += b;
                            row
                        })
                        .collect();
                    (rows, walk_ns, row_ns)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("replay thread")).collect()
    });
    let rows_wall_s = t.elapsed().as_secs_f64();
    let (walk_ns, row_ns) = parts.iter().fold((0, 0), |(a, b), p| (a + p.1, b + p.2));
    let rows = StoredRows::new(parts.into_iter().flat_map(|p| p.0).collect());
    let b = vec![1.0; n as usize];
    let x0 = vec![1.0 - cfg.c; n as usize];
    let jcfg = JacobiConfig { iterations: cfg.l, tolerance: None, record_residuals: true };
    let (sol, solve_ns) =
        spans.in_span("solver::jacobi", 0, ROOT, || jacobi::solve(&rows, &b, &x0, &jcfg));
    let wall_s = t.elapsed().as_secs_f64();
    let residual = sol.residuals.last().copied().unwrap_or(f64::NAN);
    BuildReplay { rows_wall_s, wall_s, walk_ns, row_ns, solve_ns, x: sol.x, residual }
}

/// `build`: the offline build replayed layer by layer (untraced, then
/// traced), checked bit for bit against the diagonal the served store
/// holds, then the serving replay of the saved store.
pub fn trace_build(
    args: &Args,
    r: &mut RunReport,
    stack: &Stack,
    pass: &Pass,
    mix: &Mix,
    inp: &InputDir,
) -> Result<Tracer, String> {
    let graph = io::read_binary(inp.graph_file()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    drop(ReverseChainIndex::build(&graph));
    r.layer("graph.rci_build_s", t.elapsed().as_secs_f64(), "s");
    let cfg = inputs::bench_config();
    let seed = replay_seed(args, cfg.seed);
    let served_by: &Arc<CloudWalker> = stack.cloud_walker();
    let served = served_by.diagonal().as_slice();
    let same = |x: &[f64]| {
        x.len() == served.len() && x.iter().zip(served).all(|(a, b)| a.to_bits() == b.to_bits())
    };
    // Untraced and traced replays in the order A B B A, so that a drift
    // in the machine's speed weighs on both sides alike.
    let tracer = Tracer::new();
    let (mut plain_s, mut traced_s, mut rows_phase_s) = (0.0, 0.0, 0.0);
    let (mut walk_ns, mut row_ns, mut solve_ns, mut residual) = (0, 0, 0, f64::NAN);
    for traced in [false, true, true, false] {
        let b = if traced {
            replay_build(&tracer, &graph, &cfg, seed)
        } else {
            replay_build(&Untraced, &graph, &cfg, seed)
        };
        replay_check(usize::from(!same(&b.x)), "build")?;
        if traced {
            traced_s += b.wall_s;
            rows_phase_s += b.rows_wall_s;
            (walk_ns, row_ns, solve_ns) =
                (walk_ns + b.walk_ns, row_ns + b.row_ns, solve_ns + b.solve_ns);
            residual = b.residual;
        } else {
            plain_s += b.wall_s;
        }
    }
    // Per traced replay; span time per thread in the parallel phase.
    let threads = f64::from(BUILD_THREADS);
    let (walk_s, row_s, solve_s) =
        (walk_ns as f64 / 2e9 / threads, row_ns as f64 / 2e9 / threads, solve_ns as f64 / 2e9);
    r.layer("walks.build_s", walk_s, "s");
    r.layer("ai.rows_s", row_s, "s");
    r.layer("solver.sweep_s", solve_s / cfg.l.max(1) as f64, "s");
    r.layer("solver.residual.replay", residual, "1");
    r.layer("trace.build.rows_phase_s", rows_phase_s / 2.0, "s");
    if let Some(build_s) = r.ledger_value("build.build_s") {
        r.layer("trace.build_replay_frac", plain_s / 2.0 / build_s, "fraction");
    }

    let miss = trace_serving(args, r, &tracer, stack, pass, mix, None)?;
    r.layer("trace.serve_covered_frac", miss.covered, "fraction");
    r.layer("trace.serve_overhead_frac", miss.overhead, "fraction");
    r.layer("trace.covered_frac", (walk_s + row_s + solve_s) / (traced_s / 2.0), "fraction");
    r.layer("trace.overhead_frac", traced_s / plain_s - 1.0, "fraction");
    Ok(tracer)
}
