//! The workloads. Each sets itself up several times (reporting the
//! median), drives its request mix against the public API through a
//! `PascoServer`, checks that it still does what it is for, and verifies
//! a seeded sample of its answers after the timed window.

use crate::inputs::{self, Input, InputDir};
use crate::layers;
use crate::load::{self, Mix, Tally};
use crate::machine::CpuSnapshot;
use crate::report::RunReport;
use crate::serve::{Stack, WorkerFleet};
use crate::stats::{guarded_percentile, median};
use crate::verify;
use pasco_graph::{io, WalkAdjacency};
use pasco_simrank::{persist, AiStrategy, CloudWalker, ExecMode};
use pasco_store::MappedStore;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run (the median is reported); the offline build repeats less.
const SETUP_REPEATS: usize = 25;
const BUILD_SETUP_REPEATS: usize = 2;
/// Load connections (one load thread each).
const CONNS: usize = 2;
/// Untimed closed-loop warm-up before the window (page-in, connection set-up).
const WARMUP: Duration = Duration::from_secs(1);
/// Answers re-executed on the uncached reference after the window.
const VERIFY_COUNT: usize = 24;
/// Highest cache hit ratio a miss-path workload may show.
const COLD_MAX_HIT_RATIO: f64 = 0.02;
/// Store shards the build workload writes.
const BUILD_PARTS: u32 = 4;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Deliberately breaks one workload property, to show the self-checks fire.
    pub break_check: Option<String>,
}

impl Args {
    fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    fn breaks(&self, what: &str) -> bool {
        self.break_check.as_deref() == Some(what)
    }
}

/// Facts about the run recorded in the output's stanza.
#[derive(Default)]
pub struct Facts {
    pub nodes: u64,
    pub edges: u64,
    /// The traced run's spans, written out at exit.
    pub tracer: Option<crate::trace::Tracer>,
}

pub fn run_workload(args: &Args, report: &mut RunReport, facts: &mut Facts) -> Result<(), String> {
    match args.workload.as_str() {
        "cold" => mapped(args, report, facts, false),
        "dist" => mapped(args, report, facts, true),
        "build" => build_workload(args, report, facts),
        other => Err(format!("unknown workload {other:?} (cold, build, dist)")),
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The uncached resident walker answers are verified against (its graph
/// and index load times are ledger lines).
fn resident(r: &mut RunReport, inp: &InputDir) -> Result<CloudWalker, String> {
    let t = Instant::now();
    let g = io::read_binary(inp.graph_file()).map_err(|e| e.to_string())?;
    r.layer("graph.load_s", secs(t), "s");
    let t = Instant::now();
    let diag = persist::load_index(inp.index_file()).map_err(|e| e.to_string())?;
    r.layer("persist.load_s", secs(t), "s");
    CloudWalker::from_index(Arc::new(g), inputs::bench_config(), diag).map_err(|e| e.to_string())
}

/// A self-check failure: the workload stopped doing what it is for.
fn self_check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("self-check failed: {}", what()))
    }
}

/// The end-to-end latency metrics of the window: the median of each kind
/// (a run the guard refuses them for cannot report). Tails (p90 of each
/// kind, p95 and p99 of single pairs) are ledger lines: on a shared
/// virtual machine they follow the other tenants more than the code. The
/// guard refuses an under-sampled tail too; the ledger then says so.
fn latency_metrics(r: &mut RunReport, tally: &Tally) -> Result<(), String> {
    let (sp, topk) = (tally.sorted(Some(true)), tally.sorted(Some(false)));
    r.metric("sp_p50_us", guarded_percentile(&sp, 0.50)?, "us");
    r.metric("topk_p50_us", guarded_percentile(&topk, 0.50)?, "us");
    r.layer("samples.sp", sp.len() as f64, "count");
    r.layer("samples.topk", topk.len() as f64, "count");
    let tails = [("sp_p90_us", &sp, 0.90), ("sp_p95_us", &sp, 0.95), ("sp_p99_us", &sp, 0.99)];
    for (name, sorted, p) in tails.into_iter().chain([("topk_p90_us", &topk, 0.90)]) {
        match guarded_percentile(sorted, p) {
            Ok(v) => r.layer(name, v, "us"),
            Err(_) => r.layer(&format!("refused.{name}"), sorted.len() as f64, "count"),
        }
    }
    Ok(())
}

/// Counts failures (delivered errors plus verification mismatches).
fn settle(r: &mut RunReport, tally: &Tally, verdict: &verify::Verdict) {
    r.attempted = tally.completed();
    r.failed = tally.errors + verdict.mismatches as u64;
    r.correct = r.failed == 0 && verdict.checked > 0;
    r.layer("verify.checked", verdict.checked as f64, "count");
    r.layer("verify.mismatches", verdict.mismatches as f64, "count");
    r.layer("error_rate", r.failed as f64 / r.attempted.max(1) as f64, "fraction");
}

/// Every node a request can name must have in-links.
fn check_sources(mix: &Mix, adj: &impl WalkAdjacency) -> Result<(), String> {
    for &v in &mix.sources {
        self_check(!adj.in_neighbors(v).is_empty(), || {
            format!("query node {v} has no in-links, so its cohort is trivial")
        })?;
    }
    Ok(())
}

/// The in-linked nodes requests are drawn from, sabotaged on request.
fn sources(args: &Args, adj: &impl WalkAdjacency) -> Vec<u32> {
    let mut linked = inputs::linked_nodes(adj);
    if args.breaks("dangling") {
        if let Some(v) =
            (0..WalkAdjacency::node_count(adj)).find(|&v| adj.in_neighbors(v).is_empty())
        {
            linked = vec![v; 8];
        }
    }
    linked
}

/// Opens the 2-shard store, optionally over two loopback workers.
fn open_mapped(dir: &Path, dist: bool) -> Result<(Stack, f64), String> {
    let cfg = inputs::bench_config();
    let (walker, fleet, open_s) = if dist {
        let fleet = WorkerFleet::launch(2)?;
        let t = Instant::now();
        let w = CloudWalker::open_store_distributed(dir, cfg, &fleet.addrs);
        let open_s = secs(t);
        match w {
            Ok(w) => (w, Some(fleet), open_s),
            Err(e) => {
                fleet.halt();
                return Err(e.to_string());
            }
        }
    } else {
        let t = Instant::now();
        let w = CloudWalker::open_store(dir, cfg).map_err(|e| e.to_string())?;
        (w, None, secs(t))
    };
    Ok((Stack::launch(walker, fleet)?, open_s))
}

/// Repeats `start` `n` times, keeping the last stack; returns it with
/// the median set-up seconds and the median of the inner timing.
fn repeat_setup<T>(
    n: usize,
    mut start: impl FnMut() -> Result<(T, f64), String>,
    mut stop: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64, f64), String> {
    let (mut outer, mut inner) = (Vec::new(), Vec::new());
    let mut kept = None;
    for k in 0..n {
        let t = Instant::now();
        let (value, part) = start()?;
        outer.push(secs(t));
        inner.push(part);
        if k + 1 < n {
            stop(value)?;
        } else {
            kept = Some(value);
        }
    }
    Ok((kept.ok_or("no set-up ran")?, median(&outer), median(&inner)))
}

/// `cold` and `dist`: the rmat-18 store served closed-loop, miss path.
fn mapped(args: &Args, r: &mut RunReport, facts: &mut Facts, dist: bool) -> Result<(), String> {
    let inp = inputs::ensure_input(Input::Rmat18)?;
    let (stack, setup_s, open_s) =
        repeat_setup(SETUP_REPEATS, || open_mapped(&inp.store_dir(), dist), Stack::shut_down)?;
    let walker: &Arc<CloudWalker> = stack.cloud_walker();
    let store: Arc<MappedStore> = Arc::clone(walker.store().ok_or("walker is not store-backed")?);
    facts.nodes = u64::from(store.node_count());
    facts.edges = store.edge_count();
    r.layer("store.open_ms", open_s * 1e3, "ms");
    let mut pool = sources(args, &*store);
    if args.breaks("hit-ratio") {
        pool.truncate(4);
    }
    let mix = Mix { sources: pool };
    let result = check_sources(&mix, &*store)
        .and_then(|()| {
            serve_closed(args, r, &stack, &mix, |pass| {
                self_check(pass.hit_ratio() <= COLD_MAX_HIT_RATIO, || {
                    format!(
                        "cache hit ratio {:.4} > {COLD_MAX_HIT_RATIO}: the miss path is not measured",
                        pass.hit_ratio()
                    )
                })
            })
        })
        .and_then(|(pass, rss)| {
            if args.trace {
                let t = Instant::now();
                facts.tracer = Some(layers::trace_mapped(args, r, &stack, &pass, &mix, &inp, dist)?);
                r.layer("trace.wall_s", secs(t), "s");
            }
            Ok((pass, rss))
        });
    let stopped = stack.shut_down();
    let (pass, rss) = result?;
    stopped?;
    r.metric("peak_rss_mb", rss, "MB");
    r.metric("setup_s", setup_s, "s");
    let reference = resident(r, &inp)?;
    let verdict = verify::check_sample(&pass.tally.kept, &reference, VERIFY_COUNT, args.seed);
    settle(r, &pass.tally, &verdict);
    Ok(())
}

/// What the server, session and engine counted over one client pass.
pub struct Pass {
    pub wall_s: f64,
    pub tally: Tally,
    pub hits: u64,
    pub lookups: u64,
    pub evictions: u64,
    pub cached_bytes: usize,
    pub wakeups: u64,
    pub reads: u64,
    pub requests: u64,
    pub shuffle_bytes: u64,
    pub worker_queries: Vec<u64>,
}

impl Pass {
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.lookups.max(1) as f64
    }
}

fn worker_queries(stack: &Stack) -> Vec<u64> {
    let walker: &Arc<CloudWalker> = stack.cloud_walker();
    walker
        .worker_stats()
        .unwrap_or_default()
        .into_iter()
        .map(|s| s.map_or(0, |s| s.queries + s.topk_queries))
        .collect()
}

/// Runs `body` and returns what the stack counted while it ran.
pub fn counted(
    stack: &Stack,
    body: impl FnOnce() -> Result<Tally, String>,
) -> Result<Pass, String> {
    let (c0, s0) = (stack.session.cache_stats(), stack.server_stats());
    let walker: &Arc<CloudWalker> = stack.cloud_walker();
    let b0 = walker.cluster_report().map_or(0, |c| c.shuffle_bytes);
    let w0 = worker_queries(stack);
    let t = Instant::now();
    let tally = body()?;
    let wall_s = secs(t);
    let (c1, s1) = (stack.session.cache_stats(), stack.server_stats());
    let b1 = walker.cluster_report().map_or(0, |c| c.shuffle_bytes);
    let w1 = worker_queries(stack);
    Ok(Pass {
        wall_s,
        tally,
        hits: c1.hits - c0.hits,
        lookups: c1.lookups() - c0.lookups(),
        evictions: c1.evictions - c0.evictions,
        cached_bytes: stack.session.cached_bytes(),
        wakeups: s1.wakeups - s0.wakeups,
        reads: s1.reads - s0.reads,
        requests: s1.requests - s0.requests,
        shuffle_bytes: b1 - b0,
        worker_queries: w1.iter().zip(&w0).map(|(a, b)| a.saturating_sub(*b)).collect(),
    })
}

/// The closed-loop window (returned with the peak RSS at its end): an
/// untimed warm-up, then the timed window. The share of CPU time the
/// hypervisor stole over the window (`/proc/stat`) is a ledger line, so
/// a run on a contended machine can be recognised; nothing is corrected
/// for it.
fn serve_closed(
    args: &Args,
    r: &mut RunReport,
    stack: &Stack,
    mix: &Mix,
    self_checks: impl FnOnce(&Pass) -> Result<(), String>,
) -> Result<(Pass, f64), String> {
    load::closed_loop(stack.addr, CONNS, WARMUP, mix, args.seed, 100)?;
    let cpu0 = CpuSnapshot::now();
    let pass =
        counted(stack, || load::closed_loop(stack.addr, CONNS, args.window(), mix, args.seed, 0))?;
    let cpu1 = CpuSnapshot::now();
    let rss = peak_rss_mb();
    r.layer("session.hit_ratio", pass.hit_ratio(), "fraction");
    self_checks(&pass)?;
    r.layer("machine.steal_frac", cpu1.steal_since(&cpu0), "fraction");
    let cpu_ms = cpu1.process_s_since(&cpu0) * 1e3 / pass.tally.completed().max(1) as f64;
    r.layer("cpu.ms_per_req", cpu_ms, "ms");
    r.metric("qps", pass.tally.completed() as f64 / pass.wall_s, "1/s");
    latency_metrics(r, &pass.tally)?;
    Ok((pass, rss))
}

/// One offline build as the `build` workload's set-up runs it, in a
/// child process of its own so that each build's peak RSS is measured
/// from a clean heap: read the graph, `build_with_stats` at paper
/// defaults, `save_store`, then reopen, `verify()` and compare the
/// stored diagonal with the built one bit for bit.
pub struct BuildOnce {
    pub load_s: f64,
    pub build_s: f64,
    pub save_s: f64,
    pub peak_rss_mb: f64,
    pub store_ok: bool,
    pub residual: f64,
    pub rows_mb: f64,
    pub rows_stored: bool,
}

impl BuildOnce {
    /// The child's entry point (`build-once <graph> <out> <0|1>`, the last
    /// argument forcing the `Recompute` row strategy); prints one line.
    pub fn child_main(graph: &Path, out: &Path, recompute: bool) -> Result<String, String> {
        let cfg = inputs::bench_config();
        let cfg = if recompute { cfg.with_ai_strategy(AiStrategy::Recompute) } else { cfg };
        let _ = std::fs::remove_dir_all(out);
        let t = Instant::now();
        let g = Arc::new(io::read_binary(graph).map_err(|e| e.to_string())?);
        let load_s = secs(t);
        let t = Instant::now();
        let (cw, stats) =
            CloudWalker::build_with_stats(g, cfg, ExecMode::Local).map_err(|e| e.to_string())?;
        let build_s = secs(t);
        let t = Instant::now();
        cw.save_store(out, BUILD_PARTS).map_err(|e| e.to_string())?;
        let save_s = secs(t);
        let reopened: CloudWalker = CloudWalker::open_store(out, cfg).map_err(|e| e.to_string())?;
        let store: &Arc<MappedStore> =
            reopened.store().ok_or("reopened walker is not store-backed")?;
        let built = CloudWalker::diagonal(&cw).as_slice();
        let stored = store.compose_diag();
        let store_ok = store.verify().is_ok()
            && stored.len() == built.len()
            && stored.iter().zip(built).all(|(a, b)| a.to_bits() == b.to_bits());
        Ok(format!(
            "{load_s} {build_s} {save_s} {} {} {} {} {}",
            peak_rss_mb(),
            u8::from(store_ok),
            stats.jacobi_residuals.last().copied().unwrap_or(f64::NAN),
            stats.rows_bytes.unwrap_or(0) as f64 / 1e6,
            u8::from(stats.strategy == AiStrategy::Store),
        ))
    }

    /// Runs one build in a child process and parses its line.
    fn spawn(graph: &Path, out: &Path, recompute: bool) -> Result<BuildOnce, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = std::process::Command::new(exe)
            .arg("build-once")
            .arg(graph)
            .arg(out)
            .arg(if recompute { "1" } else { "0" })
            .output()
            .map_err(|e| format!("spawning the build: {e}"))?;
        if !child.status.success() {
            return Err(format!("build child failed: {}", String::from_utf8_lossy(&child.stderr)));
        }
        let line = String::from_utf8_lossy(&child.stdout);
        let f: Vec<f64> = line.split_whitespace().filter_map(|v| v.parse().ok()).collect();
        let [load_s, build_s, save_s, peak_rss_mb, store_ok, residual, rows_mb, rows_stored] =
            f[..]
        else {
            return Err(format!("unreadable build child output {line:?}"));
        };
        Ok(BuildOnce {
            load_s,
            build_s,
            save_s,
            peak_rss_mb,
            store_ok: store_ok == 1.0,
            residual,
            rows_mb,
            rows_stored: rows_stored == 1.0,
        })
    }
}

/// `build`: rmat-16 indexed at paper defaults and saved as a 4-shard
/// store (the set-up, repeated, each in its own process); the saved store
/// is then served closed-loop so the write path is read back under load.
fn build_workload(args: &Args, r: &mut RunReport, facts: &mut Facts) -> Result<(), String> {
    let inp = inputs::ensure_input(Input::Rmat16)?;
    let out = inp.scratch_dir("store-out");
    let mut builds = Vec::new();
    for _ in 0..BUILD_SETUP_REPEATS {
        let b = BuildOnce::spawn(&inp.graph_file(), &out, args.breaks("strategy"))?;
        self_check(b.rows_stored, || {
            "build did not resolve to AiStrategy::Store: the row path is not measured".into()
        })?;
        builds.push(b);
    }
    let col = |f: fn(&BuildOnce) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
    r.layer("graph.load_s", col(|b| b.load_s), "s");
    r.layer("build.build_s", col(|b| b.build_s), "s");
    r.layer("build.save_s", col(|b| b.save_s), "s");
    r.layer("solver.residual", col(|b| b.residual), "1");
    r.layer("ai.rows_mb", col(|b| b.rows_mb), "MB");
    let (stack, open_s) = open_mapped(&out, false)?;
    r.layer("store.open_ms", open_s * 1e3, "ms");
    let walker: &Arc<CloudWalker> = stack.cloud_walker();
    let store: Arc<MappedStore> = Arc::clone(walker.store().ok_or("walker is not store-backed")?);
    facts.nodes = u64::from(store.node_count());
    facts.edges = store.edge_count();
    let mix = Mix { sources: sources(args, &*store) };
    let result = check_sources(&mix, &*store)
        .and_then(|()| serve_closed(args, r, &stack, &mix, |_| Ok(())))
        .and_then(|(pass, rss)| {
            if args.trace {
                let t = Instant::now();
                facts.tracer = Some(layers::trace_build(args, r, &stack, &pass, &mix, &inp)?);
                r.layer("trace.wall_s", secs(t), "s");
            }
            Ok((pass, rss))
        });
    let diag = pasco_simrank::DiagonalIndex::new(walker.diagonal().as_slice().to_vec());
    let stopped = stack.shut_down();
    let (pass, serve_rss) = result?;
    stopped?;
    // The workload's peak is the build's (its own process); serving's is in the ledger.
    r.layer("serve.peak_rss_mb", serve_rss, "MB");
    r.metric("peak_rss_mb", col(|b| b.peak_rss_mb), "MB");
    r.metric("setup_s", col(|b| b.load_s + b.build_s + b.save_s), "s");

    let g = io::read_binary(inp.graph_file()).map_err(|e| e.to_string())?;
    let reference = CloudWalker::from_index(Arc::new(g), inputs::bench_config(), diag)
        .map_err(|e| e.to_string())?;
    let mut verdict = verify::check_sample(&pass.tally.kept, &reference, VERIFY_COUNT, args.seed);
    verdict.mismatches += builds.iter().filter(|b| !b.store_ok).count();
    let _ = std::fs::remove_dir_all(&out);
    settle(r, &pass.tally, &verdict);
    Ok(())
}
