//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold|build|dist> --seed <n> --seconds <s> --trace <0|1>
//!     [--break-check <hit-ratio|dangling|strategy|replay>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics untraced;
//! with `--trace 1` it also replays the workload's requests in process
//! with a span around every call into a layer and reports the per-layer
//! metrics. The last line of standard output is the JSON result; the
//! lines before it are a machine stanza and the full ledger. A run whose
//! workload self-check fails (or whose traced replay no longer matches
//! the engine) exits 3 without a result; one whose answers fail
//! verification prints its result and exits 1.
//!
//! `gen` and `build-once` are the entry points of the child processes the
//! binary spawns to generate inputs and to run the offline builds.

mod conn;
mod inputs;
mod layers;
mod load;
mod machine;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;
mod workloads;

use report::{num, object, quote, RunReport};
use std::process::ExitCode;
use workloads::{Args, Facts};

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 0, trace: false, break_check: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--break-check" => args.break_check = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() || args.seconds == 0 {
        return Err(
            "usage: --workload <cold|build|dist> --seed <n> --seconds <s> --trace <0|1>".into()
        );
    }
    Ok(args)
}

/// The commit being measured, when the checkout is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).map(|s| s.trim().to_string()),
        None if !head.is_empty() => Ok(head.to_string()),
        None => Err(std::io::ErrorKind::NotFound.into()),
    }
    .unwrap_or_else(|_| "unknown".into())
}

fn stanza(args: &Args, facts: &Facts) -> String {
    let cfg = inputs::bench_config();
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    object(&[
        ("workload", quote(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("commit", quote(&commit())),
        ("build", quote(&inputs::build_id().unwrap_or_default())),
        ("nodes", facts.nodes.to_string()),
        ("edges", facts.edges.to_string()),
        (
            "config",
            object(&[
                ("c", num(cfg.c)),
                ("t", cfg.t.to_string()),
                ("l", cfg.l.to_string()),
                ("r", cfg.r.to_string()),
                ("r_query", cfg.r_query.to_string()),
                ("r_forward", cfg.r_forward.to_string()),
                ("server_workers", serve::SERVER_WORKERS.to_string()),
                ("session_capacity", serve::SESSION_CAPACITY.to_string()),
            ]),
        ),
    ])
}

/// Moves the per-layer contract metrics out of the ledger (traced run),
/// refusing a run that could not measure one of them.
fn select_per_layer(r: &mut RunReport) -> Result<(), String> {
    let end_to_end = std::mem::take(&mut r.metrics);
    r.ledger.extend(end_to_end);
    for (name, unit) in layers::PER_LAYER {
        let value =
            r.ledger_value(name).ok_or_else(|| format!("traced run did not measure {name}"))?;
        r.metric(name, value, unit);
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gen") {
        return match (argv.get(1), argv.get(2)) {
            (Some(name), Some(dir)) => {
                match inputs::generate_input(name, std::path::Path::new(dir)) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("perfbench gen: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            _ => ExitCode::from(2),
        };
    }
    if argv.first().map(String::as_str) == Some("build-once") {
        return match (argv.get(1), argv.get(2), argv.get(3)) {
            (Some(graph), Some(out), Some(recompute)) => {
                let (graph, out) = (std::path::Path::new(graph), std::path::Path::new(out));
                match workloads::BuildOnce::child_main(graph, out, recompute == "1") {
                    Ok(line) => {
                        println!("{line}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("perfbench build-once: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            _ => ExitCode::from(2),
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let mut report = RunReport::default();
    let mut facts = Facts::default();
    let outcome = workloads::run_workload(&args, &mut report, &mut facts).and_then(|()| {
        if args.trace {
            select_per_layer(&mut report)
        } else {
            Ok(())
        }
    });
    if let Err(e) = outcome {
        eprintln!("perfbench {}: {e}", args.workload);
        return ExitCode::from(3);
    }
    if let Some(bad) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("perfbench {}: {} is not a finite number", args.workload, bad.0);
        return ExitCode::from(3);
    }
    report.layer("run.wall_s", started.elapsed().as_secs_f64(), "s");
    println!("stanza {}", stanza(&args, &facts));
    for (name, value, unit) in &report.ledger {
        println!("ledger {name} {} {unit}", num(*value));
    }
    if let Some(tracer) = &facts.tracer {
        let path = inputs::work_root()
            .map(|d| d.join("traces").join(format!("{}-seed{}.tsv", args.workload, args.seed)));
        match path.map_err(std::io::Error::other).and_then(|p| tracer.write_tsv(&p).map(|n| (p, n)))
        {
            Ok((p, n)) => println!("spans {n} written to {}", p.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
