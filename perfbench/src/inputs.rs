//! Generated inputs: graphs, persisted indexes and shard stores.
//!
//! Inputs are made by this binary (so by the build of the program under
//! test), in a child process so that generation never shows in a
//! workload's peak RSS, and outside every timed region. They are cached
//! next to the binary under a key of the binary's identity: a rebuild
//! regenerates them, so a store written by one commit is never read by
//! another. Graph seeds are fixed; the `--seed` argument drives the
//! request streams.

use pasco_graph::{generators, io, CsrGraph, WalkAdjacency};
use pasco_simrank::{persist, AiStrategy, CloudWalker, ExecMode, SimRankConfig};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// The query and index configuration every workload runs with: the
/// paper's c, T, L and R, with R' = r_forward = 2000.
pub fn bench_config() -> SimRankConfig {
    SimRankConfig { r_query: 2_000, r_forward: 2_000, ..SimRankConfig::default_paper() }
}

/// One generated input set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// rmat scale 18 with its index, saved as a 2-shard store (`cold`, `dist`).
    Rmat18,
    /// Barabási–Albert, 16,384 nodes, m = 8, graph only: the small graph
    /// `walks.size_ratio` compares walk cost against.
    Ba16k,
    /// rmat scale 16, graph only (`build` indexes it itself).
    Rmat16,
}

impl Input {
    fn dir_name(self) -> &'static str {
        match self {
            Input::Rmat18 => "rmat18",
            Input::Ba16k => "ba16k",
            Input::Rmat16 => "rmat16",
        }
    }

    fn from_dir_name(name: &str) -> Option<Input> {
        [Input::Rmat18, Input::Ba16k, Input::Rmat16].into_iter().find(|i| i.dir_name() == name)
    }

    fn generate_graph(self) -> CsrGraph {
        match self {
            Input::Rmat18 => {
                generators::rmat(18, 8 << 18, generators::RmatParams::default(), 0xC01D)
            }
            Input::Ba16k => generators::barabasi_albert(16_384, 8, 0x4077),
            Input::Rmat16 => {
                generators::rmat(16, 8 << 16, generators::RmatParams::default(), 0xB111D)
            }
        }
    }

    /// Store shard count (None: no store is written).
    fn store_parts(self) -> Option<u32> {
        match self {
            Input::Rmat18 => Some(2),
            Input::Ba16k | Input::Rmat16 => None,
        }
    }

    fn indexed(self) -> bool {
        self == Input::Rmat18
    }
}

/// Paths of one generated input set.
#[derive(Clone, Debug)]
pub struct InputDir(PathBuf);

impl InputDir {
    /// The graph in `io::write_binary` form.
    pub fn graph_file(&self) -> PathBuf {
        self.0.join("graph.bin")
    }

    /// The persisted diagonal (`persist::save_index`).
    pub fn index_file(&self) -> PathBuf {
        self.0.join("diag.idx")
    }

    /// The shard store directory.
    pub fn store_dir(&self) -> PathBuf {
        self.0.join("store")
    }

    /// A scratch directory for the run (emptied by the caller).
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

/// Where this binary keeps generated inputs and traces: beside itself,
/// under a key of its own size and modification time.
pub fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("binary has no parent directory")?.join("perfbench-work");
    Ok(dir)
}

/// A short identity of the running binary (size and mtime).
pub fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("stat {}: {e}", exe.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    Ok(format!("{:x}-{:x}", meta.len(), mtime))
}

/// Returns the input set, generating it in a child process first if
/// this build has not made it yet. Inputs of older builds are removed.
pub fn ensure_input(input: Input) -> Result<InputDir, String> {
    let id = build_id()?;
    let root = work_root()?.join("inputs");
    std::fs::create_dir_all(&root).map_err(|e| format!("mkdir {}: {e}", root.display()))?;
    if let Ok(entries) = std::fs::read_dir(&root) {
        for e in entries.flatten() {
            if e.file_name() != id.as_str() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    let dir = root.join(&id).join(input.dir_name());
    if !dir.join("done").exists() {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = Command::new(exe)
            .arg("gen")
            .arg(input.dir_name())
            .arg(&dir)
            .status()
            .map_err(|e| format!("spawning the generator: {e}"))?;
        if !status.success() {
            return Err(format!("generating {} failed: {status}", input.dir_name()));
        }
    }
    Ok(InputDir(dir))
}

/// The `gen <input> <dir>` entry point of the child process: writes the
/// input set to `<dir>.tmp`, then renames it into place.
pub fn generate_input(name: &str, dir: &Path) -> Result<(), String> {
    let input = Input::from_dir_name(name).ok_or_else(|| format!("unknown input {name}"))?;
    let tmp = dir.with_extension("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("mkdir {}: {e}", tmp.display()))?;
    let out = InputDir(tmp.clone());
    let graph = Arc::new(input.generate_graph());
    io::write_binary(&graph, out.graph_file()).map_err(|e| e.to_string())?;
    if input.indexed() {
        let cfg = bench_config().with_ai_strategy(AiStrategy::Store);
        let cw: CloudWalker = CloudWalker::build(Arc::clone(&graph), cfg, ExecMode::Local)
            .map_err(|e| e.to_string())?;
        persist::save_index(cw.diagonal(), out.index_file()).map_err(|e| e.to_string())?;
        if let Some(parts) = input.store_parts() {
            cw.save_store(out.store_dir(), parts).map_err(|e| e.to_string())?;
        }
    }
    std::fs::write(tmp.join("done"), b"").map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, dir).map_err(|e| format!("rename {}: {e}", tmp.display()))
}

/// Every node with at least one in-link, ascending: the only nodes a
/// workload draws query sources from (a node with no in-links has a
/// trivial cohort).
pub fn linked_nodes(adj: &impl WalkAdjacency) -> Vec<u32> {
    (0..WalkAdjacency::node_count(adj)).filter(|&v| !adj.in_neighbors(v).is_empty()).collect()
}
