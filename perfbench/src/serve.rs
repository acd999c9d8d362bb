//! Serving stacks under test: a `PascoServer` over a `QuerySession`,
//! optionally backed by in-process loopback `PascoWorker`s.

use pasco_server::{PascoServer, ServerConfig, ServerHandle, ServerStats};
use pasco_simrank::{CloudWalker, QueryService, QuerySession};
use pasco_worker::{PascoWorker, WorkerConfig, WorkerHandle};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Cohort-cache capacity of every workload's session.
pub const SESSION_CAPACITY: usize = 1024;
/// Query-execution pool of the server.
pub const SERVER_WORKERS: usize = 2;

/// A fleet of in-process workers on loopback ports.
pub struct WorkerFleet {
    pub addrs: Vec<String>,
    handles: Vec<WorkerHandle>,
    joins: Vec<JoinHandle<std::io::Result<()>>>,
}

impl WorkerFleet {
    pub fn launch(count: usize) -> Result<WorkerFleet, String> {
        let mut fleet = WorkerFleet { addrs: Vec::new(), handles: Vec::new(), joins: Vec::new() };
        for _ in 0..count {
            let worker: PascoWorker = PascoWorker::bind("127.0.0.1:0", WorkerConfig::default())
                .map_err(|e| format!("worker bind: {e}"))?;
            fleet.addrs.push(worker.local_addr().to_string());
            fleet.handles.push(worker.handle());
            fleet.joins.push(std::thread::spawn(move || worker.run()));
        }
        Ok(fleet)
    }

    pub fn halt(self) {
        for h in &self.handles {
            WorkerHandle::shutdown(h);
        }
        for j in self.joins {
            let _ = j.join();
        }
    }
}

/// A running front door over a session.
pub struct Stack {
    pub session: Arc<QuerySession>,
    pub addr: SocketAddr,
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
    fleet: Option<WorkerFleet>,
}

impl Stack {
    /// Wraps `walker` in a session and binds a server over it.
    pub fn launch(walker: CloudWalker, fleet: Option<WorkerFleet>) -> Result<Stack, String> {
        let session = Arc::new(QuerySession::new(Arc::new(walker), SESSION_CAPACITY));
        let cfg = ServerConfig { workers: SERVER_WORKERS, ..ServerConfig::default() };
        let svc: Arc<dyn QueryService> = Arc::clone(&session) as Arc<dyn QueryService>;
        let server: PascoServer =
            PascoServer::bind("127.0.0.1:0", svc, cfg).map_err(|e| format!("server bind: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Ok(Stack { session, addr, handle, join, fleet })
    }

    pub fn cloud_walker(&self) -> &Arc<CloudWalker> {
        self.session.walker()
    }

    pub fn server_stats(&self) -> ServerStats {
        self.handle.stats()
    }

    /// Stops the server, then the walker's workers (if any).
    pub fn shut_down(self) -> Result<(), String> {
        self.handle.shutdown();
        let served = self.join.join().map_err(|_| "server thread panicked".to_string())?;
        drop(self.session);
        if let Some(f) = self.fleet {
            f.halt();
        }
        served.map_err(|e| format!("server: {e}"))
    }
}
