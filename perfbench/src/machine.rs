//! What the machine gave the run: CPU time stolen by the hypervisor
//! (other tenants) and CPU time this process used, from `/proc`.

/// Cumulative counters at one instant, in clock ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSnapshot {
    steal: u64,
    total: u64,
    process: u64,
}

impl CpuSnapshot {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .find_map(|l| l.strip_prefix("cpu "))
            .map(|l| l.split_whitespace().filter_map(|v| v.parse().ok()).collect())
            .unwrap_or_default();
        let own = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // After the parenthesised command name the fields start at the
        // 3rd; utime and stime are the 14th and 15th.
        let after = own.rsplit_once(')').map_or("", |(_, rest)| rest);
        let tail: Vec<&str> = after.split_whitespace().collect();
        let field = |n: usize| tail.get(n - 3).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        CpuSnapshot {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
            process: field(14) + field(15),
        }
    }

    /// Share of all CPU time since `earlier` that the hypervisor stole.
    pub fn steal_since(&self, earlier: &CpuSnapshot) -> f64 {
        (self.steal - earlier.steal) as f64 / (self.total - earlier.total).max(1) as f64
    }

    /// This process's CPU seconds (user + system) since `earlier`.
    pub fn process_s_since(&self, earlier: &CpuSnapshot) -> f64 {
        (self.process - earlier.process) as f64 / 100.0
    }
}
