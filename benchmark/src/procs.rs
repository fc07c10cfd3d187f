//! Worker subprocesses and process memory.
//!
//! `net_remote` runs over the shipped `earl-worker` binary, which `run.sh`
//! builds into the same directory as `bench`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// A worker subprocess, killed and reaped on every exit path.
pub struct WorkerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl WorkerProc {
    /// Spawns the `earl-worker` next to this binary and waits for its
    /// `LISTENING <addr>` banner.
    pub fn spawn() -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate bench binary: {e}"))?;
        let program = exe.with_file_name("earl-worker");
        let mut child = Command::new(&program)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| {
                format!(
                    "cannot spawn {}: {e}; `benchmark/run.sh` builds it next to `bench` \
                     (`cargo build --release -p earl-net --bin earl-worker`)",
                    program.display()
                )
            })?;
        let stdout = child.stdout.take().expect("worker stdout is piped");
        let mut banner = String::new();
        let parsed = BufReader::new(stdout)
            .read_line(&mut banner)
            .ok()
            .and_then(|_| banner.trim().strip_prefix("LISTENING ")?.parse().ok());
        // From here on the guard owns the child, banner or not.
        let mut worker = WorkerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        worker.addr = parsed.ok_or_else(|| format!("unexpected worker banner {banner:?}"))?;
        Ok(worker)
    }

    /// Peak resident set of the worker so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

/// `VmHWM` of process `pid` (`"self"` for this one) in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
