//! The server under test, in a process of its own.
//!
//! The benchmark re-executes its own binary as `admitbench serve`: that
//! child builds the workload's store, creates the durable directory,
//! registers the constraints, binds loopback TCP and prints `ready
//! <addr>`. It then serves until its standard input says `stop` or
//! closes (so it also ends if the benchmark dies), and reports its
//! `ServerStats` and peak resident set on one `stats` line.

use crate::workload::{Workload, PARALLEL_CHECKING};
use ccpi::durable::DurableManager;
use ccpi_server::{serve, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// The counters the child reports when it stops.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerReport {
    pub submitted: u64,
    pub groups: u64,
    /// `VmHWM` of the server process, KiB.
    pub peak_rss_kib: u64,
}

/// Entry point of the `serve` child.
pub fn child_main(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let mut mgr = DurableManager::create(dir, workload.database(seed))
        .map_err(|e| format!("create store: {e}"))?;
    for (name, source) in workload.constraints() {
        mgr.add_constraint(name, source)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    mgr.manager_mut().set_parallel_checking(PARALLEL_CHECKING);
    // Group commit on: one fsync per commit group. No decision log, so
    // the benchmark's bookkeeping never counts toward the server's memory.
    let config = ServerConfig {
        group_commit: true,
        record_decisions: false,
        ..ServerConfig::default()
    };
    let server = serve(mgr, "127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {}", server.addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    let mut line = String::new();
    std::io::stdin().lock().read_line(&mut line).ok();
    let stats = server.stats();
    server.stop();
    writeln!(
        out,
        "stats {} {} {}",
        stats.submitted(),
        stats.groups(),
        peak_rss_kib()?
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// A running `serve` child. Dropping it without [`ServerProcess::stop`]
/// kills the child and waits for it.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProcess {
    pub fn start(workload: Workload, seed: u64, dir: &Path) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve")
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut proc = ServerProcess {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = proc.read_line()?;
        proc.addr = line
            .strip_prefix("ready ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("server did not start: {line:?}"))?;
        Ok(proc)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("server pipe: {e}"))?;
        Ok(line)
    }

    /// Stops the server, waits for the child, returns its counters.
    pub fn stop(mut self) -> Result<ServerReport, String> {
        if let Some(mut stdin) = self.stdin.take() {
            writeln!(stdin, "stop").map_err(|e| format!("server pipe: {e}"))?;
        }
        let line = self.read_line()?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        let fields: Vec<u64> = line
            .strip_prefix("stats ")
            .map(|s| {
                s.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        match fields[..] {
            [submitted, groups, peak_rss_kib] => Ok(ServerReport {
                submitted,
                groups,
                peak_rss_kib,
            }),
            _ => Err(format!("bad server stats line {line:?}")),
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}
