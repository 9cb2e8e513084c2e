//! The server-side processes: `nfa_tool serve` backends and the
//! `nfa_tool route` front-end, started on free ports and always stopped.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

/// Pids of every process started and not yet reaped.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kills every live process (the watchdog's exit path, where no `Drop`
/// runs).
pub fn kill_all() {
    let pids = LIVE.lock().map(|l| l.clone()).unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill")
            .args(["-9", &pid.to_string()])
            .stderr(Stdio::null())
            .status();
    }
}

/// A running server-side process; dropping it kills and reaps it.
pub struct Proc {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Proc {
    /// CPU time of the process's live threads in ns: the sum of each
    /// thread's `/proc/<pid>/task/<tid>/schedstat` run time. Unlike the
    /// tick-granular `/proc/<pid>/stat` times it has ns resolution, and it
    /// leaves out time the hypervisor stole from the guest. Threads that
    /// already exited are not counted: the servers keep their threads
    /// (accept, pool workers, one per open connection) for as long as the
    /// benchmark measures. 0 where `/proc` is unavailable.
    pub fn cpu_ns(&self) -> u64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.child.id())) else {
            return 0;
        };
        tasks
            .filter_map(|task| {
                let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
                stat.split_whitespace().next()?.parse::<u64>().ok()
            })
            .sum()
    }

    /// Peak resident set (`VmHWM`) in KiB, read from `/proc`; 0 where
    /// `/proc` is unavailable.
    pub fn peak_rss_kib(&self) -> u64 {
        peak_rss_kib(self.child.id())
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Ok(mut live) = LIVE.lock() {
            live.retain(|&p| p != self.child.id());
        }
    }
}

/// `VmHWM` of a process in KiB (0 if unreadable).
pub fn peak_rss_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Options of one `nfa_tool serve` backend.
#[derive(Clone, Debug, Default)]
pub struct ServeOpts {
    /// `--cache-mb`, when reduced from the default.
    pub cache_mb: Option<usize>,
    /// `--snapshot-dir`.
    pub snapshot_dir: Option<PathBuf>,
}

/// Worker threads per server (the server's default).
pub const WORKERS: usize = 4;
/// Engine seed every server runs with (and the oracle mirrors).
pub const ENGINE_SEED: u64 = 7;

/// Starts `nfa_tool serve` on a free port.
pub fn spawn_serve(nfa_tool: &Path, opts: &ServeOpts) -> std::io::Result<Proc> {
    let mut cmd = Command::new(nfa_tool);
    cmd.args(["serve", "--port", "0", "--workers"])
        .arg(WORKERS.to_string())
        .arg("--seed")
        .arg(ENGINE_SEED.to_string());
    if let Some(mb) = opts.cache_mb {
        cmd.arg("--cache-mb").arg(mb.to_string());
    }
    if let Some(dir) = &opts.snapshot_dir {
        cmd.arg("--snapshot-dir").arg(dir);
    }
    spawn_listening(cmd, "# listening on ")
}

/// Starts `nfa_tool route` over `backends` on a free port.
pub fn spawn_route(nfa_tool: &Path, backends: &[&Proc]) -> std::io::Result<Proc> {
    let fleet: Vec<&str> = backends.iter().map(|p| p.addr.as_str()).collect();
    let mut cmd = Command::new(nfa_tool);
    cmd.args(["route", "--listen", "127.0.0.1:0", "--backends"])
        .arg(fleet.join(","));
    spawn_listening(cmd, "# routing on ")
}

/// Spawns `cmd` and waits for its first stdout line `<prefix><addr> …`.
fn spawn_listening(mut cmd: Command, prefix: &str) -> std::io::Result<Proc> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    if let Ok(mut live) = LIVE.lock() {
        live.push(child.id());
    }
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    let read = BufReader::new(stdout).read_line(&mut line);
    let addr = line
        .strip_prefix(prefix)
        .and_then(|rest| rest.split_whitespace().next())
        .map(str::to_string);
    match (read, addr) {
        (Ok(_), Some(addr)) => Ok(Proc { child, addr }),
        _ => {
            drop(Proc {
                child,
                addr: String::new(),
            });
            Err(std::io::Error::other(format!(
                "server did not report a listening address (got {line:?})"
            )))
        }
    }
}
