//! Child-process hygiene and `/proc` sampling.
//!
//! Every `credo serve`, `credo route` and `credo shard-worker` the
//! benchmark starts lives in a [`Fleet`]; dropping the fleet kills and
//! reaps every member, on success, on error and after Ctrl-C (the signal
//! handler only raises a flag, so the unwinding code paths do the
//! cleanup). Temporary plan stores live in a [`TempDir`] under the
//! checkout and are removed the same way.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn sysconf(name: i32) -> i64;
}

/// Routes SIGINT and SIGTERM to a flag that [`check_interrupt`] reports.
pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` only stores to an atomic, which is
    // async-signal-safe, and it stays valid for the life of the process.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Fails once a stop signal has arrived, so callers unwind and their
/// guards clean up.
pub fn check_interrupt() -> Res<()> {
    if INTERRUPTED.load(Ordering::SeqCst) {
        Err("interrupted".into())
    } else {
        Ok(())
    }
}

/// Clock ticks per second for `/proc/<pid>/stat` CPU times.
fn clk_tck() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf has no preconditions; it returns -1 on error.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// utime + stime of process `pid` (all its threads), in milliseconds.
pub fn cpu_ms(pid: u32) -> Res<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = &stat[stat.rfind(')').ok_or("bad stat line")? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f[11].parse::<f64>().map_err(|e| e.to_string())?
        + f[12].parse::<f64>().map_err(|e| e.to_string())?;
    Ok(ticks * 1000.0 / clk_tck())
}

/// A `kB` field of `/proc/<pid>/status`, such as `VmHWM`.
pub fn status_kb(pid: u32, field: &str) -> Res<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("{field} missing from /proc/{pid}/status"))
}

/// Bytes received on the loopback interface so far (`/proc/net/dev`),
/// TCP/IP headers included. Per-process `/proc/<pid>/io` counters miss
/// socket `send`/`recv`, so this is where the wire traffic shows.
pub fn loopback_bytes() -> Res<f64> {
    let dev =
        std::fs::read_to_string("/proc/net/dev").map_err(|e| format!("/proc/net/dev: {e}"))?;
    dev.lines()
        .find_map(|l| l.trim_start().strip_prefix("lo:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| "no loopback interface in /proc/net/dev".to_string())
}

/// Fails when any live process other than this one runs `binary`: a
/// leftover server would compete for the two cores being measured.
pub fn refuse_leftovers(binary: &Path) -> Res<()> {
    let me = std::process::id();
    let entries = std::fs::read_dir("/proc").map_err(|e| format!("/proc: {e}"))?;
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if pid == me {
            continue;
        }
        if std::fs::read_link(entry.path().join("exe")).is_ok_and(|exe| exe == binary) {
            return Err(format!(
                "leftover process {pid} runs {}; stop it first, it would contaminate the numbers",
                binary.display()
            ));
        }
    }
    Ok(())
}

/// One started child and the thread draining the rest of its stdout.
struct Member {
    child: Child,
    drain: Option<JoinHandle<()>>,
}

/// The server-side processes of one workload instance.
#[derive(Default)]
pub struct Fleet {
    members: Vec<Member>,
}

impl Fleet {
    /// Starts `binary args…` and waits for its `… listening on <addr>`
    /// line; returns the address.
    pub fn spawn(&mut self, binary: &Path, args: &[String]) -> Res<String> {
        let mut child = Command::new(binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        self.members.push(Member { child, drain: None });
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("reading {args:?} stdout: {e}"))?;
            if n == 0 {
                return Err(format!("credo {args:?} exited before it was ready"));
            }
            if let Some((_, addr)) = line.trim_end().split_once(" listening on ") {
                break addr.to_string();
            }
        };
        // Keep the pipe drained so a chatty child never blocks on it.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        self.members.last_mut().expect("just pushed").drain = Some(drain);
        Ok(addr)
    }

    pub fn pids(&self) -> Vec<u32> {
        self.members.iter().map(|m| m.child.id()).collect()
    }

    /// Summed CPU milliseconds of every member.
    pub fn cpu_ms(&self) -> Res<f64> {
        self.pids().into_iter().map(cpu_ms).sum()
    }

    /// Summed peak resident set (`VmHWM`) of every member, in MB.
    pub fn peak_rss_mb(&self) -> Res<f64> {
        let kb: f64 = self
            .pids()
            .into_iter()
            .map(|p| status_kb(p, "VmHWM"))
            .sum::<Res<f64>>()?;
        Ok(kb / 1024.0)
    }

    /// Waits up to `grace` for every member to exit on its own (after a
    /// shutdown request), then kills the rest; reaps all of them.
    pub fn stop(&mut self, grace: Duration) -> Res<()> {
        let deadline = Instant::now() + grace;
        let mut clean = true;
        for m in &mut self.members {
            loop {
                match m.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        clean = false;
                        let _ = m.child.kill();
                        let _ = m.child.wait();
                        break;
                    }
                }
            }
            if let Some(d) = m.drain.take() {
                let _ = d.join();
            }
        }
        self.members.clear();
        if clean {
            Ok(())
        } else {
            Err("a server process ignored shutdown and had to be killed".into())
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for m in &mut self.members {
            let _ = m.child.kill();
            let _ = m.child.wait();
            if let Some(d) = m.drain.take() {
                let _ = d.join();
            }
        }
    }
}

/// A scratch directory under the checkout, removed on drop.
pub struct TempDir {
    pub path: PathBuf,
}

impl TempDir {
    pub fn new(tag: &str) -> Res<TempDir> {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(".bench_tmp").join(format!("{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let path = path.canonicalize().map_err(|e| e.to_string())?;
        Ok(TempDir { path })
    }

    pub fn as_str(&self) -> String {
        self.path.display().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
