//! The benchmark's footprint on the machine: where it writes, what it
//! spawns, and what it reads from `/proc` about itself.
//!
//! Everything lives under the package directory: results in `out/`,
//! sockets, the journal and the store in `out/t<pid>/`. The process
//! changes into the package directory first, so every path it hands to
//! the system under test is short and relative — a unix socket path has
//! to fit `sun_path`'s 108 bytes wherever the checkout is.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Change into the package directory (`benchmark/`), which `cargo run`
/// names in `CARGO_MANIFEST_DIR`; a binary started by hand falls back to
/// the directory it was built from.
pub fn enter_package_dir() -> std::io::Result<()> {
    let dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    std::env::set_current_dir(&dir)?;
    std::fs::create_dir_all("out")
}

extern "C" {
    fn dup2(oldfd: i32, newfd: i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this process — and with it every thread and worker process it
/// will start, which inherit the mask — to the CPU it is running on.
/// The untraced run does this, because the numbers it reports are gated.
///
/// Left to the kernel, client, dispatcher and worker spread over the
/// box's CPUs and every hand-off wakes another one. On the virtual
/// machine this was built on that wake-up costs 5–40 µs depending on what
/// the host is doing, in phases of tens of minutes: two sets of ten
/// unpinned `tune_dispatch` runs (8 000 hand-offs a pass), one straight
/// after the other, had medians of 1.22 s and 1.53 s, which no bound can
/// tell from a regression. On one CPU a hand-off is a context switch, and
/// the same pass read 1.10–1.21 s in the slow phase and the fast one
/// alike. The price: the gated number knows no cross-CPU hand-off and no
/// overlap between the worker's trial and the client's bookkeeping. The
/// traced run is therefore left unpinned, and its hop shares and per-job
/// times are those of the free placement.
///
/// Call before any thread is started: the mask is per thread.
pub fn pin_to_one_cpu() -> std::io::Result<()> {
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    let cpu = unsafe { sched_getcpu() };
    // The kernel's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let cpu = usize::try_from(cpu).map_err(|_| std::io::Error::last_os_error())?;
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other(format!("CPU {cpu} does not fit a cpu_set_t")))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly the size passed, read
    // only for the duration of the call; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Send this process's stderr — and with it the stderr every pipe worker
/// inherits, and the dispatcher threads' `eprintln!` chatter — to
/// `out/<workload>.stderr.log`.
pub fn redirect_stderr(workload: &str) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    let log = std::fs::File::create(format!("out/{workload}.stderr.log"))?;
    // SAFETY: `dup2` takes two descriptors by value and touches no memory;
    // `log` is open for the duration of the call and fd 2 always exists.
    if unsafe { dup2(log.as_raw_fd(), 2) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// The per-process scratch directory, removed on drop — which runs on
/// every exit path, a panic unwinding through `main` included.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        // A killed run cannot clean up after itself: sweep what dead
        // processes left behind.
        for entry in std::fs::read_dir("out")?.filter_map(Result::ok) {
            let name = entry.file_name();
            let pid = name.to_str().and_then(|n| n.strip_prefix('t')?.parse::<u32>().ok());
            if pid.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let dir = PathBuf::from(format!("out/t{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty sub-directory (one per set-up).
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The worker binary: this one (see `worker` in `main.rs`), so a worker
/// is always the tree under test and never a stale `petal-shard`.
pub fn worker_bin() -> std::io::Result<PathBuf> {
    std::env::current_exe()
}

/// The argument that makes this binary a socket worker.
pub const CONNECT: &str = "shard-connect";

/// A socket-worker child, killed and reaped on drop so no
/// worker outlives the benchmark, whatever happened to it.
#[derive(Debug)]
pub struct Worker(Child);

impl Worker {
    pub fn spawn(bin: &Path, endpoint: &str) -> std::io::Result<Worker> {
        Command::new(bin)
            .args([CONNECT, endpoint])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map(Worker)
    }

    pub fn pid(&self) -> u32 {
        self.0.id()
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `VmHWM` of `pid` in MiB, or `None` once the process is gone.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Pids of this process's live children (the pipe workers the farm
/// spawns are only reachable this way).
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else { return Vec::new() };
    dir.filter_map(Result::ok)
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            stat_fields(*pid).is_some_and(|f| f.get(1).and_then(|p| p.parse().ok()) == Some(me))
        })
        .collect()
}

/// The fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself contain spaces): index 0 is the state, 1 the ppid.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_owned).collect())
}

/// CPU seconds (user + system) consumed so far by this process and by
/// the children it has reaped.
pub fn cpu_seconds() -> f64 {
    // Fields 14–17 of stat(5) are utime, stime, cutime, cstime; after
    // the command name that is index 11..15. USER_HZ is 100 on Linux.
    let ticks: f64 = stat_fields(std::process::id())
        .and_then(|f| Some(f.get(11..15)?.iter().filter_map(|v| v.parse::<f64>().ok()).sum()))
        .unwrap_or(0.0);
    ticks / 100.0
}
