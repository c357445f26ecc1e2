//! The served binary as a child process.

use std::net::TcpListener;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;

extern "C" {
    fn prctl(option: i32, arg2: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// A set of CPUs (the kernel's `cpu_set_t`: 1024 bits).
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The CPUs the calling thread may run on.
    pub fn current() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Restricts the calling thread (and the threads it starts later) to
    /// these CPUs.
    pub fn pin(&self) -> std::io::Result<()> {
        // SAFETY: the kernel only reads the mask.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self) };
        if rc == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }

    pub fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The lowest CPU on its own and the rest, or `None` for fewer than
    /// two CPUs.
    pub fn split_first(&self) -> Option<(CpuSet, CpuSet)> {
        if self.count() < 2 {
            return None;
        }
        let word = self.0.iter().position(|&w| w != 0)?;
        let mut first = CpuSet([0; 16]);
        first.0[word] = self.0[word] & self.0[word].wrapping_neg();
        let mut rest = *self;
        rest.0[word] &= !first.0[word];
        Some((first, rest))
    }
}

/// A running `bcdb serve` on a loopback port.
pub struct Server {
    child: Child,
    pub addr: String,
    pub launched: Instant,
}

impl Server {
    /// Starts `bin serve` on a free loopback port over `store`, on the
    /// CPUs `cpus` when given; the server's stderr goes to `log`.
    pub fn launch(
        bin: &Path,
        store: &Path,
        log: &Path,
        cpus: Option<CpuSet>,
    ) -> std::io::Result<Server> {
        // Ask the kernel for a free port, then hand it to the server.
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = format!("127.0.0.1:{port}");
        let launched = Instant::now();
        let err = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)?;
        let mut cmd = Command::new(bin);
        // SAFETY: the hook only calls prctl(2) and sched_setaffinity(2),
        // which are async-signal-safe, and reads a mask it owns.
        unsafe {
            cmd.pre_exec(move || {
                // The server dies with the benchmark, however it ends.
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                if let Some(cpus) = &cpus {
                    cpus.pin()?;
                }
                Ok(())
            });
        }
        let child = cmd
            .arg("serve")
            .arg("--addr")
            .arg(&addr)
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(err))
            .spawn()?;
        Ok(Server {
            child,
            addr,
            launched,
        })
    }

    /// Peak resident set size so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// SIGKILL, then reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Recursively copies a store directory (files only, one level of
/// subdirectories is all the server writes).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest: PathBuf = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// Total bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// CPU time stolen from this machine by its hypervisor so far, and all
/// CPU time, in clock ticks (from `/proc/stat`); `None` off Linux.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::CpuSet;

    fn set(words: &[(usize, u64)]) -> CpuSet {
        let mut s = CpuSet([0; 16]);
        for &(i, w) in words {
            s.0[i] = w;
        }
        s
    }

    #[test]
    fn splits_off_the_lowest_cpu() {
        let (first, rest) = set(&[(0, 0b1100)]).split_first().unwrap();
        assert_eq!(first, set(&[(0, 0b0100)]));
        assert_eq!(rest, set(&[(0, 0b1000)]));
        // The lowest CPU may sit in a later word.
        let (first, rest) = set(&[(1, 0b1), (2, 0b1)]).split_first().unwrap();
        assert_eq!((first.count(), rest.count()), (1, 1));
        assert_eq!(first, set(&[(1, 0b1)]));
        assert!(set(&[(0, 0b10)]).split_first().is_none());
    }
}
