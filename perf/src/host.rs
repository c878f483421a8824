//! What the benchmark reads from the host: the fingerprint recorded
//! with every result, resource usage of this process and its reaped
//! children, peak RSS, and a fixed calibration loop that shows when the
//! host itself changed between two sets of runs.

use std::fs;
use std::time::Instant;

/// `GNN_*` variables that change what the kernels do. A run refuses to
/// start with any of them set unless `--allow-env` is given.
const KERNEL_ENV: [&str; 3] = ["GNN_KERNEL", "GNN_KERNEL_BACKEND", "GNN_THREADS"];

/// The kernel-affecting variables present in the environment.
pub fn kernel_env_set() -> Vec<(String, String)> {
    KERNEL_ENV
        .iter()
        .filter_map(|k| std::env::var(k).ok().map(|v| (k.to_string(), v)))
        .collect()
}

/// Where a result was measured.
#[derive(Debug)]
pub struct HostInfo {
    pub hostname: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub kernel_backend: &'static str,
    pub kernel_mode: &'static str,
    pub git_commit: String,
}

impl HostInfo {
    pub fn probe() -> Self {
        let kernels = spmat::kernel::active();
        Self {
            hostname: read_trimmed("/proc/sys/kernel/hostname"),
            cpu_model: cpu_model(),
            nproc: nproc(),
            kernel_backend: kernels.backend.label(),
            kernel_mode: kernels.mode.label(),
            git_commit: git_commit(),
        }
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git (the
/// driver's checkout is not a repository: "unknown" there).
fn git_commit() -> String {
    let head = read_trimmed(".git/HEAD");
    match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(&format!(".git/{r}")),
        None => head,
    }
}

/// `VmHWM` (peak resident set) of this process in bytes.
pub fn vm_hwm_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// CPU time, minor faults and voluntary context switches of this
/// process (all threads, exited ones included) plus its reaped children.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: f64,
    pub vol_ctx_switches: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let (a, b) = (
            sys::rusage(sys::RUSAGE_SELF),
            sys::rusage(sys::RUSAGE_CHILDREN),
        );
        Usage {
            user_s: a.user_s + b.user_s,
            sys_s: a.sys_s + b.sys_s,
            minor_faults: a.minor_faults + b.minor_faults,
            vol_ctx_switches: a.vol_ctx_switches + b.vol_ctx_switches,
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            vol_ctx_switches: self.vol_ctx_switches - earlier.vol_ctx_switches,
        }
    }

    pub fn add(&mut self, other: Usage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.minor_faults += other.minor_faults;
        self.vol_ctx_switches += other.vol_ctx_switches;
    }
}

/// `getrusage(2)`: `/proc/self/status` counts context switches of the
/// main thread only, and rank threads have exited by the time a
/// training call returns, so the per-process totals need the syscall.
mod sys {
    use super::Usage;

    pub const RUSAGE_SELF: i32 = 0;
    pub const RUSAGE_CHILDREN: i32 = -1;

    /// `struct rusage` of 64-bit Linux: two `timeval`s, fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        ixrss: i64,
        idrss: i64,
        isrss: i64,
        minflt: i64,
        majflt: i64,
        nswap: i64,
        inblock: i64,
        oublock: i64,
        msgsnd: i64,
        msgrcv: i64,
        nsignals: i64,
        nvcsw: i64,
        nivcsw: i64,
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    pub fn rusage(who: i32) -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the
        // 64-bit Linux layout (this crate only builds there, see
        // main.rs), and `who` is one of the two constants above.
        let rc = unsafe { getrusage(who, &mut ru) };
        assert_eq!(rc, 0, "getrusage({who}) failed");
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
        Usage {
            user_s: secs(ru.utime),
            sys_s: secs(ru.stime),
            minor_faults: ru.minflt as f64,
            vol_ctx_switches: ru.nvcsw as f64,
        }
    }
}

/// A fixed scalar loop (≈0.2 s): a dependent chain of shift, xor,
/// multiply and add that has no closed form for a compiler to find. It
/// touches no memory, so it moves only when the host's clock or
/// scheduling does.
pub fn calib_s() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..90_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_counts_grow() {
        let before = Usage::now();
        let mut v = vec![0u8; 8 << 20];
        for (i, b) in v.iter_mut().enumerate() {
            *b = i as u8;
        }
        std::hint::black_box(&v);
        let d = Usage::now().since(before);
        assert!(
            d.minor_faults >= 1.0,
            "first touch of 8 MiB faults pages in"
        );
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0 && d.vol_ctx_switches >= 0.0);
        assert!(vm_hwm_bytes().unwrap() >= 8 << 20);
    }
}
