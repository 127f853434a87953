//! The few process facts the benchmark needs from the operating system:
//! CPU time (`getrusage`), peak resident memory (`/proc/self/status`), and
//! pinning the process to one CPU (`sched_setaffinity`) so the planner runs
//! on one lane.
//! Linux only; std links libc, so the two calls are declared here directly.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which the first is the peak resident set in KiB (carried across exec).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

/// `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Resource use of the whole process (every thread) so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// Peak resident set of the current address space, KiB (`VmHWM`). Unlike
/// `ru_maxrss`, it starts afresh at exec, so the parent that forked this
/// process (`cargo run`, say) does not leak into it.
fn vm_hwm_kib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Reads the process's CPU time and peak resident memory.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` with the layout the
    // 64-bit Linux ABI defines, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Usage {
        cpu: Duration::from_micros(micros(&ru.utime) + micros(&ru.stime)),
        peak_rss_mb: vm_hwm_kib().unwrap_or(ru.maxrss_kib as f64) / 1024.0,
    }
}

fn affinity() -> std::io::Result<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(mask)
}

/// CPUs this process may run on.
pub fn cpus_allowed() -> std::io::Result<usize> {
    Ok(affinity()?.iter().map(|w| w.count_ones() as usize).sum())
}

/// Restricts the process (every thread it starts from now on) to the
/// lowest CPU it may run on, and returns that CPU's index. Must run before
/// anything reads `available_parallelism`, which honours the mask.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let allowed = affinity()?;
    let cpu = (0..1024)
        .find(|&c| allowed[c / 64] & (1u64 << (c % 64)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed and
    // names a CPU the process is already allowed to use.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_reports_cpu_and_memory() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = usage();
        assert!(after.cpu >= before.cpu);
        assert!(after.peak_rss_mb > 0.0);
        assert!(cpus_allowed().unwrap() >= 1);
    }
}
