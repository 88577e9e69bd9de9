//! The clock every timed op, set-up and span reads: CPU time of this process.
//!
//! On a small shared virtual machine the hypervisor now and then runs another
//! tenant on the benchmark's vCPU (steal time), and other processes in the
//! guest take turns on its cores. A wall-clock op time then measures the
//! neighbours as much as the program. The kernel charges a process only for
//! the time it actually ran, and with paravirtual steal accounting (Linux
//! `CONFIG_PARAVIRT_TIME_ACCOUNTING`) it leaves steal out as well, so CPU time
//! measures the program's own work. Timed ops run on one worker, so on an
//! idle core an op's CPU time is its wall time.

use std::ffi::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time this process has used so far, over all its threads (running or
/// joined), in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Runs `f` and returns its result with the CPU seconds it took.
pub fn cpu_time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = cpu_ns();
    let r = f();
    (r, (cpu_ns() - t) as f64 * 1e-9)
}

/// `(steal ticks, all ticks)` of the guest's vCPUs so far, from the first
/// line of `/proc/stat`.
pub fn host_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice]; the
    // guest columns are already counted in user and nice.
    let steal = ticks.get(7).copied().unwrap_or(0);
    let total = ticks.iter().take(8).sum();
    (steal, total)
}
