//! Process CPU time and peak resident set.
//!
//! `std` already links libc, so one `extern "C"` declaration is all the
//! CPU clock needs; no crate is added. The struct layout is the 64-bit
//! Linux ABI. The peak resident set comes from `/proc/self/status`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("ranging-bench reads CPU time and RSS through the 64-bit Linux ABI and procfs");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process image so far, megabytes: `VmHWM`
/// of `/proc/self/status`. `getrusage(RUSAGE_SELF)` cannot give it:
/// Linux keeps `ru_maxrss` across `execve`, so under `cargo run` it
/// reads cargo's own peak (about 25 MB) whenever the workload's is lower.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
