//! Per-thread CPU time for the paired solver timing of
//! `bench_throughput`.
//!
//! A thread's CPU clock advances only while that thread runs, so time
//! the host gives to other processes stays out of the measurement — the
//! reason a paired ratio holds on a loaded machine where a wall-clock one
//! does not. `std` already links libc, so one `extern "C"` declaration
//! is all it takes; no crate is added.

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_long};

    /// `struct timespec` of the Linux C ABI (`time_t` is a `long`).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    }

    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    pub fn thread_cpu_s() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// CPU time consumed so far by the calling thread, seconds. Only
/// differences between two readings on the same thread are meaningful.
///
/// Linux reads the thread's CPU clock. Other targets fall back to a
/// monotonic wall clock, which counts time the thread spends descheduled.
pub fn thread_cpu_s() -> f64 {
    #[cfg(target_os = "linux")]
    {
        sys::thread_cpu_s()
    }
    #[cfg(not(target_os = "linux"))]
    {
        static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
        EPOCH
            .get_or_init(std::time::Instant::now)
            .elapsed()
            .as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_advances_with_work() {
        let t0 = thread_cpu_s();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(acc);
        assert!(thread_cpu_s() > t0);
    }
}
