//! This process's CPU time.
//!
//! The simulator is single-threaded, so on an idle machine its CPU time
//! equals its wall time. Unlike wall time, CPU time leaves out the time
//! the process waited for a core: other processes on a shared machine,
//! or (with paravirtual steal-time accounting) the hypervisor running
//! another guest on the same physical core.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads the process CPU clock of Linux");

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time the process has used so far, all threads together.
///
/// # Panics
/// Panics if the kernel refuses the clock, which Linux never does.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    let secs = u64::try_from(ts.tv_sec).unwrap_or(0);
    let nanos = u32::try_from(ts.tv_nsec).unwrap_or(0);
    Duration::new(secs, nanos)
}
