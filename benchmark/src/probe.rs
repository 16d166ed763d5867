//! Process-level probes and controls: a process-wide allocation counter,
//! the calling thread's CPU clock, timer slack and CPU affinity, and the
//! peak resident set size.
//!
//! The allocation counter is process-wide (one atomic shared by every
//! thread) so that heap traffic on the translation service's worker thread
//! is counted too; a per-thread counter cannot see it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper counting `alloc`, `alloc_zeroed` and `realloc`
/// requests of every thread; `dealloc` is not counted.
pub struct CountingAllocator;

// SAFETY: every operation defers to `System` with the caller's arguments
// unchanged; the only addition is a relaxed atomic increment, which neither
// allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from this allocator, which handed
        // out `System` memory for them; the contract is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations made by all threads of the process so far. The counter
/// is a statistic only (it publishes no other data), hence `Relaxed`; sample
/// it twice around a region after the region's threads have synchronised
/// with the caller (a joined reply, a returned call).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
    const PR_SET_TIMERSLACK: i32 = 29;

    /// Words of a `cpu_set_t` (1024 CPUs).
    const CPU_SET_WORDS: usize = 16;

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        fn prctl(option: i32, ...) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }

    /// `SCHED_IDLE` from `<sched.h>`.
    const SCHED_IDLE: i32 = 5;

    pub fn make_current_thread_idle_class() -> bool {
        let priority = 0i32;
        // SAFETY: `param` points to a `struct sched_param`, whose only field
        // is the `int` priority (0 for `SCHED_IDLE`); pid 0 names the
        // calling thread, and lowering its own policy needs no privilege.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
    }

    pub fn pin_current_thread(cpu: usize) -> bool {
        if cpu >= CPU_SET_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable `cpu_set_t` of the size passed, and
        // pid 0 names the calling thread; failure is reported, not fatal.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }

    pub fn set_timer_slack_ns(nanos: u64) {
        // SAFETY: `PR_SET_TIMERSLACK` takes one unsigned long argument and
        // only changes the calling thread's timer slack.
        let rc = unsafe { prctl(PR_SET_TIMERSLACK, nanos) };
        assert_eq!(rc, 0, "prctl(PR_SET_TIMERSLACK) failed");
    }

    pub fn thread_cpu_nanos() -> u64 {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on the 64-bit Linux targets this module is compiled for)
        // and the clock id is a constant the kernel always accepts.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Timer slack is left at the platform default.
    pub fn set_timer_slack_ns(_nanos: u64) {}

    /// Threads are left where the scheduler puts them.
    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }

    /// Scheduling classes are left alone.
    pub fn make_current_thread_idle_class() -> bool {
        false
    }

    /// Wall time stands in where no per-thread CPU clock is wired up.
    pub fn thread_cpu_nanos() -> u64 {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// CPU time consumed by the calling thread so far. Unlike wall time it does
/// not count the time the thread was descheduled, which is what makes
/// per-function compile times repeatable on a shared host.
pub fn thread_cpu() -> Duration {
    Duration::from_nanos(sys::thread_cpu_nanos())
}

/// Lets the calling thread's sleeps end within `nanos` of their deadline
/// instead of the default 50 µs of slack, so a sleeping load generator can
/// still send on time.
pub fn set_timer_slack(nanos: u64) {
    sys::set_timer_slack_ns(nanos);
}

/// Restricts the calling thread, and the threads it spawns from now on, to
/// CPU `cpu`. Returns whether the kernel accepted it.
pub fn pin_current_thread(cpu: usize) -> bool {
    sys::pin_current_thread(cpu)
}

/// Moves the calling thread to the `SCHED_IDLE` class: it then runs only
/// when nothing else wants its CPU, and any other thread woken there
/// preempts it at once. Returns whether the kernel accepted it.
pub fn make_current_thread_idle_class() -> bool {
    sys::make_current_thread_idle_class()
}

/// Peak resident set size of the process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 =
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_advances_with_work() {
        let _serial = crate::tests::serial();
        let start = thread_cpu();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        assert!(thread_cpu() > start);
    }

    #[test]
    fn allocations_are_counted_across_threads() {
        let _serial = crate::tests::serial();
        let before = allocations();
        std::thread::spawn(|| std::hint::black_box(vec![1u8; 64])).join().expect("thread ran");
        assert!(allocations() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        let _serial = crate::tests::serial();
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
