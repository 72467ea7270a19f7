//! Whole-process probes: CPU time, context switches and peak memory from
//! `getrusage`, threads and sockets from `/proc/self`, and a counting
//! global allocator. The in-process servers share the process, so every
//! figure covers client and servers together.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Resource counters of the whole process at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU, seconds, summed over all threads.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set so far, MB.
    pub peak_rss_mb: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` with the
        // kernel's layout, and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
        Usage {
            cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
            ctx_switches: (ru.ru_nvcsw + ru.ru_nivcsw) as u64,
            // Linux reports kilobytes.
            peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
        }
    }
}

/// Threads of this process, from `/proc/self/status`.
pub fn threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Open socket descriptors of this process (client and server ends).
pub fn sockets() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/fd") else {
        return 0;
    };
    dir.filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count() as u64
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while [`count_allocs`] is
/// on. Off, it costs one relaxed load per allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Turns allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations and bytes counted so far.
pub fn allocs() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
