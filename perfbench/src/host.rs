//! What the process sees of itself: peak resident set, CPU time, and (in
//! the traced executable only) live heap bytes from a counting allocator.
//! Linux only, like the rest of the benchmark's host probes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const MIB: f64 = 1024.0 * 1024.0;

/// The process's peak resident set in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, after handing freed heap
/// back to the OS, so the next [`peak_rss_mib`] is the peak since this
/// call and not the largest earlier footprint (the approach
/// `scale_engine` uses). Best effort: without `clear_refs` the peak stays
/// the process's lifetime high-water mark.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers and only returns free
        // memory to the OS; glibc's allocator locks make it thread-safe,
        // and no other thread of this process allocates at this point.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User and system CPU seconds of the whole process so far, threads that
/// already exited included (`getrusage(RUSAGE_SELF)`).
pub fn cpu_seconds() -> (f64, f64) {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable struct with the layout of the
    // x86-64/aarch64 Linux `struct rusage` (two timevals, fourteen longs),
    // which getrusage fills and does not retain.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return (0.0, 0.0);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    (secs(&usage.utime), secs(&usage.stime))
}

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A counting wrapper over the system allocator: live heap bytes and their
/// high-water mark. Only the traced executable installs it as the global
/// allocator; elsewhere both counters stay at 0.
pub struct CountingAlloc;

impl CountingAlloc {
    fn grew(size: usize) {
        // Statistics only: Relaxed is enough, nothing else is published.
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adjusts two counters, so `System`'s guarantees hold.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        p
    }
}

/// Live heap bytes, in MiB (0 without the counting allocator).
pub fn live_heap_mib() -> f64 {
    LIVE.load(Ordering::Relaxed) as f64 / MIB
}

/// Peak live heap since the last [`reset_heap_peak`], in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / MIB
}

pub fn reset_heap_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// CPU seconds the hypervisor stole from this machine's vCPUs so far,
/// summed over vCPUs (`/proc/stat`, 100 ticks per second). Logged beside
/// each simulation: a slow simulation under high steal was slowed by
/// other tenants of the host, not by the program.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}
