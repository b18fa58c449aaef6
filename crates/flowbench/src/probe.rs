//! Process-level probes read from outside the program under test: a
//! counting global allocator, on-CPU time and run-queue wait from
//! `/proc/<pid>/task/*/schedstat`, and the resident-set high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` with two relaxed counters in front: allocation calls and
/// bytes requested. `realloc` counts as one call and its growth in bytes.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics only and
// publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and bytes requested by this process so far.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Scheduler accounting of one process, summed over its live threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedSample {
    /// Nanoseconds spent on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub runq_wait_ns: u64,
}

/// Reads fields 1 and 2 of every `/proc/<pid>/task/*/schedstat`. A thread
/// that exits between two reads takes its time with it, so callers read
/// while the threads of interest are alive. Falls back to utime+stime of
/// `/proc/<pid>/stat` (clock ticks, run-queue wait unknown) where
/// schedstat is absent.
pub fn sched_sample(pid: u32) -> SchedSample {
    let mut sum = SchedSample::default();
    let mut seen = false;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            let mut fields = text.split_ascii_whitespace();
            let (Some(cpu), Some(wait)) = (fields.next(), fields.next()) else {
                continue;
            };
            if let (Ok(cpu), Ok(wait)) = (cpu.parse::<u64>(), wait.parse::<u64>()) {
                sum.on_cpu_ns += cpu;
                sum.runq_wait_ns += wait;
                seen = true;
            }
        }
    }
    if !seen {
        sum.on_cpu_ns = stat_cpu_ns(pid).unwrap_or(0);
    }
    sum
}

/// utime+stime of `/proc/<pid>/stat` in nanoseconds, at the kernel's
/// conventional 100 ticks per second.
fn stat_cpu_ns(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis.
    let rest = text.rsplit_once(')')?.1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// CPU use of one process over consecutive sub-windows of a run. The
/// machine's speed wanders by several percent over seconds; the median
/// sub-window is steadier than the total.
pub struct CpuWindows {
    pid: u32,
    marks: Vec<(std::time::Instant, SchedSample)>,
}

impl CpuWindows {
    pub fn start(pid: u32) -> CpuWindows {
        CpuWindows {
            pid,
            marks: vec![(std::time::Instant::now(), sched_sample(pid))],
        }
    }

    /// Ends the current sub-window.
    pub fn mark(&mut self) {
        self.marks
            .push((std::time::Instant::now(), sched_sample(self.pid)));
    }

    /// Median over the sub-windows of CPU-seconds used per second.
    pub fn median_cpu_share(&self) -> f64 {
        let shares: Vec<f64> = self
            .marks
            .windows(2)
            .map(|w| {
                (w[1].1.on_cpu_ns - w[0].1.on_cpu_ns) as f64
                    / (w[1].0 - w[0].0).as_nanos().max(1) as f64
            })
            .collect();
        crate::stats::median(&shares)
    }

    /// Run-queue wait over the whole span, as a share of wall time.
    pub fn runq_wait_share(&self) -> f64 {
        let (first, last) = (self.marks[0], self.marks[self.marks.len() - 1]);
        (last.1.runq_wait_ns - first.1.runq_wait_ns) as f64
            / (last.0 - first.0).as_nanos().max(1) as f64
    }
}

/// `VmHWM` of the process in MiB (0 when `/proc` does not say).
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Usable hardware threads, as the scheduler reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    // The test binary installs the allocator itself: `#[global_allocator]`
    // in `main.rs` covers it, since unit tests are compiled into that crate.

    #[test]
    fn known_vec_moves_the_counters_by_the_known_amount() {
        // Other tests allocate concurrently, so the deltas are lower
        // bounds; the exact check is that one 4 KiB Vec is visible.
        let (calls0, bytes0) = alloc_counters();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (calls1, bytes1) = alloc_counters();
        std::hint::black_box(&v);
        assert!(calls1 > calls0, "allocation call not counted");
        assert!(bytes1 - bytes0 >= 4096, "4096 bytes not counted");
    }

    #[test]
    fn cpu_reader_is_monotone_and_sees_a_spun_thread() {
        let pid = std::process::id();
        let before = sched_sample(pid);
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let (started_tx, started_rx) = mpsc::channel();
        let spinner = {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                started_tx.send(()).expect("main thread waits");
                let mut x = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                x
            })
        };
        started_rx.recv().expect("spinner starts");
        let mid = sched_sample(pid);
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(60) {
            std::thread::yield_now();
        }
        // Read while the spinner is alive: its time leaves with it.
        let after = sched_sample(pid);
        stop.store(true, Ordering::Relaxed);
        spinner.join().expect("spinner exits");
        assert!(mid.on_cpu_ns >= before.on_cpu_ns);
        assert!(
            after.on_cpu_ns >= mid.on_cpu_ns + 20_000_000,
            "60 ms of spinning showed as {} ns",
            after.on_cpu_ns - mid.on_cpu_ns
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb(std::process::id()) > 0.0);
    }
}
