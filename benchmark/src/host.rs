//! Host-noise control and host facts: CPU pinning, run-until-blocked
//! scheduling, CPU time, `nproc`, CPU model, peak resident set size.
//!
//! Every measured repetition runs in a fresh process pinned to **one**
//! allowed host CPU (see README.md, "Why runs are pinned and ordered"):
//! with the load generator and the server threads free to land on
//! different CPUs, the same replay took anywhere between 2.9 s and 23 s of
//! wall-clock on a 2-CPU host, while pinned it repeats within a few
//! percent. On that one CPU its threads run `SCHED_FIFO` at one priority,
//! which makes their interleaving a function of the program alone
//! ([`run_until_blocked`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

/// Linux `SCHED_FIFO` and `SCHED_BATCH`.
const SCHED_FIFO: i32 = 1;
const SCHED_BATCH: i32 = 3;

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which the last two are the voluntary and involuntary context
/// switches.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    times: [i64; 4],
    counts: [i64; 14],
}

/// `RUSAGE_SELF`: the whole process, exited threads included.
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// The CPUs this process may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread. The kernel writes at most
    // that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread — and every thread it spawns afterwards — to
/// the highest-numbered allowed CPU (CPU 0 tends to take the host's
/// interrupts). Returns the CPU, or `None` when pinning is unavailable;
/// host metrics of an unpinned run are not comparable and are flagged so.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Whether [`run_until_blocked`] took effect in this process.
static RUNS_UNTIL_BLOCKED: AtomicBool = AtomicBool::new(false);

/// Makes the calling thread — and every thread it spawns afterwards —
/// `SCHED_FIFO` at the lowest real-time priority. Called once the process
/// is pinned and before the machine boots, so every server and process
/// thread inherits it. Equal-priority FIFO threads on one CPU have no
/// time slice and never preempt each other: each runs until it blocks,
/// and woken threads run in the order they were woken. The interleaving
/// — hence every message order, hence every simulated number — is then a
/// function of the program alone, not of the host's scheduler.
///
/// This matters because a server answers a request *before* it sends the
/// invalidations and replica notices the request caused. Under the
/// default policy a woken replica server preempts the sender, and when it
/// blocks again the scheduler may pick the driver instead of the sender:
/// the driver's next read then reaches a replica ahead of the notice and
/// is served a stale listing (seen as a 45-cycle difference in one run of
/// `hot_shift` out of eight, one in two with op tracing on).
///
/// Needs `CAP_SYS_NICE` (or an `RLIMIT_RTPRIO` of at least 1); returns
/// whether the kernel agreed.
pub fn run_until_blocked() -> bool {
    let param = SchedParam { sched_priority: 1 };
    // SAFETY: `param` is a live, initialized `struct sched_param` that is
    // only read; pid 0 names the calling thread.
    let ok = unsafe { sched_setscheduler(0, SCHED_FIFO, &param) == 0 };
    RUNS_UNTIL_BLOCKED.store(ok, Ordering::Relaxed);
    ok
}

/// Whether this process's threads run until they block.
pub fn runs_until_blocked() -> bool {
    RUNS_UNTIL_BLOCKED.load(Ordering::Relaxed)
}

/// The fallback where [`run_until_blocked`] is refused: stops the calling
/// thread from preempting others when it wakes up (`SCHED_BATCH`: same
/// weight as before, but a wake-up never cuts the running thread short).
/// The replay driver calls this once every server thread exists, so that
/// waking up on a reply does not preempt the server still sending that
/// request's invalidations. It narrows the race described above, it does
/// not close it. Returns whether the kernel agreed.
pub fn never_preempt_on_wakeup() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, initialized `struct sched_param` that is
    // only read; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &param) == 0 }
}

/// This process's resource usage so far, over all its threads (exited
/// ones too); zeros if the kernel will not say.
fn rusage() -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // kernel fills for 64-bit Linux.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return Rusage::default();
    }
    ru
}

/// Context switches of this process so far, voluntary plus involuntary.
pub fn context_switches() -> u64 {
    let ru = rusage();
    (ru.counts[12] + ru.counts[13]) as u64
}

/// CPU time this process has used so far, user plus system, in
/// nanoseconds. Unlike wall-clock time it leaves out the stretches in
/// which this kernel ran something else (not those in which a hypervisor
/// did).
pub fn cpu_ns() -> u64 {
    let [user_s, user_us, sys_s, sys_us] = rusage().times;
    ((user_s + sys_s) * 1_000_000 + user_us + sys_us) as u64 * 1_000
}

/// A pass-through global allocator that counts allocations: a host-side
/// work count that, unlike wall-clock time, repeats from run to run.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged, so `System`'s
// guarantees carry over; the only addition is a relaxed counter bump,
// which touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) of this process so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
