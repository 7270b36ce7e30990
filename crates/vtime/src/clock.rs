//! Per-core virtual clocks.

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// The set of per-core virtual clocks of one simulated machine.
///
/// Clocks are monotone `u64` cycle counters. Entities (application client
/// libraries, file servers, scheduling servers) bound to a core advance that
/// core's clock; entities sharing a core therefore automatically time-share
/// it, which is how the paper's "timeshare" configuration (server and
/// application on every core, §5.3.2) is modelled.
///
/// All operations are thread-safe: simulated processes are real OS threads
/// (each also steps the servers it talks to) and race on these counters
/// with atomic read-modify-write.
pub struct Clocks {
    cores: Vec<CachePadded<AtomicU64>>,
}

impl Clocks {
    /// Creates `n` clocks at time zero.
    pub fn new(n: usize) -> Self {
        Clocks {
            cores: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.cores.len()
    }

    /// Current virtual time of `core`.
    pub fn now(&self, core: usize) -> u64 {
        self.cores[core].load(Ordering::SeqCst)
    }

    /// Advances `core` by `cycles` of busy work; returns the new time.
    pub fn advance(&self, core: usize, cycles: u64) -> u64 {
        self.cores[core].fetch_add(cycles, Ordering::SeqCst) + cycles
    }

    /// Moves `core` forward to at least `t` (waiting for an event that
    /// completes at `t`); returns the resulting time.
    pub fn observe(&self, core: usize, t: u64) -> u64 {
        self.cores[core].fetch_max(t, Ordering::SeqCst).max(t)
    }

    /// Serves a request on `core`: the core becomes busy from
    /// `max(now, arrival)` for `service` cycles; returns the completion time.
    ///
    /// This is the queueing primitive: concurrent requests to the same core
    /// serialize, so a hot server core accumulates virtual queueing delay
    /// exactly as a real single server would.
    pub fn serve(&self, core: usize, arrival: u64, service: u64) -> u64 {
        let cell = &self.cores[core];
        let mut cur = cell.load(Ordering::SeqCst);
        loop {
            let done = cur.max(arrival) + service;
            match cell.compare_exchange_weak(cur, done, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return done,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Maximum clock over all cores: the virtual runtime of everything that
    /// has executed on this machine so far.
    pub fn max_time(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .max()
            .unwrap_or(0)
    }

    /// Advances every core to the global maximum: a synchronization
    /// barrier between experiment phases (setup vs. measured region), so
    /// work done after the barrier cannot overlap work done before it.
    pub fn sync_all(&self) -> u64 {
        let t = self.max_time();
        for c in &self.cores {
            c.fetch_max(t, Ordering::SeqCst);
        }
        t
    }

    /// Snapshot of all core clocks (for per-core utilization reports).
    pub fn snapshot(&self) -> Vec<u64> {
        self.cores
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect()
    }
}

/// A virtual clock for a single serialization point that is not a core:
/// a lock, a single-threaded server, a loopback NFS daemon.
///
/// `serve` has the same queueing semantics as [`Clocks::serve`]: requests
/// arriving while the resource is busy accumulate virtual queueing delay.
/// This is how the baselines model Linux's per-directory lock contention
/// and UNFS3's single-server bottleneck.
#[derive(Debug, Default)]
pub struct ResourceClock(AtomicU64);

impl ResourceClock {
    /// A resource clock at time zero.
    pub fn new() -> Self {
        ResourceClock(AtomicU64::new(0))
    }

    /// Occupies the resource from `max(now, arrival)` for `hold` cycles;
    /// returns the release time.
    pub fn serve(&self, arrival: u64, hold: u64) -> u64 {
        let mut cur = self.0.load(Ordering::SeqCst);
        loop {
            let done = cur.max(arrival) + hold;
            match self
                .0
                .compare_exchange_weak(cur, done, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return done,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current virtual time of the resource.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn resource_clock_serializes() {
        let r = ResourceClock::new();
        assert_eq!(r.serve(0, 10), 10);
        assert_eq!(r.serve(0, 10), 20);
        assert_eq!(r.serve(100, 10), 110);
        assert_eq!(r.now(), 110);
    }

    #[test]
    fn advance_and_observe() {
        let c = Clocks::new(2);
        assert_eq!(c.advance(0, 100), 100);
        assert_eq!(c.advance(0, 50), 150);
        assert_eq!(c.observe(0, 120), 150, "observe never goes backwards");
        assert_eq!(c.observe(0, 500), 500);
        assert_eq!(c.now(1), 0);
        assert_eq!(c.max_time(), 500);
    }

    #[test]
    fn serve_serializes() {
        let c = Clocks::new(1);
        // Two requests arriving at t=0 with service 100 finish at 100, 200.
        let d1 = c.serve(0, 0, 100);
        let d2 = c.serve(0, 0, 100);
        assert_eq!(d1, 100);
        assert_eq!(d2, 200);
        // A request arriving after the core went idle starts at its arrival.
        let d3 = c.serve(0, 1000, 10);
        assert_eq!(d3, 1010);
    }

    #[test]
    fn serve_is_thread_safe() {
        let c = Arc::new(Clocks::new(1));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.serve(0, 0, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 8000 services of 1 cycle each, all arriving at 0: exactly 8000.
        assert_eq!(c.now(0), 8000);
    }

    #[test]
    fn snapshot_reports_all_cores() {
        let c = Clocks::new(3);
        c.advance(1, 7);
        assert_eq!(c.snapshot(), vec![0, 7, 0]);
    }
}
