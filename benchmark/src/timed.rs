//! The observation point of the benchmark: a delegating newtype around a
//! process handle that records, for every [`fsapi::ProcFs`] call (and
//! `spawn`), the virtual clock and the host clock before and after.
//!
//! An *op* everywhere in this benchmark is one such call. Nothing inside
//! the program changes: the wrapper sees only the public traits.
//!
//! Samples go to a per-thread buffer (no lock on the hot path) and are
//! flushed to a process-wide sink when a simulated process exits or the
//! harness drains. Recording is switched by the harness, so set-up and
//! verification traffic is never mixed into the measured region. With
//! spans on (the traced repetition only) each call additionally keeps its
//! start/end in both time domains and its parent phase span.

use fsapi::{
    DirEntry, Fd, FsResult, MkdirOpts, Mode, OpenFlags, ProcFs, ProcHandle, ProcJoin, ProcMain,
    Stat, System, VClock, Whence,
};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a recorded call was. The first twelve are the per-layer
/// `fsapi.<kind>.*` metrics; the rest only count towards the totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Open,
    Creat,
    Close,
    Read,
    Write,
    Fsync,
    Unlink,
    Mkdir,
    Rmdir,
    Rename,
    Readdir,
    Stat,
    /// `lseek`, `ftruncate`, `dup`, `pipe`.
    Other,
    Spawn,
}

/// The kinds that get their own `fsapi.<kind>.*` metrics.
pub const LAYER_KINDS: [Kind; 12] = [
    Kind::Open,
    Kind::Creat,
    Kind::Close,
    Kind::Read,
    Kind::Write,
    Kind::Fsync,
    Kind::Unlink,
    Kind::Mkdir,
    Kind::Rmdir,
    Kind::Rename,
    Kind::Readdir,
    Kind::Stat,
];

impl Kind {
    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Open => "open",
            Kind::Creat => "creat",
            Kind::Close => "close",
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Fsync => "fsync",
            Kind::Unlink => "unlink",
            Kind::Mkdir => "mkdir",
            Kind::Rmdir => "rmdir",
            Kind::Rename => "rename",
            Kind::Readdir => "readdir",
            Kind::Stat => "stat",
            Kind::Other => "other",
            Kind::Spawn => "spawn",
        }
    }
}

/// One observed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Virtual cycles the caller's timeline advanced.
    pub vlat: u64,
    /// Host nanoseconds the call took (saturating).
    pub host_ns: u32,
    pub kind: Kind,
    /// Whether the call returned `Ok`.
    pub ok: bool,
}

/// One harness span (traced repetition only): a phase of the run or one
/// call, in both time domains.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Enclosing phase span; 0 for a phase itself.
    pub parent: u32,
    pub name: &'static str,
    /// Client id of the caller (0 for phases).
    pub lane: u64,
    /// Host nanoseconds since the process's span epoch.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub v_start: u64,
    pub v_end: u64,
}

/// What the harness needs from a process handle beyond the POSIX
/// surface: an identity for span lanes and the dircache counters.
pub trait Client: ProcFs + VClock {
    /// A stable id of the simulated process.
    fn lane(&self) -> u64;
    /// Directory-cache `(hits, misses, invalidations)` so far.
    fn dircache(&self) -> (u64, u64, u64);
}

impl Client for hare_core::ClientLib {
    fn lane(&self) -> u64 {
        self.id()
    }
    fn dircache(&self) -> (u64, u64, u64) {
        self.dircache_stats()
    }
}

impl Client for hare_sched::HareProc {
    fn lane(&self) -> u64 {
        self.lib().id()
    }
    fn dircache(&self) -> (u64, u64, u64) {
        self.lib().dircache_stats()
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static SPANS_ON: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU32 = AtomicU32::new(1);
static CUR_PHASE: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Recorded> = Mutex::new(Recorded::new());

thread_local! {
    static LOCAL: RefCell<Recorded> = const { RefCell::new(Recorded::new()) };
}

/// Everything recorded so far.
#[derive(Debug, Default)]
pub struct Recorded {
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    /// Summed dircache counters of simulated processes that exited while
    /// recording (worker processes are not reachable afterwards).
    pub exited_dircache: [u64; 3],
}

impl Recorded {
    const fn new() -> Recorded {
        Recorded {
            samples: Vec::new(),
            spans: Vec::new(),
            exited_dircache: [0; 3],
        }
    }

    fn absorb(&mut self, other: &mut Recorded) {
        self.samples.append(&mut other.samples);
        self.spans.append(&mut other.spans);
        for (mine, theirs) in self
            .exited_dircache
            .iter_mut()
            .zip(&mut other.exited_dircache)
        {
            *mine += std::mem::take(theirs);
        }
    }
}

fn host_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switches sample recording. The calling thread's buffer is pre-sized
/// for `expect` samples when turning on, so growth does not land inside
/// the measured region.
pub fn set_recording(on: bool, expect: usize) {
    if on {
        LOCAL.with(|l| l.borrow_mut().samples.reserve(expect));
    }
    RECORDING.store(on, Ordering::SeqCst);
}

/// Switches span recording (the traced repetition).
pub fn set_spans(on: bool) {
    EPOCH.get_or_init(Instant::now);
    SPANS_ON.store(on, Ordering::SeqCst);
}

/// Moves the calling thread's buffer into the process-wide sink.
fn flush_thread() {
    LOCAL.with(|l| {
        SINK.lock()
            .expect("sink lock poisoned by a panicking recorder")
            .absorb(&mut l.borrow_mut())
    });
}

/// Takes everything recorded so far (the caller's buffer included).
pub fn drain() -> Recorded {
    flush_thread();
    std::mem::take(
        &mut *SINK
            .lock()
            .expect("sink lock poisoned by a panicking recorder"),
    )
}

/// Runs `f` inside a harness *phase* span (boot, populate, measure, ...)
/// when spans are on; `vnow` reads the virtual clock the phase is
/// reported against. Calls recorded meanwhile become its children.
pub fn phase<R>(name: &'static str, vnow: &dyn Fn() -> u64, f: impl FnOnce() -> R) -> R {
    if !SPANS_ON.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let outer = CUR_PHASE.swap(id, Ordering::SeqCst);
    let (h0, v0) = (host_ns(), vnow());
    let r = f();
    let span = Span {
        id,
        parent: outer,
        name,
        lane: 0,
        host_start_ns: h0,
        host_end_ns: host_ns(),
        v_start: v0,
        v_end: vnow(),
    };
    CUR_PHASE.store(outer, Ordering::SeqCst);
    LOCAL.with(|l| l.borrow_mut().spans.push(span));
    r
}

/// Runs one call of `kind` on behalf of `c`, recording it when the
/// harness has recording on.
#[inline]
pub fn observe<C: Client + ?Sized, R>(
    c: &C,
    kind: Kind,
    f: impl FnOnce() -> FsResult<R>,
) -> FsResult<R> {
    if !RECORDING.load(Ordering::Relaxed) {
        return f();
    }
    let spans = SPANS_ON.load(Ordering::Relaxed);
    let h_start = if spans { host_ns() } else { 0 };
    let v0 = c.vnow();
    let t0 = Instant::now();
    let r = f();
    let host = t0.elapsed().as_nanos();
    let v1 = c.vnow();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.samples.push(Sample {
            vlat: v1.saturating_sub(v0),
            host_ns: u32::try_from(host).unwrap_or(u32::MAX),
            kind,
            ok: r.is_ok(),
        });
        if spans {
            l.spans.push(Span {
                id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
                parent: CUR_PHASE.load(Ordering::Relaxed),
                name: kind.name(),
                lane: c.lane(),
                host_start_ns: h_start,
                host_end_ns: h_start + host as u64,
                v_start: v0,
                v_end: v1,
            });
        }
    });
    r
}

/// The delegating observer. `#[repr(transparent)]` so a borrowed child
/// handle can be viewed as a borrowed `Timed` child (see `spawn`).
#[repr(transparent)]
pub struct Timed<T>(pub T);

impl<T: Client> ProcFs for Timed<T> {
    fn open(&self, path: &str, flags: OpenFlags, mode: Mode) -> FsResult<Fd> {
        let kind = if flags.contains(OpenFlags::CREAT) {
            Kind::Creat
        } else {
            Kind::Open
        };
        observe(&self.0, kind, || self.0.open(path, flags, mode))
    }
    fn close(&self, fd: Fd) -> FsResult<()> {
        observe(&self.0, Kind::Close, || self.0.close(fd))
    }
    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        observe(&self.0, Kind::Read, || self.0.read(fd, buf))
    }
    fn write(&self, fd: Fd, buf: &[u8]) -> FsResult<usize> {
        observe(&self.0, Kind::Write, || self.0.write(fd, buf))
    }
    fn lseek(&self, fd: Fd, offset: i64, whence: Whence) -> FsResult<u64> {
        observe(&self.0, Kind::Other, || self.0.lseek(fd, offset, whence))
    }
    fn fsync(&self, fd: Fd) -> FsResult<()> {
        observe(&self.0, Kind::Fsync, || self.0.fsync(fd))
    }
    fn ftruncate(&self, fd: Fd, len: u64) -> FsResult<()> {
        observe(&self.0, Kind::Other, || self.0.ftruncate(fd, len))
    }
    fn dup(&self, fd: Fd) -> FsResult<Fd> {
        observe(&self.0, Kind::Other, || self.0.dup(fd))
    }
    fn pipe(&self) -> FsResult<(Fd, Fd)> {
        observe(&self.0, Kind::Other, || self.0.pipe())
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        observe(&self.0, Kind::Unlink, || self.0.unlink(path))
    }
    fn mkdir_opts(&self, path: &str, mode: Mode, opts: MkdirOpts) -> FsResult<()> {
        observe(&self.0, Kind::Mkdir, || self.0.mkdir_opts(path, mode, opts))
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        observe(&self.0, Kind::Rmdir, || self.0.rmdir(path))
    }
    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        observe(&self.0, Kind::Rename, || self.0.rename(old, new))
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        observe(&self.0, Kind::Readdir, || self.0.readdir(path))
    }
    fn stat(&self, path: &str) -> FsResult<Stat> {
        observe(&self.0, Kind::Stat, || self.0.stat(path))
    }
    fn fstat(&self, fd: Fd) -> FsResult<Stat> {
        observe(&self.0, Kind::Stat, || self.0.fstat(fd))
    }
}

impl<T: Client> VClock for Timed<T> {
    fn vnow(&self) -> u64 {
        self.0.vnow()
    }
    fn vwait(&self, t: u64) {
        self.0.vwait(t)
    }
}

impl<P: ProcHandle + Client> ProcHandle for Timed<P> {
    fn spawn(&self, main: ProcMain<Self>) -> FsResult<ProcJoin> {
        observe(&self.0, Kind::Spawn, || {
            self.0.spawn(Box::new(move |child: &P| {
                // SAFETY: `Timed<P>` is `#[repr(transparent)]` over `P`, so
                // `&P` and `&Timed<P>` have identical layout and validity;
                // the borrow's lifetime is carried over unchanged and the
                // view adds no ownership (nothing is dropped through it).
                let child: &Timed<P> = unsafe { &*(child as *const P).cast::<Timed<P>>() };
                let status = main(child);
                // The process's thread ends here: hand its samples (and,
                // while recording, its dircache counters) to the sink.
                if RECORDING.load(Ordering::Relaxed) {
                    let d = child.0.dircache();
                    LOCAL.with(|l| {
                        let e = &mut l.borrow_mut().exited_dircache;
                        *e = [e[0] + d.0, e[1] + d.1, e[2] + d.2];
                    });
                }
                flush_thread();
                status
            }))
        })
    }
    fn core(&self) -> usize {
        self.0.core()
    }
    fn compute(&self, cycles: u64) {
        self.0.compute(cycles)
    }
}

/// A [`System`] whose processes are observed. `on_sync` runs at every
/// phase barrier — `hare_workloads::run` calls `sync_cores` exactly once,
/// between a workload's set-up and its measured region, which is how the
/// harness finds that boundary without touching the workloads.
pub struct TimedSystem<S> {
    pub sys: Arc<S>,
    pub on_sync: Box<dyn Fn() + Send + Sync>,
}

impl<S: System> System for TimedSystem<S>
where
    S::Proc: Client,
{
    type Proc = Timed<S::Proc>;

    fn start_proc(&self) -> Timed<S::Proc> {
        Timed(self.sys.start_proc())
    }
    fn elapsed_cycles(&self) -> u64 {
        self.sys.elapsed_cycles()
    }
    fn sync_cores(&self) {
        self.sys.sync_cores();
        (self.on_sync)();
    }
    fn ncores(&self) -> usize {
        self.sys.ncores()
    }
}
