//! Probes: each layer's public functions timed in isolation, in a pinned
//! process of their own. They are workload-independent — the same numbers
//! are reported beside every workload's traced run — and they are the
//! criterion set of `crates/bench/benches/micro.rs` (which no lane runs)
//! plus boot, registration and the two accuracy anchors.
//!
//! Every host timing is the median of several batches.

use crate::rig::Metrics;
use crate::stats::median;
use fsapi::{Fd, FsResult, MkdirOpts, Mode, OpenFlags, ProcFs, System, VClock, Whence};
use hare_core::{HareConfig, HareInstance, Techniques};
use hare_sched::HareSystem;
use hare_workloads::trace::{replay, synth_mix, MixSpec, MixWeights};
use hare_workloads::{Scale, Workload};
use nccmem::{BlockId, Dram, PrivateCache};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 7;

/// Median over [`BATCHES`] batches of the mean nanoseconds one call of
/// `f` takes within a batch of `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Milliseconds one call of `f` takes.
fn ms_once<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

fn msg_layer(out: &mut Metrics) {
    let (tx, rx) = msg::channel::<u64>(msg::MsgStats::shared());
    out.put(
        "msg.send_recv_ns",
        ns_per_call(200_000, || {
            tx.send(42, 0, 0).expect("open channel");
            black_box(rx.try_recv().expect("queued message"));
        }),
    );
    // Cross-thread round trip: what one RPC pays for its two hand-offs.
    let (ping_tx, ping_rx) = msg::channel::<u64>(msg::MsgStats::shared());
    let (pong_tx, pong_rx) = msg::channel::<u64>(msg::MsgStats::shared());
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(env) = ping_rx.recv() {
                if pong_tx.send(env.payload, 0, 0).is_err() {
                    break;
                }
            }
        });
        out.put(
            "msg.pingpong_us",
            ns_per_call(20_000, || {
                ping_tx.send(1, 0, 0).expect("echo thread alive");
                black_box(pong_rx.recv().expect("echo"));
            }) / 1e3,
        );
        ping_tx.close();
    });
}

fn nccmem_layer(out: &mut Metrics) {
    for (name, cores) in [("nccmem.dram_new_ms_8c", 8), ("nccmem.dram_new_ms_64c", 64)] {
        let (dram, ms) = ms_once(|| Dram::new(HareConfig::timeshare(cores).dram_blocks));
        black_box(dram.nblocks());
        out.put(name, ms);
    }
    let dram = Dram::new(4);
    let mut cache = PrivateCache::new(8);
    let mut buf = [0u8; 4096];
    cache.read(&dram, BlockId(0), 0, &mut buf);
    out.put(
        "nccmem.cache_hit_4k_ns",
        ns_per_call(200_000, || {
            cache.read(&dram, BlockId(0), 0, &mut buf);
            black_box(buf[0]);
        }),
    );
    out.put(
        "nccmem.cache_miss_4k_ns",
        ns_per_call(200_000, || {
            cache.invalidate(BlockId(0));
            cache.read(&dram, BlockId(0), 0, &mut buf);
            black_box(buf[0]);
        }),
    );
    out.put(
        "nccmem.writeback_4k_ns",
        ns_per_call(200_000, || {
            cache.write(&dram, BlockId(0), 0, &[1u8; 64]);
            cache.writeback(&dram, BlockId(0));
        }),
    );
}

/// §5.3.3: one `rename` with the two-RPC protocol (batching off), client
/// and server on the same core vs. on separate cores. Returns the model's
/// error against the paper's hardware measurement.
fn rename_error(cfg: HareConfig, paper_us: f64) -> f64 {
    const ITERS: u64 = 2000;
    let sys = HareSystem::start(cfg);
    let root = sys.start_proc();
    fsapi::write_file(&root, "/a", b"x").expect("setup");
    sys.sync_cores();
    let t0 = sys.elapsed_cycles();
    for i in 0..ITERS {
        let (from, to) = if i % 2 == 0 {
            ("/a", "/b")
        } else {
            ("/b", "/a")
        };
        root.rename(from, to).expect("rename");
    }
    let cycles = sys.elapsed_cycles() - t0;
    drop(root);
    sys.shutdown();
    let us = cycles as f64 / ITERS as f64 / vtime::CYCLES_PER_US as f64;
    (us - paper_us).abs() / paper_us
}

fn vtime_anchors(out: &mut Metrics) {
    let unbatched = |mut cfg: HareConfig| {
        cfg.techniques = Techniques::without("batching");
        cfg
    };
    out.put(
        "vtime.err_rename_timeshare",
        rename_error(unbatched(HareConfig::timeshare(1)), 7.204),
    );
    out.put(
        "vtime.err_rename_split",
        rename_error(unbatched(HareConfig::split(2, 1)), 4.171),
    );
}

/// Boot, registration and shutdown at both machine sizes.
fn instance_and_registration(out: &mut Metrics) {
    for (cores, tag) in [(8usize, "8c"), (64, "64c")] {
        let (inst, start_ms) = ms_once(|| HareInstance::start(HareConfig::timeshare(cores)));
        out.put(format!("instance.start_ms_{tag}"), start_ms);
        let per_client: Vec<f64> = (0..BATCHES)
            .map(|i| {
                let t = Instant::now();
                let c = inst.new_client(i % cores).expect("register");
                let us = t.elapsed().as_secs_f64() * 1e6;
                c.shutdown();
                us
            })
            .collect();
        out.put(format!("client.new_client_us_{tag}"), median(&per_client));
        let ((), shutdown_ms) = ms_once(|| inst.shutdown());
        if cores == 64 {
            out.put("instance.shutdown_ms_64c", shutdown_ms);
        }
    }
}

/// The client hot paths through real server threads, as the criterion
/// bench drives them.
fn client_ops(out: &mut Metrics) {
    let inst = HareInstance::start(HareConfig::timeshare(8));
    let c = inst.new_client(0).expect("register");
    c.mkdir("/probe", Mode::default()).expect("mkdir");
    fsapi::write_file(&c, "/probe/f", &[7u8; 1024]).expect("write");
    c.stat("/probe/f").expect("warm");
    let v0 = c.vnow();
    const STATS: usize = 5_000;
    let stat_ns = ns_per_call(STATS, || {
        black_box(c.stat("/probe/f").expect("stat"));
    });
    out.put("client.stat_warm_host_us", stat_ns / 1e3);
    out.put(
        "client.stat_warm_vcycles",
        (c.vnow() - v0) as f64 / (STATS * BATCHES) as f64,
    );
    out.put(
        "client.open_close_host_us",
        ns_per_call(3_000, || {
            let fd = c
                .open("/probe/f", OpenFlags::RDONLY, Mode::default())
                .expect("open");
            c.close(fd).expect("close");
        }) / 1e3,
    );
    let serial = Cell::new(0u64);
    out.put(
        "client.create_close_host_us",
        ns_per_call(2_000, || {
            serial.set(serial.get() + 1);
            let fd = c
                .open(
                    &format!("/probe/c{}", serial.get()),
                    OpenFlags::CREAT | OpenFlags::WRONLY,
                    Mode::default(),
                )
                .expect("create");
            c.close(fd).expect("close");
        }) / 1e3,
    );
    fsapi::write_file(&c, "/probe/mv_a", b"x").expect("write");
    out.put(
        "client.rename_host_us",
        ns_per_call(1_500, || {
            c.rename("/probe/mv_a", "/probe/mv_b").expect("rename");
            c.rename("/probe/mv_b", "/probe/mv_a").expect("rename");
        }) / 2e3,
    );
    c.shutdown();
    inst.shutdown();
}

fn sched_layer(out: &mut Metrics) {
    let starts: Vec<f64> = (0..3)
        .map(|_| {
            let (sys, ms) = ms_once(|| HareSystem::start(HareConfig::timeshare(8)));
            sys.shutdown();
            ms
        })
        .collect();
    out.put("sched.system_start_ms", median(&starts));
}

/// A file system that does nothing, on a clock that never moves: what is
/// left of a replay is the driver itself.
struct NoopFs {
    calls: Cell<u64>,
}

impl NoopFs {
    fn hit<T>(&self, v: T) -> FsResult<T> {
        self.calls.set(self.calls.get() + 1);
        Ok(v)
    }
}

impl VClock for NoopFs {
    fn vnow(&self) -> u64 {
        0
    }
    fn vwait(&self, _t: u64) {}
}

impl ProcFs for NoopFs {
    fn open(&self, _: &str, _: OpenFlags, _: Mode) -> FsResult<Fd> {
        self.hit(Fd(3))
    }
    fn close(&self, _: Fd) -> FsResult<()> {
        self.hit(())
    }
    fn read(&self, _: Fd, buf: &mut [u8]) -> FsResult<usize> {
        self.hit(buf.len())
    }
    fn write(&self, _: Fd, buf: &[u8]) -> FsResult<usize> {
        self.hit(buf.len())
    }
    fn lseek(&self, _: Fd, _: i64, _: Whence) -> FsResult<u64> {
        self.hit(0)
    }
    fn fsync(&self, _: Fd) -> FsResult<()> {
        self.hit(())
    }
    fn ftruncate(&self, _: Fd, _: u64) -> FsResult<()> {
        self.hit(())
    }
    fn dup(&self, fd: Fd) -> FsResult<Fd> {
        self.hit(fd)
    }
    fn pipe(&self) -> FsResult<(Fd, Fd)> {
        self.hit((Fd(3), Fd(4)))
    }
    fn unlink(&self, _: &str) -> FsResult<()> {
        self.hit(())
    }
    fn mkdir_opts(&self, _: &str, _: Mode, _: MkdirOpts) -> FsResult<()> {
        self.hit(())
    }
    fn rmdir(&self, _: &str) -> FsResult<()> {
        self.hit(())
    }
    fn rename(&self, _: &str, _: &str) -> FsResult<()> {
        self.hit(())
    }
    fn readdir(&self, _: &str) -> FsResult<Vec<fsapi::DirEntry>> {
        self.hit(Vec::new())
    }
    fn stat(&self, _: &str) -> FsResult<fsapi::Stat> {
        self.hit(fsapi::Stat {
            ino: 1,
            server: 0,
            ftype: fsapi::FileType::Regular,
            size: 0,
            nlink: 1,
            mode: 0o644,
            blocks: 0,
        })
    }
    fn fstat(&self, _: Fd) -> FsResult<fsapi::Stat> {
        self.stat("")
    }
}

/// The load generator's own cost: generating a `meta_mix`-shaped trace,
/// and replaying it against the no-op file system.
fn workloads_layer(out: &mut Metrics) {
    const RECORDS: usize = 100_000;
    const CLIENTS: usize = 8;
    let spec = MixSpec {
        name: "probe".into(),
        clients: CLIENTS,
        ops_per_client: RECORDS / CLIENTS,
        seed: 7,
        dirs: (0..32)
            .map(|i| (format!("/mm/g{}/d{i}", i / 8), 1))
            .collect(),
        think: 0..40,
        weights: MixWeights {
            stat: 8,
            read: 4,
            creat: 3,
            unlink: 3,
            rename: 1,
            readdir: 1,
        },
        file_size: 1024,
    };
    let t = Instant::now();
    let trace = synth_mix(&spec);
    out.put(
        "workloads.synth_gen_s",
        t.elapsed().as_secs_f64() * RECORDS as f64 / trace.len() as f64,
    );
    let clients: Vec<NoopFs> = (0..CLIENTS)
        .map(|_| NoopFs {
            calls: Cell::new(0),
        })
        .collect();
    let t = Instant::now();
    let outcome = replay(&clients, &trace, 0, |_| {});
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(outcome.failures, 0);
    let calls: u64 = clients.iter().map(|c| c.calls.get()).sum();
    out.put("workloads.replay_driver_ns_per_op", ns / calls as f64);
}

/// Figure 8's anchor: Hare's single-core throughput relative to the
/// Linux ramfs model, median over the 13 programs (paper: 0.39×).
fn baseline_anchor(out: &mut Metrics) {
    let s = Scale::bench();
    let mut ratios: Vec<f64> = Workload::ALL
        .iter()
        .map(|&wl| {
            let hare = HareSystem::start(HareConfig::timeshare(1));
            let h = hare_workloads::run(&*hare, wl, 1, &s).expect("hare run");
            hare.shutdown();
            let ramfs = hare_baseline::HostSystem::ramfs(1);
            let r = hare_workloads::run(&*ramfs, wl, 1, &s).expect("ramfs run");
            ramfs.shutdown();
            h.throughput() / r.throughput()
        })
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    // The same middle element `fig8_sequential` prints.
    let m = ratios[ratios.len() / 2];
    out.put("baseline.ramfs_ratio_median", m);
    out.put("baseline.err_ramfs_ratio", (m - 0.39).abs() / 0.39);
}

/// Runs every probe.
pub fn run() -> Metrics {
    let mut out = Metrics::default();
    msg_layer(&mut out);
    nccmem_layer(&mut out);
    vtime_anchors(&mut out);
    instance_and_registration(&mut out);
    client_ops(&mut out);
    sched_layer(&mut out);
    workloads_layer(&mut out);
    baseline_anchor(&mut out);
    out
}
