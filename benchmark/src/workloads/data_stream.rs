//! `data_stream`: the data plane, with the metadata path idle.
//!
//! `split(8,4)` with `stripe_width = 4`, one client. Each round rotates
//! one 4 MiB file through: a sequential write in 256 KiB calls; a
//! pattern-verified read-back in 64 KiB calls; 64 random 4 KiB sub-stripe
//! overwrites, an `fsync`, and a verified read-back of eight of them;
//! unlink. Reads run beside writes and full-stripe beside sub-stripe, so
//! a gain for one use that costs another shows in the per-phase `io.*`
//! metrics.
//!
//! Striping is a property of the machine, not of a file: at width 4 every
//! file's data goes through the servers' stripe service and none through
//! the client's private cache, so `nccmem.*` reads 0 here. The private
//! cache is exercised by the 1 KiB files of `meta_mix` and by
//! `paper_suite`, which run at the default width 1.

use crate::json::Json;
use crate::rig::{mix_seed, Fingerprint, Metrics, Params, Rig};
use crate::timed::Timed;
use fsapi::{Fd, Mode, OpenFlags, ProcFs, VClock, Whence};
use hare_core::{ClientLib, HareConfig};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const BIG: usize = 4 << 20;
const WRITE_CALL: usize = 256 << 10;
const READ_CALL: usize = 64 << 10;
const BLOCK: usize = 4096;
const OVERWRITES: usize = 64;
const OVERWRITES_CHECKED: usize = 8;

/// File rounds per second of measuring budget (frozen, see `meta_mix`).
pub const ROUNDS_PER_SECOND: f64 = 220.0;
/// Unmeasured rounds during set-up: first-touch block allocation happens
/// here, not in the region.
const WARMUP_ROUNDS: usize = 100;

/// Fills `buf` with the pattern of file `tag` at byte `offset` (both
/// multiples of 8): word `i` of the file is a fixed mix of `tag` and `i`.
fn pattern(tag: u64, offset: usize, buf: &mut [u8]) {
    for (i, w) in buf.chunks_exact_mut(8).enumerate() {
        let x = (tag ^ ((offset / 8 + i) as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        w.copy_from_slice(&(x ^ (x >> 29)).to_le_bytes());
    }
}

/// Virtual cycles and host seconds spent in one kind of phase.
#[derive(Default, Clone, Copy)]
struct PhaseCost {
    vcycles: u64,
    host_s: f64,
    bytes: u64,
}

#[derive(Default)]
struct Phases {
    seq_write: PhaseCost,
    seq_read: PhaseCost,
    substripe: PhaseCost,
    mismatches: u64,
}

/// What the seed decides about one round: the file's pattern tag
/// (overwritten blocks carry the pattern of `tag + 1`) and which blocks
/// are overwritten.
struct RoundPlan {
    tag: u64,
    blocks: Vec<usize>,
}

/// The warm-up rounds followed by the measured ones.
fn plan(p: &Params) -> Vec<RoundPlan> {
    let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(p.seed, 200));
    let base_tag = mix_seed(p.seed, 201) & !0xffff;
    (0..WARMUP_ROUNDS + p.scaled(ROUNDS_PER_SECOND, 1))
        .map(|r| RoundPlan {
            tag: base_tag + 2 * r as u64,
            blocks: (0..OVERWRITES)
                .map(|_| rng.gen_range(0..BIG / BLOCK) * BLOCK)
                .collect(),
        })
        .collect()
}

fn fingerprint(rounds: &[RoundPlan]) -> u64 {
    let mut f = Fingerprint::default();
    for r in rounds {
        f.feed(&r.tag.to_le_bytes());
        for off in &r.blocks {
            f.feed(&off.to_le_bytes());
        }
    }
    f.value()
}

/// Fingerprint of the measured inputs `p` generates.
pub fn input_fingerprint(p: &Params) -> u64 {
    fingerprint(&plan(p)[WARMUP_ROUNDS..])
}

fn timed_phase<R>(
    c: &Timed<ClientLib>,
    cost: &mut PhaseCost,
    bytes: usize,
    f: impl FnOnce() -> R,
) -> R {
    let (v0, t0) = (c.vnow(), Instant::now());
    let r = f();
    cost.vcycles += c.vnow() - v0;
    cost.host_s += t0.elapsed().as_secs_f64();
    cost.bytes += bytes as u64;
    r
}

fn open(c: &Timed<ClientLib>, path: &str, flags: OpenFlags) -> Fd {
    c.open(path, flags, Mode::default()).expect("open")
}

/// Reads `len` bytes of file `tag` from `fd`'s current offset `start` in
/// `READ_CALL` pieces and counts pattern mismatches.
fn read_verified(c: &Timed<ClientLib>, fd: Fd, tag: u64, start: usize, len: usize) -> u64 {
    let mut buf = vec![0u8; READ_CALL.min(len)];
    let mut want = vec![0u8; buf.len()];
    let mut bad = 0;
    let mut off = start;
    while off < start + len {
        let n = buf.len().min(start + len - off);
        let mut got = 0;
        while got < n {
            match c.read(fd, &mut buf[got..n]).expect("read") {
                0 => break,
                k => got += k,
            }
        }
        pattern(tag, off, &mut want[..n]);
        bad += u64::from(got != n || buf[..n] != want[..n]);
        off += n;
    }
    bad
}

fn write_all(c: &Timed<ClientLib>, fd: Fd, data: &[u8]) {
    let mut done = 0;
    while done < data.len() {
        done += c.write(fd, &data[done..]).expect("write");
    }
}

/// One file's life.
fn round(c: &Timed<ClientLib>, path: &str, plan: &RoundPlan, ph: &mut Phases) {
    let RoundPlan { tag, blocks } = plan;
    let tag = *tag;
    let mut chunk = vec![0u8; WRITE_CALL];
    timed_phase(c, &mut ph.seq_write, BIG, || {
        let fd = open(c, path, OpenFlags::CREAT | OpenFlags::WRONLY);
        for off in (0..BIG).step_by(WRITE_CALL) {
            pattern(tag, off, &mut chunk);
            write_all(c, fd, &chunk);
        }
        c.close(fd).expect("close");
    });
    let bad = timed_phase(c, &mut ph.seq_read, BIG, || {
        let fd = open(c, path, OpenFlags::RDONLY);
        let bad = read_verified(c, fd, tag, 0, BIG);
        c.close(fd).expect("close");
        bad
    });
    ph.mismatches += bad;

    let fd = open(c, path, OpenFlags::RDWR);
    timed_phase(c, &mut ph.substripe, OVERWRITES * BLOCK, || {
        let mut block = [0u8; BLOCK];
        for &off in blocks {
            pattern(tag + 1, off, &mut block);
            c.lseek(fd, off as i64, Whence::Set).expect("lseek");
            write_all(c, fd, &block);
        }
        c.fsync(fd).expect("fsync");
    });
    for &off in &blocks[..OVERWRITES_CHECKED] {
        c.lseek(fd, off as i64, Whence::Set).expect("lseek");
        ph.mismatches += read_verified(c, fd, tag + 1, off, BLOCK);
    }
    c.close(fd).expect("close");
    c.unlink(path).expect("unlink");
}

pub fn run(p: &Params) -> Json {
    let rounds = plan(p);
    let (warmup, measured) = rounds.split_at(WARMUP_ROUNDS);
    let mut cfg = HareConfig::split(8, 4);
    cfg.stripe_width = 4;
    let core = cfg.app_cores[0];
    let mut rig = Rig::boot(p, cfg);
    let clients = rig.register(&[core]);
    let c = &clients[0];
    rig.phase("populate", || {
        c.mkdir("/ds", Mode::default()).expect("mkdir");
        let mut scratch = Phases::default();
        for (r, plan) in warmup.iter().enumerate() {
            round(c, &format!("/ds/w{r}"), plan, &mut scratch);
        }
        assert_eq!(scratch.mismatches, 0, "warm-up read-back mismatch");
    });

    let mut ph = Phases::default();
    rig.begin(&clients, measured.len() * 240);
    let readaheads0 = rig.machine().events.snapshot().2;
    rig.phase("measure", || {
        for (r, plan) in measured.iter().enumerate() {
            round(c, &format!("/ds/f{r}"), plan, &mut ph);
        }
    });
    let readaheads = rig.machine().events.snapshot().2 - readaheads0;
    let m = rig.end(&clients);

    let left = rig.phase("verify", || c.readdir("/ds").expect("readdir /ds"));
    let correct = ph.mismatches == 0 && left.is_empty();
    if !correct {
        eprintln!(
            "data_stream: {} pattern mismatches, /ds holds {} entries",
            ph.mismatches,
            left.len()
        );
    }

    const MIB: f64 = (1 << 20) as f64;
    let per_mib = |c: &PhaseCost| c.vcycles as f64 / (c.bytes as f64 / MIB);
    let mut layer = Metrics::default();
    layer.put("io.seq_read_vcycles_per_mib", per_mib(&ph.seq_read));
    layer.put("io.seq_write_vcycles_per_mib", per_mib(&ph.seq_write));
    layer.put("io.substripe_write_vcycles_per_mib", per_mib(&ph.substripe));
    layer.put(
        "io.seq_read_host_mib_per_s",
        ph.seq_read.bytes as f64 / MIB / ph.seq_read.host_s,
    );
    layer.put(
        "io.seq_write_host_mib_per_s",
        ph.seq_write.bytes as f64 / MIB / ph.seq_write.host_s,
    );
    layer.put(
        "io.readaheads_per_mib",
        readaheads as f64 / (ph.seq_read.bytes as f64 / MIB),
    );
    let rw: u64 = m
        .samples
        .iter()
        .filter(|s| matches!(s.kind, crate::timed::Kind::Read | crate::timed::Kind::Write))
        .map(|s| s.vlat)
        .sum();
    let all: u64 = m.samples.iter().map(|s| s.vlat).sum();
    let facts = Json::obj()
        .with("rounds", measured.len())
        .with("input_fingerprint", fingerprint(measured))
        .with("vtime_share_in_read_write", rw as f64 / all.max(1) as f64);
    rig.finish(clients, &m, layer, facts, correct)
}
