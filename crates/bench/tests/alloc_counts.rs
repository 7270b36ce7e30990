//! Allocations-per-operation budgets, whole path.
//!
//! Built only with `--features count-alloc`, which swaps in the counting
//! global allocator. A file server is stepped by the thread that posts to
//! it, so with one client the calling thread's count is *every* allocation
//! an operation causes — client library, message layer and servers — and
//! virtual time is deterministic, so a new allocation anywhere on a pinned
//! path fails the test rather than silently creeping in.
//!
//! History of the two oldest pins: before PR 8 a warm stat made 2
//! allocations on the client's side and a warm open 3; the reusable
//! `ReplySlot` (each blocking call used to build a fresh reply channel)
//! and the pre-sized component vector brought both to 1. The budgets
//! below add what the servers allocate on top.
#![cfg(feature = "count-alloc")]

use fsapi::{Mode, OpenFlags, ProcFs};
use hare_bench::alloc_count::{self, CountingAlloc};
use hare_core::{ClientLib, HareConfig, HareInstance};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Warms `f` up, then returns the allocations per call over `iters` calls
/// (the argument is the call's index, warm-up included).
fn allocs_per_op(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    const WARMUP: u64 = 32;
    for i in 0..WARMUP {
        f(i);
    }
    let before = alloc_count::thread_allocs();
    for i in 0..iters {
        f(WARMUP + i);
    }
    (alloc_count::thread_allocs() - before) as f64 / iters as f64
}

/// Asserts a measured count against its ceiling. Budgets are ceilings, not
/// targets: beating one is fine, exceeding it means the path grew a per-op
/// allocation.
fn within(what: &str, measured: f64, budget: f64) {
    println!("{what}: {measured} allocs/op (budget {budget})");
    assert!(
        measured <= budget,
        "{what} allocates {measured}/op (budget {budget})"
    );
}

fn create_close(c: &ClientLib, path: &str, data: &[u8]) {
    let fd = c
        .open(path, OpenFlags::CREAT | OpenFlags::WRONLY, Mode::default())
        .unwrap();
    if !data.is_empty() {
        assert_eq!(c.write(fd, data).unwrap(), data.len());
    }
    c.close(fd).unwrap();
}

#[test]
fn metadata_path_allocation_budgets() {
    let inst = HareInstance::start(HareConfig::timeshare(4));
    let c = inst.new_client(0).unwrap();
    let kib = [7u8; 1024];
    create_close(&c, "/f", &kib);

    within(
        "warm stat",
        allocs_per_op(256, |_| {
            c.stat("/f").unwrap();
        }),
        1.0,
    );
    within(
        "open + close",
        allocs_per_op(256, |_| {
            let fd = c.open("/f", OpenFlags::RDONLY, Mode::default()).unwrap();
            c.close(fd).unwrap();
        }),
        3.0,
    );
    let mut buf = [0u8; 1024];
    within(
        "open + read 1 KiB + close",
        allocs_per_op(256, |_| {
            let fd = c.open("/f", OpenFlags::RDONLY, Mode::default()).unwrap();
            assert_eq!(c.read(fd, &mut buf).unwrap(), 1024);
            c.close(fd).unwrap();
        }),
        4.0,
    );

    // Fresh names: the tables these grow reallocate now and then, so the
    // counts are averages with a little room, not exact integers.
    within(
        "create + write 1 KiB + close",
        allocs_per_op(256, |i| create_close(&c, &format!("/c{i}"), &kib)),
        21.5,
    );
    within(
        "unlink",
        allocs_per_op(256, |i| c.unlink(&format!("/c{i}")).unwrap()),
        6.0,
    );
    create_close(&c, "/mv0", &[]);
    within(
        "rename",
        allocs_per_op(256, |i| {
            c.rename(&format!("/mv{i}"), &format!("/mv{}", i + 1))
                .unwrap()
        }),
        31.0,
    );

    c.mkdir("/dir", Mode::default()).unwrap();
    for i in 0..64 {
        create_close(&c, &format!("/dir/e{i}"), &[]);
    }
    within(
        "readdir of 64 entries",
        allocs_per_op(64, |_| {
            assert_eq!(c.readdir("/dir").unwrap().len(), 64);
        }),
        81.0,
    );

    drop(c);
    inst.shutdown();
}

#[test]
fn striped_read_allocation_budget() {
    let mut cfg = HareConfig::split(8, 4);
    cfg.stripe_width = 4;
    let app = cfg.app_cores[0];
    let inst = HareInstance::start(cfg);
    let c = inst.new_client(app).unwrap();
    let data = vec![5u8; 1 << 20];
    create_close(&c, "/big", &data);

    let mut buf = vec![0u8; 64 * 1024];
    let fd = c.open("/big", OpenFlags::RDONLY, Mode::default()).unwrap();
    within(
        "striped sequential read, per 64 KiB call",
        allocs_per_op(8, |_| {
            c.lseek(fd, 0, fsapi::Whence::Set).unwrap();
            for _ in 0..16 {
                assert_eq!(c.read(fd, &mut buf).unwrap(), buf.len());
            }
        }) / 16.0,
        7.25,
    );
    c.close(fd).unwrap();

    drop(c);
    inst.shutdown();
}
