//! Servers are step functions, not threads: booting spawns nothing, and an
//! instance that is dropped takes its machine with it.
//!
//! One test function on purpose: it counts this process's threads, so no
//! other test may run beside it in this binary.

use fsapi::ProcFs;
use hare_core::{HareConfig, HareInstance};
use std::sync::Arc;

fn host_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn booting_spawns_no_thread_and_dropping_frees_the_machine() {
    for ncores in [8, 64] {
        let before = host_threads();
        let inst = HareInstance::start(HareConfig::timeshare(ncores));
        assert_eq!(
            host_threads(),
            before,
            "a booted {ncores}-core instance must add no host thread"
        );
        let machine = Arc::downgrade(inst.machine());

        // Every server holds a handle to every server: chain forwards and
        // replica notices travel over them, so use them once.
        let c = inst.new_client(0).unwrap();
        c.mkdir("/d", fsapi::Mode::default()).unwrap();
        fsapi::write_file(&c, "/d/f", b"x").unwrap();
        assert_eq!(c.stat("/d/f").unwrap().size, 1);
        assert_eq!(host_threads(), before);
        drop(c);

        drop(inst);
        assert!(
            machine.upgrade().is_none(),
            "the servers of a dropped {ncores}-core instance kept its machine alive"
        );
    }
}
