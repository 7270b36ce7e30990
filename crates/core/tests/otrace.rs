//! Integration tests for causal op tracing (`hare_core::otrace`).
//!
//! Four properties:
//!
//! * **Sends parity** — tracing disabled is byte-for-byte the untraced
//!   system (same message count, same virtual end time), and enabled it
//!   charges *every* msg-layer send to some span, so tree sums prove the
//!   exchange-count baselines.
//! * **Pinned tree shapes** — a cold depth-8 chained+fused stat, a
//!   replica-routed readdir, and an op parked across a live migration
//!   each assemble the documented span tree, deterministically.
//! * **No leaks** — every scenario ends with zero open spans.

use fsapi::{MkdirOpts, Mode, ProcFs};
use hare_core::proto::{Reply, Request, ServerMsg};
use hare_core::{Cause, HareConfig, HareInstance, InodeId, SpanNode};
use std::sync::Arc;

/// Sends one raw request to a server, bypassing the client library.
fn raw(inst: &Arc<HareInstance>, server: u16, req: Request) -> Reply {
    let (tx, rx) = msg::channel(Arc::clone(&inst.machine().msg_stats));
    inst.servers()[server as usize]
        .tx
        .send(
            ServerMsg {
                req,
                reply: tx,
                span: None,
            },
            0,
            0,
        )
        .unwrap();
    rx.recv().unwrap().payload.unwrap()
}

/// A small mixed workload: namespace, data, listing, teardown.
fn workload(c: &dyn ProcFs) {
    fsapi::mkdir_p(c, "/a/b", MkdirOpts::default()).unwrap();
    fsapi::write_file(c, "/a/b/f", b"hello").unwrap();
    assert_eq!(c.stat("/a/b/f").unwrap().size, 5);
    assert_eq!(&fsapi::read_to_vec(c, "/a/b/f").unwrap(), b"hello");
    assert_eq!(c.readdir("/a/b").unwrap().len(), 1);
    c.unlink("/a/b/f").unwrap();
}

#[test]
fn tracing_disabled_is_byte_for_byte_the_untraced_system() {
    let run = |trace: bool| {
        let mut cfg = HareConfig::timeshare(4);
        cfg.trace_ops = trace;
        let inst = HareInstance::start(cfg);
        let c = inst.new_client(0).unwrap();
        workload(&c);
        let vend = c.vnow();
        drop(c);
        inst.shutdown();
        (inst.machine().msg_stats.sends(), vend)
    };
    let (sends_off, vend_off) = run(false);
    let (sends_on, vend_on) = run(true);
    assert_eq!(sends_off, sends_on, "tracing must not add or remove sends");
    assert_eq!(vend_off, vend_on, "tracing must not move virtual time");
}

#[test]
fn span_tree_sums_equal_the_msg_layer_send_count_exactly() {
    let nservers = 4u64;
    let mut cfg = HareConfig::timeshare(nservers as usize);
    cfg.trace_ops = true;
    let inst = HareInstance::start(cfg);
    let c = inst.new_client(0).unwrap();

    let s0 = inst.machine().msg_stats.sends();
    workload(&c);
    // Detach the client while the servers still answer (its Unregister
    // fan-out is an exchange per server). Every one-way send (inval,
    // wakeup) the ops caused was made before the op's own send returned.
    c.shutdown();
    inst.shutdown();
    let delta = inst.machine().msg_stats.sends() - s0;

    let trees = inst.machine().otrace.op_trees();
    assert!(!trees.is_empty());
    assert_eq!(inst.machine().otrace.open_spans(), 0, "no span may leak");
    let span_sum: u64 = trees.iter().map(|t| t.total_sends()).sum();
    // Everything between the marks was charged to a tree except the
    // bookkeeping outside any op: the client's Unregister fan-out (one
    // exchange per server).
    assert_eq!(
        span_sum + 2 * nservers,
        delta,
        "every send must be charged to exactly one span:\n{}",
        trees
            .iter()
            .map(|t| t.render())
            .collect::<Vec<_>>()
            .join("")
    );
}

#[test]
fn depth8_chained_fused_stat_assembles_a_deterministic_tree() {
    // Two identical cold runs must render byte-identical span trees, and
    // the tree must show the chained resolution: hop(s) between dentry
    // servers and the fused terminal executed by the last chain server.
    let run = || {
        let mut cfg = HareConfig::split(8, 4);
        cfg.trace_ops = true;
        let app = cfg.app_cores.clone();
        let inst = HareInstance::start(cfg);
        let setup = inst.new_client(app[0]).unwrap();
        let mut path = String::from("/deep");
        setup
            .mkdir_opts(&path, Mode::default(), MkdirOpts::DISTRIBUTED)
            .unwrap();
        for level in 0..5 {
            path = format!("{path}/d{level}");
            setup
                .mkdir_opts(&path, Mode::default(), MkdirOpts::DISTRIBUTED)
                .unwrap();
        }
        let file = format!("{path}/f"); // 8 components: deep,d0..d4,f
        fsapi::write_file(&setup, &file, b"x").unwrap();
        drop(setup);

        inst.machine().otrace.reset();
        let c = inst.new_client(app[1]).unwrap();
        let s0 = inst.machine().msg_stats.sends();
        assert_eq!(c.stat(&file).unwrap().size, 1);
        c.shutdown();
        inst.shutdown();
        let delta = inst.machine().msg_stats.sends() - s0;

        let trees = inst.machine().otrace.op_trees();
        assert_eq!(inst.machine().otrace.open_spans(), 0);
        let stat = trees
            .iter()
            .find(|t| t.label == "stat")
            .expect("the traced stat");
        // The chain nests: resolve -> chain hop(s) -> fused terminal.
        let causes = stat.causes();
        assert!(causes.contains(&Cause::Resolve), "{causes:?}");
        assert!(causes.contains(&Cause::ChainHop), "{causes:?}");
        assert!(causes.contains(&Cause::Terminal), "{causes:?}");
        assert!(
            stat.depth() >= 3,
            "chained tree must nest: {}",
            stat.render()
        );
        assert!(
            stat.render().contains("fused_terminal"),
            "{}",
            stat.render()
        );
        // The tree accounts for the whole cold stat; outside it the delta
        // holds only the client's Unregister fan-out (2 sends × 4
        // servers).
        assert_eq!(stat.total_sends() + 8, delta, "{}", stat.render());
        (stat.render(), inst.machine().otrace.to_chrome_json())
    };
    let (render_a, chrome_a) = run();
    let (render_b, chrome_b) = run();
    assert_eq!(render_a, render_b, "span trees must replay identically");
    assert_eq!(chrome_a, chrome_b, "chrome JSON must replay identically");
}

#[test]
fn replica_routed_readdir_carries_the_replica_read_cause() {
    let nservers = 4u16;
    let nfiles = 4usize;
    let mut cfg = HareConfig::timeshare(nservers as usize);
    cfg.trace_ops = true;
    let inst = HareInstance::start(cfg);
    let admin = inst.new_client(0).unwrap();
    admin
        .mkdir_opts("/hot", Mode::default(), MkdirOpts::CENTRALIZED)
        .unwrap();
    for i in 0..nfiles {
        fsapi::write_file(&admin, &format!("/hot/f{i}"), b"x").unwrap();
    }
    let home = admin.stat("/hot").unwrap().server;
    for s in 0..nservers {
        if s != home {
            assert!(admin.replicate_dir("/hot", s).unwrap());
        }
    }
    let ino = admin.dir_inode("/hot").unwrap();
    let (set, epoch) = admin.replica_advert(ino).expect("advert after replicate");
    let reader = inst.new_client(1).unwrap();
    assert!(reader.adopt_replicas(ino, set, epoch));
    reader.stat("/hot").unwrap(); // warm the path: isolate the listings
    let _ = reader.server_loads(true).unwrap(); // reset the load windows

    inst.machine().otrace.reset();
    for _ in 0..8 {
        assert_eq!(reader.readdir("/hot").unwrap().len(), nfiles);
    }
    drop(reader);
    drop(admin);
    inst.shutdown();

    let trees = inst.machine().otrace.op_trees();
    assert_eq!(inst.machine().otrace.open_spans(), 0);
    let readdirs: Vec<&SpanNode> = trees.iter().filter(|t| t.label == "readdir").collect();
    assert_eq!(readdirs.len(), 8);
    // The reader rotates over the whole read set (8 listings over 4
    // members = 2 each), so 6 listings are served by a replica member —
    // and each such listing's request span is tagged ReplicaRead.
    let replica_reads = readdirs
        .iter()
        .filter(|t| t.causes().contains(&Cause::ReplicaRead))
        .count();
    assert_eq!(
        replica_reads, 6,
        "rotation over 3 replicas + home must route 6 of 8 listings to \
         replicas"
    );
    for t in &readdirs {
        assert_eq!(
            t.total_sends(),
            2,
            "replica routing costs no extra messages: {}",
            t.render()
        );
    }
}

#[test]
fn op_parked_across_a_live_migration_replays_and_redirects_in_one_tree() {
    let mut cfg = HareConfig::timeshare(2);
    cfg.trace_ops = true;
    let inst = HareInstance::start(cfg);
    let setup = inst.new_client(0).unwrap();
    setup
        .mkdir_opts("/hot", Mode::default(), MkdirOpts::CENTRALIZED)
        .unwrap();
    fsapi::write_file(&setup, "/hot/f", b"x").unwrap();
    let hstat = setup.stat("/hot").unwrap();
    let home = hstat.server;
    let dir = InodeId {
        server: hstat.server,
        num: hstat.ino,
    };
    let to = (home + 1) % 2;

    // A victim whose route to /hot is warm, so its listing goes straight
    // to the (about to be migrating) home server.
    let victim = inst.new_client(1).unwrap();
    victim.stat("/hot").unwrap();

    inst.machine().otrace.reset();
    let bounces0 = inst.machine().events.snapshot().3;

    // Drive the migration protocol raw so the copy window stays open
    // while the victim's listing arrives: BEGIN parks the shard ...
    let (epoch, entries) = match raw(&inst, home, Request::MigrateBegin { dir }) {
        Reply::MigrateSnapshot { epoch, entries } => (epoch, entries),
        other => panic!("unexpected {other:?}"),
    };
    let join = std::thread::spawn(move || {
        assert_eq!(victim.readdir("/hot").unwrap().len(), 1);
        victim
    });
    // ... the listing parks (its "(parked)" leaf appears in the tree) ...
    let parked = |inst: &Arc<HareInstance>| {
        inst.machine()
            .otrace
            .op_trees()
            .iter()
            .any(|t| t.render().contains("(parked)"))
    };
    while !parked(&inst) {
        std::thread::yield_now();
    }
    // ... and INSTALL + COMMIT move the shard and replay the parked op,
    // which now answers NotOwner and redirects the victim.
    match raw(
        &inst,
        to,
        Request::MigrateInstall {
            dir,
            epoch: epoch + 1,
            entries,
        },
    ) {
        Reply::Unit => {}
        other => panic!("unexpected {other:?}"),
    }
    match raw(
        &inst,
        home,
        Request::MigrateCommit {
            dir,
            epoch: epoch + 1,
            to,
        },
    ) {
        Reply::Unit => {}
        other => panic!("unexpected {other:?}"),
    }
    let victim = join.join().unwrap();
    drop(victim);
    drop(setup);
    inst.shutdown();

    let trees = inst.machine().otrace.op_trees();
    assert_eq!(inst.machine().otrace.open_spans(), 0, "no span may leak");
    let tree = trees
        .iter()
        .find(|t| t.render().contains("(parked)"))
        .expect("the parked listing's tree");
    assert_eq!(tree.label, "readdir");
    let causes = tree.causes();
    assert!(
        causes.contains(&Cause::ParkReplay),
        "the replay must attach to the same tree: {}",
        tree.render()
    );
    assert!(
        causes.contains(&Cause::Redirect),
        "the post-migration retry must be tagged: {}",
        tree.render()
    );
    // The event counters saw the same story.
    let (_, _, _, bounces, parks) = inst.machine().events.snapshot();
    assert!(bounces > bounces0, "the replayed op bounced NotOwner");
    assert!(parks >= 1, "the park was replayed");
}
