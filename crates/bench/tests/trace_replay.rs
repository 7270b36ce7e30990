//! End-to-end determinism of trace replay plus the vtime time-series:
//! replaying the same trace on a fresh machine twice must produce
//! byte-identical serialized metrics — the property `BENCH_micro_trace`'s
//! committed baseline relies on. Along the way every replay checks event
//! conservation: each completed operation lands in exactly one window,
//! including operations completing right at a boundary (the vtime epoch
//! bump between windows must not drop or double-count a straggler).
//!
//! None of it leans on the host scheduler: the replay driver is one thread
//! and the servers are stepped by it, so even one-way server→server
//! traffic (replica notices) lands in program order.

use fsapi::{MkdirOpts, Mode, ProcFs};
use hare_core::{ClientLib, HareConfig, HareInstance, TimeSeries};
use hare_workloads::trace::{
    replay, synth_mix, MixSpec, MixWeights, ReplayEvent, Trace, TraceOp, TraceRecord,
};

/// 1 virtual ms — small enough that the short test trace spans several
/// windows and exercises boundary crossings.
const WINDOW: u64 = 2_000_000;

fn small_trace() -> Trace {
    synth_mix(&MixSpec {
        name: "determinism-probe".into(),
        clients: 3,
        ops_per_client: 60,
        seed: 42,
        dirs: vec![("/a".into(), 4), ("/b".into(), 1)],
        think: 10..80,
        weights: MixWeights::default(),
        file_size: 512,
    })
}

/// Replays `trace` over `clients` and returns the serialized time series
/// plus the replay's end time. Asserts event conservation: the window
/// rows sum to exactly the replay's op and failure totals.
fn replay_on(inst: &HareInstance, clients: &[ClientLib], trace: &Trace) -> (String, u64) {
    let machine = inst.machine();
    machine.sync();
    let mut series = TimeSeries::start(machine, WINDOW);
    let outcome = replay(clients, trace, WINDOW, |ev| match ev {
        ReplayEvent::Op { completed, ok, .. } => series.op(completed, ok),
        ReplayEvent::Window(b) => series.close_window(machine, b),
    });
    series.finish(machine, outcome.end);

    assert!(
        series.windows().len() > 2,
        "the trace must span several windows to exercise boundaries"
    );
    let (ops, failures) = series
        .windows()
        .iter()
        .fold((0, 0), |(o, f), w| (o + w.ops, f + w.failures));
    assert_eq!(
        ops, outcome.ops,
        "every completion lands in exactly one window"
    );
    assert_eq!(failures, outcome.failures);
    assert_eq!(outcome.failures, 0, "these traces are failure-free");
    (series.to_json(&trace.name), outcome.end)
}

/// Boots a split machine, replays `trace`, and returns what [`replay_on`]
/// returns.
fn replay_to_json(trace: &Trace) -> (String, u64) {
    let cfg = HareConfig::split(8, 4);
    let app_cores = cfg.app_cores.clone();
    let inst = HareInstance::start(cfg);

    let setup = inst.new_client(app_cores[0]).unwrap();
    for d in &trace.dirs {
        setup
            .mkdir_opts(d, Mode::default(), MkdirOpts::default())
            .unwrap();
    }
    let clients: Vec<_> = (0..trace.nclients())
        .map(|i| inst.new_client(app_cores[i % app_cores.len()]).unwrap())
        .collect();
    let out = replay_on(&inst, &clients, trace);
    drop(setup);
    drop(clients);
    inst.shutdown();
    out
}

#[test]
fn same_trace_replays_to_byte_identical_json() {
    let trace = small_trace();
    let (a, end_a) = replay_to_json(&trace);
    let (b, end_b) = replay_to_json(&trace);
    assert_eq!(end_a, end_b, "virtual end times must agree exactly");
    assert_eq!(
        a, b,
        "replay must be deterministic down to the serialized time series"
    );
}

/// One writer churning a hot directory while three readers list it: every
/// write makes the home send one-way notices to the replicas, and the
/// readers' listings go to those replicas moments later.
fn replica_churn_trace() -> Trace {
    let mut records = Vec::new();
    for round in 0..48 {
        let path = format!("/hot/n{}", round % 6);
        let op = if round % 12 < 6 {
            TraceOp::Creat { path, size: 64 }
        } else {
            TraceOp::Unlink { path }
        };
        records.push(TraceRecord {
            client: 0,
            think: 60,
            op,
        });
        for reader in 1..4 {
            records.push(TraceRecord {
                client: reader,
                think: 20 * reader as u64,
                op: TraceOp::Readdir {
                    path: "/hot".into(),
                },
            });
        }
    }
    Trace {
        name: "replica-churn".into(),
        dirs: vec!["/hot".into()],
        records,
    }
}

/// Replays [`replica_churn_trace`] traced, on a machine where `/hot` is
/// replicated on every server and the readers route to the replicas.
/// Returns the time series and the span trees, both serialized.
fn replicated_replay(trace: &Trace) -> (String, String) {
    let mut cfg = HareConfig::split(8, 4);
    cfg.trace_ops = true;
    let app_cores = cfg.app_cores.clone();
    let inst = HareInstance::start(cfg);

    let admin = inst.new_client(app_cores[0]).unwrap();
    admin
        .mkdir_opts("/hot", Mode::default(), MkdirOpts::CENTRALIZED)
        .unwrap();
    let home = admin.stat("/hot").unwrap().server;
    for s in (0..inst.servers().len() as u16).filter(|s| *s != home) {
        assert!(admin.replicate_dir("/hot", s).unwrap());
    }
    let ino = admin.dir_inode("/hot").unwrap();
    let (set, epoch) = admin.replica_advert(ino).expect("advert after replicate");
    let clients: Vec<_> = (0..trace.nclients())
        .map(|i| inst.new_client(app_cores[i % app_cores.len()]).unwrap())
        .collect();
    for reader in &clients[1..] {
        assert!(reader.adopt_replicas(ino, set.clone(), epoch));
    }

    let served_before = inst.machine().server_ops();
    let (series, _) = replay_on(&inst, &clients, trace);
    let replicas_served = inst
        .machine()
        .server_ops()
        .iter()
        .zip(&served_before)
        .enumerate()
        .filter(|(s, (after, before))| *s as u16 != home && after > before)
        .count();
    assert_eq!(
        replicas_served,
        inst.servers().len() - 1,
        "the listings must go through the replicas"
    );
    drop(admin);
    drop(clients);
    inst.shutdown();
    assert_eq!(inst.machine().otrace.open_spans(), 0);
    (series, inst.machine().otrace.to_chrome_json())
}

#[test]
fn replicated_directory_replays_identically_with_no_help_from_the_host_scheduler() {
    // Unpinned, default scheduling policy, other tests running beside it:
    // when servers were threads, whether a replica saw the writer's notice
    // before or after the next reader's listing was the host's choice.
    let trace = replica_churn_trace();
    let first = replicated_replay(&trace);
    for run in 1..20 {
        let again = replicated_replay(&trace);
        assert_eq!(first.0, again.0, "time series diverged on run {run}");
        assert_eq!(first.1, again.1, "span trees diverged on run {run}");
    }
}

#[test]
fn committed_hotspot_trace_is_canonical() {
    let text = include_str!("../../../traces/shifting_hotspot.trace");
    let trace = Trace::parse(text).expect("committed trace parses");
    assert_eq!(
        trace.to_text(),
        text,
        "committed trace must be in trace_gen's canonical form"
    );
    assert_eq!(trace.nclients(), 4);
    assert_eq!(trace.dirs.len(), 8);
}
