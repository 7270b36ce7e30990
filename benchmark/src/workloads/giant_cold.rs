//! `giant_cold`: the metadata layer used the other way — cold.
//!
//! `timeshare(64)` with `dir_shard_width = 4` and a small `list_page_max`;
//! a tree of 4096 distributed leaf directories at depth 4 holding 65536
//! files, far more names than a 4096-entry dircache keeps. Four clients
//! (one per socket) issue uniform-random deep `stat`s and `open`s, paged
//! `readdir`s, and create/unlink pairs. Dircache misses turn into
//! `LookupPath` chains with fused terminals, listings fan out over four
//! shards and page. It is also the only workload whose set-up and memory
//! are dominated by booting the machine (`Dram::new` at 64 cores).

use crate::json::Json;
use crate::model::LiveModel;
use crate::rig::{mix_seed, Fingerprint, Metrics, Params, Rig};
use fsapi::{MkdirOpts, Mode, OpenFlags, ProcFs};
use hare_core::HareConfig;
use hare_workloads::trace::{replay, Trace, TraceOp, TraceRecord};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const CORES: usize = 64;
/// Client cores: one per 16-core stretch of the machine.
const CLIENT_CORES: [usize; 4] = [0, 16, 32, 48];
/// Fan-out of each of the three directory levels below `/gc`.
const FANOUT: usize = 16;
const FILES_PER_DIR: usize = 16;
const SHARD_WIDTH: usize = 4;
/// Small enough that a 16-entry directory's shards need a second page.
const LIST_PAGE_MAX: usize = 3;

/// Trace records per second of measuring budget (frozen, see `meta_mix`).
pub const RECORDS_PER_SECOND: f64 = 45_000.0;

fn leaf(i: usize) -> String {
    format!(
        "/gc/a{}/b{}/c{}",
        i / (FANOUT * FANOUT),
        i / FANOUT % FANOUT,
        i % FANOUT
    )
}

const LEAVES: usize = FANOUT * FANOUT * FANOUT;

/// Uniform-random deep ops, each client on its own seeded stream.
/// Creates go to random directories under per-client names and unlinks
/// take them back, so every op succeeds whatever the interleaving.
fn generate(seed: u64, records: usize) -> Trace {
    let mut out = Vec::with_capacity(records);
    for client in 0..CLIENT_CORES.len() {
        let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(seed, 100 + client as u64));
        let mut own: Vec<String> = Vec::new();
        let mut serial = 0u64;
        for _ in 0..records.div_ceil(CLIENT_CORES.len()) {
            let think = rng.gen_range(0..40u64);
            let dir = leaf(rng.gen_range(0..LEAVES));
            let existing = format!("{dir}/f{}", rng.gen_range(0..FILES_PER_DIR));
            // Weights: stat 16, open 8, readdir 2, creat 3, unlink 3.
            let roll = rng.gen_range(0..32u32);
            let op = match roll {
                0..=15 => TraceOp::Stat { path: existing },
                16..=23 => TraceOp::Read {
                    path: existing,
                    size: 0,
                },
                24..=25 => TraceOp::Readdir { path: dir },
                29..=31 if !own.is_empty() => {
                    let i = rng.gen_range(0..own.len());
                    TraceOp::Unlink {
                        path: own.swap_remove(i),
                    }
                }
                _ => {
                    serial += 1;
                    let path = format!("{dir}/n{client}_{serial}");
                    own.push(path.clone());
                    TraceOp::Creat { path, size: 0 }
                }
            };
            out.push(TraceRecord { client, think, op });
        }
    }
    Trace {
        name: "giant_cold".into(),
        dirs: Vec::new(),
        records: out,
    }
}

fn inputs(p: &Params) -> Trace {
    generate(p.seed, p.scaled(RECORDS_PER_SECOND, CLIENT_CORES.len()))
}

/// Fingerprint of the inputs `p` generates.
pub fn input_fingerprint(p: &Params) -> u64 {
    Fingerprint::of_trace(&inputs(p))
}

pub fn run(p: &Params) -> Json {
    let trace = inputs(p);
    let mut cfg = HareConfig::timeshare(CORES);
    cfg.dir_shard_width = SHARD_WIDTH;
    cfg.list_page_max = LIST_PAGE_MAX;
    let mut rig = Rig::boot(p, cfg);
    let mut model = LiveModel::default();
    let setup_client = rig.register(&[0]).pop().expect("one client");
    rig.phase("populate", || {
        let c = &setup_client;
        let mkdir = |path: &str| {
            c.mkdir_opts(path, Mode::default(), MkdirOpts::DISTRIBUTED)
                .expect("mkdir")
        };
        mkdir("/gc");
        for a in 0..FANOUT {
            mkdir(&format!("/gc/a{a}"));
            for b in 0..FANOUT {
                mkdir(&format!("/gc/a{a}/b{b}"));
            }
        }
        for i in 0..LEAVES {
            let d = leaf(i);
            mkdir(&d);
            model.add_dir(&d);
            for f in 0..FILES_PER_DIR {
                let path = format!("{d}/f{f}");
                let fd = c
                    .open(&path, OpenFlags::CREAT | OpenFlags::WRONLY, Mode::default())
                    .expect("create");
                c.close(fd).expect("close");
                model.create(&path);
            }
        }
    });
    let clients = rig.register(&CLIENT_CORES);

    rig.begin(&clients, trace.len() * 3);
    let outcome = rig.phase("measure", || replay(&clients, &trace, 0, |_| {}));
    let m = rig.end(&clients);

    model.apply(&trace);
    let listed = rig.phase("verify", || model.verify(&setup_client));
    let correct = listed && outcome.failures == 0 && outcome.ops == trace.len() as u64;

    let facts = Json::obj()
        .with("records", trace.len())
        .with("live_files", model.files())
        .with("input_fingerprint", Fingerprint::of_trace(&trace));
    let mut all = clients;
    all.push(setup_client);
    rig.finish(all, &m, Metrics::default(), facts, correct)
}
