//! `meta_mix`: the warm one-exchange metadata hot path.
//!
//! `timeshare(8)`, eight logical clients in a closed loop with think
//! times U[0,40) vticks, a seeded `synth_mix` over 32 distributed
//! directories at depth 3, each pre-populated with 64 files (2 k entries,
//! under the 4096-entry dircache). The weights keep creat = unlink so
//! directory sizes stay stationary; files are 1 KiB. The client dircache,
//! the RPC layer, the msg hand-off and the servers' dentry/inode tables do
//! all the work here; `nccmem` and `placement` do almost none.

use crate::json::Json;
use crate::model::LiveModel;
use crate::rig::{mix_seed, Fingerprint, Metrics, Params, Rig};
use fsapi::{MkdirOpts, Mode};
use hare_core::HareConfig;
use hare_workloads::trace::{replay, synth_mix, MixSpec, MixWeights, Trace};

const CORES: usize = 8;
const CLIENTS: usize = 8;
const GROUPS: usize = 4;
const DIRS_PER_GROUP: usize = 8;
const PREPOPULATED: usize = 64;
const FILE_SIZE: u64 = 1024;

/// Trace records per second of measuring budget (frozen: ≈1 s of pinned
/// host time per this many records at the commit that defined the
/// benchmark).
pub const RECORDS_PER_SECOND: f64 = 72_000.0;
/// Warm-up records replayed during set-up so the clients' own file sets
/// and dircaches are past their cold start when measuring begins.
const WARMUP_RECORDS: usize = 24_000;

fn dirs() -> Vec<String> {
    (0..GROUPS * DIRS_PER_GROUP)
        .map(|i| format!("/mm/g{}/d{}", i / DIRS_PER_GROUP, i % DIRS_PER_GROUP))
        .collect()
}

/// The seeded mix: `records` operations spread evenly over the clients.
/// The warm-up and the measured region are one generated stream cut in
/// two, so the generator's live-file bookkeeping spans both.
fn generate(seed: u64, records: usize) -> Trace {
    synth_mix(&MixSpec {
        name: "meta_mix".into(),
        clients: CLIENTS,
        ops_per_client: records.div_ceil(CLIENTS),
        seed: mix_seed(seed, 1),
        dirs: dirs().into_iter().map(|d| (d, 1)).collect(),
        think: 0..40,
        weights: MixWeights {
            stat: 8,
            read: 4,
            creat: 3,
            unlink: 3,
            rename: 1,
            readdir: 1,
        },
        file_size: FILE_SIZE,
    })
}

/// Splits `t` per client: the first `head` records of every client, and
/// the rest.
fn cut(t: &Trace, head: usize) -> (Trace, Trace) {
    let mut seen = vec![0usize; t.nclients()];
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for r in &t.records {
        seen[r.client] += 1;
        if seen[r.client] <= head {
            a.push(r.clone());
        } else {
            b.push(r.clone());
        }
    }
    let part = |records| Trace {
        name: t.name.clone(),
        dirs: t.dirs.clone(),
        records,
    };
    (part(a), part(b))
}

/// The whole generated stream, and its warm-up and measured parts.
fn inputs(p: &Params) -> (Trace, Trace, Trace) {
    let measured_records = p.scaled(RECORDS_PER_SECOND, CLIENTS);
    let whole = generate(p.seed, WARMUP_RECORDS + measured_records);
    let (warmup, measured) = cut(&whole, WARMUP_RECORDS / CLIENTS);
    (whole, warmup, measured)
}

/// Fingerprint of the measured inputs `p` generates.
pub fn input_fingerprint(p: &Params) -> u64 {
    Fingerprint::of_trace(&inputs(p).2)
}

pub fn run(p: &Params) -> Json {
    let (whole, warmup, measured) = inputs(p);

    let mut rig = Rig::boot(p, HareConfig::timeshare(CORES));
    let mut model = LiveModel::default();
    let setup_client = rig.register(&[0]).pop().expect("one client");
    rig.phase("populate", || {
        let c = &setup_client;
        fsapi::mkdir_p(c, "/mm", MkdirOpts::DISTRIBUTED).expect("mkdir /mm");
        for g in 0..GROUPS {
            fsapi::ProcFs::mkdir_opts(
                c,
                &format!("/mm/g{g}"),
                Mode::default(),
                MkdirOpts::DISTRIBUTED,
            )
            .expect("mkdir group");
        }
        let payload = vec![0x5au8; FILE_SIZE as usize];
        for d in dirs() {
            fsapi::ProcFs::mkdir_opts(c, &d, Mode::default(), MkdirOpts::DISTRIBUTED)
                .expect("mkdir dir");
            model.add_dir(&d);
            for f in 0..PREPOPULATED {
                let path = format!("{d}/pre{f}");
                fsapi::write_file(c, &path, &payload).expect("prepopulate");
                model.create(&path);
            }
        }
    });
    let clients = rig.register(&(0..CLIENTS).map(|i| i % CORES).collect::<Vec<_>>());
    rig.phase("warmup", || {
        let out = replay(&clients, &warmup, 0, |_| {});
        assert_eq!(out.failures, 0, "warm-up op failed");
    });

    rig.begin(&clients, measured.len() * 4);
    let outcome = rig.phase("measure", || replay(&clients, &measured, 0, |_| {}));
    let m = rig.end(&clients);

    model.apply(&whole);
    let listed = rig.phase("verify", || model.verify(&setup_client));
    let correct = listed && outcome.failures == 0 && outcome.ops == measured.len() as u64;

    let facts = Json::obj()
        .with("records", measured.len())
        .with("live_files", model.files())
        .with("input_fingerprint", Fingerprint::of_trace(&measured));
    let mut all = clients;
    all.push(setup_client);
    rig.finish(all, &m, Metrics::default(), facts, correct)
}
