//! `hot_shift`: placement under a hotspot that moves.
//!
//! `split(8,4)`, four clients, sixteen centralized directories whose
//! names all hash to one server. Phase 1 hammers directory A with a
//! write-churny mix — the rebalancer, ticked by the driver at every
//! window boundary, must **migrate** it. Phase 2 is a 95/5 read-mostly
//! hotspot on the 160-entry directory B — it must be **replicated**, and
//! the driver hands the replica advertisement to the other clients out of
//! band. Phase 3 shifts the churn to C, which must migrate too. This is
//! the only workload where `placement`, replica routing, `NotOwner`
//! bounces, park/replay and server queueing matter; everywhere else
//! `placement.migrations` is 0.

use crate::json::Json;
use crate::model::LiveModel;
use crate::rig::{mix_seed, Fingerprint, Metrics, Params, Rig};
use crate::stats::{geomean, percentile};
use fsapi::{MkdirOpts, Mode, ProcFs, VClock};
use hare_core::{
    HareConfig, InodeId, RebalanceAction, RebalanceCadence, RebalancePolicy, Rebalancer, ServerId,
};
use hare_workloads::trace::{
    concat, replay, synth_mix, MixSpec, MixWeights, ReplayEvent, Trace, VTICK_CYCLES,
};
use std::time::Instant;

const CORES: usize = 8;
const NSERVERS: usize = 4;
const CLIENTS: usize = 4;
/// The server every directory starts on.
const HOT_SERVER: ServerId = 1;
const BACKGROUND_DIRS: usize = 13;
/// Entries of the read-mostly directory: big enough that listing it
/// costs far more server time than a message, so reads queue.
const B_ENTRIES: usize = 160;
/// Window width: 2 virtual ms.
const WINDOW: u64 = 4_000_000;
const PHASES: usize = 3;

/// Trace records per second of measuring budget (frozen, see `meta_mix`).
pub const RECORDS_PER_SECOND: f64 = 31_000.0;

/// Unmeasured uniform churn over all sixteen directories during set-up:
/// dircaches, routing tables and the servers' tables are warm, and the
/// directories populated, when measuring begins.
const WARMUP_RECORDS: usize = 36_000;

/// Below this many records a phase is too short for the rebalancer's
/// probe–confirm cadence; the placement expectations are then not
/// checked. Only `selfcheck`'s prefixes may be that short: a run's
/// repetition that reports `placement_checked: false` counts as
/// incorrect (`orchestrate::verified`).
const MIN_RECORDS_FOR_PLACEMENT: usize = 30_000;

/// A root-level name whose dentry lands on [`HOT_SERVER`].
fn pinned(prefix: &str) -> String {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|n| hare_core::dentry_shard(InodeId::ROOT, true, n, NSERVERS) == HOT_SERVER)
        .map(|n| format!("/{n}"))
        .expect("some name hashes to every shard")
}

struct Dirs {
    a: String,
    b: String,
    c: String,
    background: Vec<String>,
}

impl Dirs {
    fn new() -> Dirs {
        Dirs {
            a: pinned("hot_a"),
            b: pinned("hot_b"),
            c: pinned("hot_c"),
            background: (0..BACKGROUND_DIRS)
                .map(|i| pinned(&format!("bg{i}x")))
                .collect(),
        }
    }

    fn all(&self) -> Vec<&String> {
        [&self.a, &self.b, &self.c]
            .into_iter()
            .chain(&self.background)
            .collect()
    }

    /// Weights with `hot` drawing 40 % of the traffic. It must stay under
    /// half: once the hot directory has moved, the server left with the
    /// fifteen others has to remain the busiest one — none of them clears
    /// the share bar, so the rebalancer goes quiet instead of chasing the
    /// hot directory from one idle server to the next.
    fn weighted(&self, hot: Option<&str>) -> Vec<(String, u32)> {
        self.all()
            .into_iter()
            .map(|d| (d.clone(), if Some(d.as_str()) == hot { 10 } else { 1 }))
            .collect()
    }
}

/// Job-queue churn: metadata only, so the hot directory's share of its
/// server's work is not diluted by payload ops.
const CHURN: MixWeights = MixWeights {
    creat: 5,
    read: 1,
    stat: 4,
    unlink: 3,
    rename: 2,
    readdir: 1,
};

/// 95 % listings, 5 % create/unlink toggles.
const READ_MOSTLY: MixWeights = MixWeights {
    creat: 1,
    read: 0,
    stat: 0,
    unlink: 1,
    rename: 0,
    readdir: 38,
};

fn mix(
    seed: u64,
    stream: u64,
    records: usize,
    hot: Option<&str>,
    weights: MixWeights,
    dirs: &Dirs,
) -> Trace {
    synth_mix(&MixSpec {
        name: format!("p{stream}"),
        clients: CLIENTS,
        ops_per_client: records.div_ceil(CLIENTS),
        seed: mix_seed(seed, 300 + stream),
        dirs: dirs.weighted(hot),
        think: 0..8,
        weights,
        file_size: 0,
    })
}

fn generate(seed: u64, records: usize, dirs: &Dirs) -> Trace {
    let per_phase = records.div_ceil(PHASES);
    concat(
        "hot_shift",
        &[
            mix(seed, 1, per_phase, Some(&dirs.a), CHURN, dirs),
            mix(seed, 2, per_phase, Some(&dirs.b), READ_MOSTLY, dirs),
            mix(seed, 3, per_phase, Some(&dirs.c), CHURN, dirs),
        ],
    )
}

/// The share bar sits below the hot directory's share of its server's
/// served ops (the dircache absorbs most lookups) and well above a
/// background directory's, as in the repo's own `micro_trace`.
///
/// The write-share bar is raised from its default 0.1 because the planner
/// judges a directory at its *home*, where every write but only one read
/// in `1 + replicas` lands: a 95/5 directory reads as 17 % writes once it
/// has three replicas, and at the default bar the planner migrates it —
/// dropping the replicas it just made. That is a defect of the shipped
/// default, not of this workload; README.md ("Known defect: the default
/// planner un-replicates a 95/5 directory") records what the default does
/// on ten seeds and why the benchmark does not run it: which of three
/// paths a seed takes would decide `vlat_p50_cycles`, and its bound would
/// have to grow from 3 % to 10 % on every workload.
fn policy() -> RebalancePolicy {
    RebalancePolicy {
        min_dir_share: 0.15,
        max_replica_write_share: 0.3,
        ..RebalancePolicy::default()
    }
}

/// Probe at every window boundary, confirm over two consecutive probes,
/// back off for two windows after acting.
fn cadence() -> RebalanceCadence {
    RebalanceCadence {
        probe_interval: WINDOW - 200_000,
        confirm: 2,
        cooldown: 2 * WINDOW - 200_000,
    }
}

fn inputs(p: &Params, dirs: &Dirs) -> Trace {
    generate(p.seed, p.scaled(RECORDS_PER_SECOND, PHASES * CLIENTS), dirs)
}

/// Fingerprint of the measured inputs `p` generates.
pub fn input_fingerprint(p: &Params) -> u64 {
    Fingerprint::of_trace(&inputs(p, &Dirs::new()))
}

pub fn run(p: &Params) -> Json {
    let dirs = Dirs::new();
    let trace = inputs(p, &dirs);
    let per_client_phase = trace.len() / (PHASES * CLIENTS);
    let cfg = HareConfig::split(CORES, NSERVERS);
    let app_cores = cfg.app_cores.clone();
    let mut rig = Rig::boot(p, cfg);
    let mut model = LiveModel::default();
    let setup_client = rig.register(&app_cores[..1]).pop().expect("one client");
    rig.phase("populate", || {
        let c = &setup_client;
        for d in dirs.all() {
            c.mkdir_opts(d, Mode::default(), MkdirOpts::CENTRALIZED)
                .expect("mkdir");
            assert_eq!(
                c.stat(d).expect("stat dir").server,
                HOT_SERVER,
                "{d} is not pinned to server {HOT_SERVER}"
            );
            model.add_dir(d);
        }
        for i in 0..B_ENTRIES {
            let path = format!("{}/e{i}", dirs.b);
            fsapi::write_file(c, &path, b"").expect("prepopulate B");
            model.create(&path);
        }
    });
    let clients = rig.register(&app_cores[..CLIENTS]);
    let warmup = mix(p.seed, 0, WARMUP_RECORDS, None, CHURN, &dirs);
    rig.phase("warmup", || {
        let out = replay(&clients, &warmup, 0, |_| {});
        assert_eq!(out.failures, 0, "warm-up op failed");
    });
    model.apply(&warmup);
    let driver = &clients[0].0;
    let b_ino = driver.dir_inode(&dirs.b).expect("resolve B");
    let machine = std::sync::Arc::clone(rig.machine());

    let mut reb = Rebalancer::new(policy(), cadence());
    // `(window, phase in which the window began, action)`.
    let mut actions: Vec<(u64, usize, RebalanceAction)> = Vec::new();
    let mut windows = 0u64;
    let (mut tick_sends, mut tick_host_s) = (0u64, 0f64);
    // Per client: records done, and when the previous one completed.
    let mut done = [0usize; CLIENTS];
    let mut prev_completed = [0u64; CLIENTS];
    // Record latencies per phase, in completion order.
    let mut lat: [Vec<u64>; PHASES] = Default::default();
    // Window in which each phase's first record completed, and the
    // latest phase any client has reached.
    let mut phase_start_window = [u64::MAX; PHASES];
    let mut latest_phase = 0;

    rig.begin(&clients, trace.len() * 2);
    for (c, t) in clients.iter().zip(prev_completed.iter_mut()) {
        *t = c.vnow();
    }
    let outcome = rig.phase("measure", || {
        replay(&clients, &trace, WINDOW, |ev| match ev {
            ReplayEvent::Op {
                record, completed, ..
            } => {
                let c = record.client;
                let phase = (done[c] / per_client_phase).min(PHASES - 1);
                let start = prev_completed[c] + record.think * VTICK_CYCLES;
                lat[phase].push(completed.saturating_sub(start));
                phase_start_window[phase] = phase_start_window[phase].min(windows);
                latest_phase = latest_phase.max(phase);
                done[c] += 1;
                prev_completed[c] = completed;
            }
            ReplayEvent::Window(boundary) => {
                windows += 1;
                driver.vwait(boundary);
                let (s0, t0) = (machine.msg_stats.sends(), Instant::now());
                // A root span of its own on the traced repetition, so the
                // tick's exchanges are attributed like any op's.
                machine
                    .otrace
                    .begin_op("rebalance_tick", driver.core(), driver.vnow());
                let action = driver.rebalance_tick(&mut reb).expect("rebalance tick");
                machine.otrace.end_op(driver.vnow());
                tick_host_s += t0.elapsed().as_secs_f64();
                tick_sends += machine.msg_stats.sends() - s0;
                if let Some(a) = action {
                    if let RebalanceAction::Replicate(r) = &a {
                        // Out-of-band placement gossip: the other clients
                        // adopt the driver's view of the read set.
                        if let Some((servers, epoch)) = driver.replica_advert(r.dir) {
                            for other in &clients[1..] {
                                other.0.adopt_replicas(r.dir, servers.clone(), epoch);
                            }
                        }
                    }
                    actions.push((windows, latest_phase, a));
                }
            }
        })
    });
    let m = rig.end(&clients);

    // ----- Correctness: listings, then the placement story -------------
    model.apply(&trace);
    let listed = rig.phase("verify", || model.verify(&setup_client));
    let owner = |d: &str| driver.dir_owner(d).expect("dir owner");
    let (owner_a, owner_b, owner_c) = (owner(&dirs.a), owner(&dirs.b), owner(&dirs.c));
    let replicas_b = driver.replica_advert(b_ino).map_or(0, |(s, _)| s.len());
    let a_ino = driver.dir_inode(&dirs.a).expect("resolve A");
    let c_ino = driver.dir_inode(&dirs.c).expect("resolve C");
    let migrated = |ino: InodeId| {
        actions
            .iter()
            .any(|(_, _, a)| matches!(a, RebalanceAction::Migrate(p) if p.dir == ino))
    };
    let replications = |of: Option<InodeId>| {
        actions
            .iter()
            .filter(|(_, _, a)| {
                matches!(a, RebalanceAction::Replicate(r) if of.is_none_or(|d| r.dir == d))
            })
            .count()
    };
    let placement_checked = trace.len() >= MIN_RECORDS_FOR_PLACEMENT;
    let placement_ok = !placement_checked
        || (migrated(a_ino)
            && migrated(c_ino)
            && owner_a != HOT_SERVER
            && owner_c != HOT_SERVER
            && replications(Some(b_ino)) >= 1
            && owner_b == HOT_SERVER
            && replicas_b >= 1);
    if !placement_ok {
        eprintln!(
            "hot_shift: placement expectations not met: actions {actions:?}, \
             owners A={owner_a} B={owner_b} C={owner_c}, replicas of B={replicas_b}"
        );
    }
    let correct =
        listed && placement_ok && outcome.failures == 0 && outcome.ops == trace.len() as u64;

    // ----- Placement metrics -------------------------------------------
    let mut layer = Metrics::default();
    layer.put("placement.replications", replications(None) as f64);
    let converge = (0..PHASES)
        .filter_map(|ph| {
            actions
                .iter()
                .find(|(_, aph, _)| *aph == ph)
                .map(|(w, _, _)| w - phase_start_window[ph])
        })
        .max()
        .unwrap_or(0);
    layer.put("placement.converge_windows_max", converge as f64);
    layer.put(
        "placement.tick_exchanges_per_window",
        tick_sends as f64 / 2.0 / windows.max(1) as f64,
    );
    layer.put(
        "placement.tick_host_us",
        tick_host_s * 1e6 / windows.max(1) as f64,
    );
    let gains: Vec<f64> = lat
        .iter_mut()
        .filter(|l| l.len() >= 30)
        .map(|l| {
            let third = l.len() / 3;
            let n = l.len();
            let first = percentile(&mut l[..third], 50.0) as f64;
            let last = percentile(&mut l[n - third..], 50.0) as f64;
            first / last.max(1.0)
        })
        .collect();
    layer.put("placement.hot_phase_vlat_gain", geomean(&gains));

    let facts = Json::obj()
        .with("records", trace.len())
        .with("windows", windows)
        .with("input_fingerprint", Fingerprint::of_trace(&trace))
        .with("placement_checked", placement_checked)
        .with(
            "actions",
            Json::Arr(
                actions
                    .iter()
                    .map(|(w, ph, a)| {
                        let what = match a {
                            RebalanceAction::Migrate(p) => format!("migrate {}->{}", p.from, p.to),
                            RebalanceAction::Replicate(p) => {
                                format!("replicate {}+{}", p.home, p.to)
                            }
                        };
                        Json::Str(format!("w{w} p{} {what}", ph + 1))
                    })
                    .collect(),
            ),
        )
        .with(
            "owners",
            format!("A={owner_a} B={owner_b}+{replicas_b} C={owner_c}"),
        );
    let mut all = clients;
    all.push(setup_client);
    rig.finish(all, &m, layer, facts, correct)
}
