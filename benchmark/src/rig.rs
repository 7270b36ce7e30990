//! The skeleton every instance-backed repetition shares: boot, client
//! registration, the measured region with every public counter read
//! around it, verification, shutdown, and — on the traced repetition —
//! the span-tree analysis and the span files.
//!
//! A repetition runs in its own pinned process and answers with one JSON
//! object: `e2e` (the end-to-end metrics), `layer` (every per-layer
//! metric this repetition can know), `facts` (what `selfcheck` and the
//! traced comparison need), and `attempted` / `failed` / `correct`.

use crate::json::Json;
use crate::stats::percentile;
use crate::timed::{self, Client, Kind, Sample, Span, Timed, LAYER_KINDS};
use crate::{host, otrace, spec};
use hare_core::{ClientLib, HareConfig, HareInstance, Machine};
use std::sync::Arc;
use std::time::Instant;

/// What one repetition is asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    /// Nominal length of the measured region; op counts are this times
    /// the workload's frozen per-second rates.
    pub seconds: f64,
    /// `trace_ops = true` plus harness spans.
    pub traced: bool,
    /// Where span files go (traced repetitions only).
    pub out_dir: String,
}

impl Params {
    /// `per_second * seconds`, at least `floor`.
    pub fn scaled(&self, per_second: f64, floor: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(floor)
    }
}

/// SplitMix64 finalizer: spreads small consecutive `--seed` values over
/// the whole 64-bit space before they reach the generators.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of words, kept to 52 bits so it travels exactly
/// as a JSON number: tells two seeds' inputs apart (`selfcheck`).
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0 & ((1 << 52) - 1)
    }

    /// Fingerprint of a generated trace.
    pub fn of_trace(t: &hare_workloads::trace::Trace) -> u64 {
        use hare_workloads::trace::TraceOp;
        let mut f = Fingerprint::default();
        for r in &t.records {
            f.feed(&[r.client as u8, r.think as u8]);
            f.feed(r.op.keyword().as_bytes());
            match &r.op {
                TraceOp::Rename { old, new } => {
                    f.feed(old.as_bytes());
                    f.feed(new.as_bytes());
                }
                TraceOp::Creat { path, .. }
                | TraceOp::Read { path, .. }
                | TraceOp::Append { path, .. }
                | TraceOp::Stat { path }
                | TraceOp::Unlink { path }
                | TraceOp::Mkdir { path }
                | TraceOp::Rmdir { path }
                | TraceOp::Readdir { path } => f.feed(path.as_bytes()),
            }
        }
        f.value()
    }
}

/// A reading of every public counter of one machine (plus the summed
/// dircache counters of the clients the harness holds).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub sends: u64,
    pub batched_ops: u64,
    pub cache: nccmem::CacheStats,
    pub busy: Vec<u64>,
    /// `[migrations, invalidations, readaheads, not_owner_bounces,
    /// park_replays]`.
    pub events: [u64; 5],
    pub server_ops: Vec<u64>,
    /// `[hits, misses, invalidations]`.
    pub dircache: [u64; 3],
    pub elapsed: u64,
    /// Host-side cost of the whole process: context switches, heap
    /// allocations, CPU nanoseconds.
    pub switches: u64,
    pub allocs: u64,
    pub cpu_ns: u64,
}

impl Counters {
    pub fn read(m: &Machine, dircache: [u64; 3]) -> Counters {
        Counters {
            switches: host::context_switches(),
            allocs: host::allocations(),
            cpu_ns: host::cpu_ns(),
            sends: m.msg_stats.sends(),
            batched_ops: m.msg_stats.batched_ops(),
            cache: m.cache_stats(),
            busy: m.busy.snapshot(),
            events: m.events.snapshot().into(),
            server_ops: m.server_ops(),
            dircache,
            elapsed: m.elapsed_cycles(),
        }
    }

    /// `after - self`, field by field.
    pub fn delta(&self, after: &Counters) -> Counters {
        fn sub<T: FromIterator<u64>>(a: &[u64], b: &[u64]) -> T {
            a.iter().zip(b).map(|(x, y)| x - y).collect()
        }
        fn sub_n<const N: usize>(a: [u64; N], b: [u64; N]) -> [u64; N] {
            std::array::from_fn(|i| a[i] - b[i])
        }
        Counters {
            sends: after.sends - self.sends,
            batched_ops: after.batched_ops - self.batched_ops,
            cache: nccmem::CacheStats {
                hits: after.cache.hits - self.cache.hits,
                misses: after.cache.misses - self.cache.misses,
                writes: after.cache.writes - self.cache.writes,
                writebacks: after.cache.writebacks - self.cache.writebacks,
                invalidations: after.cache.invalidations - self.cache.invalidations,
                evictions: after.cache.evictions - self.cache.evictions,
                dirty_evictions: after.cache.dirty_evictions - self.cache.dirty_evictions,
            },
            busy: sub(&after.busy, &self.busy),
            events: sub_n(after.events, self.events),
            server_ops: sub(&after.server_ops, &self.server_ops),
            dircache: sub_n(after.dircache, self.dircache),
            elapsed: after.elapsed - self.elapsed,
            switches: after.switches - self.switches,
            allocs: after.allocs - self.allocs,
            cpu_ns: after.cpu_ns - self.cpu_ns,
        }
    }

    /// Accumulates another machine's delta (`paper_suite` boots one
    /// machine per program; per-core and per-server vectors add up by
    /// index, elapsed time adds up end to end).
    pub fn add(&mut self, d: &Counters) {
        fn add_into(a: &mut [u64], b: &[u64]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.busy.resize(self.busy.len().max(d.busy.len()), 0);
        self.server_ops
            .resize(self.server_ops.len().max(d.server_ops.len()), 0);
        add_into(&mut self.busy, &d.busy);
        add_into(&mut self.server_ops, &d.server_ops);
        add_into(&mut self.events, &d.events);
        add_into(&mut self.dircache, &d.dircache);
        self.sends += d.sends;
        self.batched_ops += d.batched_ops;
        self.cache = self.cache.merged(&d.cache);
        self.elapsed += d.elapsed;
        self.switches += d.switches;
        self.allocs += d.allocs;
        self.cpu_ns += d.cpu_ns;
    }
}

/// Summed dircache counters of the clients the harness holds.
pub fn dircache_sum<C: Client>(clients: &[Timed<C>]) -> [u64; 3] {
    clients.iter().fold([0; 3], |a, c| {
        let d = c.0.dircache();
        [a[0] + d.0, a[1] + d.1, a[2] + d.2]
    })
}

/// The measured region's raw outcome, before it is turned into metrics.
pub struct Measured {
    pub samples: Vec<Sample>,
    pub counters: Counters,
    /// Host seconds of the region.
    pub host_s: f64,
    /// Harness spans recorded so far (traced repetition only).
    pub spans: Vec<Span>,
    /// Root operations the program's tracer held at the region's end.
    pub otrace_ops: usize,
}

/// Virtual cycles per virtual second.
const CYCLES_PER_VSEC: f64 = vtime::CYCLES_PER_US as f64 * 1e6;

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Name → value pairs in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, v: f64) {
        self.0.push((name.into(), v));
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (k, v) in &self.0 {
            o.set(k, *v);
        }
        o
    }
}

/// What an untraced run folds over its repetitions ([`spec::folded`]),
/// from the observed calls and the region's counters. `vops_per_vsec`
/// defaults to calls per simulated second of the region; `paper_suite`
/// overrides it with the geometric mean over its programs.
pub fn e2e_from(m: &Measured, setup_s: f64) -> Metrics {
    let mut e = Metrics::default();
    let n = m.samples.len() as f64;
    let mut vlat: Vec<u64> = m.samples.iter().map(|s| s.vlat).collect();
    let mut host: Vec<u64> = m.samples.iter().map(|s| u64::from(s.host_ns)).collect();
    e.put(
        "vops_per_vsec",
        n / (m.counters.elapsed as f64 / CYCLES_PER_VSEC),
    );
    e.put("vlat_p50_cycles", percentile(&mut vlat, 50.0) as f64);
    e.put("vlat_p99_cycles", percentile(&mut vlat, 99.0) as f64);
    e.put("host.cpu_us_per_op", m.counters.cpu_ns as f64 / 1e3 / n);
    e.put("host_switches_per_op", m.counters.switches as f64 / n);
    e.put("host_allocs_per_op", m.counters.allocs as f64 / n);
    e.put("setup_s", setup_s);
    e.put("peak_rss_mb", host::peak_rss_mb());
    e.put("host.ops_per_s", n / m.host_s);
    e.put("host.p50_us", percentile(&mut host, 50.0) as f64 / 1e3);
    e
}

/// Per-layer metrics that come from the observed calls and the counter
/// deltas of the measured region.
pub fn layer_from(m: &Measured) -> Metrics {
    let mut l = Metrics::default();
    let ops = m.samples.len() as u64;
    for k in LAYER_KINDS {
        let mut v: Vec<u64> = Vec::new();
        let mut h: Vec<u64> = Vec::new();
        for s in m.samples.iter().filter(|s| s.kind == k) {
            v.push(s.vlat);
            h.push(u64::from(s.host_ns));
        }
        l.put(
            format!("fsapi.{}.vlat_p50_cycles", k.name()),
            percentile(&mut v, 50.0) as f64,
        );
        l.put(
            format!("fsapi.{}.host_p50_us", k.name()),
            percentile(&mut h, 50.0) as f64 / 1e3,
        );
    }
    let mut host: Vec<u64> = m.samples.iter().map(|s| u64::from(s.host_ns)).collect();
    l.put(
        "fsapi.host_p99_us",
        percentile(&mut host, 99.0) as f64 / 1e3,
    );

    let c = &m.counters;
    l.put("msg.exchanges_per_op", c.sends as f64 / 2.0 / ops as f64);
    l.put("msg.batched_ops_per_op", ratio(c.batched_ops, ops));
    l.put("nccmem.hit_ratio", ratio(c.cache.hits, c.cache.accesses()));
    l.put("nccmem.misses_per_op", ratio(c.cache.misses, ops));
    l.put("nccmem.writebacks_per_op", ratio(c.cache.writebacks, ops));
    l.put(
        "nccmem.invalidations_per_op",
        ratio(c.cache.invalidations, ops),
    );
    l.put("nccmem.evictions_per_op", ratio(c.cache.evictions, ops));
    let busy_max = c.busy.iter().copied().max().unwrap_or(0);
    let busy_sum: u64 = c.busy.iter().sum();
    l.put("vtime.busy_share_max", ratio(busy_max, c.elapsed));
    l.put(
        "vtime.busy_share_mean",
        ratio(busy_sum, c.elapsed * c.busy.len().max(1) as u64),
    );
    l.put(
        "client.dircache_hit_ratio",
        ratio(c.dircache[0], c.dircache[0] + c.dircache[1]),
    );
    l.put("client.dircache_invals_per_op", ratio(c.dircache[2], ops));
    let served: u64 = c.server_ops.iter().sum();
    let served_max = c.server_ops.iter().copied().max().unwrap_or(0);
    l.put("server.ops_per_op", ratio(served, ops));
    l.put(
        "server.load_imbalance",
        ratio(served_max * c.server_ops.len().max(1) as u64, served),
    );
    l.put("server.invalidations_per_op", ratio(c.events[1], ops));
    l.put("server.not_owner_bounces_per_op", ratio(c.events[3], ops));
    l.put("server.park_replays", c.events[4] as f64);
    l.put("placement.migrations", c.events[0] as f64);

    let spawns: Vec<&Sample> = m.samples.iter().filter(|s| s.kind == Kind::Spawn).collect();
    let mut v: Vec<u64> = spawns.iter().map(|s| s.vlat).collect();
    let mut h: Vec<u64> = spawns.iter().map(|s| u64::from(s.host_ns)).collect();
    l.put(
        "sched.spawn_vlat_p50_cycles",
        percentile(&mut v, 50.0) as f64,
    );
    l.put(
        "sched.spawn_host_p50_us",
        percentile(&mut h, 50.0) as f64 / 1e3,
    );
    l
}

/// Counts the observed calls: `(attempted, failed)`.
pub fn tally(samples: &[Sample]) -> (u64, u64) {
    (
        samples.len() as u64,
        samples.iter().filter(|s| !s.ok).count() as u64,
    )
}

/// One booted instance and the clocks of its set-up.
pub struct Rig {
    pub inst: Arc<HareInstance>,
    pub params: Params,
    started: Instant,
    /// Host seconds `HareInstance::start` took.
    pub boot_s: f64,
    setup_s: f64,
    before: Counters,
    /// What one quiescing barrier itself adds to the counters.
    barrier_cost: Counters,
    region_started: Instant,
}

impl Rig {
    /// Boots `cfg` (with op tracing and harness spans when the repetition
    /// is traced). The set-up clock starts here.
    pub fn boot(params: &Params, mut cfg: HareConfig) -> Rig {
        cfg.trace_ops = params.traced;
        timed::set_spans(params.traced);
        let started = Instant::now();
        let inst = timed::phase("boot", &|| 0, || HareInstance::start(cfg));
        Rig {
            inst,
            params: params.clone(),
            started,
            boot_s: started.elapsed().as_secs_f64(),
            setup_s: 0.0,
            before: Counters::default(),
            barrier_cost: Counters::default(),
            region_started: started,
        }
    }

    pub fn machine(&self) -> &Arc<Machine> {
        self.inst.machine()
    }

    /// Runs a set-up phase (populate, warm-up, ...) under a harness span.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let m = self.inst.machine();
        timed::phase(name, &|| m.elapsed_cycles(), f)
    }

    /// Registers one observed client per entry of `cores`.
    pub fn register(&self, cores: &[usize]) -> Vec<Timed<ClientLib>> {
        self.phase("register", || {
            cores
                .iter()
                .map(|&c| Timed(self.inst.new_client(c).expect("register client")))
                .collect()
        })
    }

    /// Waits until no server is still working on an earlier request. A
    /// server answers a request *before* it sends the invalidations and
    /// peer notices that request caused, so counters read right after a
    /// reply can miss sends. Servers handle messages in order: once each
    /// has answered a later round trip, its earlier handling is complete —
    /// and a second round covers notices the first round's servers sent
    /// to each other.
    fn quiesce(&self, c: &ClientLib) {
        for _ in 0..2 {
            c.server_loads(false).expect("barrier round trip");
        }
    }

    /// Ends set-up and opens the measured region: quiesce, phase barrier,
    /// counter reading, recording on. `expect` pre-sizes the sample
    /// buffer.
    pub fn begin(&mut self, clients: &[Timed<ClientLib>], expect: usize) {
        self.setup_s = self.started.elapsed().as_secs_f64();
        let m = Arc::clone(self.inst.machine());
        self.quiesce(&clients[0].0);
        let idle = Counters::read(&m, [0; 3]);
        self.quiesce(&clients[0].0);
        self.barrier_cost = idle.delta(&Counters::read(&m, [0; 3]));
        // Twice, as the repo's own benches do: the first raises every
        // clock to the set-up's end, the second returns the settled time.
        m.sync();
        m.sync();
        if self.params.traced {
            // Keep only the measured region's trees.
            m.otrace.reset();
        }
        self.before = Counters::read(&m, dircache_sum(clients));
        if !host::runs_until_blocked() && !host::never_preempt_on_wakeup() {
            eprintln!(
                "warning: neither SCHED_FIFO nor SCHED_BATCH is available; a replay's \
                 virtual outcome may then depend on host scheduling"
            );
        }
        timed::set_recording(true, expect);
        self.region_started = Instant::now();
    }

    /// Closes the measured region and collects its samples and counter
    /// deltas. Clocks, caches and host-side counts are read at the
    /// region's last reply; message, server and busy counters after a
    /// quiescing barrier, less the barrier's own cost, so that work a
    /// server did after its last answer is always in. The closing phase
    /// barrier comes last: it raises the busy counters, which until then
    /// hold executed cycles only.
    pub fn end(&self, clients: &[Timed<ClientLib>]) -> Measured {
        let host_s = self.region_started.elapsed().as_secs_f64();
        timed::set_recording(false, 0);
        let m = self.inst.machine();
        let at_reply = Counters::read(m, dircache_sum(clients));
        let otrace_ops = m.otrace.op_count();
        self.quiesce(&clients[0].0);
        let mut after = Counters::read(m, at_reply.dircache);
        m.sync();
        let cost = &self.barrier_cost;
        after.sends -= cost.sends;
        after.batched_ops -= cost.batched_ops;
        for (a, b) in after.server_ops.iter_mut().zip(&cost.server_ops) {
            *a -= b;
        }
        for (a, b) in after.busy.iter_mut().zip(&cost.busy) {
            *a -= b;
        }
        after.cache = at_reply.cache;
        after.switches = at_reply.switches;
        after.allocs = at_reply.allocs;
        after.cpu_ns = at_reply.cpu_ns;
        after.elapsed = at_reply.elapsed;
        let rec = timed::drain();
        Measured {
            samples: rec.samples,
            counters: self.before.delta(&after),
            host_s,
            spans: rec.spans,
            otrace_ops,
        }
    }

    /// Detaches the clients, joins the servers, and assembles the
    /// repetition's answer. `layer` carries the workload's own per-layer
    /// metrics, `facts` whatever `selfcheck` wants to compare.
    pub fn finish(
        self,
        clients: Vec<Timed<ClientLib>>,
        m: &Measured,
        mut layer: Metrics,
        mut facts: Json,
        correct: bool,
    ) -> Json {
        let t = Instant::now();
        self.phase("shutdown", || {
            for c in &clients {
                c.0.shutdown();
            }
            self.inst.shutdown();
        });
        let shutdown_s = t.elapsed().as_secs_f64();
        let e2e = e2e_from(m, self.setup_s);
        let mut all_layer = layer_from(m);
        all_layer.0.append(&mut layer.0);
        let (attempted, failed) = tally(&m.samples);
        facts.set("boot_s", self.boot_s);
        facts.set("shutdown_s", shutdown_s);
        facts.set("region_host_s", m.host_s);
        facts.set("region_sends", m.counters.sends);
        facts.set("region_vcycles", m.counters.elapsed);
        let mut correct = correct && failed == 0;
        if self.params.traced {
            let late = timed::drain().spans;
            let (o, ok) = otrace::analyze(&self.inst, m, late, &self.params, &mut facts);
            all_layer.0.extend(o.0);
            correct &= ok;
        }
        answer(
            &self.params,
            &e2e,
            &all_layer,
            facts,
            (attempted, failed),
            correct,
        )
    }
}

/// A repetition's answer to the orchestrator.
pub fn answer(
    p: &Params,
    e2e: &Metrics,
    layer: &Metrics,
    facts: Json,
    (attempted, failed): (u64, u64),
    correct: bool,
) -> Json {
    Json::obj()
        .with("workload", p.workload.as_str())
        .with("seed", p.seed)
        .with("traced", p.traced)
        .with("e2e", e2e.to_json())
        .with("layer", layer.to_json())
        .with("facts", facts)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("correct", correct)
}

/// Fills every per-layer metric a repetition did not report with 0 — the
/// layer did no work on this workload (or the number belongs to another
/// kind of repetition) — and orders them as the spec lists them.
pub fn complete_layers(known: &Json) -> Vec<(String, f64, &'static str)> {
    spec::per_layer()
        .into_iter()
        .map(|m| {
            let v = known.get(&m.name).and_then(Json::num).unwrap_or(0.0);
            (m.name, v, m.unit)
        })
        .collect()
}
