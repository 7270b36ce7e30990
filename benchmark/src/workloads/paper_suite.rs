//! `paper_suite`: the paper's own evaluation (§5.2) — all 13 programs of
//! `hare_workloads::Workload::ALL`, each on a fresh `HareSystem` over
//! `timeshare(8)` with two worker processes.
//!
//! The only workload with concurrently running process threads, `spawn`
//! and remote exec, pipes, shared descriptors and the rmdir broadcast.
//! Because the processes are real host threads, virtual time here depends
//! on how the host interleaves them: `v*` metrics repeat only within a
//! few percent, unlike the four replay workloads. `vops_per_vsec` is the
//! geometric mean of the 13 programs' own throughputs (each program
//! counts its own unit of work); latencies and host metrics are over the
//! observed calls of the 13 measured regions.
//!
//! `hare_workloads::run` does a program's set-up, calls `sync_cores` once,
//! then runs the measured region; the observed system uses that barrier
//! to switch recording on, so set-up traffic is kept out (and counted as
//! set-up time).

use crate::json::Json;
use crate::rig::{answer, e2e_from, layer_from, tally, Counters, Measured, Metrics, Params};
use crate::spec::paper_name;
use crate::stats::geomean;
use crate::timed::{self, TimedSystem};
use crate::{host, otrace};
use hare_core::HareConfig;
use hare_sched::HareSystem;
use hare_workloads::{Scale, Workload};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CORES: usize = 8;
const NPROCS: usize = 2;

/// Multiples of `Scale::full()`'s iteration knobs per second of measuring
/// budget (frozen, see `meta_mix`). Tree, archive and build *shapes* stay
/// at `Scale::bench()`; only the amortizable iteration counts grow.
pub const FULL_SCALES_PER_SECOND: f64 = 1.5;

fn scale(p: &Params) -> Scale {
    let full = Scale::full();
    let grow = |n: usize| ((n as f64 * FULL_SCALES_PER_SECOND * p.seconds).round() as usize).max(8);
    Scale {
        iters: grow(full.iters),
        mail_msgs: grow(full.mail_msgs),
        fsstress_ops: grow(full.fsstress_ops),
        kbuild_units: grow(full.kbuild_units),
        ..full
    }
}

pub fn run(p: &Params) -> Json {
    let s = scale(p);
    timed::set_spans(p.traced);
    let mut setup_s = 0.0;
    let mut host_s = 0.0;
    let mut total = Counters::default();
    let mut throughputs = Vec::new();
    let mut layer = Metrics::default();
    let mut programs_ok = 0;
    let mut otrace_ok = true;
    let mut facts = Json::obj();
    let mut span_tree_sends = 0u64;
    let mut split = otrace::Split::default();
    let mut otrace_json = String::new();
    for wl in Workload::ALL {
        let t_boot = Instant::now();
        let mut cfg = HareConfig::timeshare(CORES);
        cfg.trace_ops = p.traced;
        let sys = timed::phase("boot", &|| 0, || HareSystem::start(cfg));
        // What the barrier between set-up and the measured region saw
        // (the last item: root operations the tracer held by then — the
        // tracer cannot be reset here, set-up spans may still be open on
        // server threads).
        let at_sync: Arc<Mutex<Option<(Instant, Counters, usize)>>> = Arc::default();
        let observed = TimedSystem {
            sys: Arc::clone(&sys),
            on_sync: {
                let (sys, at_sync) = (Arc::clone(&sys), Arc::clone(&at_sync));
                Box::new(move || {
                    let m = sys.instance().machine();
                    let c = Counters::read(m, [0; 3]);
                    let ops = m.otrace.op_count();
                    timed::set_recording(true, 0);
                    *at_sync.lock().expect("sync mark lock") = Some((Instant::now(), c, ops));
                })
            },
        };
        let machine = Arc::clone(sys.instance().machine());
        let result = timed::phase("program", &|| machine.elapsed_cycles(), || {
            hare_workloads::run(&observed, wl, NPROCS, &s)
        });
        let t_end = Instant::now();
        timed::set_recording(false, 0);
        let (t_sync, before, setup_ops) = at_sync
            .lock()
            .expect("sync mark lock")
            .take()
            .expect("run() passes the phase barrier");
        let at_end = Counters::read(&machine, [0; 3]);
        timed::phase("shutdown", &|| machine.elapsed_cycles(), || sys.shutdown());
        // Message, server and event counters after the servers were
        // joined, so late one-way sends are in; clocks, caches and the
        // host's own cost as of the region's end.
        let settled = Counters::read(&machine, [0; 3]);
        let after = Counters {
            sends: settled.sends,
            batched_ops: settled.batched_ops,
            server_ops: settled.server_ops,
            events: settled.events,
            ..at_end
        };
        total.add(&before.delta(&after));
        setup_s += (t_sync - t_boot).as_secs_f64();
        host_s += (t_end - t_sync).as_secs_f64();
        match &result {
            Ok(r) => {
                programs_ok += 1;
                throughputs.push(r.throughput());
                layer.put(
                    format!("workloads.{}.vops_per_vsec", paper_name(wl)),
                    r.throughput(),
                );
            }
            Err(e) => eprintln!("paper_suite: {wl} failed: {e}"),
        }
        if p.traced {
            let trees = machine.otrace.op_trees().split_off(setup_ops);
            span_tree_sends += trees.iter().map(|t| t.total_sends()).sum::<u64>();
            otrace_ok &= machine.otrace.open_spans() == 0;
            split.absorb(&trees);
            if wl == Workload::Mailbench {
                // One program's trees stand for the suite in the span
                // file; all 13 would be hundreds of megabytes.
                otrace_json = machine.otrace.to_chrome_json();
            }
        }
    }
    let rec = timed::drain();
    total.dircache = rec.exited_dircache;
    let m = Measured {
        samples: rec.samples,
        counters: total,
        host_s,
        spans: rec.spans,
        otrace_ops: 0,
    };
    let mut e2e = e2e_from(&m, setup_s);
    let geo = geomean(&throughputs);
    e2e.0
        .iter_mut()
        .find(|(k, _)| k == "vops_per_vsec")
        .expect("vops_per_vsec is an end-to-end metric")
        .1 = geo;
    let mut all_layer = layer_from(&m);
    all_layer.0.append(&mut layer.0);
    if p.traced {
        all_layer.0.extend(split.metrics(m.samples.len()).0);
        otrace_ok &= otrace::write_span_files(p, &m.spans, &otrace_json);
        // Process registration, exec requests and exit statuses travel
        // outside any op, so here the trees hold a part of the region's
        // sends, never more.
        otrace_ok &= span_tree_sends <= m.counters.sends;
    }
    let (attempted, errnos) = tally(&m.samples);
    // An errno is part of these programs' normal flow (`mkdir -p` meeting
    // EEXIST, fsstress probing names that are gone): a *failed* op here is
    // a program that did not complete.
    let failed = (Workload::ALL.len() - programs_ok) as u64;
    facts.set("errno_returns", errnos);
    facts.set("region_host_s", m.host_s);
    facts.set("region_sends", m.counters.sends);
    facts.set("region_vcycles", m.counters.elapsed);
    facts.set("span_tree_sends", span_tree_sends);
    facts.set("peak_rss_mb", host::peak_rss_mb());
    let correct = failed == 0 && otrace_ok && geo > 0.0;
    answer(p, &e2e, &all_layer, facts, (attempted, failed), correct)
}
