//! `selfcheck`: in seconds, is the benchmark itself sound?
//!
//! A short prefix of each replay workload runs twice with one seed — once
//! plain, once traced — and every simulated number, counter and send must
//! be bit-identical (the simulator is deterministic, and tracing must not
//! move it). A second seed must change the generated inputs. A short
//! `paper_suite` is held to the same bit-identity where the host lets its
//! threads run in order. Then each workload's discrimination facts: the
//! property that is the reason the workload exists must actually hold on
//! it, and not on the others.

use crate::json::Json;
use crate::orchestrate::rep;
use crate::rig::Params;
use crate::workloads::{data_stream, giant_cold, hot_shift, meta_mix};
use crate::{spec, Flags};

/// Trace records (or, for `data_stream`, observed calls) per prefix.
const PREFIX_OPS: f64 = 5_000.0;
/// Observed calls of one `data_stream` round.
const DATA_STREAM_CALLS_PER_ROUND: f64 = 232.0;
/// Seconds of `paper_suite`: every knob at its floor of 8 iterations.
const PAPER_SUITE_SECONDS: f64 = 0.05;

struct Check {
    failures: usize,
}

impl Check {
    fn that(&mut self, ok: bool, what: &str) {
        println!("{} {what}", if ok { "ok:  " } else { "FAIL:" });
        self.failures += usize::from(!ok);
    }

    /// Two repetitions of `w` with one seed, one of them traced, must
    /// agree on every simulated number.
    fn identical(&mut self, w: &str, plain: &Json, traced: &Json) {
        let (a, b) = (simulated(plain), simulated(traced));
        let moved = moved(&a, &b);
        let detail = if moved.is_empty() {
            String::new()
        } else {
            format!(" — moved: {moved:?}")
        };
        self.that(
            moved.is_empty(),
            &format!(
                "{w}: {} simulated numbers bit-identical across two runs, one of them traced{detail}",
                a.len()
            ),
        );
    }
}

fn layer(j: &Json, name: &str) -> f64 {
    j.get("layer").expect("layer").num_at(name)
}

fn fact(j: &Json, name: &str) -> f64 {
    j.get("facts").expect("facts").num_at(name)
}

/// The simulated numbers of `a` that `b` does not repeat bit for bit.
fn moved(a: &[(String, f64)], b: &[(String, f64)]) -> Vec<String> {
    if a.len() != b.len() {
        return vec!["(the two runs report different metrics)".into()];
    }
    let differing = a.iter().zip(b).filter(|(x, y)| x != y);
    differing.map(|(x, _)| x.0.clone()).collect()
}

/// Everything simulated a repetition reports: `v*` metrics, the
/// counter-derived per-layer metrics, sends and virtual cycles.
fn simulated(j: &Json) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for (k, v) in j.get("e2e").expect("e2e").fields() {
        if k.starts_with('v') {
            out.push((k.clone(), v.num().expect("number")));
        }
    }
    for (k, v) in j.get("layer").expect("layer").fields() {
        let host_side = k.contains("host") || k.starts_with("otrace.");
        if !host_side {
            out.push((k.clone(), v.num().expect("number")));
        }
    }
    for k in ["region_sends", "region_vcycles"] {
        out.push((k.into(), fact(j, k)));
    }
    out
}

pub fn main(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.num("seed", 1)?;
    let out_dir = flags.str("out", "benchmark/out");
    let mut check = Check { failures: 0 };

    if let Ok(committed) = std::fs::read_to_string("BENCHMARK.json") {
        check.that(
            committed == spec::benchmark_json(),
            "BENCHMARK.json is `hare-benchmark spec`, byte for byte",
        );
    }

    let prefixes = [
        ("meta_mix", PREFIX_OPS / meta_mix::RECORDS_PER_SECOND),
        ("giant_cold", PREFIX_OPS / giant_cold::RECORDS_PER_SECOND),
        (
            "data_stream",
            PREFIX_OPS / DATA_STREAM_CALLS_PER_ROUND / data_stream::ROUNDS_PER_SECOND,
        ),
        ("hot_shift", PREFIX_OPS / hot_shift::RECORDS_PER_SECOND),
    ];
    let mut plain_runs = Vec::new();
    let mut traced_runs = Vec::new();
    for (w, seconds) in prefixes {
        let params = |seed: u64, traced: bool| Params {
            workload: w.into(),
            seed,
            seconds,
            traced,
            out_dir: out_dir.clone(),
        };
        let plain = rep(&params(seed, false), true)?;
        let traced = rep(&params(seed, true), true)?;
        for r in [&plain, &traced] {
            check.that(
                r.get("correct").and_then(Json::bool) == Some(true) && r.num_at("failed") == 0.0,
                &format!("{w}: outputs verified, no op failed"),
            );
        }
        check.identical(w, &plain, &traced);
        check.that(
            fact(&traced, "span_tree_sends") == fact(&traced, "region_sends"),
            &format!("{w}: span-tree sends equal MsgStats over the region"),
        );
        // The generators alone, in this process: the fingerprint must be
        // the one the repetition reported, and a second seed must move it.
        let generated =
            |seed: u64| crate::workloads::input_fingerprint(&params(seed, false)) as f64;
        check.that(
            generated(seed) == fact(&plain, "input_fingerprint")
                && generated(seed + 1) != generated(seed),
            &format!(
                "{w}: inputs are a function of the seed, and seed {} generates different ones",
                seed + 1
            ),
        );
        plain_runs.push(plain);
        traced_runs.push(traced);
    }

    // `paper_suite` has two process threads: what it simulates depends on
    // their interleaving, which repeats only where threads run in order.
    let suite = |traced: bool| {
        rep(
            &Params {
                workload: "paper_suite".into(),
                seed,
                seconds: PAPER_SUITE_SECONDS,
                traced,
                out_dir: out_dir.clone(),
            },
            true,
        )
    };
    let (plain, traced) = (suite(false)?, suite(true)?);
    if [&plain, &traced]
        .iter()
        .all(|r| r.get("ordered").and_then(Json::bool) == Some(true))
    {
        check.identical("paper_suite", &plain, &traced);
    } else {
        println!(
            "note: SCHED_FIFO is unavailable here (it needs CAP_SYS_NICE): paper_suite's simulated \
             numbers are not checked, and the checks above can fail in rare cases"
        );
    }

    let [meta, giant, data, hot] = &plain_runs[..] else {
        unreachable!("four replay workloads")
    };
    let (meta_hit, giant_hit) = (
        layer(meta, "client.dircache_hit_ratio"),
        layer(giant, "client.dircache_hit_ratio"),
    );
    // Hits are counted per path component, and the few interior
    // directories of the giant tree always hit; what tells the two apart
    // is the leaf level.
    check.that(
        meta_hit >= 0.9 && giant_hit <= 0.85,
        &format!(
            "dircache hit ratio is warm on meta_mix ({meta_hit:.3} >= 0.9), cold on giant_cold ({giant_hit:.3} <= 0.85)"
        ),
    );
    for (w, r) in ["meta_mix", "giant_cold", "data_stream", "hot_shift"]
        .into_iter()
        .zip(&traced_runs)
    {
        let hops = layer(r, "otrace.sends_per_op.chain_hop");
        check.that(
            (hops > 0.0) == (w == "giant_cold"),
            &format!("{w}: chain_hop sends per op = {hops:.4} (positive only on giant_cold)"),
        );
    }
    for (w, r) in [
        ("meta_mix", meta),
        ("giant_cold", giant),
        ("data_stream", data),
    ] {
        check.that(
            layer(r, "placement.migrations") == 0.0,
            &format!("{w}: no migration outside hot_shift"),
        );
    }
    check.that(
        fact(giant, "boot_s") >= 3.0 * fact(meta, "boot_s")
            && giant.get("e2e").expect("e2e").num_at("peak_rss_mb")
                >= 3.0 * meta.get("e2e").expect("e2e").num_at("peak_rss_mb"),
        "giant_cold: booting 64 cores costs at least 3x the time and memory of 8 cores",
    );
    let share = fact(data, "vtime_share_in_read_write");
    check.that(
        share >= 0.8,
        &format!("data_stream: {share:.3} of virtual time is inside read/write (>= 0.8)"),
    );
    check.that(
        layer(hot, "placement.tick_exchanges_per_window") > 0.0,
        "hot_shift: the rebalancer is being ticked",
    );

    println!(
        "selfcheck: {}",
        if check.failures == 0 {
            "all checks hold".to_string()
        } else {
            format!("{} checks FAILED", check.failures)
        }
    );
    Ok(check.failures == 0)
}
