//! The orchestrator: runs every repetition in a fresh, pinned process of
//! its own and folds their answers.
//!
//! * An **untraced run** is [`spec::REPS`] repetitions of one seed; every
//!   end-to-end metric is their median, printed with min and max.
//!   `setup_s` folds [`EXTRA_SETUPS`] more set-ups in.
//! * A **traced run** is one full untraced repetition (counters and
//!   per-kind timings), the same workload at a fifth of the size once
//!   untraced and once with `trace_ops` and harness spans on (span-tree
//!   split, sends parity, tracing overhead), the probes, and a short
//!   `meta_mix` pinned and unpinned (what pinning buys).

use crate::json::Json;
use crate::rig::{complete_layers, Params};
use crate::stats::{median, min_max};
use crate::{host, probes, spec, workloads, Flags};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Share of a repetition's size the traced comparison runs at.
const TRACED_SHARE: f64 = 0.2;

/// `hot_shift` needs whole phases for its story (migrate, replicate,
/// migrate), so its traced comparison never runs shorter than this.
const HOT_SHIFT_TRACED_MIN_SECONDS: f64 = 1.0;

/// Seconds that make `meta_mix` about 20 k records: the pinned-vs-unpinned
/// comparison.
const SLOWDOWN_SECONDS: f64 = 0.28;

/// Set-ups a run times beyond those of its repetitions. `setup_s` is one
/// reading per process and the noisiest metric the pipeline bounds: with
/// three readings, ten runs spread by up to 23 % and the medians of two
/// sets of ten runs differed by up to 18 %, under a bound of 25 %.
const EXTRA_SETUPS: usize = 4;

/// Longest a repetition may take before it is killed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Entry point of a repetition's own process.
pub fn child_main(flags: &Flags) -> Result<bool, String> {
    let pinned = if flags.num("pin", 1u8)? == 1 {
        host::pin_to_one_cpu()
    } else {
        None
    };
    // Before anything spawns a thread, so that all of them inherit it.
    // Only on one CPU does it order the threads.
    let ordered = pinned.is_some() && host::run_until_blocked();
    let mut out = if flags.str("role", "rep") == "probes" {
        Json::obj().with("layer", probes::run().to_json())
    } else {
        workloads::run(&Params {
            workload: flags.str("workload", ""),
            seed: flags.num("seed", 1)?,
            seconds: flags.num("seconds", 1.0)?,
            traced: flags.num("trace", 0u8)? == 1,
            out_dir: flags.str("out", "benchmark/out"),
        })
    };
    out.set("pinned", pinned.is_some());
    out.set("ordered", ordered);
    println!("{}", out.render());
    Ok(true)
}

/// Runs one repetition in a child process and returns its answer.
fn child(args: &[(&str, String)]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child");
    for (k, v) in args {
        cmd.arg(format!("--{k}")).arg(v);
    }
    let mut proc = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start repetition: {e}"))?;
    // The answer is one line printed at the very end, far below the pipe's
    // capacity, so polling for the exit before reading cannot block it.
    let started = Instant::now();
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < CHILD_TIMEOUT => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Ok(None) => {
                // A panicked server thread leaves its clients waiting
                // forever; end the repetition instead of hanging the run.
                let _ = proc.kill();
                let _ = proc.wait();
                return Err(format!("repetition {args:?} timed out"));
            }
            Err(e) => return Err(format!("cannot wait for repetition: {e}")),
        }
    };
    let mut text = String::new();
    proc.stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut text)
        .map_err(|e| format!("cannot read repetition's answer: {e}"))?;
    if !status.success() {
        return Err(format!("repetition {args:?} ended with {status}"));
    }
    let last = text.lines().last().ok_or("repetition printed nothing")?;
    Json::parse(last).map_err(|e| format!("repetition's answer does not parse: {e}"))
}

/// One repetition of `p`, in a process of its own.
pub fn rep(p: &Params, pin: bool) -> Result<Json, String> {
    child(&[
        ("workload", p.workload.clone()),
        ("seed", p.seed.to_string()),
        ("seconds", p.seconds.to_string()),
        ("trace", u8::from(p.traced).to_string()),
        ("pin", u8::from(pin).to_string()),
        ("out", p.out_dir.clone()),
    ])
}

/// One end-to-end metric over the repetitions of a run.
pub struct Folded {
    pub name: &'static str,
    pub unit: &'static str,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Readings folded.
    pub n: usize,
    /// Whether the pipeline bounds it (`BENCHMARK.json`'s `end_to_end`).
    pub bounded: bool,
}

/// Which of the two host-noise controls held in every process of a run.
#[derive(Clone, Copy)]
pub struct Controls {
    /// One CPU for the whole process (`host::pin_to_one_cpu`).
    pub pinned: bool,
    /// Threads run until they block (`host::run_until_blocked`).
    pub ordered: bool,
}

impl Controls {
    fn of(answers: &[&Json]) -> Controls {
        Controls {
            pinned: answers.iter().all(|r| flag(r, "pinned")),
            ordered: answers.iter().all(|r| flag(r, "ordered")),
        }
    }

    fn and(self, other: Controls) -> Controls {
        Controls {
            pinned: self.pinned && other.pinned,
            ordered: self.ordered && other.ordered,
        }
    }
}

/// An untraced run's outcome.
pub struct Untraced {
    pub metrics: Vec<Folded>,
    pub reps: Vec<Json>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub controls: Controls,
}

fn flag(j: &Json, key: &str) -> bool {
    j.get(key).and_then(Json::bool).unwrap_or(false)
}

/// Whether a repetition checked everything its workload checks, and
/// came out correct. `hot_shift` skips its placement expectations on a
/// repetition too short for the rebalancer's cadence; only `selfcheck`
/// may run those.
fn verified(r: &Json) -> bool {
    let checked = r
        .get("facts")
        .and_then(|f| f.get("placement_checked"))
        .and_then(Json::bool)
        != Some(false);
    if !checked {
        eprintln!(
            "hot_shift: repetition too short to check placement; give the run more --seconds"
        );
    }
    checked && flag(r, "correct")
}

fn count(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::num).unwrap_or(0.0) as u64
}

/// One repetition's share of a run's measuring budget.
fn per_rep(run: &Params) -> Params {
    Params {
        seconds: run.seconds / spec::REPS as f64,
        ..run.clone()
    }
}

/// [`EXTRA_SETUPS`] more readings of `setup_s`: repetitions of no length,
/// which set up in full (populate and warm-up do not depend on the
/// region's length) and then measure next to nothing. Not for
/// `paper_suite`, whose programs set up in proportion to their scale.
fn extra_setups(one: &Params) -> Result<Vec<f64>, String> {
    if one.workload == "paper_suite" {
        return Ok(Vec::new());
    }
    let empty = Params {
        seconds: 0.0,
        ..one.clone()
    };
    (0..EXTRA_SETUPS)
        .map(|_| {
            let r = rep(&empty, true)?;
            if !flag(&r, "correct") {
                return Err(format!("{}: a set-up repetition failed", one.workload));
            }
            Ok(r.get("e2e").expect("e2e").num_at("setup_s"))
        })
        .collect()
}

/// [`spec::REPS`] pinned repetitions of `run.seconds / REPS` each.
pub fn untraced(run: &Params) -> Result<Untraced, String> {
    let one = per_rep(run);
    let reps: Vec<Json> = (0..spec::REPS)
        .map(|_| rep(&one, true))
        .collect::<Result<_, _>>()?;
    let setups = extra_setups(&one)?;
    let metrics = spec::folded()
        .map(|(m, bounded)| {
            let mut vals: Vec<f64> = reps
                .iter()
                .map(|r| r.get("e2e").expect("repetition reports e2e").num_at(m.name))
                .collect();
            if m.name == "setup_s" {
                vals.extend(&setups);
            }
            let (min, max) = min_max(&vals);
            Folded {
                name: m.name,
                unit: m.unit,
                median: median(&vals),
                min,
                max,
                n: vals.len(),
                bounded,
            }
        })
        .collect();
    Ok(Untraced {
        metrics,
        attempted: reps.iter().map(|r| count(r, "attempted")).sum(),
        failed: reps.iter().map(|r| count(r, "failed")).sum(),
        correct: reps.iter().all(verified),
        controls: Controls::of(&reps.iter().collect::<Vec<_>>()),
        reps,
    })
}

/// A traced run's outcome: every per-layer metric, in spec order.
pub struct Traced {
    pub layers: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub controls: Controls,
    /// Calls the per-kind percentiles rest on.
    pub samples: u64,
}

/// What a traced run reports that does not depend on its workload.
pub struct Shared {
    /// The probes' answer, from a pinned process of their own.
    probes: Json,
    /// Pinned vs. unpinned on a short `meta_mix`: `msg.unpinned_slowdown`.
    slowdown: f64,
}

impl Shared {
    pub fn measure(run: &Params) -> Result<Shared, String> {
        let probes = child(&[("role", "probes".into())])?;
        let short = Params {
            workload: "meta_mix".into(),
            seconds: SLOWDOWN_SECONDS,
            ..run.clone()
        };
        let host_s = |pin: bool| -> Result<f64, String> {
            let r = rep(&short, pin)?;
            Ok(r.get("facts").expect("facts").num_at("region_host_s"))
        };
        Ok(Shared {
            probes,
            slowdown: host_s(false)? / host_s(true)?,
        })
    }
}

/// The traced run of `run.workload`.
pub fn traced(run: &Params, shared: &Shared) -> Result<Traced, String> {
    let workload = run.workload.as_str();
    let one = per_rep(run);
    let full = rep(&one, true)?;
    let small = Params {
        seconds: match workload {
            "hot_shift" => {
                (one.seconds * TRACED_SHARE).max(HOT_SHIFT_TRACED_MIN_SECONDS.min(one.seconds))
            }
            _ => one.seconds * TRACED_SHARE,
        },
        ..one
    };
    let plain = rep(&small, true)?;
    let spans = rep(
        &Params {
            traced: true,
            ..small
        },
        true,
    )?;
    let fact = |j: &Json, k: &str| j.get("facts").expect("facts").num_at(k);

    let mut layer = full.get("layer").expect("layer").clone();
    for m in &spec::HOST_TIME {
        layer.set(m.name, full.get("e2e").expect("e2e").num_at(m.name));
    }
    for (k, v) in spans.get("layer").expect("layer").fields() {
        if k.starts_with("otrace.") {
            layer.set(k, v.clone());
        }
    }
    let parity = fact(&spans, "region_sends") / fact(&plain, "region_sends");
    layer.set("otrace.sends_parity", parity);
    layer.set(
        "otrace.host_overhead_ratio",
        fact(&spans, "region_host_s") / fact(&plain, "region_host_s"),
    );
    for (k, v) in shared.probes.get("layer").expect("layer").fields() {
        layer.set(k, v.clone());
    }
    layer.set("msg.unpinned_slowdown", shared.slowdown);

    let all = [&full, &plain, &spans];
    let controls = Controls::of(&[&full, &plain, &spans, &shared.probes]);
    // The simulator is deterministic, so tracing must not move a single
    // send; only `paper_suite`'s threads, where the host orders them, may
    // shift a handful.
    let parity_ok = if workload == "paper_suite" && !controls.ordered {
        (parity - 1.0).abs() < 0.01
    } else {
        parity == 1.0
    };
    if !parity_ok {
        eprintln!("{workload}: traced and untraced runs differ in sends (parity {parity})");
    }
    Ok(Traced {
        layers: complete_layers(&layer),
        attempted: all.iter().map(|r| count(r, "attempted")).sum(),
        failed: all.iter().map(|r| count(r, "failed")).sum(),
        correct: parity_ok && all.iter().all(|r| verified(r)),
        controls,
        samples: count(&full, "attempted"),
    })
}

fn print_host_facts(seed: u64, c: Controls) {
    println!(
        "host: nproc={} cpu=\"{}\" seed={seed} pinned={} ordered={}",
        host::nproc(),
        host::cpu_model(),
        c.pinned,
        c.ordered
    );
    if !c.pinned {
        println!(
            "WARNING: CPU pinning is unavailable here; host_* metrics and setup_s of this run \
             depend on the host scheduler and are NOT comparable with other runs"
        );
    }
    if !c.ordered {
        println!(
            "WARNING: SCHED_FIFO is unavailable here (it needs CAP_SYS_NICE); which thread runs \
             next is then up to the host, and simulated numbers can differ between two runs \
             of one seed"
        );
    }
}

fn print_untraced(workload: &str, u: &Untraced) {
    println!(
        "{workload}: {} repetitions, {} ops attempted, {} failed, correct={}",
        u.reps.len(),
        u.attempted,
        u.failed,
        u.correct
    );
    for m in &u.metrics {
        println!(
            "  {:<21} {:>16.6} {:<7} (min {:.6}, max {:.6}, n={}){}",
            m.name,
            m.median,
            m.unit,
            m.min,
            m.max,
            m.n,
            if m.bounded {
                ""
            } else {
                "  [host time: not bounded by the pipeline]"
            }
        );
    }
}

fn print_traced(workload: &str, t: &Traced) {
    println!(
        "{workload}: per-layer metrics ({} observed calls in the full repetition), correct={}",
        t.samples, t.correct
    );
    for (name, v, unit) in &t.layers {
        println!("  {name:<44} {v:>18.6} {unit}");
    }
}

fn metrics_json<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    let mut o = Json::obj();
    for (name, value, unit) in items {
        o.set(name, Json::obj().with("value", value).with("unit", unit));
    }
    o
}

/// A whole run's parameters from the command line.
fn run_params(flags: &Flags, workload: String) -> Result<Params, String> {
    Ok(Params {
        workload,
        seed: flags.num("seed", 1)?,
        seconds: flags.num("seconds", spec::RUN_SECONDS as f64)?,
        traced: false,
        out_dir: flags.str("out", "benchmark/out"),
    })
}

/// The driver contract: one workload, one seed; the last line of stdout
/// is `{"correct", "attempted", "failed", "metrics"}`.
pub fn driver_run(flags: &Flags) -> Result<bool, String> {
    let workload = flags.str("workload", "");
    if spec::workload(&workload).is_none() {
        return Err(format!(
            "--workload must be one of {:?}",
            spec::WORKLOADS.map(|w| w.name)
        ));
    }
    let run = run_params(flags, workload.clone())?;
    let (correct, attempted, failed, metrics) = if flags.num("trace", 0u8)? == 1 {
        let t = traced(&run, &Shared::measure(&run)?)?;
        print_host_facts(run.seed, t.controls);
        print_traced(&workload, &t);
        let metrics = metrics_json(t.layers.iter().map(|(n, v, u)| (n.as_str(), *v, *u)));
        (t.correct, t.attempted, t.failed, metrics)
    } else {
        let u = untraced(&run)?;
        print_host_facts(run.seed, u.controls);
        print_untraced(&workload, &u);
        let bounded = u.metrics.iter().filter(|m| m.bounded);
        let metrics = metrics_json(bounded.map(|m| (m.name, m.median, m.unit)));
        (u.correct, u.attempted, u.failed, metrics)
    };
    // A run that attempted nothing measured nothing.
    let correct = correct && attempted > 0;
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("metrics", metrics)
            .render()
    );
    Ok(correct)
}

/// Every workload: untraced run, traced run (probes and the pinning
/// comparison measured once), everything printed with its unit, and
/// `<out>/results.json` for `compare`.
pub fn all(flags: &Flags) -> Result<bool, String> {
    let first = run_params(flags, spec::WORKLOADS[0].name.into())?;
    let (seed, seconds, out_dir) = (first.seed, first.seconds, first.out_dir.clone());
    let shared = Shared::measure(&first)?;
    let mut ok = true;
    let mut controls = Controls {
        pinned: true,
        ordered: true,
    };
    let mut results = Json::obj();
    for w in &spec::WORKLOADS {
        let run = Params {
            workload: w.name.into(),
            ..first.clone()
        };
        let u = untraced(&run)?;
        let t = traced(&run, &shared)?;
        print_untraced(w.name, &u);
        print_traced(w.name, &t);
        ok &= u.correct && t.correct;
        controls = controls.and(u.controls).and(t.controls);
        let mut e2e = Json::obj();
        for m in &u.metrics {
            e2e.set(
                m.name,
                Json::obj()
                    .with("median", m.median)
                    .with("min", m.min)
                    .with("max", m.max)
                    .with("unit", m.unit),
            );
        }
        results.set(
            w.name,
            Json::obj()
                .with("correct", u.correct && t.correct)
                .with("attempted", u.attempted)
                .with("failed", u.failed)
                .with("end_to_end", e2e)
                .with(
                    "per_layer",
                    metrics_json(t.layers.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
                ),
        );
    }
    print_host_facts(seed, controls);
    let doc = Json::obj()
        .with("seed", seed)
        .with("seconds", seconds)
        .with("repetitions", spec::REPS)
        .with("pinned", controls.pinned)
        .with("ordered", controls.ordered)
        .with("nproc", host::nproc())
        .with("cpu_model", host::cpu_model())
        .with("workloads", results);
    let path = std::path::Path::new(&out_dir).join("results.json");
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}
