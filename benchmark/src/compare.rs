//! `compare <a.json> <b.json>`: two `results.json` files side by side.
//!
//! Per workload and end-to-end metric: both medians, the change, the
//! bound, and a verdict — `improved`, `unchanged`, `regressed`, or
//! `unresolved` when a side's own spread exceeds the bound (or a side ran
//! unpinned and the metric is a host one). The simulator is deterministic
//! — on the replay workloads by construction, on `paper_suite` when both
//! sides ran their threads in order (`ordered`, see
//! `host::run_until_blocked`) — so any difference in a simulated number
//! is additionally flagged `changed`: the check a simulator-only speed-up
//! or a simplification must pass.

use crate::json::Json;
use crate::spec::{self, Better};

/// Workloads whose one load-generating thread makes the simulated numbers
/// repeat bit for bit (all but never, when threads do not run in order).
const REPLAY: [&str; 4] = ["meta_mix", "giant_cold", "data_stream", "hot_shift"];

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Per-layer metrics measured on the host clock; every other per-layer
/// metric is a count the simulator makes, and repeats exactly.
fn host_side(m: &spec::PerLayer) -> bool {
    matches!(
        m.unit,
        "ns" | "us" | "ms" | "s" | "us/op" | "MiB/s" | "ops/s"
    ) || m.name == "msg.unpinned_slowdown"
        || m.name == "otrace.host_overhead_ratio"
}

pub fn main(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let pinned = |j: &Json| j.get("pinned").and_then(Json::bool).unwrap_or(false);
    let both_pinned = pinned(&a) && pinned(&b);
    let ordered = |j: &Json| j.get("ordered").and_then(Json::bool).unwrap_or(false);
    let both_ordered = ordered(&a) && ordered(&b);
    if !both_ordered {
        println!(
            "note: a side ran without SCHED_FIFO; its simulated numbers can differ between \
             runs of one seed (rarely on the replay workloads, by a few percent on paper_suite)"
        );
    }
    if a.get("seed") != b.get("seed") || a.get("seconds") != b.get("seconds") {
        println!(
            "note: the two files were not measured with the same seed and seconds; \
             simulated numbers then differ by construction"
        );
    }
    println!(
        "{:<12} {:<21} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    let mut regressed = 0;
    for w in &spec::WORKLOADS {
        let side = |j: &Json| -> Result<Json, String> {
            j.get("workloads")
                .and_then(|ws| ws.get(w.name))
                .cloned()
                .ok_or_else(|| format!("no workload {} in a results file", w.name))
        };
        let (wa, wb) = (side(&a)?, side(&b)?);
        let exact = both_ordered || REPLAY.contains(&w.name);
        for (m, _) in spec::folded() {
            let get = |j: &Json| -> Result<(f64, f64), String> {
                let e = j
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .ok_or_else(|| format!("no metric {} for {}", m.name, w.name))?;
                let med = e.num_at("median");
                let spread = if med == 0.0 {
                    0.0
                } else {
                    (e.num_at("max") - e.num_at("min")) / med.abs()
                };
                Ok((med, spread))
            };
            let ((ma, sa), (mb, sb)) = (get(&wa)?, get(&wb)?);
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let worse = match m.better {
                Better::Higher => -change,
                Better::Lower => change,
            };
            let simulated = m.name.starts_with('v');
            let host_time = matches!(m.unit, "s" | "us" | "us/op" | "ops/s");
            let mut verdict = if host_time && !both_pinned {
                "unresolved (unpinned)".to_string()
            } else if sa.max(sb) > m.bound {
                format!("unresolved (spread {:.1}%)", sa.max(sb) * 100.0)
            } else if worse > m.bound {
                regressed += 1;
                "regressed".to_string()
            } else if worse < -m.bound {
                "improved".to_string()
            } else {
                "unchanged".to_string()
            };
            if simulated && exact && ma != mb {
                verdict.push_str(", changed");
            }
            println!(
                "{:<12} {:<21} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}%  {verdict}",
                w.name,
                m.name,
                ma,
                mb,
                change * 100.0,
                m.bound * 100.0
            );
        }
        if exact {
            let layer = |j: &Json, k: &str| {
                j.get("per_layer")
                    .and_then(|l| l.get(k))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::num)
            };
            let moved: Vec<String> = spec::per_layer()
                .iter()
                .filter(|m| !host_side(m))
                .filter_map(|m| {
                    let (x, y) = (layer(&wa, &m.name)?, layer(&wb, &m.name)?);
                    (x != y).then(|| format!("{} {x} -> {y}", m.name))
                })
                .collect();
            if moved.is_empty() {
                println!(
                    "{:<12} every simulated per-layer count is identical",
                    w.name
                );
            } else {
                println!("{:<12} simulated per-layer counts changed:", w.name);
                for line in moved {
                    println!("{:<12}   {line}", "");
                }
            }
        }
    }
    println!(
        "{}",
        if regressed == 0 {
            "no end-to-end metric regressed beyond its bound".to_string()
        } else {
            format!("{regressed} end-to-end metrics regressed beyond their bound")
        }
    );
    Ok(regressed == 0)
}
