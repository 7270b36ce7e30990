//! The traced repetition's analysis: what the program's own span trees
//! (`hare_core::otrace`, on with `trace_ops = true`) say about the
//! measured region, and the two span files.
//!
//! * `otrace.sends_per_op.<cause>` — sends issued by spans of that cause,
//!   per observed call. A request send is charged to the *sending* span
//!   (`op` for the client's own requests), a reply/forward/notice to the
//!   server-side span whose cause tag says why the server was working.
//!   The twelve add up to the region's sends per op exactly.
//! * `otrace.self_vcycles_per_op.<cause>` — self time: a span's virtual
//!   duration minus the part of it its children cover, per observed call.
//! * The span-tree send total must equal `MsgStats` over the region; a
//!   mismatch makes the repetition incorrect.

use crate::json::Json;
use crate::rig::{Measured, Metrics, Params};
use crate::spec::{CAUSES, SELF_TIME_CAUSES};
use crate::timed::Span;
use hare_core::{HareInstance, SpanNode};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per-cause accumulators over a set of trees.
#[derive(Default)]
pub struct Split {
    sends: HashMap<&'static str, u64>,
    self_cycles: HashMap<&'static str, u64>,
    depth_max: usize,
    total_sends: u64,
}

impl Split {
    /// Adds whole trees.
    pub fn absorb(&mut self, trees: &[SpanNode]) {
        for t in trees {
            self.visit(t);
            self.depth_max = self.depth_max.max(t.depth());
            self.total_sends += t.total_sends();
        }
    }

    /// The `otrace.*` split, per observed call.
    pub fn metrics(&self, calls: usize) -> Metrics {
        let ops = calls.max(1) as f64;
        let mut out = Metrics::default();
        for c in CAUSES {
            out.put(
                format!("otrace.sends_per_op.{c}"),
                self.sends.get(c).copied().unwrap_or(0) as f64 / ops,
            );
        }
        for c in SELF_TIME_CAUSES {
            out.put(
                format!("otrace.self_vcycles_per_op.{c}"),
                self.self_cycles.get(c).copied().unwrap_or(0) as f64 / ops,
            );
        }
        out.put("otrace.depth_max", self.depth_max as f64);
        out
    }

    fn visit(&mut self, n: &SpanNode) {
        let cause = n.cause.name();
        *self.sends.entry(cause).or_default() += n.sends;
        // Children's intervals clipped to this span and merged, so
        // overlapping children (a parallel fan-out) are not counted twice.
        let mut iv: Vec<(u64, u64)> = n
            .children
            .iter()
            .map(|c| (c.start.max(n.start), c.end.min(n.end)))
            .filter(|(s, e)| e > s)
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut reach = n.start;
        for (s, e) in iv {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        *self.self_cycles.entry(cause).or_default() += (n.end - n.start) - covered;
        for c in &n.children {
            self.visit(c);
        }
    }
}

/// Reads the tracer after the servers were joined, checks the span-tree
/// send total against the region's `MsgStats` delta, writes the span
/// files, and returns the `otrace.*` metrics plus whether the checks held.
pub fn analyze(
    inst: &HareInstance,
    m: &Measured,
    late_spans: Vec<Span>,
    params: &Params,
    facts: &mut Json,
) -> (Metrics, bool) {
    let tracer = &inst.machine().otrace;
    let trees = tracer.op_trees();
    // Trees recorded after the region (verification traffic) follow the
    // region's in operation order.
    let region = &trees[..m.otrace_ops.min(trees.len())];
    let mut split = Split::default();
    split.absorb(region);
    let out = split.metrics(m.samples.len());

    let open = tracer.open_spans();
    let sums_match = split.total_sends == m.counters.sends;
    facts.set("span_tree_sends", split.total_sends);
    facts.set("span_trees", region.len());
    facts.set("open_spans", open);
    if !sums_match {
        eprintln!(
            "traced run: span trees hold {} sends, MsgStats counted {} over the region",
            split.total_sends, m.counters.sends
        );
    }
    if open != 0 {
        eprintln!("traced run: {open} spans left open after shutdown");
    }

    let mut spans = m.spans.clone();
    spans.extend(late_spans);
    let wrote = write_span_files(params, &spans, &tracer.to_chrome_json());
    (out, sums_match && open == 0 && wrote)
}

/// Writes `<out>/<workload>.trace.json` (harness spans on the host clock,
/// virtual times in `args`) and `<out>/<workload>.otrace.json` (the
/// program's span trees on the virtual clock). Both are Chrome
/// trace-event JSON, loadable in Perfetto.
pub fn write_span_files(params: &Params, spans: &[Span], otrace_json: &str) -> bool {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"vstart\":{},\"vend\":{}}}}}",
            s.name,
            if s.parent == 0 { "phase" } else { "call" },
            s.host_start_ns as f64 / 1e3,
            (s.host_end_ns - s.host_start_ns) as f64 / 1e3,
            s.lane,
            s.id,
            s.parent,
            s.v_start,
            s.v_end
        );
    }
    out.push_str("]}");
    let dir = std::path::Path::new(&params.out_dir);
    let write = |name: String, body: &str| -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(name), body)
    };
    let r = write(format!("{}.trace.json", params.workload), &out)
        .and_then(|()| write(format!("{}.otrace.json", params.workload), otrace_json));
    if let Err(e) = &r {
        eprintln!("cannot write span files under {}: {e}", params.out_dir);
    }
    r.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hare_core::Cause;

    fn node(cause: Cause, start: u64, end: u64, sends: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            cause,
            label: "t",
            core: 0,
            start,
            end,
            sends,
            children,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [10, 40) of a [0, 100) op; a third
        // reaches past its end and is clipped to [90, 100).
        let tree = node(
            Cause::Op,
            0,
            100,
            2,
            vec![
                node(Cause::Resolve, 10, 30, 1, vec![]),
                node(Cause::Resolve, 20, 40, 1, vec![]),
                node(Cause::Inval, 90, 120, 1, vec![]),
            ],
        );
        let mut split = Split::default();
        split.absorb(std::slice::from_ref(&tree));
        assert_eq!(split.self_cycles["op"], 100 - 30 - 10);
        assert_eq!(split.self_cycles["resolve"], 40);
        assert_eq!(split.sends["op"], 2);
        assert_eq!(split.sends["resolve"], 2);
        assert_eq!(split.total_sends, 5);
        assert_eq!(split.depth_max, 2);
        // Per observed call: five sends over two calls.
        let m = split.metrics(2);
        let total: f64 =
            m.0.iter()
                .filter(|(k, _)| k.starts_with("otrace.sends_per_op."))
                .map(|(_, v)| v)
                .sum();
        assert_eq!(total, 2.5);
    }
}
