//! The five workloads. Each `run` executes one repetition in the calling
//! (already pinned) process and returns its answer.

pub mod data_stream;
pub mod giant_cold;
pub mod hot_shift;
pub mod meta_mix;
pub mod paper_suite;

use crate::json::Json;
use crate::rig::Params;

/// Runs one repetition of `p.workload`.
pub fn run(p: &Params) -> Json {
    match p.workload.as_str() {
        "meta_mix" => meta_mix::run(p),
        "giant_cold" => giant_cold::run(p),
        "data_stream" => data_stream::run(p),
        "hot_shift" => hot_shift::run(p),
        "paper_suite" => paper_suite::run(p),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Fingerprint of the measured inputs the generators make for `p` (the
/// replay workloads only; `paper_suite` runs fixed programs).
pub fn input_fingerprint(p: &Params) -> u64 {
    match p.workload.as_str() {
        "meta_mix" => meta_mix::input_fingerprint(p),
        "giant_cold" => giant_cold::input_fingerprint(p),
        "data_stream" => data_stream::input_fingerprint(p),
        "hot_shift" => hot_shift::input_fingerprint(p),
        other => panic!("{other:?} has no generated inputs"),
    }
}
