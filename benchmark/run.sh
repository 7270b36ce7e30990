#!/usr/bin/env bash
# Builds the benchmark offline into the repo's shared target/ and runs
# everything: all five workloads (three pinned repetitions each), the
# probes, and the traced repetitions. Prints every metric with its unit
# and writes benchmark/out/results.json (the input of `compare`).
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out DIR]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/hare-benchmark" all "$@"
