#!/usr/bin/env bash
# A/A check: run the suite twice on this checkout and fail unless the second
# set of runs agrees with the first within the benchmark's own bounds
# (and every exact count repeats). Takes about a quarter of an hour.
#
#   crates/e2e/aa.sh [SEED]
set -euo pipefail
cd "$(dirname "$0")/../.."
seed="${1:-1}"
out=crates/e2e/out
cargo build --release --quiet -p batchbb-e2e --bin bench_e2e
bin="${CARGO_TARGET_DIR:-target}/release/bench_e2e"
"$bin" suite --seed "$seed" --repeat 3 --out "$out/aa-A.json"
"$bin" suite --seed "$seed" --repeat 3 --out "$out/aa-B.json"
"$bin" compare "$out/aa-A.json" "$out/aa-B.json"
