#!/usr/bin/env bash
# The benchmark's one command.
#
#   crates/e2e/run.sh [--seed N] [--seconds S] [--smoke] [--repeat R] [--out FILE]
#       every workload, each in its own process, untraced and traced; checks
#       every answer and prints every metric by name with unit, direction
#       and regression bound.
#   crates/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, ending with the result object on the last line of stdout
#       (the form BENCHMARK.json's command uses).
#
# Builds bench_e2e from source first; honours CARGO_TARGET_DIR.
set -euo pipefail
cd "$(dirname "$0")/../.."
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec cargo run --release --quiet -p batchbb-e2e --bin bench_e2e -- "$@"
    fi
done
exec cargo run --release --quiet -p batchbb-e2e --bin bench_e2e -- suite "$@"
