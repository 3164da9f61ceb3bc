#!/usr/bin/env bash
# The full local CI gate: formatting, the store-trait and key-hasher
# rules, the shim inventory, lints, release build, test suite, docs,
# example smoke-runs, trace replays and the end-to-end pre-flight. Runs
# entirely offline — all dependencies are in-tree (see shims/). Every
# threshold is an `assert!`
# in the test that computes it; timings live in the end-to-end ledger
# (results/e2e/), so no stage reads or writes a results file and every run
# leaves the working tree as it found it (checked by its last step).
#
# Usage: scripts/ci.sh [--quick] [--threads] [--slow-store] [--mixed] [--sharded] [--e2e]
#   --quick      skip the release build, docs gate, example smoke-runs and
#                replays (fmt + source gates + clippy + tests only)
#   --threads    run ONLY the concurrency test matrix (the serve-layer tests
#                under RUST_TEST_THREADS=1 and at default parallelism)
#   --slow-store run ONLY the slow-store gate: the latency-hiding smoke
#                (overlapped pool, bare and under the shared cache, must
#                beat the blocking baseline 3x over a 2ms-per-round-trip
#                store with no more round-trips), the async-vs-sync
#                bit-identity proptest, and the exact ceil(n/W) round-trip
#                count across slice boundaries
#   --mixed      run ONLY the mixed update+query gate — the one update path,
#                publish -> advance -> repair: snapshot isolation and
#                version-advance batteries, the versioned store's model
#                proptest and unit tests, the versioned serve tests
#                (held-locks update check, unversioned-update panic)
#   --sharded    run ONLY the sharded retrieval gate: scatter-gather
#                bit-identity and dead-shard degradation, the compaction
#                version-log bound, the one I/O engine's unit tests, the
#                cache's eviction floor, and the shard smoke (4-shard
#                speedup >= 3x, hedged p99 <= 2x healthy)
#   --e2e        run ONLY the end-to-end benchmark pre-flight: every
#                BENCHMARK.json workload for 4 s at the design size, traced
#                and untraced, failing on any failed answer check or
#                VIOLATED workload-premise guard (about a minute)

set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
for arg in "$@"; do
    case "$arg" in
        --quick | --threads | --slow-store | --mixed | --sharded | --e2e) mode=${arg#--} ;;
        *)
            echo "unknown argument: $arg" >&2
            exit 2
            ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

# The gate must leave the working tree as it found it.
tree_before=$(git status --porcelain)
green() {
    if [ "$(git status --porcelain)" != "$tree_before" ]; then
        echo "ci changed the working tree:" >&2
        git status --porcelain >&2
        exit 1
    fi
    echo "==> ci green ($mode)"
}

# Concurrency matrix: the serve-layer tests must pass both serialized
# (RUST_TEST_THREADS=1 — each test's own pool threads still run, but
# tests cannot mask each other's races) and at default test parallelism
# (maximum contention on the shared stores).
threads_matrix() {
    run env RUST_TEST_THREADS=1 cargo test -q -p batchbb \
        --test concurrency --test serve_faults --test serve_slo
    run env RUST_TEST_THREADS=1 cargo test -q -p batchbb-serve
    run cargo test -q -p batchbb --test concurrency --test serve_faults --test serve_slo
    run cargo test -q -p batchbb-serve
}

# Slow-store gate (DESIGN.md §12): crates/bench/tests/slow_store.rs holds
# both engine arms to >= 3x the blocking baseline, bit-identical finals
# and no more round-trips than the blocking run (each arm against the
# blocking count, never against the other — engine counts depend on queue
# timing). The proptest holds the executor to the same bit-identity and
# fault-ledger contract across pool shapes and seeded faults, and the two
# deterministic cases pin the two-windows-in-flight pipeline where it can
# go wrong: window k failing while k+1 is in flight (coalesced into one
# wire call), and a version delta touching only the second window;
# `slicing` pins the round-trip count itself: exactly ceil(master keys /
# W) batched calls, sliced or not.
slow_store_gate() {
    run cargo test -q -p batchbb-bench --test slow_store
    run cargo test -q -p batchbb-core --test proptests \
        async_completion_agrees_with_sync_bit_for_bit
    run cargo test -q -p batchbb-core --test proptests \
        a_window_failing_ahead_of_one_in_flight_agrees_with_the_blocking_run
    run cargo test -q -p batchbb-core --test versioning \
        advance_touching_only_the_second_window_keeps_the_first_flying
    run cargo test -q -p batchbb-core --test slicing
}

# Mixed update+query gate: the MVCC serving contract (DESIGN.md §13).
# Concurrent publishes never tear a pinned batch; an executor repaired
# through k deltas finalizes bit-identically to a restart on the final
# version; the store agrees with a replay model and never copies the base
# on publish (structural, no timing); `update` takes no slice lock and
# refuses (panics) on an unversioned session. Publish latency under load
# is the ledger's storage.publish_us_p50/p95 on live_prepared.
mixed_gate() {
    run cargo test -q -p batchbb --test concurrency snapshot_isolation
    run cargo test -q -p batchbb --test concurrency live_point_updates
    run cargo test -q -p batchbb-core --test versioning
    run cargo test -q -p batchbb-storage --test proptests \
        versioned_store_agrees_with_a_replay_model
    run cargo test -q -p batchbb-storage --lib versioned
    run cargo test -q -p batchbb-serve versioned
    run cargo test -q -p batchbb-serve advance_batch
    run cargo test -q -p batchbb-relation batched_point_entries_equivalence
}

# Sharded retrieval gate (DESIGN.md §12, §15): a ShardRouter handed to
# plain `serve` is bit-identical to a single-store run; a dead shard
# degrades only the batches that needed it; long versioned sessions keep
# the delta log bounded; the one I/O engine's unit tests (in-flight table,
# queue-drain coalescing, hedging, forwarding, the one-shard
# AsyncFetchStore); importance-weighted eviction beats LRU by >= 0.05 hit
# rate under scan pressure; and the timing smoke over sleep-charged mock
# shards (crates/bench/tests/shards.rs).
sharded_gate() {
    run cargo test -q -p batchbb --test sharded
    run cargo test -q -p batchbb-storage shard
    run cargo test -q -p batchbb-storage async_fetch
    run cargo test -q -p batchbb-bench --lib cachebench
    run cargo test -q -p batchbb-bench --test shards
}

# End-to-end pre-flight: the driver's benchmark (BENCHMARK.json ->
# crates/e2e/run.sh) exits non-zero when an answer fails its oracle check
# or a workload-premise guard is VIOLATED — e.g. a speed-up that pushes
# dash_mem's store-busy share past its limit. Every workload runs in its
# own process, untraced and traced (where the per-layer guards are
# computed); 4 s each catches that here instead of in the driver's 25 s
# runs. The guard lines are echoed so a failure names its guard.
e2e_gate() {
    echo "==> crates/e2e/run.sh --seed 1 --seconds 4"
    crates/e2e/run.sh --seed 1 --seconds 4 | grep -E '^# .*(guard|failed_share)'
}

# Store-trait gate (DESIGN.md §10): a store decides a value in `submit`
# and nowhere else. `try_get` (a window of one), `get` and `try_get_many`
# are provided on top of it, and Rust cannot make a provided method final,
# so this fails on any `impl … CoefficientStore for` that defines one of
# them — test doubles included. Exempt: the `&S` forwarder in store.rs and
# the harness's TimedStore (crates/e2e), which spell out all nine methods.
store_trait_gate() {
    echo "==> no CoefficientStore impl overrides get / try_get / try_get_many"
    git ls-files '*.rs' | grep -v '^crates/e2e/' | xargs awk '
        FNR == 1 { inside = 0 }
        /^ *impl.* CoefficientStore for / && !/ for &S / {
            inside = 1
            close_at = $0
            sub(/[^ ].*/, "}", close_at)
            next
        }
        inside && $0 == close_at { inside = 0 }
        inside && /fn (get|try_get|try_get_many)\(/ {
            printf "%s:%d: %s\n", FILENAME, FNR, $0
            bad = 1
        }
        END { exit bad }
    ' || {
        echo "implement submit (Completion::per_key for a key-by-key store)" >&2
        exit 1
    }
}

# Key-hasher gate (DESIGN.md §6): a map keyed by a coefficient key — bare
# or under a version tag — is a `KeyMap`/`KeySet`, so every probe on the
# hot path costs the routing fingerprint, not SipHash over 41 bytes. Fails
# on a std-hashed one anywhere outside `#[cfg(test)]` modules, `tests/`,
# `crates/e2e/` and `crates/bench/`. One line is allowed: the rewrite's
# merge map in `SparseCoeffs::from_pairs`, which stays on SipHash until
# dash_mem's `store_is_free` guard is re-based (ROADMAP items 1 and 3).
key_hasher_gate() {
    echo "==> no coefficient-keyed map on the default hasher"
    git ls-files '*.rs' | grep -Ev '^(crates/(e2e|bench)/|(crates/[^/]+/)?tests/)' | xargs awk '
        FNR == 1 { in_tests = 0; pending = 0 }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^mod [a-z_]+ \{/ { in_tests = 1 }
        { pending = 0 }
        in_tests && /^}/ { in_tests = 0 }
        in_tests { next }
        FILENAME == "crates/wavelet/src/sparse.rs" && /HashMap::with_capacity\(pairs\.len\(\)\)/ { next }
        /Hash(Map|Set)<(\(u64, )?CoeffKey|HashMap<VersionedKey/ && !/KeyHasher/ {
            printf "%s:%d: %s\n", FILENAME, FNR, $0
            bad = 1
        }
        END { exit bad }
    ' || {
        echo "use batchbb_tensor::{KeyMap, KeySet}" >&2
        exit 1
    }
}

# Shim inventory gate: every directory under shims/ has a row in the
# shims/README.md table and every row names a directory that exists, so
# the list of in-tree stand-ins for registry crates stays honest.
shim_inventory_gate() {
    echo "==> shims/README.md lists exactly the shims under shims/"
    listed=$(sed -n 's/^| `\([^`]*\)` |.*/\1/p' shims/README.md | sort)
    present=$(for dir in shims/*/; do basename "$dir"; done | sort)
    if [ "$listed" != "$present" ]; then
        echo "shims/README.md table: $(echo $listed)" >&2
        echo "shims/ directories:    $(echo $present)" >&2
        exit 1
    fi
}

# Everything: --quick stops after the test passes.
full_gate() {
    run cargo fmt --all -- --check
    store_trait_gate
    key_hasher_gate
    shim_inventory_gate
    run cargo clippy --workspace --all-targets -- -D warnings
    if [ "$mode" = full ]; then
        run cargo build --release
    fi
    run cargo test -q --workspace
    threads_matrix

    [ "$mode" = full ] || return 0

    # Docs gate: rustdoc warnings (broken intra-doc links, bad code fences)
    # are errors.
    echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

    # Example smoke-runs: every examples/*.rs (cargo auto-discovers them)
    # must run to completion (they all self-check with asserts).
    for src in examples/*.rs; do
        ex="$(basename "$src" .rs)"
        echo "==> cargo run --release --example $ex"
        cargo run -q --release --example "$ex" > /dev/null
    done

    # Named reruns of gates the workspace pass already ran, so a selective
    # test filter can never skip them: executor finals are bit-identical
    # at every prefetch window; every finalized batch's bound history is
    # monotone, its fault ledger reconciles and its SloOutcome agrees with
    # the certificate; 2x offered load stays bounded and certified.
    run cargo test -q -p batchbb-core --test proptests \
        prefetch_windows_agree_bit_for_bit
    run cargo test -q -p batchbb-serve --test proptests \
        degraded_results_carry_reconciling_certificates
    run cargo test -q -p batchbb-serve --test proptests \
        rejection_never_loses_or_tears_admitted_batches
    run cargo test -q -p batchbb --test serve_slo \
        overload_at_twice_capacity_stays_bounded_and_certified

    # Replay gates. progress_report runs a fault-injected evaluation and
    # replays its own JSONL trace, exiting nonzero if the penalty-bound
    # column is not monotone or the fault counters fail to reconcile; a
    # trace diffed against itself must report zero delta on both penalty
    # families; and a causally traced serve-pool run (seeded faults,
    # binding deadlines, capacity squeeze) replayed in attribution mode
    # must close and nest every span, resolve every dedup rider, and
    # partition each batch's admitted-to-finalized wall time exactly
    # (DESIGN.md §14). The traces live in the build directory, which git
    # ignores.
    report() {
        echo "==> progress_report $*"
        cargo run -q --release -p batchbb-bench --bin progress_report -- "$@" > /dev/null
    }
    trace=${CARGO_TARGET_DIR:-target}/ci-trace.jsonl
    spans=${CARGO_TARGET_DIR:-target}/ci-spans.jsonl
    report --output "$trace"
    report --input "$trace"
    report --diff "$trace" "$trace"
    report --serve-trace "$spans"
    report --attribute "$spans"

    slow_store_gate
    mixed_gate
    sharded_gate
    e2e_gate

    # Net LOC is tracked per PR (ROADMAP needle 2): the totals, then the
    # net change of this commit — of the working tree, while it differs
    # from HEAD.
    run scripts/loc.sh
    since=HEAD
    if git diff --quiet HEAD; then since=HEAD~1; fi
    if git rev-parse --verify --quiet "$since^{commit}" > /dev/null; then
        run scripts/loc.sh --since "$since"
    fi
}

case "$mode" in
    threads) threads_matrix ;;
    slow-store) slow_store_gate ;;
    mixed) mixed_gate ;;
    sharded) sharded_gate ;;
    e2e) e2e_gate ;;
    *) full_gate ;;
esac
green
