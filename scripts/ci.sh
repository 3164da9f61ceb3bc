#!/usr/bin/env bash
# The full local CI gate: formatting, the store-trait, key-hasher and
# master-list rules, the shim inventory, lints, release build, test suite, docs,
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
#                publish -> advance -> repair: the serve-stack generator
#                (snapshot isolation under racing writers, advances
#                re-priced at K + sum|delta|), the version-advance battery,
#                the versioned store's model proptest and unit tests, the
#                versioned serve tests (held-locks update check,
#                unversioned-update panic, the advance re-pricing test)
#   --sharded    run ONLY the sharded retrieval gate: scatter-gather
#                bit-identity (the serve-stack generator) and dead-shard
#                degradation, the compaction
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
        --test concurrency --test serve_faults --test serve_slo --test serve_stacks
    run env RUST_TEST_THREADS=1 cargo test -q -p batchbb-serve
    run cargo test -q -p batchbb --test concurrency --test serve_faults --test serve_slo \
        --test serve_stacks
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
# Concurrent publishes never tear a pinned batch, and an advanced batch is
# certified at K + sum|delta| (the serve-stack generator and the serve's
# re-pricing test); an executor repaired
# through k deltas finalizes bit-identically to a restart on the final
# version; the store agrees with a replay model and never copies the base
# on publish (structural, no timing); `update` takes no slice lock and
# refuses (panics) on an unversioned session. Publish latency under load
# is the ledger's storage.publish_us_p50/p95 on live_prepared.
mixed_gate() {
    run cargo test -q -p batchbb --test serve_stacks
    run cargo test -q -p batchbb --test concurrency live_point_updates
    run cargo test -q -p batchbb-core --test versioning
    run cargo test -q -p batchbb-storage --test proptests \
        versioned_store_agrees_with_a_replay_model
    run cargo test -q -p batchbb-storage --lib versioned
    run cargo test -q -p batchbb-serve versioned
    run cargo test -q -p batchbb-serve an_advanced_batch_is_certified_at_k_plus_its_delta
    run cargo test -q -p batchbb-relation batched_point_entries_equivalence
}

# Sharded retrieval gate (DESIGN.md §12, §15): a ShardRouter handed to
# plain `serve` is bit-identical to a single-store run (the serve-stack
# generator draws shard counts, replicas and a dead shard); a dead shard
# degrades only the batches that needed it; long versioned sessions keep
# the delta log bounded; the one I/O engine's unit tests (in-flight table,
# queue-drain coalescing, hedging, forwarding, the one-shard
# AsyncFetchStore); importance-weighted eviction beats LRU by >= 0.05 hit
# rate under scan pressure; and the timing smoke over sleep-charged mock
# shards (crates/bench/tests/shards.rs).
sharded_gate() {
    run cargo test -q -p batchbb --test sharded
    run cargo test -q -p batchbb --test serve_stacks
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

# Every line of production Rust as `file:line: text` — all tracked `.rs`
# files outside `tests/`, `crates/e2e/` and `crates/bench/`, minus their
# `#[cfg(test)]` modules. The source gates below grep this.
production_lines() {
    git ls-files '*.rs' | grep -Ev '^(crates/(e2e|bench)/|(crates/[^/]+/)?tests/)' | xargs awk '
        FNR == 1 { in_tests = 0; pending = 0 }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^mod [a-z_]+ \{/ { in_tests = 1 }
        { pending = 0 }
        in_tests && /^}/ { in_tests = 0 }
        in_tests { next }
        { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    '
}

# Key-hasher gate (DESIGN.md §6): a map keyed by a coefficient key — bare
# or under a version tag — is a `KeyMap`/`KeySet`, so every probe on the
# hot path costs the routing fingerprint, not SipHash over 41 bytes. Fails
# on a std-hashed one in production code.
key_hasher_gate() {
    echo "==> no coefficient-keyed map on the default hasher"
    if production_lines |
        grep -E 'Hash(Map|Set)<(\(u64, )?CoeffKey|HashMap<VersionedKey' |
        grep -v 'KeyHasher'
    then
        echo "use batchbb_tensor::{KeyMap, KeySet}" >&2
        exit 1
    fi
}

# Master-list gate (DESIGN.md §6): a batch's master list is merged once,
# by `BatchQueries::master`, and every executor of the batch shares it.
# Fails on `MasterList::build(` in production code outside the two files
# that own it (crates/core/src/{batch,master}.rs), so nothing merges a
# batch a second time.
master_list_gate() {
    echo "==> no master list merged outside BatchQueries::master"
    if production_lines |
        grep -Ev '^crates/core/src/(batch|master)\.rs:' |
        grep -F 'MasterList::build('
    then
        echo "use BatchQueries::master" >&2
        exit 1
    fi
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
    master_list_gate
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
    # test filter can never skip them: every store composition the serve
    # accepts, at every prefetch window, serves certified answers — exact
    # ones bit for bit, every one within its certificate, its status,
    # SloOutcome, bound history and fault ledger reconciled; 2x offered
    # load stays bounded and certified; the
    # flat master list is the hashed merge, built once per batch and
    # shared; admission allocates the same whatever the master-list size;
    # the Haar walk of the rewrite is the generic walk bit for bit; a
    # traced batch records its phases per slice, not per retrieval, and
    # its store_wait phase still holds its time in the store;
    # steps_to_bound is the retrieval count of a fault-free targeted drain;
    # the public bound accessors count deferred mass like the report;
    # a batch cancelled before its first slice records its initial bound;
    # unpublished versioned serving is plain serving, result for result;
    # a memoized progression is bit for bit a fresh sort, shared on equal penalty keys;
    # a warm admission allocates no progression, whatever the master-list size;
    # admissions racing under two penalties run as their serial twins;
    # the round-robin baseline reads each query in its own order, round by round;
    # its attempt budget is batch-wide across the single-query instances;
    # exec.start keeps the batch size apart from the batch label, written last on every exec.* line;
    # a serve returns only once its workers have exited;
    # so does a parallel rewrite;
    # a NaN importance contribution selects like a zero one in the bounded evaluation;
    # a trace reconciles each batch against its own exec.finish;
    # a faulty three-batch serve trace sums to what its batches report;
    # one version repair over many publishes is one repair per publish, bit for bit;
    # the galloping slot search lands where the binary search does, from any hint;
    # equal penalty parameters give equal keys and bit-identical scores;
    # one changed penalty parameter changes the key;
    # a combination with a keyless part has no key;
    # a warm admission scores no key;
    # a keyless admission scores every key every time;
    # an admission under another key makes the first key sort again;
    # near_cursor builds each kernel's weights bit for bit as before;
    # two cursors with equal weights share one scoring key;
    # a serve refuses a negative K before it certifies a negative bound;
    # a serve refuses a NaN K;
    # a serve with K = 0 still finishes exact;
    # the worst-case bound refuses a negative K;
    # the worst-case bound refuses a NaN K;
    # a VersionedStore is no CoefficientStore, so only a pinned view reads it;
    # an insert's delta is its one-cell COUNT query's rewrite, bit for bit;
    # every field of every traced event is one a reader parses;
    # loading and binning a relation, and bulk-loading a store, allocate per load, not per record;
    # every generator, binning path and the CSV round trip match a tuple-at-a-time reference bit for bit.
    run cargo test -q -p batchbb-wavelet haar_walk_is_the_generic_walk
    run cargo test -q -p batchbb-core --test proptests \
        the_flat_master_list_is_the_hashed_merge_built_once_per_batch
    run cargo test -q -p batchbb-core --test admission_allocs \
        admission_allocations_do_not_grow_with_the_master_list
    run cargo test -q -p batchbb --test serve_stacks \
        every_stack_serves_certified_answers
    run cargo test -q -p batchbb --test serve_slo \
        overload_at_twice_capacity_stays_bounded_and_certified
    run cargo test -q -p batchbb --test observability \
        traced_serve_records_phases_per_slice
    run cargo test -q -p batchbb --test observability \
        store_wait_phase_holds_the_store_time
    run cargo test -q -p batchbb-core --test proptests \
        steps_to_bound_is_what_the_targeted_drain_retrieves
    run cargo test -q -p batchbb-core --test fault_tolerance \
        bound_accessors_count_deferred_mass
    run cargo test -q -p batchbb-serve --lib \
        a_batch_cancelled_before_its_first_slice_records_its_initial_bound
    run cargo test -q -p batchbb-serve --lib \
        unpublished_versioned_serving_is_plain_serving
    run cargo test -q -p batchbb-core --test proptests \
        a_progression_cache_hit_is_a_fresh_sort
    run cargo test -q -p batchbb-core --test admission_allocs \
        a_warm_admission_allocates_no_progression
    run cargo test -q -p batchbb-core --test determinism \
        concurrent_admissions_under_two_penalties_match_their_serial_twins
    run cargo test -q -p batchbb-core --test proptests \
        round_robin_reads_each_query_in_its_own_order_round_by_round
    run cargo test -q -p batchbb-core --test proptests \
        round_robin_spends_exactly_the_batch_wide_attempt_budget
    run cargo test -q -p batchbb-serve --lib \
        exec_start_keeps_the_batch_size_apart_from_the_batch_label
    run cargo test -q -p batchbb-serve --lib \
        serve_returns_after_its_workers_have_exited
    run cargo test -q -p batchbb-core --lib \
        rewrite_parallel_returns_after_its_workers_have_exited
    run cargo test -q -p batchbb-core --lib \
        a_nan_contribution_selects_like_a_zero_one
    run cargo test -q -p batchbb-bench --lib \
        check_reconciles_each_batch_against_its_own_finish
    run cargo test -q -p batchbb-bench --test trace_diff \
        a_serve_trace_sums_every_batch
    run cargo test -q -p batchbb-core --test versioning \
        one_advance_over_many_publishes_is_one_advance_per_publish
    run cargo test -q -p batchbb-core --lib \
        search_from_is_the_binary_search_from_any_hint
    run cargo test -q -p batchbb-penalty --test scoring_key \
        equal_parameters_give_equal_keys_and_scores
    run cargo test -q -p batchbb-penalty --test scoring_key \
        one_changed_parameter_changes_the_key
    run cargo test -q -p batchbb-penalty --test scoring_key \
        a_combination_with_a_keyless_part_has_no_key
    run cargo test -q -p batchbb-core --test admission_allocs \
        a_warm_admission_scores_nothing
    run cargo test -q -p batchbb-core --test admission_allocs \
        a_keyless_admission_scores_every_key_every_time
    run cargo test -q -p batchbb-core --test admission_allocs \
        an_admission_under_another_key_sorts_the_first_again
    run cargo test -q -p batchbb-penalty --test near_cursor \
        near_cursor_reproduces_the_cursor_penalty_weights_bit_for_bit
    run cargo test -q -p batchbb-penalty --test near_cursor \
        cursors_with_equal_weights_share_a_scoring_key
    run cargo test -q -p batchbb-serve --test certificate_scale \
        a_negative_k_is_refused_before_it_certifies_a_negative_bound
    run cargo test -q -p batchbb-serve --test certificate_scale \
        a_nan_k_is_refused
    run cargo test -q -p batchbb-serve --test certificate_scale \
        a_zero_k_still_serves_to_exact
    run cargo test -q -p batchbb-serve --test certificate_scale \
        worst_case_bound_rejects_a_negative_k
    run cargo test -q -p batchbb-serve --test certificate_scale \
        worst_case_bound_rejects_a_nan_k
    run cargo test -q -p batchbb-storage --doc VersionedStore
    run cargo test -q -p batchbb-core --test versioning \
        an_insert_is_the_one_cell_count_query
    run cargo test -q -p batchbb --test observability \
        every_trace_field_has_a_reader
    run cargo test -q -p batchbb-relation --test load_allocs
    run cargo test -q -p batchbb-relation --test generators -- \
        match_their_tuple_at_a_time_reference binning_matches_a_per_tuple_reference \
        csv_round_trip_is_unchanged

    # The serve-stack generator once more, under a fresh seed echoed
    # first: each full run explores draws the fixed seed never makes, and
    # a failure replays with PROPTEST_SEED=<seed>.
    seed=$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')
    echo "==> fresh serve-stack seed: $seed"
    run env PROPTEST_SEED="$seed" cargo test -q -p batchbb --test serve_stacks

    # Replay gates. progress_report runs a fault-injected evaluation and
    # replays its own JSONL trace, exiting nonzero if the penalty-bound
    # column is not monotone or the fault counters fail to reconcile; a
    # trace diffed against itself must report zero delta on both penalty
    # families; a causally traced serve-pool run (seeded faults, binding
    # deadlines, capacity squeeze) replayed in attribution mode must close
    # and nest every span, resolve every dedup rider, and partition each
    # batch's admitted-to-finalized wall time exactly (DESIGN.md §14); and
    # that multi-batch trace diffed against itself must reconcile batch
    # by batch. The traces live in the build directory, which git ignores.
    report() {
        echo "==> progress_report $*"
        cargo run -q --release -p batchbb-bench --bin progress_report -- "$@" > /dev/null
    }
    trace=${CARGO_TARGET_DIR:-target}/ci-trace.jsonl
    spans=${CARGO_TARGET_DIR:-target}/ci-spans.jsonl
    report demo --output "$trace"
    report replay "$trace"
    report diff "$trace" "$trace"
    report serve-trace "$spans"
    report attribute "$spans"
    report diff "$spans" "$spans"

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
