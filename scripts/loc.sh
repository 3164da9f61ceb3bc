#!/usr/bin/env bash
# Rust line counts per crate, split into library/binary source (`src/`)
# and everything else (tests/, benches/, examples/), plus the workspace
# total. ROADMAP tracks net LOC per PR: `--since <ref>` prints the same
# table for the net change (lines added minus lines removed, from
# `git diff --numstat`) between a git ref and the working tree.
#
# Usage: scripts/loc.sh [--since <ref>]
set -euo pipefail
cd "$(dirname "$0")/.."

since=
case "${1-}" in
    "") ;;
    --since)
        since=${2:?--since needs a git ref}
        git rev-parse --verify --quiet "$since^{commit}" >/dev/null || {
            echo "not a commit: $since" >&2
            exit 2
        }
        ;;
    *)
        echo "usage: scripts/loc.sh [--since <ref>]" >&2
        exit 2
        ;;
esac

# Rust lines under the given directories (0 if none): every tracked .rs
# file's length, or with --since the net change to .rs files against it.
count() {
    if [ -n "$since" ]; then
        git diff --numstat "$since" -- "$@" |
            awk '$3 ~ /\.rs$/ { net += $1 - $2 } END { print net + 0 }'
    else
        git ls-files -- "$@" | { grep '\.rs$' || true; } | tr '\n' '\0' | xargs -0 -r cat | wc -l
    fi
}

printf '%-16s %8s %8s %8s\n' crate src other total
total_src=0
total_other=0
# With --since, members the change deleted still count (as a negative).
members=$(
    ls -d crates/* shims/*
    [ -z "$since" ] || git ls-tree -d --name-only "$since" crates/ shims/
)
for dir in . $(sort -u <<<"$members"); do
    [ -f "$dir/Cargo.toml" ] || git cat-file -e "$since:$dir/Cargo.toml" 2>/dev/null || continue
    if [ "$dir" = . ]; then name=batchbb; else name="${dir#*/}"; fi
    src=$(count "$dir/src")
    other=$(count "$dir/tests" "$dir/benches" "$dir/examples")
    printf '%-16s %8d %8d %8d\n' "$name" "$src" "$other" $((src + other))
    total_src=$((total_src + src))
    total_other=$((total_other + other))
done
printf '%-16s %8d %8d %8d\n' total "$total_src" "$total_other" $((total_src + total_other))
