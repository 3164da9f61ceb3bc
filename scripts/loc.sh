#!/usr/bin/env bash
# Rust line counts per crate, split into library/binary source (`src/`)
# and everything else (tests/, benches/, examples/), plus the workspace
# total. ROADMAP tracks net LOC per PR: run this before and after a change
# (or `git diff --numstat <base> -- '*.rs'` for the delta alone).
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of every tracked .rs file under the given directories (0 if none).
count() {
    git ls-files -- "$@" | { grep '\.rs$' || true; } | tr '\n' '\0' | xargs -0 -r cat | wc -l
}

printf '%-16s %8s %8s %8s\n' crate src other total
total_src=0
total_other=0
for dir in . crates/* shims/*; do
    [ -f "$dir/Cargo.toml" ] || continue
    if [ "$dir" = . ]; then name=batchbb; else name="${dir#*/}"; fi
    src=$(count "$dir/src")
    other=$(count "$dir/tests" "$dir/benches" "$dir/examples")
    printf '%-16s %8d %8d %8d\n' "$name" "$src" "$other" $((src + other))
    total_src=$((total_src + src))
    total_other=$((total_other + other))
done
printf '%-16s %8d %8d %8d\n' total "$total_src" "$total_other" $((total_src + total_other))
