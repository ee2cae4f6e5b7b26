#!/usr/bin/env bash
# The roadmap's "cost of the contract", measured: per crate (and for the
# trainer files of the one-driver refactor, the baseline trainers on that
# driver, the historical cache with its policies, the cluster trainer and its
# module, the files behind overlapped training, the serving engine with the
# telemetry it feeds, and the baseline sweeps with their table and gate)
# total lines,
# non-test lines (every item behind `#[cfg(test)]` is skipped by brace depth,
# wherever in the file it sits), and `pub fn` declarations in that non-test
# part. A last table counts, per library crate, the `pub fn` names that
# appear in no code outside that crate (not in another crate, `tests/`,
# `examples/`, `src/` or `perf/`; `//` comment lines do not count), then
# lists them as `crate: name` lines. It checks names only: a `pub fn new`
# passes as long as any outside code says `new`. Run from anywhere; pass a
# checkout root to measure another tree (e.g. a clone of the parent commit).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# non_test FILE... -> the files' lines outside `#[cfg(test)]` items, each
# prefixed with its file name and a tab.
non_test() {
    awk '
        FNR == 1 { skip = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            n = gsub(/\{/, "{"); m = gsub(/\}/, "}"); depth += n - m
            if (n) opened = 1
            if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skip = 0
            next
        }
        { print FILENAME "\t" $0 }
    ' "$@"
}

# row LABEL FILE... -> "label total non_test pub_fn"
row() {
    local label=$1
    shift
    local total
    total=$(cat "$@" | wc -l)
    non_test "$@" | awk -v label="$label" -v total="$total" '
        { non_test++; if ($0 ~ /pub fn /) pub_fn++ }
        END { printf "%-34s %7d %9d %7d\n", label, total, non_test, pub_fn }
    '
}

printf "%-34s %7s %9s %7s\n" "" total non-test "pub fn"
for crate in crates/*/; do
    # shellcheck disable=SC2046
    row "$(basename "$crate")" $(find "$crate/src" -name '*.rs' | sort)
done
trainer_files=()
for f in driver trainer hetero_trainer; do
    [ -f "crates/core/src/$f.rs" ] && trainer_files+=("crates/core/src/$f.rs")
done
for f in "${trainer_files[@]}"; do
    row "core/$(basename "$f")" "$f"
done
row "core/driver+trainer+hetero_trainer" "${trainer_files[@]}"
row "core/baselines" crates/core/src/baselines/*.rs
row "core/cache" crates/core/src/cache/*.rs
row "core/cluster/trainer.rs" crates/core/src/cluster/trainer.rs
row "core/cluster" crates/core/src/cluster/*.rs
row "core/overlap" crates/core/src/runtime/*.rs crates/core/src/sampler.rs
row "core/serve+obs" crates/core/src/serve/*.rs crates/core/src/obs/*.rs
gate_files=(crates/bench/src/trajectory.rs crates/bench/src/bin/exp_report.rs)
[ -f crates/bench/src/table.rs ] && gate_files+=(crates/bench/src/table.rs)
row "bench/trajectory+table+exp_report" "${gate_files[@]}"

# unused_pub CRATE -> the crate's non-test `pub fn` names that no code
# outside it mentions, one a line.
unused_pub() {
    local crate=$1
    # shellcheck disable=SC2046
    non_test $(find "crates/$crate/src" -name '*.rs' | sort) |
        sed -nE 's/.*pub fn ([A-Za-z_][A-Za-z0-9_]*).*/\1/p' | sort -u >"$tmp/defined"
    find crates tests examples src perf -name '*.rs' \
        -not -path "crates/$crate/*" -not -path '*/target/*' -print0 |
        xargs -0 cat | grep -v '^[[:space:]]*//' |
        grep -owE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$tmp/outside"
    comm -23 "$tmp/defined" "$tmp/outside"
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
libs=(core graph memsim nn tensor)
for crate in "${libs[@]}"; do
    unused_pub "$crate" >"$tmp/unused_$crate"
done
printf "\n%-34s %7s\n" "" "pub fn no outside caller"
for crate in "${libs[@]}"; do
    printf "%-34s %7d\n" "$crate" "$(wc -l <"$tmp/unused_$crate")"
done
for crate in "${libs[@]}"; do
    sed "s/^/$crate: /" "$tmp/unused_$crate"
done
