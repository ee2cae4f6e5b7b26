#!/usr/bin/env bash
# The roadmap's "cost of the contract", measured: per crate (and for the
# trainer files of the one-driver refactor, the baseline trainers on that
# driver, the cluster trainer and its module, the files behind overlapped
# training, the serving engine with the telemetry it feeds, and the baseline
# sweeps with their table and gate)
# total lines,
# lines before the first `#[cfg(test)]` of each file, and `pub fn`
# declarations in that non-test part. Run from anywhere; pass a checkout root
# to measure another tree (e.g. a clone of the parent commit).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# row LABEL FILE... -> "label total non_test pub_fn"
row() {
    local label=$1
    shift
    awk -v label="$label" '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        { total++ }
        !in_test { non_test++; if ($0 ~ /pub fn /) pub_fn++ }
        END { printf "%-34s %7d %9d %7d\n", label, total, non_test, pub_fn }
    ' "$@"
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
row "core/cluster/trainer.rs" crates/core/src/cluster/trainer.rs
row "core/cluster" crates/core/src/cluster/*.rs
row "core/overlap" crates/core/src/runtime/*.rs crates/core/src/sampler.rs
row "core/serve+obs" crates/core/src/serve/*.rs crates/core/src/obs/*.rs
gate_files=(crates/bench/src/trajectory.rs crates/bench/src/bin/exp_report.rs)
[ -f crates/bench/src/table.rs ] && gate_files+=(crates/bench/src/table.rs)
row "bench/trajectory+table+exp_report" "${gate_files[@]}"
