#!/usr/bin/env bash
# Performance trajectory.
#
# Default (check) mode: re-run the four baseline sweeps at the committed
# seeds through `exp_report --check` and fail on any per-column regression —
# a clean tree reproduces the baselines bit for bit.
#
# `--bless` mode: regenerate the baselines. Each BENCH_*.json at the repo
# root is its sweep binary's `--bench-json` output verbatim: exact simulated
# quantities only, no wall-clock, so the files are byte-identical across
# machines (scripts/ci.sh `cmp`s them). Use after an intentional behavior
# change, and commit the refreshed baselines with it.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-42}"

cargo build --release -p fgnn-bench

if [[ "${1:-}" != "--bless" ]]; then
    ./target/release/exp_report --check
    echo "trajectory check passed (rerun with --bless to regenerate baselines)"
    exit 0
fi

for sweep in exp_serve:serve exp_ext_policy_frontier:policy \
    exp_train_scaling:train exp_cluster:cluster; do
    file="BENCH_${sweep##*:}.json"
    "./target/release/${sweep%%:*}" --seed "$SEED" --bench-json "$file" > /dev/null
    echo "wrote $file (seed $SEED)"
done
