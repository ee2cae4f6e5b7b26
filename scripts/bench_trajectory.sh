#!/usr/bin/env bash
# Performance trajectory.
#
# Default (check) mode: re-run the serving and policy-frontier sweeps at
# the committed baseline seeds through `exp_report --check` and fail on
# any per-metric regression — a clean tree reproduces the baselines bit
# for bit.
#
# `--bless` mode: regenerate the baselines — run the serving sweep and
# the training epoch-time experiment at fixed seeds, write
# BENCH_serve.json at the repo root, then the policy-frontier sweep,
# written as BENCH_policy.json, then the runtime worker-scaling sweep,
# written as BENCH_train.json, then the multi-host cluster sweep,
# written as BENCH_cluster.json. Use after an intentional performance
# change, and commit the refreshed baselines with it.
#
# The serving numbers (p50/p95/p99, throughput, shed fraction) and the
# policy-frontier rows (accuracy, traffic, policy counters) are exact
# simulated quantities — byte-identical across machines — so the committed
# baselines are real regression references; the wall-clock seconds of the
# runs are recorded alongside as machine-dependent context only.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-42}"
OUT="BENCH_serve.json"
POLICY_OUT="BENCH_policy.json"
TRAIN_OUT="BENCH_train.json"
CLUSTER_OUT="BENCH_cluster.json"

cargo build --release -p fgnn-bench

if [[ "${1:-}" != "--bless" ]]; then
    ./target/release/exp_report --check
    echo "trajectory check passed (rerun with --bless to regenerate baselines)"
    exit 0
fi

serve_json="$(mktemp)"
start=$SECONDS
./target/release/exp_serve --seed "$SEED" --bench-json "$serve_json" > /dev/null
serve_wall=$((SECONDS - start))

start=$SECONDS
./target/release/exp_fig10_epoch_time --seed "$SEED" > /dev/null
fig10_wall=$((SECONDS - start))

{
    printf '{\n'
    printf '  "seed": %s,\n' "$SEED"
    printf '  "wallSecs": {"exp_serve": %s, "exp_fig10_epoch_time": %s},\n' \
        "$serve_wall" "$fig10_wall"
    printf '  "serve": '
    sed 's/^/  /' "$serve_json" | sed '1s/^  //'
    printf '}\n'
} > "$OUT"
rm -f "$serve_json"

# Policy frontier: the fgnn-policy-v1 document is the exporter's own output
# verbatim (no wall-clock wrapper), so the committed file is bit-for-bit
# reproducible from the same seed.
start=$SECONDS
./target/release/exp_ext_policy_frontier --seed "$SEED" --bench-json "$POLICY_OUT" > /dev/null
policy_wall=$((SECONDS - start))

# Train worker-scaling: the fgnn-train-v1 document is also the exporter's
# own output verbatim: meanLoss/h2dBytes/simSeconds, exact and worker-count
# invariant, so it too reproduces bit for bit.
start=$SECONDS
./target/release/exp_train_scaling --seed "$SEED" --bench-json "$TRAIN_OUT" > /dev/null
train_wall=$((SECONDS - start))

# Multi-host cluster sweep: the fgnn-cluster-v1 document is the exporter's
# own output verbatim. Its gated fields (meanLoss/h2dBytes/nicBytes/
# simSeconds/degradedReads/maxStaleness) are exact, and the crash
# schedule's committed metrics match the fault-free schedule bit for bit.
start=$SECONDS
./target/release/exp_cluster --seed "$SEED" --bench-json "$CLUSTER_OUT" > /dev/null
cluster_wall=$((SECONDS - start))

echo "wrote $OUT (seed $SEED; exp_serve ${serve_wall}s, exp_fig10 ${fig10_wall}s)"
echo "wrote $POLICY_OUT (seed $SEED; exp_ext_policy_frontier ${policy_wall}s)"
echo "wrote $TRAIN_OUT (seed $SEED; exp_train_scaling ${train_wall}s)"
echo "wrote $CLUSTER_OUT (seed $SEED; exp_cluster ${cluster_wall}s)"
