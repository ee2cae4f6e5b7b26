#!/usr/bin/env bash
# Build fgnn-perf (release, offline) and run it from the repository root.
#
#   ./perf/run.sh [--seed N] [--seconds S] [--workload W] [--smoke]
#       the whole benchmark: every workload untraced then traced, each in its
#       own process; prints every metric, writes perf/out/report.json, exits
#       non-zero if a correctness check fails.
#   ./perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of output is the result object BENCHMARK.json's
#       contract asks for.
#   ./perf/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# called from, which is this one.
target="${CARGO_TARGET_DIR:-perf/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path perf/Cargo.toml 1>&2

FGNN_PERF_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
FGNN_PERF_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export FGNN_PERF_RUSTC FGNN_PERF_COMMIT
exec "$target/release/fgnn-perf" "$@"
