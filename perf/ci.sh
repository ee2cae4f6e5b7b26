#!/usr/bin/env bash
# Gate of the perf package on its own: format, lints, unit and contract
# tests, a smoke run of every workload, and an offline-only lock file.
# (Calling this from scripts/ci.sh is left to the change that may edit it.)
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perf/target}"

cargo fmt --manifest-path perf/Cargo.toml --check
cargo clippy --manifest-path perf/Cargo.toml --offline --all-targets -- -D warnings
cargo test --manifest-path perf/Cargo.toml --offline -q
./perf/run.sh --smoke

if grep -Eq 'source = "(registry|git)' perf/Cargo.lock; then
    echo "perf/ci.sh: perf/Cargo.lock names a crate that is not in this repository" >&2
    exit 1
fi
echo "perf/ci.sh: all green"
