#!/usr/bin/env bash
# Tier-1 gate: everything here must pass offline, with no external
# dependencies, before a change lands (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check

# CHANGES.md stays a record a reader can scan: an entry (a top-level `- `
# item and its continuation lines) is at most 3 kB. Tables, raw runs and
# size dumps belong in results/prNN_*.txt, linked from the entry.
oversized="$(LC_ALL=C awk '
    function check() {
        if (bytes > 3000) {
            name = match(head, /PR [0-9]+/) ? substr(head, RSTART, RLENGTH) : head
            printf "%s: %d bytes\n", name, bytes
        }
    }
    /^- / { check(); head = $0; bytes = 0 }
    { bytes += length($0) + 1 }
    END { check() }
' CHANGES.md)"
if [ -n "$oversized" ]; then
    echo "ci: CHANGES.md entries over 3 kB (move the detail to results/):" >&2
    printf '%s\n' "$oversized" >&2
    exit 1
fi

# The repo must stay fully offline-buildable: every crate in the lockfile
# is a workspace member, never a registry (or git) download.
if grep -Eq 'source = "(registry|git)' Cargo.lock; then
    echo "ci: Cargo.lock contains non-workspace dependencies:" >&2
    grep -B2 'source = ' Cargo.lock >&2
    exit 1
fi

# Outside test code the workspace's `unsafe` is two audited blocks in
# fgnn-tensor (its crate doc says why each is sound): the call in
# `ops::dispatch` into the AVX-512F or AVX2 instance its feature checks
# chose, and the `_mm_prefetch` in `prefetch`. Any other `unsafe`
# under crates/*/src fails here. Items behind `#[cfg(test)]` are skipped by
# brace depth, and `//` comment lines are not code.
unsafe_sites="$(find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { skip = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
    skip {
        n = gsub(/\{/, "{"); m = gsub(/\}/, "}"); depth += n - m
        if (n) opened = 1
        if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skip = 0
        next
    }
    /^[[:space:]]*\/\// { next }
    /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { print FILENAME ": " $0 }
')"
unaudited="$(printf '%s\n' "$unsafe_sites" | grep -v \
    -e '^crates/tensor/src/ops\.rs: *return unsafe { instance(op) };$' \
    -e '^crates/tensor/src/lib\.rs: *unsafe { _mm_prefetch::<_MM_HINT_T0>(' |
    grep . || true)"
if [ -n "$unaudited" ] || [ "$(printf '%s\n' "$unsafe_sites" | grep -c .)" -ne 2 ]; then
    echo "ci: unsafe outside the two audited sites in fgnn-tensor:" >&2
    printf '%s\n' "$unsafe_sites" >&2
    exit 1
fi

# The library crates' public surface is what other code calls: a `pub fn`
# whose name appears in no code outside its crate (not in another crate,
# tests/, examples/, src/ or perf/) is surface rustc's dead_code lint cannot
# see. Narrow it to `pub(crate)`, and delete it if dead_code then flags it.
# loc.sh lists each as a `crate: name` line; a failing loc.sh fails here.
loc="$(./scripts/loc.sh)"
unused_pub="$(printf '%s\n' "$loc" | grep -E '^(core|graph|memsim|nn|tensor): ' || true)"
if [ -n "$unused_pub" ]; then
    echo "ci: pub fn with no caller outside its crate:" >&2
    printf '%s\n' "$unused_pub" >&2
    exit 1
fi

cargo build --release --workspace
cargo test -q --workspace

# Public docs must not link to private items (narrowing an item must take
# its doc links with it) or to nothing.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

# The wall-clock benchmark is a workspace of its own (perf/) that compiles
# against crates/*: its gate — fmt, clippy, its tests, a smoke run of every
# workload with its correctness checks — runs here so that an API change
# breaks CI, not the next benchmark run.
./perf/ci.sh

# Bit-level contracts of the hot path at the elevated case count, in the
# optimized build (the workspace run above covers the debug one): the three
# matmuls (row-masked and reused-buffer forms, every tile edge) against the
# naive triple loop, and the training-path backward (no input gradient,
# computed rows only, a reused workspace) against the full unmasked pass on
# fresh buffers, all compared with to_bits. With them the allocation budget
# of a warmed-up step (tests/alloc_budget.rs: a counting allocator, a stated
# bound per batch and per sampled block).
FGNN_PROP_CASES=256 cargo test -q --release \
    --test kernel_bits --test backward_equivalence --test alloc_budget

# Property, no-panic (checkpoint and JSON decoders, FaultPlan builders, the
# BENCH_*.json reader) and observability-invariant suites again at a higher
# case count (FGNN_PROP_CASES overrides the in-tree default of 64), and the
# committed golden trace must carry the current export schema version.
FGNN_PROP_CASES=256 cargo test -q --test property_tests --test decoder_fuzz \
    --test obs_invariants
FGNN_PROP_CASES=256 cargo test -q -p fgnn-bench --test table_fuzz
grep -q '"schemaVersion":"fgnn-obs-v1"' tests/golden/sync_trainer_2epoch.trace.json

# The policy-equivalence suite pins the trait refactor to the pre-trait
# behavior.
FGNN_PROP_CASES=256 cargo test -q --test policy_equivalence

# Chaos suite at an elevated seed matrix: seeded fault storms, worker
# panics and NaN-rollback across trainer families, byte-identical reruns.
FGNN_PROP_CASES=256 cargo test -q --test chaos

# Cluster chaos suite at the elevated case count: random crash/restart/NIC
# schedules must leave the committed training quantities byte-identical to
# the fault-free run (deterministic shard recovery), degraded reads must
# respect the t_stale budget, and hostile fault plans (hosts past the
# cluster, rounds near u64::MAX, invalid NIC factors) must never panic
# validation and, once accepted, must train to the fault-free quantities.
FGNN_PROP_CASES=256 cargo test -q --test cluster

# Runtime determinism suite at the elevated case count: seeded adversarial
# schedules (delayed claims and worker stalls, at workers {1,2,4,8}) must
# leave every Exact output byte-identical at any worker count, and a
# drained pool must end its result stream.
FGNN_PROP_CASES=256 cargo test -q --test runtime

# Serving acceptance + property suite at the elevated case count, and a
# live exp_serve export must carry the fgnn-serve-v1 schema tag plus the
# fgnn-serve-trace-v1 request-trace stream (exemplar spans + SLO alerts).
FGNN_PROP_CASES=256 cargo test -q --test serve
# The SLO monitor forms its windowed p99 only on alert edges; its alert
# stream must equal an eager per-event reference's over random streams.
FGNN_PROP_CASES=256 cargo test -q -p freshgnn --lib obs::window
serve_out="$(mktemp)"
trace_out="$(mktemp)"
cargo run -q --release -p fgnn-bench --bin exp_serve -- \
    --requests 600 --serve-out "$serve_out" --trace-out "$trace_out" > /dev/null
grep -q '"schemaVersion":"fgnn-serve-v1"' "$serve_out"
grep -q '"kind":"serve"' "$serve_out"
grep -q '"schemaVersion":"fgnn-serve-trace-v1"' "$trace_out"
grep -q '"kind":"alert"' "$trace_out"
rm -f "$serve_out" "$trace_out"

# Performance-trajectory gate. Each sweep binary must write its committed
# BENCH_*.json byte for byte (scripts/bench_trajectory.sh --bless is the
# same loop writing in place); exp_report must reproduce every gated value
# from the recorded seeds (the train baseline additionally bit-identically
# across worker counts, the cluster baseline bit-identically between
# fault-free and crash schedules), and an injected 10% regression must trip
# the gate (nonzero exit).
bench_out="$(mktemp)"
for sweep in exp_serve:serve exp_ext_policy_frontier:policy \
    exp_train_scaling:train exp_cluster:cluster; do
    "./target/release/${sweep%%:*}" --bench-json "$bench_out" > /dev/null
    cmp "$bench_out" "BENCH_${sweep##*:}.json"
done
rm -f "$bench_out"
cargo run -q --release -p fgnn-bench --bin exp_report -- --check > /dev/null
if cargo run -q --release -p fgnn-bench --bin exp_report -- \
    --check --inject-regression 0.10 > /dev/null 2>&1; then
    echo "ci: injected regression did not trip the exp_report gate" >&2
    exit 1
fi

# Resilience transition exports must carry the obs schema tag.
resilience_out="$(mktemp)"
cargo run -q --release -p fgnn-bench --bin exp_resilience -- \
    --resilience --resilience-out "$resilience_out" > /dev/null
grep -q '"schemaVersion":"fgnn-obs-v1"' "$resilience_out"
grep -q '"kind":"resilience"' "$resilience_out"
rm -f "$resilience_out"

cargo clippy --workspace --all-targets -- -D warnings

echo "ci: all green"
