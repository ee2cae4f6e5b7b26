#!/usr/bin/env bash
# Alternating pairs of one benchmark workload between two revisions.
#
#   scripts/perf_pairs.sh <rev-a> <rev-b> --workload W --pairs N [--seed S] [--trace 0|1]
#
# A is the base (the parent), B the change. Each revision is exported with
# `git archive` into its own directory under target/perf_pairs and its
# fgnn-perf is built there, offline, into its own target dir; a revision
# already built there is reused. Then N pairs run one after the other, A
# first on odd pairs and B first on even ones, each run
# `fgnn-perf --workload W --seed S --trace T` (S 42 and T 0 by default; the
# run length is the binary's own default, the benchmark's) in its own
# process. With `--trace 1` every traced run is immediately preceded by an
# untraced run of the same side at the same seed into its own out directory,
# which that traced run reads `perf.trace_overhead_frac` against, so load
# drift between the two is seconds, not the length of the whole set; traced
# pairs therefore take twice as long. Nothing else should run meanwhile.
#
# Output: one line per run, in run order — side, the run's result object,
# md5 prefixes of its `exact` fingerprint and of its per-pass losses (the
# loss-finite check) — then, per end-to-end metric of BENCHMARK.json (per
# per-layer metric the workload reports, with `--trace 1`), each
# side's median and quartiles, the ratio median A / median B, the pairs B
# won (ties count for neither side) and a verdict. "resolved" needs B to win
# (or lose) at least nine pairs in ten and the medians to differ by more
# than A's interquartile range; anything less is "unresolved". Running a
# revision against itself must come back unresolved on every metric.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <rev-a> <rev-b> --workload W --pairs N [--seed S] [--trace 0|1]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
rev_a=$1
rev_b=$2
shift 2
workload=""
pairs=""
seed=42
trace=0
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --workload) workload=$2 ;;
        --pairs) pairs=$2 ;;
        --seed) seed=$2 ;;
        --trace) trace=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] || usage
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac
# Traced runs report the per-layer metrics and keep their own record.
case "$trace" in
    0) section=end_to_end record_kind=untraced ;;
    1) section=per_layer record_kind=traced ;;
    *) usage ;;
esac

sha_a="$(git rev-parse --verify --quiet "$rev_a^{commit}")" || {
    echo "perf_pairs: no revision $rev_a" >&2
    exit 2
}
sha_b="$(git rev-parse --verify --quiet "$rev_b^{commit}")" || {
    echo "perf_pairs: no revision $rev_b" >&2
    exit 2
}
mkdir -p target/perf_pairs
dir="$(cd target/perf_pairs && pwd)"
rustc_version="$(rustc -V 2>/dev/null || echo unknown)"

# Export and build one revision unless its binary is already there.
build() {
    local sha=$1
    [ -x "$dir/target-$sha/release/fgnn-perf" ] && return
    rm -rf "$dir/src-$sha"
    mkdir -p "$dir/src-$sha"
    git archive "$sha" | tar -x -C "$dir/src-$sha"
    CARGO_TARGET_DIR="$dir/target-$sha" cargo build --release --offline --quiet \
        --manifest-path "$dir/src-$sha/perf/Cargo.toml" 1>&2
}

# fgnn_perf SHA TRACE -> the output of one fgnn-perf run of revision SHA on
# the workload and seed (a subshell, so the `cd` stays in it).
fgnn_perf() (
    cd "$dir/src-$1" &&
        FGNN_PERF_OUT="$dir/out-$1" FGNN_PERF_COMMIT="${1:0:7}" \
            FGNN_PERF_RUSTC="$rustc_version" "$dir/target-$1/release/fgnn-perf" \
            --workload "$workload" --seed "$seed" --trace "$2"
)

# One run of one side (a traced one after its untraced reference): its
# output line.
run() {
    local side=$1 sha=$2 line record exact loss
    [ "$trace" = 0 ] || fgnn_perf "$sha" 0 > /dev/null
    line="$(fgnn_perf "$sha" "$trace" | tail -n 1)"
    record="$dir/out-$sha/$workload.$record_kind.json"
    # Workloads without a loss-finite check (serve) hash an empty match.
    exact="$({ grep -o '"exact":\[[^]]*\]' "$record" || true; } | md5sum | cut -c1-12)"
    loss="$({ grep -o '"name":"loss-finite","ok":[a-z]*,"detail":"[^"]*"' "$record" ||
        true; } | md5sum | cut -c1-12)"
    echo "$side $line exact=$exact loss=$loss"
}

build "$sha_a"
build "$sha_b"

# `name better` of every metric of the compared section, one entry a line in
# BENCHMARK.json.
metrics="$(awk -v section="\"$section\"" '
    index($0, section) { on = 1; next }
    on && /^[[:space:]]*\]/ { on = 0 }
    on && match($0, /"name": *"[^"]*"/) {
        name = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", name); sub(/"$/, "", name)
        better = ($0 ~ /"better": *"higher"/) ? "higher" : "lower"
        print name, better
    }
' BENCHMARK.json)"

echo "perf pairs: A = $rev_a (${sha_a:0:7}), B = $rev_b (${sha_b:0:7}); fgnn-perf --workload $workload" \
    "--seed $seed --trace $trace; $pairs pairs, A first on odd pairs; nproc $(nproc)"
runs="$(mktemp)"
names="$(mktemp)"
trap 'rm -f "$runs" "$names"' EXIT
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order="A B"; else order="B A"; fi
    for side in $order; do
        if [ "$side" = A ]; then sha=$sha_a; else sha=$sha_b; fi
        run "$side" "$sha" | tee -a "$runs"
    done
done

echo "-- summary: median (q1-q3) per side; ratio = median A / median B; B wins = pairs B did better"
printf '%s\n' "$metrics" > "$names"
awk -v pairs="$pairs" '
    # Value of metric `m` in a result object.
    function value(line, m,    i, rest) {
        i = index(line, "\"" m "\":{\"value\":")
        if (!i) return ""
        rest = substr(line, i + length(m) + 12)
        match(rest, /^[-+0-9.eE]+/)
        return substr(rest, 1, RLENGTH) + 0
    }
    # Type-7 quantile of the sorted s[1..n].
    function quantile(s, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
    }
    function sorted(side, m, s,    n, i, j, t) {
        n = 0
        for (i = 1; i <= pairs; i++) s[++n] = v[side, i, m]
        for (i = 2; i <= n; i++) {
            t = s[i]
            for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
            s[j + 1] = t
        }
        return n
    }
    NR == FNR { name[++nm] = $1; better[nm] = $2; next }
    {
        k = seen[$1]++ + 1
        if ($0 !~ /"correct":true/) wrong++
        exact[$(NF - 1)] = 1; loss[$NF] = 1
        for (i = 1; i <= nm; i++) {
            x = value($0, name[i])
            if (x == "") missing[name[i]] = 1
            v[$1, k, name[i]] = x + 0
        }
    }
    END {
        if (seen["A"] != pairs || seen["B"] != pairs) {
            print "perf_pairs: incomplete runs" > "/dev/stderr"; exit 1
        }
        width = 12
        for (i = 1; i <= nm; i++) if (length(name[i]) > width) width = length(name[i])
        for (i = 1; i <= nm; i++) {
            m = name[i]
            # Per-layer metrics of other workloads.
            if (m in missing) continue
            sorted("A", m, a); sorted("B", m, b)
            ma = quantile(a, pairs, 0.5); qa1 = quantile(a, pairs, 0.25); qa3 = quantile(a, pairs, 0.75)
            mb = quantile(b, pairs, 0.5); qb1 = quantile(b, pairs, 0.25); qb3 = quantile(b, pairs, 0.75)
            won = 0; lost = 0
            for (p = 1; p <= pairs; p++) {
                d = v["B", p, m] - v["A", p, m]
                if (better[i] == "higher") d = -d
                if (d < 0) won++
                if (d > 0) lost++
            }
            gap = mb - ma; if (gap < 0) gap = -gap
            verdict = "unresolved"
            if (gap > qa3 - qa1 && won * 10 >= 9 * pairs) verdict = "resolved: B better"
            if (gap > qa3 - qa1 && lost * 10 >= 9 * pairs) verdict = "resolved: B worse"
            printf "%-" width "s A %.4g (%.4g-%.4g)  B %.4g (%.4g-%.4g)  ratio %s  B wins %d/%d  %s\n", \
                m, ma, qa1, qa3, mb, qb1, qb3, \
                mb == 0 ? "-" : sprintf("%.3f", ma / mb), won, pairs, verdict
        }
        ne = 0; for (e in exact) ne++
        nl = 0; for (l in loss) nl++
        printf "correct: %s; exact fingerprints: %s; per-pass losses: %s\n", \
            wrong ? wrong " runs failed a check" : "every run", \
            ne == 1 ? "identical in every run" : ne " distinct", \
            nl == 1 ? "identical in every run" : nl " distinct"
    }
' "$names" "$runs"
