#!/usr/bin/env bash
# A/A: run the whole benchmark twice on this commit and fail if any
# end-to-end metric of the second run is worse than the first by more than
# its bound. Arguments (--seed N, --smoke, ...) go to both runs.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p perf/out
./perf/run.sh "$@" --out perf/out/aa-a.json
./perf/run.sh "$@" --out perf/out/aa-b.json
./perf/run.sh compare perf/out/aa-a.json perf/out/aa-b.json
