#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build both bins from this checkout
# (a no-op when they are current), then run the one that matches --trace.
#
#   bash perf/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash perf/run.sh all [--seed N] [--seconds S] [--save FILE]
#   bash perf/run.sh verify A.json B.json
#
# Build output goes to stderr so the result object stays the last line of
# stdout. A directory without the crates fails here, in cargo, with a
# non-zero exit and no result.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-perf/target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml --bins 1>&2

bin=perf
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=perf-trace
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
