#!/usr/bin/env bash
# Build perfbench from source, then run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result as one JSON object
#   benchmark/run.sh --seed N --out DIR [--runs K] [--quick]
#       all four workloads, untraced then traced, results under DIR
#   benchmark/run.sh compare A_DIR B_DIR
#
# Everything is read and written inside the checkout: the build goes to
# $CARGO_TARGET_DIR (default target/perfbench), run files to --out
# (default .bench_out). Build output goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/perfbench}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/perfbench"
case "${1:-}" in
    compare) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
exec "$bin" all "$@"
