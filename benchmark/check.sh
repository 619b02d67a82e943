#!/usr/bin/env bash
# Smoke-test the harness: the whole suite in --quick mode, twice (two
# seeds), then the unit tests. Quick results are marked and cannot be
# compared; this checks that every code path runs and every reply is
# correct, not how fast anything is.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-.bench_out/check}"
benchmark/run.sh --quick --seed 1 --out "$out/a"
benchmark/run.sh --quick --seed 2 --out "$out/b"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/perfbench}" \
    cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
echo "perfbench check: ok"
