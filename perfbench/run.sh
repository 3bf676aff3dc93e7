#!/usr/bin/env bash
# Build `repld` and the benchmark, then run it with the given arguments:
#   bash perfbench/run.sh --workload live_read --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --bin repld >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
