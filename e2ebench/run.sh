#!/usr/bin/env bash
# Build `d3l` and this benchmark from source, then run one benchmark
# pass. Run from the repository root:
#
#   bash e2ebench/run.sh --workload small-lake --seed 1 --seconds 12 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). The
# last line of standard output is the result as JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin d3l >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/d3l-e2ebench" --d3l "$CARGO_TARGET_DIR/release/d3l" "$@"
