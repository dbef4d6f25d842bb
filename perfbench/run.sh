#!/usr/bin/env bash
# Builds cr-serve and the perfbench binary from source, then runs one workload:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the result is the last line of stdout.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cr-service ]]; then
    echo "perfbench: run from the repository root (no Cargo.toml + crates/cr-service here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p cr-service --bin cr-serve
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/cr-serve" "$@"
