#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds what a run needs (the root
# package's `hetkg` binary for the ps-server shards, and this package), then
# runs one workload. All arguments go to the benchmark binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# One target directory for both packages (this one is its own workspace and
# would otherwise build into benchmark/target), so both binaries are where
# the lines below look for them. The driver sets CARGO_TARGET_DIR.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --quiet --bin hetkg
cargo build --release --quiet --manifest-path benchmark/Cargo.toml

mkdir -p benchmark/out/tmp
export HETKG_BIN="$target/release/hetkg"
export HETKG_BENCH_OUT=benchmark/out
export HETKG_BENCH_RUSTC="$(rustc --version)"
export HETKG_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
# The ps-server cluster puts its config and Unix sockets under the temp
# directory. A relative one keeps them inside the checkout and keeps socket
# paths under the 108-byte limit wherever the checkout lives.
export TMPDIR=benchmark/out/tmp
exec "$target/release/hetkg-benchmark" "$@"
