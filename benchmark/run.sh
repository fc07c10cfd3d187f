#!/bin/sh
# The command of BENCHMARK.json: builds `bench` (this package) and the shipped
# `earl-worker` that `net_remote` spawns (root workspace) into one target
# directory, then runs `bench` with the arguments given.  Run from anywhere.
set -eu
here=$(dirname "$0")
# The root workspace's own target directory unless the caller chose one, so a
# worker already built by `cargo build --release` there is reused.
: "${CARGO_TARGET_DIR:=$here/../target}"
export CARGO_TARGET_DIR
cargo build --release --quiet --manifest-path "$here/../crates/earl-net/Cargo.toml" --bin earl-worker
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/bench" "$@"
