#!/usr/bin/env bash
# The benchmark command: builds the benchmark's own package (twice: plain,
# and with the allocator's op-stats counters for the traced pass) and runs
# it.  Everything after the script's name goes to nbbs-benchmark; see
# README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" "$@" >&2
}
build --target-dir "$target"
build --target-dir "$target/counted" --features op-stats
exec "$target/release/nbbs-benchmark" "$@"
