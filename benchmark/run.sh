#!/usr/bin/env bash
# Self-agreement check: the suite twice, same code and seed, then the second
# result set judged against the first with the benchmark's own bounds.
# Passes when `--compare` reports no `regressed` row (every exact metric and
# digest bit-equal, every timing within its bound) and no `unresolved` one
# (run-to-run spread wider than the bound: that gate gates nothing).
#
#   benchmark/run.sh [--seed N] [--smoke]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/phoenix-benchmark"
"$bin" "$@" --out "$here/out/results-a.json"
"$bin" "$@" --out "$here/out/results-b.json"
"$bin" --compare "$here/out/results-a.json" "$here/out/results-b.json"
