#!/usr/bin/env bash
# Builds the `pta` binary and the benchmark from this checkout, then runs
# one workload:
#
#   bash perf/bench.sh --workload suite-cold --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# when set (both packages share it), else to target/ and perf/target/.
set -euo pipefail
root_target="${CARGO_TARGET_DIR:-target}"
perf_target="${CARGO_TARGET_DIR:-perf/target}"
cargo build --release --quiet --manifest-path Cargo.toml -p pta-cli >&2
cargo build --release --quiet --manifest-path perf/Cargo.toml >&2
exec "$perf_target/release/pta-perf" bench --pta "$root_target/release/pta" "$@"
