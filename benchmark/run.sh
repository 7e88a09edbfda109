#!/usr/bin/env bash
# Builds slbench and its worker (release, offline) and runs the benchmark.
#
#   benchmark/run.sh                       all four workloads, default seed
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --selfcheck | --write-reference
#
# Build products go to $CARGO_TARGET_DIR when it is set, else to
# benchmark/target. Cargo's own output goes to stderr, so the last line of
# stdout stays the result line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
slbench="$target/release/slbench"

if [ "$#" -eq 0 ]; then
    for workload in search_cold eval_fixed serve_inproc serve_fleet; do
        "$slbench" --workload "$workload"
    done
else
    exec "$slbench" "$@"
fi
