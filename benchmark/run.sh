#!/usr/bin/env bash
# Builds the program under test (the root workspace's flowdiff-bench) and
# the benchmark harness, both in release mode, then runs the harness.
#
#   benchmark/run.sh [--seed N] [--seconds S]          all workloads, every metric
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --agree [--runs R] [--workload NAME]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    # One shared directory; a relative path means relative to the caller.
    root_target="$(realpath -m "$CARGO_TARGET_DIR")"
    bench_target="$root_target"
else
    root_target="$root/target"
    bench_target="$here/target"
fi
CARGO_TARGET_DIR="$root_target" cargo build -q --release --offline \
    --manifest-path "$root/Cargo.toml" -p flowdiff-bench --bin flowdiff-bench
CARGO_TARGET_DIR="$bench_target" cargo build -q --release --offline \
    --manifest-path "$here/Cargo.toml"
exec "$bench_target/release/flowdiff-benchmark" \
    --serve-bin "$root_target/release/flowdiff-bench" --out "$here/out" "$@"
