#!/usr/bin/env bash
# The repo's benchmark in one command: build the package, run it.
#
#   benches/e2e/run.sh [--seed N] [--workload W] [--seconds S] [--trace [0|1]]
#                      [--workdir D] [--selfcheck]
#
# Without --workload all four workloads run. Every metric is printed as
# `workload/name value unit`; results land in benches/e2e/out/. The exit
# code is non-zero if the build fails, any operation failed, or any
# bit-identity check differed. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR means "relative to where I was called from".
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    CARGO_TARGET_DIR="$(realpath -m "$CARGO_TARGET_DIR")"
    export CARGO_TARGET_DIR
fi
target="${CARGO_TARGET_DIR:-$here/target}"

# Paths inside the benchmark (BENCHMARK.json, benches/e2e/out) are relative
# to the repo root.
cd "$here/../.."
cargo build --release --offline --manifest-path "$here/Cargo.toml"
exec "$target/release/e2e" "$@"
