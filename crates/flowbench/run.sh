#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds `flowbench` from source in the
# checkout this script sits in, then runs it with the arguments given.
#
#   bash crates/flowbench/run.sh --workload paper_flow_rt --seed 1 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default: target/) and its messages to
# standard error, so the last line of standard output is the result object.
#
# Dependency set: where the checkout carries `.offline-stubs/` (no registry
# access) the stand-ins are patched in, exactly as scripts/offline_check.sh
# does; set FLOWBENCH_CRATES_IO=1 to build against crates.io instead. The
# binary prints which set it was built with: numbers compare only within one.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"

args=()
if [ -d .offline-stubs ] && [ -z "${FLOWBENCH_CRATES_IO:-}" ]; then
    for crate in bytes parking_lot crossbeam rand serde serde_json proptest criterion; do
        args+=(--config "patch.crates-io.$crate.path=\"$root/.offline-stubs/$crate\"")
    done
    args+=(--offline)
fi

cargo build --release -p ifot-flowbench "${args[@]}" 1>&2

exec "${CARGO_TARGET_DIR:-target}/release/flowbench" "$@"
