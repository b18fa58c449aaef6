#!/usr/bin/env bash
# Runs cargo without registry access: the workspace's two external crates
# are patched to the stand-ins under .offline-stubs/.
#
#   scripts/offline_check.sh check --workspace
#   scripts/offline_check.sh test --workspace
#   scripts/offline_check.sh clippy --workspace --all-targets -- -D warnings
#
# Load-bearing stubs: `bytes` (functional: everything runs on it) and
# `proptest` (typecheck-only: tests/proptests.rs compiles, each property
# fails with "proptest offline stub cannot generate values"). The other six
# directories there (parking_lot, crossbeam, rand, serde, serde_json,
# criterion) are empty placeholders nothing depends on; they exist only
# because crates/flowbench/run.sh names them in its own patch list.
#
# The stubs are activated purely via command-line --config patches; the
# committed manifests never reference them, so a build with registry access
# is unaffected.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
stubs="$repo/.offline-stubs"

args=()
for crate in bytes proptest; do
    args+=(--config "patch.crates-io.$crate.path=\"$stubs/$crate\"")
done

# The subcommand must come first: external subcommands like clippy do not
# see global flags given before their own name.
cmd="$1"
shift
exec cargo "$cmd" "${args[@]}" --offline "$@"
