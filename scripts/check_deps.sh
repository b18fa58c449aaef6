#!/usr/bin/env bash
# Fails if an external crate has crept back in: `[workspace.dependencies]`
# may name only `bytes` and `proptest` besides the workspace's own crates,
# and `ifot-core`'s normal dependency closure may contain only `bytes`.
#
#   scripts/check_deps.sh            with registry access (CI)
#   scripts/check_deps.sh --offline  against .offline-stubs
set -euo pipefail

cd "$(dirname "$0")/.."

declared=$(sed -n '/^\[workspace\.dependencies\]/,/^\[package\]/p' Cargo.toml |
    grep -E '^[A-Za-z0-9_-]+ *=' | grep -v 'path *=' | cut -d' ' -f1 | sort | tr '\n' ' ')
if [ "$declared" != "bytes proptest " ]; then
    echo "[workspace.dependencies] names external crates: $declared" >&2
    exit 1
fi

tree=(cargo tree)
if [ "${1:-}" = --offline ]; then
    tree=(scripts/offline_check.sh tree)
fi
linked=$("${tree[@]}" -e normal -p ifot-core --prefix none |
    cut -d' ' -f1 | grep -v '^ifot-' | sort -u | tr '\n' ' ')
if [ "$linked" != "bytes " ]; then
    echo "ifot-core links external crates: $linked" >&2
    exit 1
fi
