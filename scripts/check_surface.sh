#!/usr/bin/env bash
# Fails if the configuration surface has grown: the `pub fn with_*` /
# `without_*` builders on `NodeConfig` and on `BrokerConfig`, and the `pub`
# fields of `NodeConfig`, are counted and compared with the numbers
# committed below. Every one of them is an independently settable value the
# tests and the benchmark have to cover; a PR that needs one more raises the
# number here, where a reviewer sees it.
#
#   scripts/check_surface.sh
set -euo pipefail

cd "$(dirname "$0")/.."

node_builders_max=20
broker_builders_max=2
node_fields_max=20

# The lines of `file` from the one matching `open` to the first closing
# brace in column one after it.
block() {
    awk -v open="$2" '$0 ~ open {on = 1} on {print} on && /^}/ {exit}' "$1"
}

builders() {
    block "$1" "$2" | grep -cE '^ +pub fn with(out)?_' || true
}

node_builders=$(builders crates/core/src/config.rs '^impl NodeConfig \\{')
broker_builders=$(builders crates/mqtt/src/broker.rs '^impl BrokerConfig \\{')
node_fields=$(block crates/core/src/config.rs '^pub struct NodeConfig \\{' |
    grep -cE '^ +pub [a-z_]+:' || true)

echo "NodeConfig builders   $node_builders (max $node_builders_max)"
echo "BrokerConfig builders $broker_builders (max $broker_builders_max)"
echo "NodeConfig fields     $node_fields (max $node_fields_max)"

# A count of zero means the pattern stopped matching, not that the surface
# is gone.
for count in "$node_builders" "$broker_builders" "$node_fields"; do
    if [ "$count" -eq 0 ]; then
        echo "a count is zero: this script no longer matches the source" >&2
        exit 1
    fi
done
if [ "$node_builders" -gt "$node_builders_max" ] ||
    [ "$broker_builders" -gt "$broker_builders_max" ] ||
    [ "$node_fields" -gt "$node_fields_max" ]; then
    echo "the configuration surface grew" >&2
    exit 1
fi
