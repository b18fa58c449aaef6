#!/usr/bin/env bash
# Fails if the public surface has grown: the `pub fn with_*` /
# `without_*` builders on `NodeConfig` and on `BrokerConfig`, the `pub`
# fields of `NodeConfig`, `ExecutorConfig` and `BrokerConfig`, the names
# each crate's `lib.rs` re-exports with `pub use`, and the top-level `pub`
# items of `crates/bytes` (a crate with no modules) are counted and
# compared with the numbers committed below. Every one of them is an
# independently settable value or a public item the tests and the
# benchmark have to cover; a PR that needs one more raises the number
# here, where the diff shows it.
#
#   scripts/check_surface.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# The lines of `file` from the one matching `open` to the first closing
# brace in column one after it.
block() {
    awk -v open="$2" '$0 ~ open {on = 1} on {print} on && /^}/ {exit}' "$1"
}

builders() {
    block "$1" "$2" | grep -cE '^ +pub fn with(out)?_' || true
}

fields() {
    block "$1" "^pub struct $2 \\{" | grep -cE '^ +pub [a-z_]+:' || true
}

# Names a `lib.rs` re-exports: each `pub use` statement (joined onto one
# line) contributes the names in its braces, or its last path segment or
# `as` alias.
reexports() {
    awk '/^pub use/ {on = 1} on {printf "%s ", $0} on && /;/ {on = 0; print ""}' "$1" |
        sed -E 's/^pub use [^{]*\{([^}]*)\}.*/\1/; s/^pub use .*(::| as )([A-Za-z_0-9]+);.*/\2/' |
        tr ',' '\n' | grep -c '[A-Za-z]' || true
}

# Items a file declares `pub` at its top level: the lines that open with
# `pub ` in column one.
toplevel_pub() {
    grep -cE '^pub ' "$1" || true
}

grew=0

# Prints one count against its committed maximum. A count of zero means
# the pattern stopped matching, not that the surface is gone.
gate() {
    printf '%-40s %3d (max %d)\n' "$1" "$2" "$3"
    if [ "$2" -eq 0 ]; then
        echo "$1: zero: this script no longer matches the source" >&2
        exit 1
    fi
    if [ "$2" -gt "$3" ]; then
        grew=1
    fi
}

gate "NodeConfig builders" "$(builders crates/core/src/config.rs '^impl NodeConfig \\{')" 16
gate "BrokerConfig builders" "$(builders crates/mqtt/src/broker.rs '^impl BrokerConfig \\{')" 2
gate "NodeConfig fields" "$(fields crates/core/src/config.rs NodeConfig)" 16
gate "ExecutorConfig fields" "$(fields crates/core/src/config.rs ExecutorConfig)" 3
gate "BrokerConfig fields" "$(fields crates/mqtt/src/broker.rs BrokerConfig)" 9
# A crate whose `lib.rs` re-exports nothing is not listed.
gate "src/lib.rs pub use names" "$(reexports src/lib.rs)" 7
for pair in core:32 mgmt:18 ml:22 mqtt:35 recipe:16 sensors:26; do
    crate=${pair%:*}
    gate "crates/$crate/src/lib.rs pub use names" "$(reexports "crates/$crate/src/lib.rs")" "${pair#*:}"
done
gate "crates/bytes/src/lib.rs pub items" "$(toplevel_pub crates/bytes/src/lib.rs)" 7

if [ "$grew" -ne 0 ]; then
    echo "the public surface grew" >&2
    exit 1
fi
