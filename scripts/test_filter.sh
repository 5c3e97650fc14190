#!/usr/bin/env bash
# `cargo test <args>` for a step that names its tests with a filter, failing
# when the filter ran none: cargo exits 0 on "0 passed", so a test renamed or
# moved away from its filter would otherwise leave the step silently empty.
#
#   bash scripts/test_filter.sh -q --release -p hetkg-train --lib worker::tests
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
ran=$(sed -n 's/^test result: .* \([0-9][0-9]*\) passed.*/\1/p' "$log" | awk '{n += $1} END {print n + 0}')
if [ "$ran" -eq 0 ]; then
    echo "test_filter.sh: \`cargo test $*\` ran no test" >&2
    exit 1
fi
