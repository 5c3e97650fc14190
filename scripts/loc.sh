#!/usr/bin/env bash
# Lines of Rust per crate, split at each file's first `#[cfg(test)]`:
# everything before it counts as non-test, everything from it on (and every
# file under a tests/, benches/ or examples/ directory) as test. Covers
# crates/*/src + src (the program) and, in the all-.rs total, every other
# .rs file outside vendor/, target/ and benchmark/. Prints; gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

# stdout: "<non-test> <test>" summed over the .rs files under the given dirs.
split() {
    find "$@" -name '*.rs' -print0 2>/dev/null | xargs -0 -r awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else code++ }
        END { print code + 0, test + 0 }'
}

printf '%-28s %9s %9s\n' 'crate (src only)' 'non-test' 'test'
total_code=0
total_test=0
for dir in crates/*/src src; do
    read -r code test < <(split "$dir")
    printf '%-28s %9d %9d\n' "${dir%/src}" "$code" "$test"
    total_code=$((total_code + code))
    total_test=$((total_test + test))
done
printf '%-28s %9d %9d\n' 'total (crates/*/src + src)' "$total_code" "$total_test"

read -r code test < <(split crates src tests examples)
printf '%-28s %9d\n' 'all .rs (with tests, benches)' "$((code + test))"
printf '%-28s %9d\n' 'crates/ps/src/client.rs' "$(split crates/ps/src/client.rs | cut -d' ' -f1)"
