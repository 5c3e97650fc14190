#!/usr/bin/env bash
# Lines of Rust per crate, split at each file's first `#[cfg(test)]` whose
# next line opens a `mod` (a test-only field, function or block further up
# does not end the program): everything before it counts as non-test,
# everything from it on (and every file under a tests/, benches/ or
# examples/ directory) as test. Covers
# crates/*/src + src (the program) and, in the all-.rs total, every other
# .rs file outside vendor/, target/ and benchmark/. Prints; gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

# stdout: "<non-test> <test>" summed over the .rs files under the given dirs.
split() {
    find "$@" -name '*.rs' -print0 2>/dev/null | xargs -0 -r awk '
        FNR == 1 { in_test = 0; after_cfg = 0 }
        # The attribute line itself was counted as code: move it over.
        after_cfg && !in_test && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { in_test = 1; code--; test++ }
        { after_cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }
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
for file in crates/embed/src/models crates/netsim/src/faults.rs crates/netsim/src/meter.rs \
    crates/ps/src/client.rs crates/train/src/worker.rs \
    crates/train/src/systems/dglke.rs crates/train/src/systems/hetkg.rs src/bin/hetkg.rs; do
    printf '%-28s %9d\n' "${file#crates/}" "$(split "$file" | cut -d' ' -f1)"
done
# The pipelined schedule and the two loops that run on it.
pipeline=0
for file in crates/train/src/worker.rs crates/train/src/systems/{dglke,hetkg}.rs; do
    pipeline=$((pipeline + $(split "$file" | cut -d' ' -f1)))
done
printf '%-28s %9d\n' 'pipeline (worker+dglke+hetkg)' "$pipeline"
