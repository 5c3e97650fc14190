#!/usr/bin/env bash
# Do two commits report the same exact benchmark fields at full scale?
#
#   scripts/exact.sh <rev> [--full] [seed...]
#
# Exports <rev> beside the working tree (`git archive` into
# target/exact/<sha>/src, built into its own target/exact/<sha>/target; .git
# is not touched), runs benchmark/'s three training workloads there and in
# the working tree for every seed given (default 7) as the benchmark runs
# them (20 s, ~25 s per run per side), and prints the four fields of their
# `fact exact` lines — sim_epoch_s, remote_bytes_per_triple, final_loss, mrr
# — side by side, `=` where bit-equal and `≠` where not. `--full`, the one
# mode, may be given or left out.
#
# The 1/20-scale runs, P = 1 and the CLI fault profiles are recorded bit for
# bit in experiments/ledger.json (`repro ledger`; CI's `experiments` job
# gates it). Prints; gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

[[ $# -ge 1 ]] || { sed -n '2,17p' "$0" >&2; exit 2; }
sha="$(git rev-parse --short=12 "$1^{commit}")"
shift
seeds=()
for arg in "$@"; do
    [[ $arg == --full ]] || seeds+=("$arg")
done
[[ ${#seeds[@]} -gt 0 ]] || seeds=(7)

root="$PWD/target/exact/$sha"
rm -rf "$root/src"
mkdir -p "$root/src"
git archive "$sha" | tar -x -C "$root/src"

# stdout: the `fact exact` value of one run, empty if it printed none.
exact() { # checkout, target dir, workload, seed
    (cd "$1" && CARGO_TARGET_DIR="$2" bash benchmark/run.sh \
        --workload "$3" --seed "$4" --seconds 20 --trace 0) | sed -n 's/^fact exact //p'
}

printf '%-18s %5s  %-24s %22s %22s\n' workload seed field "$sha" "working tree"
for workload in train-hetkg-skew train-dglke-skew train-uds-flat; do
    for seed in "${seeds[@]}"; do
        a="$(exact "$root/src" "$root/target" "$workload" "$seed")"
        b="$(exact "$PWD" "${CARGO_TARGET_DIR:-target}" "$workload" "$seed")"
        python3 - "$workload" "$seed" "$a" "$b" <<'EOF'
import struct, sys
workload, seed, a, b = sys.argv[1:]
if not (a and b):
    sys.exit(print(f"{workload:18} {seed:>5}  (a run printed no `fact exact`: did it fail?)"))
value = lambda bits: repr(struct.unpack(">d", bytes.fromhex(bits))[0])
fields = ("sim_epoch_s", "remote_bytes_per_triple", "final_loss", "mrr")
for name, x, y in zip(fields, a.split("/"), b.split("/")):
    print(f"{workload:18} {seed:>5}  {name:24} {value(x):>22} {value(y):>22}  {'=' if x == y else '≠'}")
EOF
    done
done
