#!/usr/bin/env bash
# Is the benchmark steady enough to hold the repo to?
#
#   benchmark/repeat.sh [N]             two sets of N (default 5) untraced runs
#                                       per workload at seed 7, workload order
#                                       alternating; fails unless the two sets'
#                                       medians agree within each metric's
#                                       bound and the exact metrics and digests
#                                       are bit-equal across all 2N runs
#   benchmark/repeat.sh --seeds [N]     what the driver does before it accepts
#                                       the benchmark: two sets of N (default
#                                       10) runs per workload, each run with
#                                       another seed; fails if a metric's
#                                       quartile spread (setup_s excepted) or
#                                       the two sets' medians differ by more
#                                       than its bound
#   benchmark/repeat.sh --quick         1/20-scale traced smoke run of every
#                                       workload: every code path and check,
#                                       no numbers (CI, later PRs)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

workloads=(train-hetkg-skew train-dglke-skew train-uds-flat serve-zipf-reload)
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

if [[ "${1:-}" == "--quick" ]]; then
    for w in "${workloads[@]}"; do
        # Traced: a superset of the untraced run's code paths.
        bash benchmark/run.sh --workload "$w" --seed 7 --seconds 3 --trace 1 --quick \
            | grep -E '^(quick|check .* FAILED)'
    done
    if bash benchmark/run.sh --workload serve-zipf-reload --threads 2 2>/dev/null; then
        echo "--threads 2 was not refused" >&2
        exit 1
    fi
    echo "quick ok"
    exit 0
fi

mode=repeat
if [[ "${1:-}" == "--seeds" ]]; then
    mode=seeds
    shift
fi
n="${1:-$([[ $mode == seeds ]] && echo 10 || echo 5)}"
log="benchmark/out/repeat-$mode.log"
mkdir -p benchmark/out
: > "$log"

run() { # set, workload, seed
    echo "run set=$1 workload=$2 seed=$3" >&2
    bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 \
        | grep '^record ' | sed "s/^record /$1 /" >> "$log"
}

if [[ $mode == seeds ]]; then
    for set in A B; do
        for w in "${workloads[@]}"; do
            for ((i = 0; i < n; i++)); do run "$set" "$w" $((101 + i)); done
        done
    done
else
    for set in A B; do
        flip=0
        [[ $set == B ]] && flip=1
        for ((i = 0; i < n; i++)); do
            order=("${workloads[@]}")
            # Alternate the order so no workload always follows the same one.
            if (((i + flip) % 2)); then
                order=(serve-zipf-reload train-uds-flat train-dglke-skew train-hetkg-skew)
            fi
            for w in "${order[@]}"; do run "$set" "$w" 7; done
        done
    done
fi

python3 - "$mode" "$log" <<'EOF'
import json, statistics, sys
from collections import defaultdict

mode, log = sys.argv[1], sys.argv[2]
# The one bounds table: BENCHMARK.json's. An end-to-end metric a workload does
# not have is in its record's `not_applicable` list and is skipped here. The
# exact metrics must moreover be bit-equal at one seed (the `exact` fact).
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

values = defaultdict(lambda: defaultdict(list))   # (workload, metric) -> set -> [v]
exact = defaultdict(set)
failed = []
for line in open(log):
    which, _, body = line.partition(" ")
    rec = json.loads(body)
    w = rec["facts"]["workload"]
    if not rec["correct"]:
        failed.append(f"{w}: a run failed its output checks")
    for k, v in rec["metrics"].items():
        if k in bounds and k not in rec["not_applicable"]:
            values[(w, k)][which].append(v)
    for k in ("exact", "digest_l", "digest_k"):
        if k in rec["facts"]:
            exact[(w, k)].add(rec["facts"][k])

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]

print(f"{'workload/metric':48} {'set':3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
for (w, k), sets in sorted(values.items()):
    bound, better = bounds[k]
    meds = {}
    for which, v in sorted(sets.items()):
        q1, med, q3 = quartiles(v)
        meds[which] = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"{w + '/' + k:48} {which:3} {q1:14.6g} {med:14.6g} {q3:14.6g} {spread:8.2%} {bound:6.0%}")
        if mode == "seeds" and k != "setup_s" and spread > bound:
            failed.append(f"{w}/{k}: spread {spread:.2%} over bound {bound:.0%}")
    if len(meds) == 2 and meds["A"]:
        worse = (meds["B"] - meds["A"]) / meds["A"] * (1 if better == "lower" else -1)
        if abs(worse) > bound:
            failed.append(f"{w}/{k}: set medians {meds['A']:.6g} vs {meds['B']:.6g} differ by {abs(worse):.2%}, bound {bound:.0%}")
if mode == "repeat":
    for (w, k), seen in sorted(exact.items()):
        if len(seen) != 1:
            failed.append(f"{w}: {k} not bit-equal across runs: {sorted(seen)}")
for f in failed:
    print("FAILED", f)
sys.exit(1 if failed else 0)
EOF
echo "$mode ok"
