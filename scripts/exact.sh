#!/usr/bin/env bash
# Do two commits train the same model over the same bytes?
#
#   scripts/exact.sh <rev> [--full | --faults] [seed...]
#
# Exports <rev> beside the working tree (`git archive` into
# target/exact/<sha>/src, built into its own target/exact/<sha>/target; .git
# is not touched), runs benchmark/'s three training workloads there and in
# the working tree for every seed given (default 7), and prints what the two
# report side by side, `=` where a field is bit-equal and `≠` where not.
#
#   default   1/20-scale `--quick` runs, seconds each: the values a quick
#             run prints — first-epoch loss, final_loss, mrr
#   --full    the benchmark's own 20 s runs: the four `fact exact` fields —
#             sim_epoch_s, remote_bytes_per_triple, final_loss, mrr
#
# and beside them, in both modes, where the remote bytes and the simulated
# seconds of the same configuration go: bytes per triple by cause, and per
# epoch the critical path beside the comm and compute lanes it is scheduled
# from (`examples/cause_split.rs` — the working tree's, copied into the <rev>
# checkout so both sides answer the same questions; a cause one side does not
# have reads 0). The example spells the workloads out a second time, so a
# side whose example and benchmark runs disagree on final_loss (or, with
# --full, on remote_bytes_per_triple or sim_epoch_s) is flagged: the split
# printed there is of some other configuration.
#
# Last, in both modes, the example's `hetkg-p1`: HET-KG-D and HET-KG-C with
# a sync every iteration, where no schedule of write-backs, staging or gating
# may move anything, over the simulated backend and over `uds` — every epoch's
# loss bits, bytes and messages (remote/local), bytes by cause, and a digest
# of the final store.
#
# --faults runs none of that. It builds `hetkg` on both sides and trains
# with every CLI fault profile at every seed given (default 11 23 47, the
# chaos jobs' seeds) — lossy, corrupt, corrupt --integrity off, outage,
# overload (retry budget and breakers on, the profile's default), chaos,
# and failover --replication 2 — on `--synthetic fb15k --epochs 3` with
# `--oracle on`, and prints `=` / `≠` per profile for the run's stdout and
# for the checkpoint's bytes. Fault runs report simulated time only, so
# both are deterministic.
#
# Prints; gates nothing: a change that means to move a field says so, and
# this is the table it says it with.
set -euo pipefail
cd "$(dirname "$0")/.."

[[ $# -ge 1 ]] || { sed -n '2,43p' "$0" >&2; exit 2; }
sha="$(git rev-parse --short=12 "$1^{commit}")"
shift
mode=(--seconds 3 --trace 1 --quick)
split=(--quick)
seeds=()
faults=0
for arg in "$@"; do
    case $arg in
        --full) mode=(--seconds 20 --trace 0); split=() ;;
        --faults) faults=1 ;;
        *) seeds+=("$arg") ;;
    esac
done

root="$PWD/target/exact/$sha"
rm -rf "$root/src"
mkdir -p "$root/src"
git archive "$sha" | tar -x -C "$root/src"

if [[ $faults == 1 ]]; then
    [[ ${#seeds[@]} -gt 0 ]] || seeds=(11 23 47)
    profiles=(lossy corrupt "corrupt --integrity off" outage overload chaos
              "failover --replication 2")
    here_target="$(realpath -m "${CARGO_TARGET_DIR:-target}")"
    (cd "$root/src" && CARGO_TARGET_DIR="$root/target" cargo build --release --quiet --bin hetkg)
    cargo build --release --quiet --bin hetkg
    printf '%-6s %-26s %-7s%s\n' seed profile stdout checkpoint
    for seed in "${seeds[@]}"; do
        for profile in "${profiles[@]}"; do
            # One directory per side, so the printed checkpoint path agrees.
            for side in a b; do
                bin="$here_target/release/hetkg"
                [[ $side == a ]] && bin="$root/target/release/hetkg"
                dir="$root/faults/$side"
                rm -rf "$dir" && mkdir -p "$dir"
                # shellcheck disable=SC2086 # a profile is a flag and its arguments
                (cd "$dir" && "$bin" train --synthetic fb15k --epochs 3 --seed "$seed" \
                    --fault-profile $profile --oracle on --out model.bin \
                    > stdout.txt 2>&1 || echo "exit $?" >> stdout.txt)
            done
            same() { cmp -s "$root/faults/a/$1" "$root/faults/b/$1" && echo "=" || echo "≠"; }
            printf '%-6s %-26s %s      %s\n' "$seed" "$profile" "$(same stdout.txt)" "$(same model.bin)"
        done
    done
    exit 0
fi

[[ ${#seeds[@]} -gt 0 ]] || seeds=(7)
cp examples/cause_split.rs "$root/src/examples/"

# stdout: the lines of one run that carry a compared value.
run() { # checkout, target dir, workload, seed
    (cd "$1" && CARGO_TARGET_DIR="$2" bash benchmark/run.sh \
        --workload "$3" --seed "$4" "${mode[@]}") \
        | grep -E '^(fact exact|check (loss_decreases|mrr_floor)) ' || true
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo run --release --quiet --example cause_split -- \
        "$3" "$4" "${split[@]}") | grep -E '^(cause|lane|same) ' || true
}

# stdout: `hetkg-p1`'s lines, simulated then over sockets. `run` has built
# the `hetkg` binary the shards are spawned from; sockets go where
# benchmark/run.sh puts them.
p1() { # checkout, target dir, seed
    for backend in "" --uds; do
        (cd "$1" && mkdir -p benchmark/out/tmp && CARGO_TARGET_DIR="$2" \
            HETKG_BIN="$2/release/hetkg" TMPDIR=benchmark/out/tmp \
            cargo run --release --quiet --example cause_split -- hetkg-p1 "$3" $backend) \
            | grep -E '^p1 ' || true
    done
}

{
    for workload in train-hetkg-skew train-dglke-skew train-uds-flat; do
        for seed in "${seeds[@]}"; do
            echo "run $workload $seed"
            run "$root/src" "$root/target" "$workload" "$seed" | sed 's/^/a /'
            run "$PWD" "${CARGO_TARGET_DIR:-target}" "$workload" "$seed" | sed 's/^/b /'
        done
    done
    for seed in "${seeds[@]}"; do
        echo "run hetkg-p1 $seed"
        p1 "$root/src" "$root/target" "$seed" | sed 's/^/a /'
        p1 "$PWD" "${CARGO_TARGET_DIR:-target}" "$seed" | sed 's/^/b /'
    done
} > "$root/runs.txt"

python3 - "$sha" "$root/runs.txt" <<'EOF'
import re, struct, sys

EXACT = ("sim_epoch_s", "remote_bytes_per_triple", "final_loss", "mrr")

def fields(lines):
    """name -> printed value, from the compared lines of one run."""
    out, causes, lanes, same, p1 = {}, {}, {}, {}, {}
    for line in lines:
        if line.startswith("fact exact "):
            for name, bits in zip(EXACT, line.split()[2].split("/")):
                out[name] = repr(struct.unpack(">d", bytes.fromhex(bits))[0])
        elif m := re.match(r"check loss_decreases \w+ \((\S+) -> (\S+)\)", line):
            out.setdefault("first_loss", m[1])
            out.setdefault("final_loss", m[2])
        elif m := re.match(r"check mrr_floor \w+ \(mrr (\S+) ", line):
            out.setdefault("mrr", m[1])
        elif m := re.match(r"cause (\w+) (\S+)", line):
            causes["B/triple " + m[1]] = m[2]
        elif m := re.match(r"lane (\w+) (\S+)", line):
            lanes["sim_s " + m[1]] = m[2]
        elif m := re.match(r"same (\w+) (\S+)", line):
            same[m[1]] = m[2]
        elif m := re.match(r"p1 (\w+) (\S+)", line):
            p1["P=1 " + m[1]] = m[2]
    # The example's copy of the workload against the benchmark's own run.
    drift = [n for n, v in same.items() if n in out and float(v) != float(out[n])]
    # A full run's `fact exact` carries the bits; its check lines add nothing.
    return ({n: out[n] for n in EXACT} if EXACT[0] in out else out) | causes | lanes | p1, drift

rev, log = sys.argv[1], sys.argv[2]
runs = []
for line in open(log):
    tag, _, rest = line.rstrip("\n").partition(" ")
    if tag == "run":
        runs.append((rest.split(), {"a": [], "b": []}))
    else:
        runs[-1][1][tag].append(rest)
row = "{:18} {:>5}  {:24} {:>22} {:>22}  {}"
print(row.format("workload", "seed", "field", rev, "working tree", ""))
for (workload, seed), sides in runs:
    (a, a_drift), (b, b_drift) = fields(sides["a"]), fields(sides["b"])
    if not (a and b):
        print(row.format(workload, seed, "(a run printed nothing: did it fail?)", "", "", ""))
    for side, drift in ((rev, a_drift), ("working tree", b_drift)):
        for name in drift:
            what = f"(B/triple rows: {side}'s cause_split and benchmark/ differ on {name})"
            print(row.format(workload, seed, what, "", "", "!"))
    for name in list(a) + [n for n in b if n not in a]:
        if name.startswith("B/triple "):
            a.setdefault(name, "0.00"), b.setdefault(name, "0.00")
        if name in a and name in b:
            print(row.format(workload, seed, name, a[name], b[name], "=" if a[name] == b[name] else "≠"))
EOF
