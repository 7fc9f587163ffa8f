#!/usr/bin/env bash
# Before/after throughput of the cycle loop on the canonical scenario.
#
#   scripts/bench_pair.sh BASE HEAD N [run args...]
#
# Exports both commits with `git archive` into a temporary directory,
# builds `nbti-noc` for each, then alternates N runs of each build of
#
#   nbti-noc run --cores 16 --vcs 2 --rate 0.2 --warmup 1000 --measure 20000 --profile
#
# (untraced; any extra run args are appended, and a repeated flag takes
# the later value, so `--policy rr` or `--measure 5000` work). For each
# side it prints the commit, `nproc`, the median and quartiles of
# kcycles/s, and each profiled stage's mean ns per cycle averaged over
# the N runs. It writes no file outside its temporary directory, which
# it removes on exit.
set -euo pipefail

if [ $# -lt 3 ]; then
    echo "usage: $0 BASE HEAD N [run args...]" >&2
    exit 2
fi
base_ref=$1
head_ref=$2
runs=$3
shift 3
case $runs in
'' | *[!0-9]*)
    echo "bench_pair: N must be a positive integer, not '$runs'" >&2
    exit 2
    ;;
esac
if [ "$runs" -lt 1 ]; then
    echo "bench_pair: N must be at least 1" >&2
    exit 2
fi

cd "$(dirname "$0")/.."
base=$(git rev-parse --verify "$base_ref^{commit}")
head=$(git rev-parse --verify "$head_ref^{commit}")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in base head; do
    commit=${!side}
    mkdir "$work/$side"
    git archive "$commit" | tar -x -C "$work/$side"
    echo "bench_pair: building $side ($commit)" >&2
    cargo build --release --offline -q --bin nbti-noc \
        --manifest-path "$work/$side/Cargo.toml"
done

scenario=(run --cores 16 --vcs 2 --rate 0.2 --warmup 1000 --measure 20000 --profile)
for ((i = 1; i <= runs; i++)); do
    for side in base head; do
        out="$work/$side.run$i"
        "$work/$side/target/release/nbti-noc" "${scenario[@]}" "$@" > "$out" 2> /dev/null
        grep -q 'kcycles/s' "$out" || {
            echo "bench_pair: $side run $i printed no throughput" >&2
            exit 1
        }
        # "profiled N cycles in T ms (K kcycles/s)"
        sed -n 's/.*(\([0-9.]*\) kcycles\/s).*/\1/p' "$out" >> "$work/$side.kcps"
        # The stage table: a `stage cycles ...` header, then one row per
        # stage (name, cycles, p50, p95, p99, mean ns, total ms) up to the
        # `residual = ...` line.
        awk '$1 == "residual" { rows = 0 } rows { print $1, $6 } $1 == "stage" { rows = 1 }' \
            "$out" >> "$work/$side.stages"
    done
done

# Median and Tukey hinges (medians of the lower and upper halves).
quartiles() {
    sort -g "$1" | awk '
        { v[NR] = $1 }
        function med(lo, hi,   n, m) {
            n = hi - lo + 1; m = lo + int((n - 1) / 2)
            return n % 2 ? v[m] : (v[m] + v[m + 1]) / 2
        }
        END {
            h = int(NR / 2)
            q1 = NR > 1 ? med(1, h) : v[1]
            q3 = NR > 1 ? med(NR - h + 1, NR) : v[1]
            printf "%.1f [q1 %.1f, q3 %.1f]", med(1, NR), q1, q3
        }'
}

echo "canonical scenario: ${scenario[*]} $*"
echo "nproc: $(nproc), $runs alternating runs per side"
for side in base head; do
    commit=${!side}
    echo
    echo "$side $commit"
    echo "  kcycles/s: $(quartiles "$work/$side.kcps")"
    echo "  mean ns per cycle by stage:"
    awk '
        !($1 in sum) { order[++n] = $1 }
        { sum[$1] += $2; cnt[$1]++ }
        END { for (i = 1; i <= n; i++) printf "    %-14s %8.0f\n", order[i], sum[order[i]] / cnt[order[i]] }
    ' "$work/$side.stages"
done
