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
# the N runs. It then appends the same figures to BENCH_sim.json, one
# entry per side in the shape of `append_entry` in crates/bench: the
# commit, its role (`before` for BASE, `after` for HEAD), `nproc`, the
# run command, the kcycles/s median and quartiles and the per-stage
# means. These are medians over N runs, not the one profiled run of a
# `sim_throughput` entry, so their fields carry a `pair_` prefix and the
# two series are never read as one. Its builds and run logs live in a
# temporary directory, which it removes on exit.
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
        "$work/$side/target/release/nbti-noc" "${scenario[@]}" "$@" > "$out" 2> "$out.err"
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

# Median and Tukey hinges (medians of the lower and upper halves), as
# `median q1 q3`.
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
            printf "%.1f %.1f %.1f\n", med(1, NR), q1, q3
        }'
}

# Each stage's mean ns per cycle over the runs, as `stage mean` lines in
# cycle order.
stage_means() {
    awk '
        !($1 in sum) { order[++n] = $1 }
        { sum[$1] += $2; cnt[$1]++ }
        END { for (i = 1; i <= n; i++) printf "%s %.0f\n", order[i], sum[order[i]] / cnt[order[i]] }
    ' "$1"
}

# Appends one entry to a JSON array file the way `append_entry` in
# crates/bench does: the closing bracket and a trailing comma go, the
# entry follows on its own line.
append_entry() {
    local body
    if [ -s "$1" ]; then
        body=$(cat "$1")
        body=$(printf '%s' "${body%]}" | sed '$ s/[[:space:],]*$//')
        printf '%s,\n  %s\n]\n' "$body" "$2" > "$1"
    else
        printf '[\n  %s\n]\n' "$2" > "$1"
    fi
}

nproc=$(nproc)
bench=BENCH_sim.json
args="${scenario[*]}${*:+ $*}"
echo "canonical scenario: $args"
echo "nproc: $nproc, $runs alternating runs per side"
for side in base head; do
    commit=${!side}
    role=before
    [ "$side" = head ] && role=after
    read -r median q1 q3 < <(quartiles "$work/$side.kcps")
    echo
    echo "$side ($role) $commit"
    echo "  kcycles/s: $median [q1 $q1, q3 $q3]"
    echo "  mean ns per cycle by stage:"
    stage_means "$work/$side.stages" | awk '{ printf "    %-14s %8s\n", $1, $2 }'
    mean_ns=$(stage_means "$work/$side.stages" | awk '{ printf "%s\"%s\":%s", (NR > 1 ? "," : ""), $1, $2 }')
    run=$(($(grep -o '"run":' "$bench" 2> /dev/null | wc -l) + 1))
    append_entry "$bench" "{\"run\":$run,\"commit\":\"$commit\",\"role\":\"$role\",\"nproc\":$nproc,\"args\":\"$args\",\"pair_kcycles_per_sec_median\":$median,\"pair_kcycles_per_sec_q1\":$q1,\"pair_kcycles_per_sec_q3\":$q3,\"pair_mean_ns\":{$mean_ns}}"
done
echo
echo "appended a before and an after entry to $bench"
