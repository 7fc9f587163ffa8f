#!/usr/bin/env sh
# Tier-1 verification: release build, full test suite, and a warning-free
# clippy pass over every target. Run from anywhere; works offline (all
# external deps are vendored under compat/).
set -eu

cd "$(dirname "$0")/.."

# A run rewrites tracked files: each bench binary at the end appends one
# entry to its BENCH_*.json, and cargo refreshes a stale
# perfbench/Cargo.lock when it builds the benchmark. The committed copies
# are kept here and put back on every exit, so a run leaves the tree as
# it found it. The same exit trap stops every server the smokes start.
kept="BENCH_analyze.json BENCH_campaign.json BENCH_service.json BENCH_sim.json \
BENCH_verify.json BENCH_workload.json perfbench/Cargo.lock"
keepdir=$(mktemp -d)
mkdir "$keepdir/perfbench"
for f in $kept; do cp "$f" "$keepdir/$f"; done
cleanup() {
    for p in "${serve_pid:-}" "${camp_pid:-}" "${rw1_pid:-}" "${rw2_pid:-}" "${rfront_pid:-}"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "${verifydir:-}" "${teldir:-}" "${servedir:-}" "${campdir:-}" "${remotedir:-}" "${wldir:-}"
    for f in $kept; do cp "$keepdir/$f" "$f"; done
    rm -rf "$keepdir"
}
trap cleanup EXIT

cargo build --release --offline
cargo fmt --all -- --check
# The measuring script parses as bash (it is run by hand, not here).
bash -n scripts/bench_pair.sh
cargo test -q --offline --workspace
cargo clippy --all-targets --offline -- -D warnings

# The benchmark is a Cargo workspace of its own (perfbench/) built against
# these crates by path. Its self-tests include the replica-equivalence test
# (`replica_loop_reproduces_run_experiment`), so a library change that
# breaks the benchmark's build or its traced replica fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Overflow checks: the whole suite again with arithmetic overflow traps
# on, so release-profile wrap-arounds cannot hide in the simulator's
# counter and credit arithmetic. A separate target dir keeps the normal
# incremental caches intact.
CARGO_TARGET_DIR=target/overflow RUSTFLAGS="-C overflow-checks=on" \
    cargo test -q --offline --workspace

# Static analysis: the workspace must have zero unsuppressed findings
# under the full noc-analyze rule set (token rules plus the hot-path
# allocation, lock-order, blocking-under-lock, and panic-reachability
# passes).
cargo run -q --offline -p noc-analyze -- --json > /dev/null || {
    cargo run -q --offline -p noc-analyze || true
    echo "ci: noc-analyze found unsuppressed findings" >&2
    exit 1
}

# No polling on the request path: the acceptor's idle sleep, the
# non-blocking listener and the dispatcher's poll knobs stay deleted.
if grep -rnE 'ACCEPT_POLL|set_nonblocking|with_poll|max_polls' crates/service crates/campaign src; then
    echo "ci: polling is back on the request path" >&2
    exit 1
fi

# One of each: the `active` mask is the only record of output-VC
# occupancy, and noc-telemetry holds the one percentile and the one
# atomic histogram.
if grep -rn 'OutVcState' crates src tests; then
    echo "ci: a second record of output-VC occupancy is back" >&2
    exit 1
fi
# One random-number generator: noc_telemetry::rng holds the one
# SplitMix64 and the one xoshiro256++. The `rand` stand-in, its API names
# and a second SplitMix64 (by name or by its multiplier) stay deleted.
# tools/analyze/fixtures is not searched: its os_random_violation.rs must
# keep tripping the analyzer's no-os-random rule.
rng_dirs="crates src tests tools/analyze/src examples"
# shellcheck disable=SC2086 # rng_dirs is a word list
if [ -d compat/rand ] \
    || grep -rnE 'rand::|StdRng|SeedableRng' $rng_dirs \
    || [ "$(grep -rn 'struct SplitMix64' $rng_dirs | wc -l)" -ne 1 ] \
    || grep -rniE '0xBF58_?476D_?1CE4_?E5B9' $rng_dirs | grep -v '^crates/telemetry/src/rng\.rs:'; then
    echo "ci: a second random-number generator is back (see noc_telemetry::rng)" >&2
    exit 1
fi
# Input-VC state lives in masks kept by their writers, and arbiters grant
# from request masks: the per-VC state enum, the readiness timestamps and
# the closure-probing arbiter stay deleted.
if grep -rnE 'InVcState|ready_at' crates \
    || grep -rnE 'fn (grant|peek)[<(].*Fn(Mut|Once)?\(' crates; then
    echo "ci: a per-VC state enum, readiness timestamp or closure-probing arbiter is back" >&2
    exit 1
fi
# One job lifecycle: the job table is the bounded queue, admission and
# the per-state counts under one lock, and a submission is parsed once.
# The second queue, its forget step, the double-parsing epoch probe and
# the batch re-renderer stay deleted.
if grep -rnE 'BoundedQueue|PushError|fn forget|is_epoch_request|fn render_json' crates src tests; then
    echo "ci: a second record of the job lifecycle or a second submission parse is back" >&2
    exit 1
fi
# One record of when a policy's decision changes with the cycle: policies
# report the next such cycle, and the per-port, per-cycle dependence probe
# stays deleted.
if grep -rn 'cycle_dependence' crates src tests; then
    echo "ci: the per-port cycle-dependence probe is back" >&2
    exit 1
fi
# One VC arena: the simulator's VC state lives in flat per-slot arrays
# and rings, and flits and credits in flight live only in the due
# schedule. The per-unit link queues and queue-backed VC buffers stay
# deleted (a VecDeque is left only in the due schedule and the NIC's
# packet queue).
if grep -rnwE 'arrivals|credit_arrivals' crates/noc-sim/src \
    || grep -ln 'VecDeque' crates/noc-sim/src/*.rs \
        | grep -vxE 'crates/noc-sim/src/(network|nic)\.rs'; then
    echo "ci: a per-unit link queue or a VecDeque-backed VC buffer is back" >&2
    exit 1
fi
# Mesh only: the 2D mesh is the one fabric, built directly by the
# network; the other fabrics and the layer that chose between them stay
# deleted.
if grep -rnE 'TorusTopology|RingTopology|IrregularTopology|AnyTopology|TopologyKind|trait Topology' \
    crates src tools tests; then
    echo "ci: a non-mesh fabric or the fabric-choosing layer is back" >&2
    exit 1
fi
if grep -rnE --include='*.rs' 'fn percentile|struct AtomicHistogram' crates src tests \
    | grep -v '^crates/telemetry/'; then
    echo "ci: percentile or AtomicHistogram is defined outside noc-telemetry" >&2
    exit 1
fi

# The fixture tree must trip every rule with its known multiplicity —
# one finding per fixture file, with alloc-in-hot-path covered in both
# the simulator and workload scopes (the analyzer's own tests assert the
# exact per-rule counts; here we gate the shipped binary).
if cargo run -q --offline -p noc-analyze -- --root tools/analyze/fixtures > /dev/null 2>&1; then
    echo "ci: analyzer fixtures unexpectedly clean" >&2
    exit 1
fi
fixture_json=$(cargo run -q --offline -p noc-analyze -- --json --root tools/analyze/fixtures || true)
echo "$fixture_json" | grep -q '"count": 10' || {
    echo "ci: analyzer fixtures must produce exactly 10 findings" >&2
    exit 1
}
for rule in no-unordered-map no-wall-clock no-os-random no-thread-spawn no-unwrap \
        alloc-in-hot-path lock-order blocking-under-lock panic-reachability; do
    echo "$fixture_json" | grep -q "\"rule\": \"$rule\"" || {
        echo "ci: fixture for rule $rule not detected" >&2
        exit 1
    }
done
echo "$fixture_json" | grep -q "acquisition path" || {
    echo "ci: lock-order finding lost its acquisition-path evidence" >&2
    exit 1
}

# Model check: every gating policy on small meshes under full runtime
# invariants (gating safety, conservation, idle-on budget, duty closure).
cargo run -q --release --offline -p nbti-noc-bench --bin model_check > /dev/null

# Protocol verification: the exhaustive explorer must close the 2x2/V=2
# state space at the default depth for every policy, reporting state
# counts and zero violations.
verifydir=$(mktemp -d)
./target/release/nbti-noc verify > "$verifydir/verify.log" 2>&1 || {
    cat "$verifydir/verify.log" >&2
    echo "ci: protocol verification failed" >&2
    exit 1
}
for p in baseline rr-no-sensor sensor-wise-no-traffic sensor-wise sensor-wise-k2; do
    grep -q "^$p: [0-9][0-9]* unique states, .*, exhausted$" "$verifydir/verify.log" || {
        cat "$verifydir/verify.log" >&2
        echo "ci: verify did not exhaust the state space for $p" >&2
        exit 1
    }
done

# Counterexample smoke: a planted protocol fault must fail the
# verification and emit a counterexample trace that the standard
# telemetry pipeline accepts.
if ./target/release/nbti-noc verify --policy sw --depth 6 \
    --inject-fault gate-occupied --counterexample-out "$verifydir/cx.jsonl" \
    > /dev/null 2>&1; then
    echo "ci: planted gate-occupied fault went undetected" >&2
    exit 1
fi
test -s "$verifydir/cx.jsonl" || { echo "ci: empty counterexample trace" >&2; exit 1; }
./target/release/nbti-noc stats --trace "$verifydir/cx.jsonl" \
    | grep -q "violation" || {
    echo "ci: counterexample trace lost the violation event" >&2
    exit 1
}
rm -rf "$verifydir"
verifydir=""

# Telemetry smoke: a traced run must produce a parseable event trace and a
# non-empty metrics series, and `stats` must re-derive a digest from it.
teldir=$(mktemp -d)
./target/release/nbti-noc run --cores 4 --vcs 2 --rate 0.1 --policy sw \
    --warmup 200 --measure 2000 \
    --trace-out "$teldir/events.jsonl" --metrics-out "$teldir/metrics.csv" \
    --sample-period 500 > /dev/null 2>&1
test -s "$teldir/events.jsonl" || { echo "ci: empty telemetry trace" >&2; exit 1; }
test -s "$teldir/metrics.csv" || { echo "ci: empty telemetry metrics" >&2; exit 1; }
./target/release/nbti-noc stats --trace "$teldir/events.jsonl" \
    | grep -q "digest: [0-9a-f]\{16\}" || {
    echo "ci: stats did not report a digest" >&2
    exit 1
}

# Profiler smoke: `run --profile` must print the per-stage latency table
# and a kcycles/s throughput summary. (Bit-identity of profiled runs is
# pinned by the noc-sim and sensorwise unit tests.)
./target/release/nbti-noc run --cores 4 --vcs 2 --rate 0.1 --policy sw \
    --warmup 200 --measure 2000 --profile > "$teldir/profile.log" 2>&1
for stage in inject begin_cycle routing allocation traversal controller finish_cycle monitor; do
    grep -q "^$stage " "$teldir/profile.log" || {
        cat "$teldir/profile.log" >&2
        echo "ci: run --profile missing stage $stage" >&2
        exit 1
    }
done
grep -q "^residual = wall - (inject + begin_cycle + routing + controller + allocation + traversal + finish_cycle + monitor)" \
    "$teldir/profile.log" || {
    cat "$teldir/profile.log" >&2
    echo "ci: run --profile printed no residual" >&2
    exit 1
}
grep -q "kcycles/s" "$teldir/profile.log" || {
    echo "ci: run --profile reported no throughput summary" >&2
    exit 1
}

# The paper's regime at full invariants: the canonical scenario under
# sensor-wise and under rr-no-sensor must report no violation and leave the
# unchecked run's trace digest. Under sensor-wise the full level re-decides
# every port the controller reuses. rr-no-sensor's default rotation period
# of 1 changes its decisions every cycle, so it reuses no port and its run
# checks only the full level's other checks and the digest; the settled
# oracle under rr-no-sensor (period 8) is a unit test in experiment.rs.
json_field() {
    grep -o "\"$1\":\"\{0,1\}[0-9a-f]*" | head -n 1 | sed 's/.*:"\{0,1\}//'
}
for p in sw rr; do
    canon="run --cores 16 --vcs 2 --rate 0.2 --warmup 1000 --measure 5000 --policy $p --json"
    # shellcheck disable=SC2086 # the words of one command line
    ./target/release/nbti-noc $canon > "$teldir/canon-$p.json" 2> /dev/null
    # shellcheck disable=SC2086
    ./target/release/nbti-noc $canon --invariants full \
        > "$teldir/canon-$p-full.json" 2> /dev/null || {
        echo "ci: canonical $p run at --invariants full failed" >&2
        exit 1
    }
    violations=$(json_field invariant_violations < "$teldir/canon-$p-full.json")
    plain=$(json_field trace_digest < "$teldir/canon-$p.json")
    checked=$(json_field trace_digest < "$teldir/canon-$p-full.json")
    [ "$violations" = 0 ] && [ -n "$plain" ] && [ "$plain" = "$checked" ] || {
        echo "ci: canonical $p at --invariants full: $violations violation(s)," \
            "digest '$checked' vs unchecked '$plain'" >&2
        exit 1
    }
done

# Engine equivalence at depth: the experiment engine reuses unchanged gate
# decisions and records duty per power-mask run, and must still match the
# every-port-every-cycle reference loop field for field. The suite above
# runs the property at the default 64 cases; here it runs 256 in release.
PROPTEST_CASES=256 cargo test -q --release --offline -p sensorwise --test engine_equivalence
# Arbitration at depth: mask rotation must equal the probe order for every
# arbiter shape up to five words of 32 VCs, any pointer and any requests.
PROPTEST_CASES=256 cargo test -q --release --offline -p noc-sim --test props \
    mask_grants_equal_the_probe_order
# The due schedule at depth: on random meshes, latencies and traffic, each
# cycle delivers exactly what a scan of every link FIFO finds due.
PROPTEST_CASES=256 cargo test -q --release --offline -p noc-sim --test props \
    due_schedule_delivers_what_a_scan_of_every_link_finds
# SA's ready word at depth: on random meshes, buffer depths, latencies,
# wake-ups, traffic and gate commands, every router input VC's `credited`
# bit equals the credit scan it replaced, after each half of every cycle.
PROPTEST_CASES=256 cargo test -q --release --offline -p noc-sim --test props \
    sa_ready_word_equals_the_credit_scan

# Workload smoke: generate a deterministic mix trace, verify every chunk
# checksum, then require the live-mix run and the trace replay to agree
# bit for bit on the telemetry digest.
wldir=$(mktemp -d)
./target/release/nbti-noc trace gen --out "$wldir/mix.nbtitrc" \
    --mix hotspot-server --nodes 16 --cycles 3000 --rate 0.15 --seed 7 > /dev/null
./target/release/nbti-noc trace verify --trace "$wldir/mix.nbtitrc" > /dev/null || {
    echo "ci: trace verify rejected a freshly generated trace" >&2
    exit 1
}
live=$(./target/release/nbti-noc run --cores 16 \
    --mix hotspot-server --rate 0.15 --seed 7 --warmup 0 --measure 3000 \
    --invariants full --digest 2>/dev/null | sed -n 's/^digest: //p')
replay=$(./target/release/nbti-noc run --cores 16 \
    --trace-in "$wldir/mix.nbtitrc" --warmup 0 --measure 3000 \
    --invariants full --digest 2>/dev/null | sed -n 's/^digest: //p')
[ -n "$live" ] && [ "$live" = "$replay" ] || {
    echo "ci: trace replay digest '$replay' != live mix '$live'" >&2
    exit 1
}
# A corrupted trace must be rejected with the typed checksum error.
cp "$wldir/mix.nbtitrc" "$wldir/bad.nbtitrc"
printf '\377' | dd of="$wldir/bad.nbtitrc" bs=1 seek=64 conv=notrunc 2>/dev/null
if ./target/release/nbti-noc trace verify --trace "$wldir/bad.nbtitrc" > /dev/null 2>&1; then
    echo "ci: corrupted trace passed verification" >&2
    exit 1
fi
rm -rf "$wldir"
wldir=""

# Service smoke: serve on an ephemeral port, drive it with the submitting
# client (which cross-checks every served digest against a local run),
# scrape the Prometheus exposition, then shut down over HTTP and verify
# the drain accounted for every job and dumped the span flight recorder.
# Each server's log exists before the server starts, so polling it for the
# address never races the shell's redirect.
servedir=$(mktemp -d)
: > "$servedir/serve.log"
./target/release/nbti-noc serve --addr 127.0.0.1:0 --workers 2 --queue-depth 4 \
    --spans-out "$servedir/spans.jsonl" > "$servedir/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$servedir/serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "ci: service never reported its address" >&2; exit 1; }
./target/release/nbti-noc submit --addr "$addr" --count 6 --concurrency 3 \
    --measure 3000 > "$servedir/submit.log" 2>&1 || {
    cat "$servedir/submit.log" >&2
    echo "ci: service smoke failed" >&2
    exit 1
}
grep -q "digest check: 6/6" "$servedir/submit.log" || {
    echo "ci: served digests did not match local runs" >&2
    exit 1
}

# Metrics smoke: /metrics must serve Prometheus text exposition whose
# counters agree with the six jobs the client just ran (and with /stats).
curl -sf "http://$addr/metrics" > "$servedir/metrics.txt" || {
    echo "ci: /metrics scrape failed" >&2
    exit 1
}
grep -q '^# TYPE noc_request_duration_us histogram$' "$servedir/metrics.txt" || {
    echo "ci: /metrics lost the request-latency histogram" >&2
    exit 1
}
grep -q '^noc_accepted_total 6$' "$servedir/metrics.txt" || {
    cat "$servedir/metrics.txt" >&2
    echo "ci: /metrics accepted counter != 6" >&2
    exit 1
}
grep -q '^noc_jobs{state="done"} 6$' "$servedir/metrics.txt" || {
    echo "ci: /metrics jobs-by-state gauge != 6 done" >&2
    exit 1
}
# `submit` waits for results through `GET /jobs/{id}/result?wait_ms=N`,
# so not one status request may reach the server.
grep -q '^noc_request_duration_us_count{endpoint="status"} 0$' "$servedir/metrics.txt" || {
    grep '^noc_request_duration_us_count' "$servedir/metrics.txt" >&2
    echo "ci: the submitting client polled job statuses instead of waiting" >&2
    exit 1
}
curl -sf "http://$addr/stats" | grep -q '"accepted":6' || {
    echo "ci: /stats disagrees with /metrics on accepted jobs" >&2
    exit 1
}

# Hostile-client smoke: 200 000 nested brackets, a spec whose network
# would need terabytes of buffers, one whose link would take 2^64 - 1
# cycles, one naming a torus (the mesh is the only fabric), one JSON
# string just under the 1 MiB body cap, an oversize head,
# raw garbage bytes and an upload slower than the 5 s request deadline.
# Each costs one handler at most that deadline; afterwards /stats answers
# and the shutdown line below still accounts for exactly the six jobs.
head -c 200000 /dev/zero | tr '\0' '[' > "$servedir/nested.json"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    --data-binary @"$servedir/nested.json" "http://$addr/jobs" || true)
[ "$code" = 400 ] || { echo "ci: 200 000 nested brackets got '$code', not 400" >&2; exit 1; }
huge='{"policy":"sensor-wise","noc":{"cols":2,"rows":2,"buffer_depth":1000000000000},"traffic":{"rate":0.1}}'
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary "$huge" \
    "http://$addr/jobs" || true)
[ "$code" = 400 ] || { echo "ci: an oversized network config got '$code', not 400" >&2; exit 1; }
endless='{"policy":"sensor-wise","noc":{"cols":2,"rows":2,"link_latency":18446744073709551615},"traffic":{"rate":0.1}}'
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary "$endless" \
    "http://$addr/jobs" || true)
[ "$code" = 400 ] || { echo "ci: an overflowing link latency got '$code', not 400" >&2; exit 1; }
torus='{"policy":"sensor-wise","noc":{"cols":2,"rows":2,"topology":"torus"},"traffic":{"rate":0.1}}'
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary "$torus" \
    "http://$addr/jobs" || true)
[ "$code" = 400 ] || { echo "ci: a torus spec got '$code', not 400" >&2; exit 1; }
{ printf '"'; head -c 1048000 /dev/zero | tr '\0' 'a'; printf '"'; } > "$servedir/string.json"
code=$(curl -s -o /dev/null -w '%{http_code}' --max-time 5 -X POST \
    --data-binary @"$servedir/string.json" "http://$addr/jobs" || true)
[ "$code" = 400 ] || { echo "ci: a 1 MiB JSON string got '$code' within 5 s, not 400" >&2; exit 1; }
pad=$(head -c 16384 /dev/zero | tr '\0' 'a')
code=$(curl -s -o /dev/null -w '%{http_code}' -H "X-Pad: $pad" "http://$addr/stats" || true)
[ "$code" = 400 ] || { echo "ci: an oversize head got '$code', not 400" >&2; exit 1; }
head -c 65536 /dev/urandom | curl -s --max-time 10 "telnet://$addr" > /dev/null 2>&1 || true
# 3 000 bytes at 200 B/s would take 15 s; the deadline cuts it at 5 s.
head -c 3000 /dev/zero | tr '\0' ' ' > "$servedir/slow.json"
slow_start=$(date +%s)
curl -s -o /dev/null --max-time 30 --limit-rate 200 -X POST \
    --data-binary @"$servedir/slow.json" "http://$addr/jobs" || true
slow_secs=$(( $(date +%s) - slow_start ))
[ "$slow_secs" -lt 12 ] || {
    echo "ci: a slow upload held its handler ${slow_secs} s, past the request deadline" >&2
    exit 1
}
curl -sf "http://$addr/stats" | grep -q '"accepted":6' || {
    echo "ci: /stats stopped answering or miscounted after the hostile clients" >&2
    exit 1
}

curl -sf -X POST "http://$addr/shutdown" > /dev/null || {
    echo "ci: HTTP shutdown failed" >&2
    exit 1
}
wait "$serve_pid" || { echo "ci: serve exited nonzero" >&2; exit 1; }
serve_pid=""
grep -q "accepted 6 | completed 6" "$servedir/serve.log" || {
    cat "$servedir/serve.log" >&2
    echo "ci: graceful shutdown did not drain all jobs" >&2
    exit 1
}

# Span smoke: the shutdown dump must parse and contain the full
# request -> job -> experiment chain.
test -s "$servedir/spans.jsonl" || { echo "ci: no span dump on shutdown" >&2; exit 1; }
./target/release/nbti-noc spans "$servedir/spans.jsonl" --json \
    | grep -q '"stage":"request/job/experiment"' || {
    echo "ci: span summary lost the request/job/experiment chain" >&2
    exit 1
}
rm -rf "$servedir"

# Campaign smoke: SIGKILL a 4-epoch lifetime campaign mid-flight, resume
# from its checkpoint, and require the final chained digest to match an
# uninterrupted run of the same spec bit for bit.
campdir=$(mktemp -d)
./target/release/nbti-noc campaign run --checkpoint "$campdir/straight.ckpt" \
    --epochs 4 --warmup 300 --measure 10000 > "$campdir/straight.log" 2>&1
straight=$(sed -n 's/^chained digest: //p' "$campdir/straight.log")
[ -n "$straight" ] || { echo "ci: campaign reported no chained digest" >&2; exit 1; }
./target/release/nbti-noc campaign run --checkpoint "$campdir/killed.ckpt" \
    --epochs 4 --warmup 300 --measure 10000 > "$campdir/killed.log" 2>&1 &
camp_pid=$!
for _ in $(seq 1 200); do
    [ -s "$campdir/killed.ckpt" ] && break
    sleep 0.02
done
kill -9 "$camp_pid" 2>/dev/null || true
wait "$camp_pid" 2>/dev/null || true
camp_pid=""
[ -s "$campdir/killed.ckpt" ] || { echo "ci: no checkpoint written before kill" >&2; exit 1; }
./target/release/nbti-noc campaign resume --checkpoint "$campdir/killed.ckpt" \
    > "$campdir/resumed.log" 2>&1 || {
    cat "$campdir/resumed.log" >&2
    echo "ci: campaign resume failed" >&2
    exit 1
}
resumed=$(sed -n 's/^chained digest: //p' "$campdir/resumed.log")
[ "$straight" = "$resumed" ] || {
    echo "ci: resumed campaign digest $resumed != uninterrupted $straight" >&2
    exit 1
}
rm -rf "$campdir"
campdir=""

# Distributed campaign smoke: two workers sharing a result store, a remote
# 4-epoch campaign, SIGKILL of one worker AND the front end mid-flight,
# then `campaign resume` against the survivor — the final chained digest
# must match a single-process run of the same spec bit for bit.
remotedir=$(mktemp -d)
./target/release/nbti-noc campaign run --checkpoint "$remotedir/local.ckpt" \
    --epochs 4 --warmup 300 --measure 20000 > "$remotedir/local.log" 2>&1
local_digest=$(sed -n 's/^chained digest: //p' "$remotedir/local.log")
[ -n "$local_digest" ] || { echo "ci: local reference campaign reported no digest" >&2; exit 1; }
: > "$remotedir/w1.log"
: > "$remotedir/w2.log"
./target/release/nbti-noc serve --addr 127.0.0.1:0 --workers 2 \
    --cache-dir "$remotedir/store" > "$remotedir/w1.log" 2>&1 &
rw1_pid=$!
./target/release/nbti-noc serve --addr 127.0.0.1:0 --workers 2 \
    --cache-dir "$remotedir/store" > "$remotedir/w2.log" 2>&1 &
rw2_pid=$!
rw1_addr=""; rw2_addr=""
for _ in $(seq 1 50); do
    rw1_addr=$(sed -n 's/^listening on //p' "$remotedir/w1.log")
    rw2_addr=$(sed -n 's/^listening on //p' "$remotedir/w2.log")
    [ -n "$rw1_addr" ] && [ -n "$rw2_addr" ] && break
    sleep 0.1
done
[ -n "$rw1_addr" ] && [ -n "$rw2_addr" ] || {
    echo "ci: remote-campaign workers never reported their addresses" >&2
    exit 1
}
./target/release/nbti-noc campaign run --checkpoint "$remotedir/remote.ckpt" \
    --epochs 4 --warmup 300 --measure 20000 \
    --store "$remotedir/store" --remote "$rw1_addr,$rw2_addr" --retries 3 \
    > "$remotedir/front.log" 2>&1 &
rfront_pid=$!
for _ in $(seq 1 200); do
    [ -s "$remotedir/remote.ckpt" ] && break
    sleep 0.02
done
[ -s "$remotedir/remote.ckpt" ] || {
    echo "ci: remote campaign wrote no checkpoint before the kill" >&2
    exit 1
}
kill -9 "$rw1_pid" "$rfront_pid" 2>/dev/null || true
wait "$rfront_pid" 2>/dev/null || true
rw1_pid=""; rfront_pid=""
./target/release/nbti-noc campaign resume --checkpoint "$remotedir/remote.ckpt" \
    --store "$remotedir/store" --remote "$rw2_addr" --retries 3 \
    > "$remotedir/resumed.log" 2>&1 || {
    cat "$remotedir/resumed.log" >&2
    echo "ci: remote campaign resume failed" >&2
    exit 1
}
remote_digest=$(sed -n 's/^chained digest: //p' "$remotedir/resumed.log")
[ "$local_digest" = "$remote_digest" ] || {
    echo "ci: remote campaign digest $remote_digest != local $local_digest" >&2
    exit 1
}
curl -sf -X POST "http://$rw2_addr/shutdown" > /dev/null || true
wait "$rw2_pid" 2>/dev/null || true
rw2_pid=""
rm -rf "$remotedir"
remotedir=""

# Bench trajectories: the serving and campaign benches must run clean and
# append to their BENCH_*.json files (small configurations — this gates
# the harnesses, not absolute numbers). The exit trap puts the committed
# BENCH files back.
cargo run -q --release --offline -p nbti-noc-bench --bin service_throughput -- \
    --count 8 --measure 1000 > /dev/null
cargo run -q --release --offline -p nbti-noc-bench --bin campaign_epochs -- \
    --epochs 4 --measure 1500 --warmup 300 > /dev/null
cargo run -q --release --offline -p nbti-noc-bench --bin campaign_remote -- \
    --epochs 4 --measure 1500 --warmup 300 > /dev/null
tail -n 2 BENCH_campaign.json | grep -q '"mode":"remote".*"dispatch_p50_us":' || {
    echo "ci: campaign_remote did not append a remote-mode entry" >&2
    exit 1
}
cargo run -q --release --offline -p nbti-noc-bench --bin verify_throughput -- \
    --symmetry-only > /dev/null
cargo run -q --release --offline -p nbti-noc-bench --bin analyze_throughput -- \
    --iters 3 > /dev/null
# The canonical scenario (4x4 mesh, 2 VCs, 1 000 + 20 000 cycles), timed
# untraced beside the profiled run.
cargo run -q --release --offline -p nbti-noc-bench --bin sim_throughput -- \
    --warmup 1000 --measure 20000 > /dev/null
tail -n 2 BENCH_sim.json | grep -q '"kcycles_per_sec_untraced":' || {
    echo "ci: sim_throughput did not append an untraced kcycles/s entry" >&2
    exit 1
}
cargo run -q --release --offline -p nbti-noc-bench --bin workload_throughput -- \
    --cycles 3000 > /dev/null
tail -n 2 BENCH_workload.json | grep -q '"trace_records_per_sec":' || {
    echo "ci: workload_throughput did not append a trace-records/s entry" >&2
    exit 1
}

echo "ci: all green"
