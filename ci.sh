#!/usr/bin/env bash
# Hermetic CI gate for the carbon-electronics workspace.
#
# Everything runs with --offline: the workspace has no external registry
# dependencies (the in-tree carbon-runtime crate supplies the PRNG,
# property-test, and bench substrates), so a bare checkout must build
# and test with no network at all. Any step that tries to reach a
# registry is itself a regression.
set -euo pipefail
cd "$(dirname "$0")"

run() {
  echo "==> $*"
  "$@"
}

run cargo fmt --all -- --check
# One lint pass covers every crate and target in the workspace.
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo build --workspace --release --offline
run cargo test --workspace -q --offline
# The float writer's 10^7-pattern sweep against `{:?}` (Tier-1 runs
# 10^6 of them in debug); release keeps it to seconds.
run cargo test --release -q --offline -p carbon-json -- --ignored
# Bench targets in run-once smoke mode: keeps the three harness=false
# binaries compiling and their workloads alive without paying
# measurement cost.
run cargo bench --offline -- --test

# Trace smoke: the instrumentation layer must (a) leave report output
# byte-identical when enabled at any thread count, and (b) emit JSONL
# that trace-summary can aggregate.
run cargo build --offline --release -p carbon-bench --bin carbon-bench
bench_bin=target/release/carbon-bench
trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT
echo "==> trace smoke: fig2 byte-identity + trace-summary"
CARBON_THREADS=1 "$bench_bin" fig2 > "$trace_dir/untraced.txt"
for t in 1 2 4 8; do
  CARBON_THREADS=$t CARBON_TRACE="$trace_dir/fig2-$t.jsonl" \
    "$bench_bin" fig2 > "$trace_dir/traced-$t.txt"
  diff "$trace_dir/untraced.txt" "$trace_dir/traced-$t.txt" \
    || { echo "fig2 report changed under CARBON_TRACE (threads=$t)"; exit 1; }
  [[ -s "$trace_dir/fig2-$t.jsonl" ]] \
    || { echo "no trace written at threads=$t"; exit 1; }
  "$bench_bin" trace-summary "$trace_dir/fig2-$t.jsonl" > "$trace_dir/summary-$t.jsonl"
  grep -q '"id":"trace/spice.newton_solve/dur_ns"' "$trace_dir/summary-$t.jsonl" \
    || { echo "trace summary missing newton spans (threads=$t)"; exit 1; }
done

# AC smoke: the parallel sparse AC sweep must be byte-identical to the
# single-threaded run at every thread count, traced or not, and its
# trace must aggregate through trace-summary like the DC spans do.
echo "==> AC smoke: ac_sweep_par byte-identity + trace-summary"
CARBON_THREADS=1 "$bench_bin" ac > "$trace_dir/ac-untraced.txt"
for t in 1 2 4 8; do
  CARBON_THREADS=$t CARBON_TRACE="$trace_dir/ac-$t.jsonl" \
    "$bench_bin" ac > "$trace_dir/ac-traced-$t.txt"
  diff "$trace_dir/ac-untraced.txt" "$trace_dir/ac-traced-$t.txt" \
    || { echo "ac report changed under CARBON_TRACE (threads=$t)"; exit 1; }
  [[ -s "$trace_dir/ac-$t.jsonl" ]] \
    || { echo "no AC trace written at threads=$t"; exit 1; }
  "$bench_bin" trace-summary "$trace_dir/ac-$t.jsonl" > "$trace_dir/ac-summary-$t.jsonl"
  grep -q '"id":"trace/spice.ac_sweep_par/dur_ns"' "$trace_dir/ac-summary-$t.jsonl" \
    || { echo "trace summary missing ac_sweep_par span (threads=$t)"; exit 1; }
done

# Convergence baseline gate: fold fig2/fig7 traces (at pinned
# CARBON_THREADS=2) into their integer rows — Newton iterations,
# repivots, sweep shapes, campaign sizes — and diff against the
# committed baselines at threshold 0. The rows are deterministic, so
# ANY growth (a convergence regression, an extra repivot) fails; the
# load-dependent /dur_ns rows are filtered out. Regenerate after an
# intentional solver change with:
#   CARBON_THREADS=2 CARBON_TRACE=/tmp/t.jsonl target/release/carbon-bench fig2 > /dev/null
#   target/release/carbon-bench trace-summary /tmp/t.jsonl | grep -v '/dur_ns' \
#     > benches/baseline/fig2-trace.jsonl              # likewise for fig7
echo "==> convergence baseline gate: fig2 + fig7 integer trace rows (threads=2)"
for fig in fig2 fig7; do
  CARBON_THREADS=2 CARBON_TRACE="$trace_dir/$fig-conv.jsonl" \
    "$bench_bin" "$fig" > /dev/null
  "$bench_bin" trace-summary "$trace_dir/$fig-conv.jsonl" | grep -v '/dur_ns' \
    > "$trace_dir/$fig-conv-summary.jsonl"
  "$bench_bin" compare "benches/baseline/$fig-trace.jsonl" \
    "$trace_dir/$fig-conv-summary.jsonl" --threshold 0 \
    || { echo "$fig convergence counters regressed against benches/baseline/$fig-trace.jsonl"; exit 1; }
done

# Transient smoke: both stepping methods must produce byte-identical
# digests (over every time point and voltage bit) at every thread
# count, traced or not, and the transient span must aggregate through
# trace-summary. The adaptive row on the stiff ramp deck doubles as the
# speedup evidence: its step count is ~2 orders below the fixed grid's.
echo "==> transient smoke: fixed/adaptive digest byte-identity + trace-summary"
CARBON_THREADS=1 "$bench_bin" tran > "$trace_dir/tran-untraced.txt"
grep -q 'deck=tran_ramp method=adaptive' "$trace_dir/tran-untraced.txt" \
  || { echo "tran report missing the adaptive ramp row"; exit 1; }
for t in 1 2 4 8; do
  CARBON_THREADS=$t CARBON_TRACE="$trace_dir/tran-$t.jsonl" \
    "$bench_bin" tran > "$trace_dir/tran-traced-$t.txt"
  diff "$trace_dir/tran-untraced.txt" "$trace_dir/tran-traced-$t.txt" \
    || { echo "tran digests changed under CARBON_TRACE (threads=$t)"; exit 1; }
  [[ -s "$trace_dir/tran-$t.jsonl" ]] \
    || { echo "no transient trace written at threads=$t"; exit 1; }
  "$bench_bin" trace-summary "$trace_dir/tran-$t.jsonl" > "$trace_dir/tran-summary-$t.jsonl"
  grep -q '"id":"trace/spice.transient/dur_ns"' "$trace_dir/tran-summary-$t.jsonl" \
    || { echo "trace summary missing spice.transient spans (threads=$t)"; exit 1; }
done

# Batch smoke: every SoA device kernel must be bit-identical to its
# scalar entry point (the subcommand asserts this per lane), and the
# full report — model digests plus a fixed 4096-device Monte-Carlo
# population digest — must be byte-identical at every thread count.
# The population row is the par_mc determinism gate: its four
# MC_CHUNK chunks draw from per-chunk RNG streams, so thread count must
# not move it.
echo "==> batch smoke: SoA kernel + par_mc population byte-identity"
for t in 1 2 4 8; do
  CARBON_THREADS=$t "$bench_bin" batch > "$trace_dir/batch-$t.txt" \
    || { echo "batch smoke failed at threads=$t"; exit 1; }
done
for t in 2 4 8; do
  diff "$trace_dir/batch-1.txt" "$trace_dir/batch-$t.txt" \
    || { echo "batch report drifted at threads=$t"; exit 1; }
done

# Serve smoke: the job service must sustain a mixed load over 8
# concurrent connections with zero protocol or validation errors, keep its
# response bodies byte-identical at every CARBON_THREADS (the digest
# covers every ok response, id-sorted), surface a saturated queue as
# structured busy responses (not errors, not stalls), and emit
# serve.request spans that trace-summary can aggregate.
echo "==> serve smoke: mixed load digest byte-identity across thread counts"
ref_digest=""
for t in 1 2 4 8; do
  CARBON_THREADS=$t "$bench_bin" serve-load \
    --connections 8 --jobs 1000 --queue-depth 1024 --digest \
    > "$trace_dir/serve-$t.txt" 2> "$trace_dir/serve-$t.log" \
    || { echo "serve-load failed at threads=$t"; cat "$trace_dir/serve-$t.log"; exit 1; }
  digest=$(grep '^digest=' "$trace_dir/serve-$t.txt")
  [[ -n "$digest" ]] || { echo "serve-load printed no digest (threads=$t)"; exit 1; }
  if [[ -z "$ref_digest" ]]; then
    ref_digest="$digest"
  elif [[ "$digest" != "$ref_digest" ]]; then
    echo "serve responses drifted at threads=$t: $digest vs $ref_digest"
    exit 1
  fi
done
echo "==> serve smoke: saturated queue answers busy, run still clean"
CARBON_THREADS=2 "$bench_bin" serve-load \
  --connections 8 --jobs 200 --workers 1 --queue-depth 1 \
  > /dev/null 2> "$trace_dir/serve-busy.log" \
  || { echo "serve-load under saturation failed"; cat "$trace_dir/serve-busy.log"; exit 1; }
busy_count=$(grep -o 'busy [0-9]*' "$trace_dir/serve-busy.log" | head -1 | cut -d' ' -f2)
[[ "${busy_count:-0}" -gt 0 ]] \
  || { echo "tight queue produced no busy responses"; cat "$trace_dir/serve-busy.log"; exit 1; }
echo "==> serve smoke: serve.request spans aggregate through trace-summary"
CARBON_THREADS=2 CARBON_TRACE="$trace_dir/serve-trace.jsonl" "$bench_bin" serve-load \
  --connections 4 --jobs 100 --queue-depth 128 \
  > "$trace_dir/serve-rows.jsonl" 2> /dev/null \
  || { echo "traced serve-load failed"; exit 1; }
"$bench_bin" trace-summary "$trace_dir/serve-trace.jsonl" > "$trace_dir/serve-summary.jsonl"
grep -q '"id":"trace/serve.request/dur_ns"' "$trace_dir/serve-summary.jsonl" \
  || { echo "trace summary missing serve.request spans"; exit 1; }
grep -q '"id":"trace/counter/serve.accepted"' "$trace_dir/serve-summary.jsonl" \
  || { echo "trace summary missing serve.accepted counter"; exit 1; }
grep -q '"id":"trace/gauge/serve.queue_depth"' "$trace_dir/serve-summary.jsonl" \
  || { echo "trace summary missing serve.queue_depth gauge"; exit 1; }

# Metrics smoke: the same traced run's compare-JSONL rows carry the
# server's own `stats` snapshot. Gate on server-side health: every job
# accepted, none timed out, one warmup ping per connection, and every
# accepted request classified exactly once by the response cache —
# misses fill the per-kind solve-latency and queue-wait histograms,
# hits the dedicated `serve.cache.hit_latency_ns` histogram, and the
# two partitions sum back to `accepted`.
echo "==> metrics smoke: stats snapshot accounts for every job"
row_val() {
  grep "\"id\":\"$1\"" "${2:-$trace_dir/serve-rows.jsonl}" | head -1 \
    | sed 's/.*"median_ns":\([0-9]*\).*/\1/'
}
accepted=$(row_val 'serve/stats/serve.accepted')
timed_out=$(row_val 'serve/stats/serve.timed_out')
pings=$(row_val 'serve/stats/serve.ping')
hits=$(row_val 'serve/stats/serve.cache.hit')
misses=$(row_val 'serve/stats/serve.cache.miss')
[[ "${accepted:-0}" -eq 100 ]] \
  || { echo "stats snapshot: expected 100 accepted, got '${accepted:-}'"; exit 1; }
[[ "${timed_out:-1}" -eq 0 ]] \
  || { echo "stats snapshot: ${timed_out:-?} job(s) timed out"; exit 1; }
[[ "${pings:-0}" -eq 4 ]] \
  || { echo "stats snapshot: expected 4 warmup pings, got '${pings:-}'"; exit 1; }
[[ $(( ${hits:-0} + ${misses:-0} )) -eq "${accepted:-0}" ]] \
  || { echo "cache classification broke: hits=${hits:-?} + misses=${misses:-?} != accepted=${accepted:-?}"; exit 1; }
lat_total=$(grep '"id":"serve/stats/serve\.latency_ns\.[a-z0-9_]*/count"' \
    "$trace_dir/serve-rows.jsonl" \
  | sed 's/.*"median_ns":\([0-9]*\).*/\1/' | awk '{s+=$1} END {print s+0}')
[[ "$lat_total" -eq "${misses:-0}" ]] \
  || { echo "solve-latency histogram totals ($lat_total) != cache misses (${misses:-?})"; exit 1; }
# Hits and coalesced waiters are answered on their connection threads:
# only misses ever wait in the queue for a worker.
wait_total=$(grep '"id":"serve/stats/serve\.queue_wait_ns\.[a-z0-9_]*/count"' \
    "$trace_dir/serve-rows.jsonl" \
  | sed 's/.*"median_ns":\([0-9]*\).*/\1/' | awk '{s+=$1} END {print s+0}')
[[ "$wait_total" -eq "${misses:-0}" ]] \
  || { echo "queue-wait histogram totals ($wait_total) != cache misses (${misses:-?})"; exit 1; }
hit_hist=$(row_val 'serve/stats/serve.cache.hit_latency_ns/count')
[[ "${hit_hist:-0}" -eq "${hits:-0}" ]] \
  || { echo "hit-latency histogram count (${hit_hist:-?}) != cache hits (${hits:-?})"; exit 1; }

# Cache smoke: the same 200-job mixed deck set twice over one server.
# Pass two replays exactly the keys pass one inserted, so its hit rate
# must be near-total and both passes' response digests byte-identical —
# the cache may only ever change latency, never bytes. The cache rows
# are also diffed against a committed baseline at threshold 0: the
# workload is deterministic and single-flight guarantees exactly one
# solve per distinct key, so the lifetime hit/miss split is exact and
# ANY drift (key canonicalisation change, a second solve slipping past
# the flight map) fails. Regenerate after an intentional workload or
# key-schema change with:
#   CARBON_THREADS=2 target/release/carbon-bench serve-load \
#     --connections 4 --jobs 200 --passes 2 --queue-depth 1024 --digest \
#     2>/dev/null | grep '"id":"serve/cache_' > benches/baseline/serve-cache.jsonl
echo "==> cache smoke: warm pass all-hit, digests identical, accounting exact"
CARBON_THREADS=2 "$bench_bin" serve-load \
  --connections 4 --jobs 200 --passes 2 --queue-depth 1024 --digest \
  > "$trace_dir/cache-rows.jsonl" 2> "$trace_dir/cache-smoke.log" \
  || { echo "cache smoke serve-load failed"; cat "$trace_dir/cache-smoke.log"; exit 1; }
pass0=$(grep '^pass0_digest=' "$trace_dir/cache-rows.jsonl" | cut -d= -f2)
pass1=$(grep '^pass1_digest=' "$trace_dir/cache-rows.jsonl" | cut -d= -f2)
[[ -n "$pass0" && "$pass0" == "$pass1" ]] \
  || { echo "cache smoke: pass digests differ ('$pass0' vs '$pass1')"; exit 1; }
hit_rate=$(row_val 'serve/cache_hit_rate' "$trace_dir/cache-rows.jsonl")
[[ "${hit_rate:-0}" -gt 900 ]] \
  || { echo "cache smoke: second-pass hit rate ${hit_rate:-0} per-mille, want > 900"; exit 1; }
hits=$(row_val 'serve/cache_hits' "$trace_dir/cache-rows.jsonl")
misses=$(row_val 'serve/cache_misses' "$trace_dir/cache-rows.jsonl")
accepted=$(row_val 'serve/stats/serve.accepted' "$trace_dir/cache-rows.jsonl")
[[ "${accepted:-0}" -eq 400 && $(( ${hits:-0} + ${misses:-0} )) -eq "${accepted:-0}" ]] \
  || { echo "cache smoke: accounting broke (hits=${hits:-?} misses=${misses:-?} accepted=${accepted:-?})"; exit 1; }
grep '"id":"serve/cache_' "$trace_dir/cache-rows.jsonl" > "$trace_dir/cache-compare.jsonl"
"$bench_bin" compare "benches/baseline/serve-cache.jsonl" \
  "$trace_dir/cache-compare.jsonl" --threshold 0 \
  || { echo "serve cache rows drifted against benches/baseline/serve-cache.jsonl"; exit 1; }

# Econ smoke: the wafer-economics subsystem must produce the pinned
# 512-cell campaign row (the digest covers every cell's exact bit
# patterns) at every CARBON_THREADS, serve a repeated econ_campaign
# entirely from the response cache, and trace its evaluation under one
# econ.campaign span. The pinned row changes only with an intentional
# change to the econ model.
echo "==> econ smoke: campaign digest byte-identity across thread counts"
for t in 1 2 4 8; do
  CARBON_THREADS=$t "$bench_bin" econ > "$trace_dir/econ-$t.txt" \
    || { echo "econ smoke failed at threads=$t"; exit 1; }
done
econ_pin='econ cells=512 viable=259 best_index=13 digest=c427f8055427d8fa'
grep -qxF "$econ_pin" "$trace_dir/econ-1.txt" \
  || { echo "econ report lost the pinned 512-cell row: $econ_pin"; exit 1; }
grep -q '^econ cache second_pass_hit_rate_permille=1000$' "$trace_dir/econ-1.txt" \
  || { echo "repeated econ_campaign was not served entirely from cache"; exit 1; }
for t in 2 4 8; do
  diff "$trace_dir/econ-1.txt" "$trace_dir/econ-$t.txt" \
    || { echo "econ report drifted at threads=$t"; exit 1; }
done
echo "==> econ smoke: campaign evaluation is traced"
CARBON_THREADS=2 CARBON_TRACE="$trace_dir/econ-trace.jsonl" \
  "$bench_bin" econ > /dev/null \
  || { echo "traced econ run failed"; exit 1; }
"$bench_bin" trace-summary "$trace_dir/econ-trace.jsonl" > "$trace_dir/econ-summary.jsonl"
grep -q '"id":"trace/econ.campaign/dur_ns"' "$trace_dir/econ-summary.jsonl" \
  || { echo "trace summary missing econ.campaign spans"; exit 1; }

# Opt-in benchmark regression gate: measure the solver, transient,
# device-batch, econ, and json groups for real and diff them against the
# committed baselines, failing on >10 % median regressions. Off by
# default — timings are only meaningful on a quiet machine. Regenerate
# a baseline with:
#   cargo bench --offline -p carbon-bench --bench <group>
#   cp target/carbon-bench/<group>.jsonl benches/baseline/<group>.jsonl
if [[ "${CARBON_BENCH_COMPARE:-0}" == "1" ]]; then
  for group in solver tran device_batch econ json; do
    run cargo bench --offline -p carbon-bench --bench "$group"
    run cargo run --offline --release -p carbon-bench --bin carbon-bench -- \
      compare "benches/baseline/$group.jsonl" "target/carbon-bench/$group.jsonl"
  done
fi

echo "CI OK"
