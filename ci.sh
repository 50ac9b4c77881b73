#!/usr/bin/env bash
# Full offline CI gate: everything here must pass with no network access.
# All dependencies are local path crates, so --offline is safe everywhere.
set -euo pipefail
cd "$(dirname "$0")"

# Best-effort sanitizer lane (docs/ANALYSIS.md): SYNCPERF_SANITIZE=1
# runs the concurrency-heavy crates under ThreadSanitizer when a
# nightly toolchain with -Zbuild-std is available, falling back to
# Miri, and skips cleanly when neither exists. Non-blocking by design:
# the workflow job that sets this is continue-on-error.
if [ "${SYNCPERF_SANITIZE:-0}" = "1" ]; then
  san_crates=(-p syncperf-omp -p syncperf-obs -p syncperf-sched)
  if rustup toolchain list 2>/dev/null | grep -q nightly \
      && rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)'; then
    echo "==> sanitizer lane: ThreadSanitizer (nightly)"
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test --offline -q \
      -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
      "${san_crates[@]}" || echo "tsan lane reported failures (non-blocking)"
  elif rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri (installed)'; then
    echo "==> sanitizer lane: Miri (nightly)"
    cargo +nightly miri test --offline -q "${san_crates[@]}" \
      || echo "miri lane reported failures (non-blocking)"
  else
    echo "==> sanitizer lane: no nightly tsan/miri toolchain available, skipping"
  fi
  exit 0
fi

# Polls a background service's log for its ready line(s) and echoes
# the captured values (e.g. bound addresses), one per line. Every
# smoke service below binds port 0 and prints where it landed, so
# concurrent lanes in one CI job can never collide on a port — the
# only thing worth waiting for is the ready line itself. An optional
# third argument waits for that many matches (a `--replicas N` fleet
# prints one ready line per replica).
wait_for_ready() { # wait_for_ready <logfile> <sed-capture-pattern> [count]
  local log="$1" pat="$2" want="${3:-1}" got="" n=0
  for _ in $(seq 1 150); do
    got=$(sed -n "$pat" "$log" 2>/dev/null | head -n "$want")
    n=$(printf '%s' "$got" | grep -c . || true)
    if [ "$n" -ge "$want" ]; then
      printf '%s' "$got"
      return 0
    fi
    sleep 0.2
  done
  return 1
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --release --offline --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace --release --offline -q

# Criterion smoke run (docs/PERFORMANCE.md): every benchmark body must
# still execute; SYNCPERF_BENCH_QUICK clamps the budgets so this takes
# seconds, not minutes. The numbers are not comparison-grade.
echo "==> criterion smoke benches"
SYNCPERF_BENCH_QUICK=1 cargo bench --offline -p syncperf-bench > /dev/null

# Tracked macro-benchmark (docs/PERFORMANCE.md): a cold
# `all_figures --jobs 2` must stay within 25% of the committed
# BENCH_syncperf.json number.
echo "==> bench_report --check"
cargo run --release --offline -p syncperf-bench --bin bench_report -- --check

# Tracked distributed benchmark (docs/DISTRIBUTED.md): cold
# `all_figures` with 3 worker processes must stay within 25% of the
# committed BENCH_dist.json number (and is re-measured against
# `--jobs 3` threads each run).
echo "==> syncperf_dist bench --check"
cargo run --release --offline -p syncperf-bench --bin syncperf_dist -- bench --check

# Static sync-lint + race-detector cross-check + bounded model checker
# over every registered kernel (docs/ANALYSIS.md). Exits nonzero on any
# non-allowlisted diagnostic or engine disagreement (static/dynamic,
# explorer/vector-clock, or simulator); the JSON report carries
# per-kernel exploration stats (states, branches, micros) and is
# uploaded as a CI artifact alongside the SARIF form.
echo "==> sync_lint all (both engines)"
mkdir -p results
cargo run --release --offline -p syncperf-bench --bin sync_lint -- \
  all --engine both --format json --out results/sync_lint_report.json
cargo run --release --offline -p syncperf-bench --bin sync_lint -- \
  all --engine both --format sarif --out results/sync_lint_report.sarif > /dev/null
echo "exploration stats:"
python3 - << 'PYEOF' || true
import json
d = json.load(open("results/sync_lint_report.json"))
ex = d["exploration"]
states = sum(e["states"] for e in ex)
micros = sum(e["micros"] for e in ex)
slowest = max(ex, key=lambda e: e["micros"])
print(f'  {len(ex)} bodies, {states} states, {micros/1000:.1f} ms total; '
      f'slowest {slowest["kernel"]} ({slowest["body"]}): {slowest["micros"]} us')
PYEOF

# Scheduler warm-cache gate (docs/SCHEDULER.md): regenerate every
# figure twice with 2 workers into a fresh results dir. The second run
# must be served almost entirely from the content-addressed cache —
# anything under 95% means job hashing went unstable.
echo "==> scheduler warm-cache gate"
rm -rf ci_sched_results
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin all_figures -- --jobs 2 --cache-stats results/cache_stats_cold.json > /dev/null
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin all_figures -- --jobs 2 --cache-stats results/cache_stats_warm.json > /dev/null
hit=$(sed -n 's/.*"hit_rate":\([0-9.]*\).*/\1/p' results/cache_stats_warm.json)
echo "warm-run cache hit rate: ${hit}"
awk -v h="$hit" 'BEGIN { exit (h >= 0.95) ? 0 : 1 }' || {
  echo "warm-cache hit rate ${hit} is below 0.95"; exit 1; }

# Observation budget gate (docs/OBSERVABILITY.md): a full observed
# regeneration on one worker must fit every event it records into that
# worker's ring. The engines cap their per-op events per run, so any
# drop means the budget or the event volume of a layer grew.
echo "==> observed pass drops no events"
rm -rf ci_observed_results
SYNCPERF_RESULTS=ci_observed_results cargo run --release --offline -p syncperf-bench \
  --bin all_figures -- --jobs 1 --no-cache --metrics results/metrics_observed.prom > /dev/null
grep -qx 'events_dropped_total 0' results/metrics_observed.prom || {
  echo "observed pass dropped events:"; grep '^events_dropped' results/metrics_observed.prom; exit 1; }
rm -rf ci_observed_results

# The same gate over the sensitivity grid: hundreds of perturbed-model
# jobs whose hashes fold in each perturbed model's digest. A warm
# second run under 95% means model-digest hashing went unstable.
echo "==> sensitivity warm-cache gate"
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin sensitivity_analysis -- --jobs 2 \
  --cache-stats results/cache_stats_sensitivity_cold.json > /dev/null
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin sensitivity_analysis -- --jobs 2 \
  --cache-stats results/cache_stats_sensitivity_warm.json > /dev/null
sens_hit=$(sed -n 's/.*"hit_rate":\([0-9.]*\).*/\1/p' results/cache_stats_sensitivity_warm.json)
echo "sensitivity warm-run cache hit rate: ${sens_hit}"
awk -v h="$sens_hit" 'BEGIN { exit (h >= 0.95) ? 0 : 1 }' || {
  echo "sensitivity warm-cache hit rate ${sens_hit} is below 0.95"; exit 1; }

# The same gate over the artifact `launch` sweeps (ROADMAP: warm-cache
# gate breadth), run against the batched plan-table path: the cold run
# takes no --cache-stats, so no global recorder is installed and the
# scheduler batch-primes every same-shape sweep group (observed runs
# fall back to the interpreter). The warm run must then be >=95% cache
# hits — proving the batched path produced and keyed the exact entries
# the plain path would have.
echo "==> launch warm-cache gate (batched cold pass)"
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin launch -- omp_barrier cuda_shfl --yes --jobs 2 > /dev/null
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin launch -- omp_barrier cuda_shfl --yes --jobs 2 \
  --cache-stats results/cache_stats_launch_warm.json > /dev/null
launch_hit=$(sed -n 's/.*"hit_rate":\([0-9.]*\).*/\1/p' results/cache_stats_launch_warm.json)
echo "launch warm-run cache hit rate: ${launch_hit}"
awk -v h="$launch_hit" 'BEGIN { exit (h >= 0.95) ? 0 : 1 }' || {
  echo "launch warm-cache hit rate ${launch_hit} is below 0.95"; exit 1; }

# Serve smoke test (docs/SERVING.md): launch the query service over
# the warm cache the gates above just filled, hit every read endpoint
# plus a 404, prove the answers came from the cache without any
# recomputation (serve.cache_hits > 0, serve.computes == 0), and shut
# down gracefully over the wire.
echo "==> serve smoke test"
rm -f serve_out.log
SYNCPERF_RESULTS=ci_sched_results cargo run --release --offline -p syncperf-bench \
  --bin serve -- --addr 127.0.0.1:0 --workers 2 --jobs 1 > serve_out.log &
serve_pid=$!
addr=$(wait_for_ready serve_out.log 's#^listening on http://##p') \
  || { echo "serve did not come up"; cat serve_out.log; kill "$serve_pid" 2>/dev/null; exit 1; }
echo "serve is up on ${addr}"

curl -fsS "http://${addr}/healthz" > /dev/null
query=$(curl -fsS "http://${addr}/query?kernel=omp_barrier&threads=8")
hash=$(printf '%s' "$query" | sed -n 's/.*"hash": "\([0-9a-f]\{16\}\)".*/\1/p' | head -n 1)
[ -n "$hash" ] || { echo "/query returned no hash: ${query}"; kill "$serve_pid" 2>/dev/null; exit 1; }
curl -fsS "http://${addr}/job/${hash}" > /dev/null
curl -fsS "http://${addr}/figure/fig01" | head -n 1 > /dev/null
curl -fsS "http://${addr}/figure/fig01.svg" > /dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' "http://${addr}/job/0000000000000000")
[ "$code" = "404" ] || { echo "expected 404 for an unknown job, got ${code}"; kill "$serve_pid" 2>/dev/null; exit 1; }

stats=$(curl -fsS "http://${addr}/stats")
echo "serve stats: ${stats}"
serve_hits=$(printf '%s' "$stats" | sed -n 's/.*"cache_hits": \([0-9]*\).*/\1/p' | head -n 1)
serve_computes=$(printf '%s' "$stats" | sed -n 's/.*"computes": \([0-9]*\).*/\1/p' | head -n 1)
[ "${serve_hits:-0}" -ge 2 ] || { echo "serve answered without cache hits"; kill "$serve_pid" 2>/dev/null; exit 1; }
[ "${serve_computes:-1}" -eq 0 ] || { echo "serve recomputed a warm entry"; kill "$serve_pid" 2>/dev/null; exit 1; }

# Telemetry plane (docs/OBSERVABILITY.md): scrape /metrics, assert the
# exposition is well-formed with nonzero request counters, tail the
# flight recorder, and keep both as workflow artifacts.
curl -fsS "http://${addr}/metrics" > results/serve_metrics.prom
grep -q '^# TYPE serve_requests counter$' results/serve_metrics.prom || {
  echo "exposition is missing its TYPE lines"; kill "$serve_pid" 2>/dev/null; exit 1; }
grep -q '^# TYPE serve_latency_us histogram$' results/serve_metrics.prom || {
  echo "exposition is missing the latency histogram"; kill "$serve_pid" 2>/dev/null; exit 1; }
grep -q 'serve_latency_us_bucket{le="+Inf"}' results/serve_metrics.prom || {
  echo "exposition is missing the +Inf bucket"; kill "$serve_pid" 2>/dev/null; exit 1; }
metrics_requests=$(sed -n 's/^serve_requests \([0-9]*\)$/\1/p' results/serve_metrics.prom)
[ "${metrics_requests:-0}" -ge 1 ] || {
  echo "serve_requests counter is zero in /metrics"; kill "$serve_pid" 2>/dev/null; exit 1; }
awk '!/^#/ && NF { if ($NF !~ /^[0-9.]+$/) { print "bad sample line: " $0; exit 1 } }' \
  results/serve_metrics.prom || { kill "$serve_pid" 2>/dev/null; exit 1; }
curl -fsS "http://${addr}/events?n=50" > results/serve_events_tail.jsonl
grep -q '"cat":"http"' results/serve_events_tail.jsonl || {
  echo "flight recorder did not record the requests"; kill "$serve_pid" 2>/dev/null; exit 1; }
echo "telemetry snapshot: results/serve_metrics.prom ($(wc -l < results/serve_metrics.prom) lines), flight tail: $(wc -l < results/serve_events_tail.jsonl) events"

curl -fsS -X POST "http://${addr}/shutdown" > /dev/null
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "serve did not shut down gracefully"; kill -9 "$serve_pid"; exit 1
fi
wait "$serve_pid" || { echo "serve exited nonzero"; exit 1; }
grep -q "shut down cleanly" serve_out.log || { echo "serve missed its clean-exit line"; exit 1; }
rm -f serve_out.log
rm -rf ci_sched_results

# Serving load lane (docs/SERVING.md): a real two-replica fleet over
# one shared cache, warmed over HTTP by the harness, then driven by
# `syncperf_load bench --quick --check` and gated against the
# committed BENCH_serve.json baseline. The measured load report and
# the replicas' SIGTERM flight-recorder dumps become workflow
# artifacts.
echo "==> serve load lane (replica pair + syncperf_load --check)"
rm -rf ci_load_results load_serve_out.log
mkdir -p ci_load_results
SYNCPERF_RESULTS=ci_load_results cargo run --release --offline -p syncperf-bench \
  --bin serve -- --addr 127.0.0.1:0 --workers 2 --jobs 2 --replicas 2 > load_serve_out.log &
load_pid=$!
addrs=$(wait_for_ready load_serve_out.log 's#^listening on http://##p' 2) \
  || { echo "replica fleet did not come up"; cat load_serve_out.log; kill "$load_pid" 2>/dev/null; exit 1; }
echo "replica fleet is up on: $(printf '%s' "$addrs" | tr '\n' ' ')"
target_flags=()
while IFS= read -r a; do target_flags+=(--target "$a"); done <<< "$addrs"
cargo run --release --offline -p syncperf-bench --bin syncperf_load -- \
  bench --quick --check "${target_flags[@]}" --report results/load_report.json \
  || { echo "load gate failed"; kill "$load_pid" 2>/dev/null; exit 1; }
kill -TERM "$load_pid"
for _ in $(seq 1 100); do
  kill -0 "$load_pid" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$load_pid" 2>/dev/null; then
  echo "replica fleet did not shut down on SIGTERM"; kill -9 "$load_pid"; exit 1
fi
wait "$load_pid" || { echo "replica supervisor exited nonzero"; cat load_serve_out.log; exit 1; }
grep -q "replica fleet shut down cleanly" load_serve_out.log \
  || { echo "supervisor missed its clean-exit line"; cat load_serve_out.log; exit 1; }
# Each replica dumps its flight recorder on SIGTERM; keep the dumps
# (and the load report above) as workflow artifacts.
cp ci_load_results/flightrec-*.jsonl results/ 2>/dev/null \
  || echo "note: no flight-recorder dumps found"
echo "load lane artifacts: results/load_report.json + $(ls results/flightrec-*.jsonl 2>/dev/null | wc -l) flight dump(s)"
rm -f load_serve_out.log
rm -rf ci_load_results

# Distributed execution lane (docs/DISTRIBUTED.md): a cold 3-worker
# run and a cold run with one worker SIGKILLed mid-sweep must both
# produce byte-identical figures to a serial `--jobs 3` run. The
# cache trees are excluded from the diff (same entries, but the
# kill can orphan an in-flight store); everything the figures are
# built from must match to the byte.
echo "==> distributed execution lane"
rm -rf ci_dist_serial ci_dist_workers ci_dist_chaos dist_out.log dist_chaos_out.log
SYNCPERF_RESULTS=ci_dist_serial cargo run --release --offline -p syncperf-bench \
  --bin all_figures -- --jobs 3 > /dev/null
SYNCPERF_RESULTS=ci_dist_workers cargo run --release --offline -p syncperf-bench \
  --bin syncperf_dist -- all_figures --workers 3 \
  --cache-stats results/cache_stats_dist.json > dist_out.log
grep '^dist:' dist_out.log || { echo "coordinator summary line missing"; cat dist_out.log; exit 1; }
diff -r -x .cache ci_dist_serial ci_dist_workers \
  || { echo "3-worker output diverged from serial"; exit 1; }
dist_workers=$(sed -n 's/.*"dist_workers":\([0-9]*\).*/\1/p' results/cache_stats_dist.json)
[ "${dist_workers:-0}" -eq 3 ] || { echo "cache-stats did not record the fleet"; exit 1; }

echo "==> distributed chaos lane (kill one worker mid-sweep)"
SYNCPERF_RESULTS=ci_dist_chaos cargo run --release --offline -p syncperf-bench \
  --bin syncperf_dist -- all_figures --workers 3 --chaos-kill-one 25 \
  --cache-stats results/cache_stats_dist_chaos.json > dist_chaos_out.log
grep '^dist:' dist_chaos_out.log || { echo "chaos summary line missing"; cat dist_chaos_out.log; exit 1; }
diff -r -x .cache ci_dist_serial ci_dist_chaos \
  || { echo "chaos output diverged from serial"; exit 1; }
deaths=$(sed -n 's/.*"dist_worker_deaths":\([0-9]*\).*/\1/p' results/cache_stats_dist_chaos.json)
[ "${deaths:-0}" -ge 1 ] || { echo "chaos hook did not kill a worker"; exit 1; }
echo "chaos run converged with ${deaths} worker death(s)"
rm -f dist_out.log dist_chaos_out.log
rm -rf ci_dist_serial ci_dist_workers ci_dist_chaos

echo "CI green"
