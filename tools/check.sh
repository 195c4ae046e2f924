#!/usr/bin/env bash
# Full verification flow: the tier-1 gate (which includes the tier1_resume
# kill-and-resume determinism matrix, the tier1_net HTTP loopback suite and
# the tier1_chaos fault-injection suite), ten repeats of the chaos suite
# (ctest -L chaos --repeat until-fail:10), an end-to-end HTTP smoke (demo
# server + curl + graceful SIGTERM), the whole tier-1 gate under
# ThreadSanitizer (ctest -L tier1, the tsan test preset's filter) followed
# by ten repeats of the async-responder and shutdown tests
# (ctest -R "Responder|HandlerThread|PipelinedScores|ShutdownWaits|AcceptedDuringShutdown|OverloadAnswers"),
# and the whole tier-1 gate under AddressSanitizer + UBSan (ctest -L tier1,
# the asan test preset's filter).
# Every mode first checks tools/ab.py's statistics and gate on synthetic
# runs (tools/ab_test.py, under a second). Every mode but --fast also
# builds the perfbench/ benchmark binary and its unit tests against this
# tree's library (build-perfbench/) and runs the tests, so a library change
# that breaks the benchmark fails here. --bench then runs tools/ab.py BASE
# (default HEAD): 10 alternating pairs of perfbench runs of BASE and the
# working tree per workload, failing on a "worse" verdict or on a
# cpu_us_per_request, latency_p50_ms or peak_rss_mb regression by the
# mirrored gain rule (see tools/ab.py). That takes about 25 minutes on 4
# hardware threads, the two perfbench builds included.
#
#   tools/check.sh                 # tier-1 + perfbench + tsan tier-1 + asan tier-1
#   tools/check.sh --fast          # tier-1 + chaos repeats only
#   tools/check.sh --bench [BASE]  # tier-1 + perfbench + paired benchmark gate against BASE
#
# Run from anywhere; paths resolve relative to the repo root.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

fast=0
bench=0
if [[ "${1:-}" == "--fast" ]]; then
  fast=1
elif [[ "${1:-}" == "--bench" ]]; then
  bench=1
  bench_base="${2:-HEAD}"
fi

echo "=== tools/ab.py statistics and gate (tools/ab_test.py) ==="
python3 tools/ab_test.py

echo "=== tier-1: configure + build + ctest (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
(cd build && ctest -L tier1 --no-tests=error --output-on-failure -j"$(nproc)")

# The fault-injection tests race injected faults against worker threads,
# so a flaky one fails here, before it reaches the gate.
echo "=== chaos suite, repeated (ctest -L chaos --repeat until-fail:10) ==="
(cd build && ctest -L chaos --repeat until-fail:10 \
    --no-tests=error --output-on-failure -j"$(nproc)")

if [[ "${fast}" != "1" ]]; then
  echo "=== http smoke: demo server up -> curl healthz/metrics/score -> graceful SIGTERM ==="
  cmake --build build -j"$(nproc)" --target example_http_server_demo >/dev/null
  smoke_dir="$(mktemp -d /tmp/dbg4eth_http_smoke.XXXXXX)"
  smoke_log="${smoke_dir}/server.log"
  smoke_port=18742
  ./build/examples/example_http_server_demo \
      --port="${smoke_port}" --ckpt-dir="${smoke_dir}/ckpt" \
      > "${smoke_log}" 2>&1 &
  smoke_pid=$!
  trap 'kill -9 "${smoke_pid}" 2>/dev/null || true; rm -rf "${smoke_dir}"' EXIT
  # First run trains the demo model before binding; wait for the banner.
  for _ in $(seq 1 600); do
    grep -q "listening on" "${smoke_log}" && break
    kill -0 "${smoke_pid}" 2>/dev/null || { cat "${smoke_log}"; exit 1; }
    sleep 0.5
  done
  grep -q "listening on" "${smoke_log}" || { cat "${smoke_log}"; exit 1; }
  base="http://127.0.0.1:${smoke_port}"
  [[ "$(curl -sf "${base}/healthz")" == "ok" ]]
  # grep without -q: -q would close the pipe early and fail curl under
  # pipefail with a write error.
  curl -sf "${base}/metrics" | grep "^net_requests_total" >/dev/null
  score_addr="$(grep -o '"address": [0-9]*' "${smoke_log}" | head -1 | grep -o '[0-9]*')"
  curl -sf -X POST "${base}/v1/score" -d "{\"address\": ${score_addr}}" \
      | grep '"score": ' >/dev/null
  # Trace propagation: a client traceparent id comes back as x-trace-id;
  # the debug surface serves trace trees, vars and a live profile.
  smoke_tid="1234567890abcdef1234567890abcdef"
  curl -sf -D - -o /dev/null -X POST "${base}/v1/score" \
      -H "traceparent: 00-${smoke_tid}-00f067aa0ba902b7-01" \
      -d "{\"address\": ${score_addr}}" \
      | grep -i "x-trace-id: ${smoke_tid}" >/dev/null
  # Exemplars are dialect-gated: a classic 0.0.4 scrape must stay clean
  # (a '#' after a sample value fails the whole Prometheus scrape) while
  # a negotiated OpenMetrics scrape carries them plus the "# EOF" marker.
  if curl -sf "${base}/metrics" | grep -F ' # {' >/dev/null; then
    echo "http smoke: classic /metrics carries exemplar suffixes"
    exit 1
  fi
  openmetrics="$(curl -sf -H 'Accept: application/openmetrics-text' "${base}/metrics")"
  echo "${openmetrics}" | grep -F '# {trace_id="' >/dev/null
  echo "${openmetrics}" | tail -1 | grep -x '# EOF' >/dev/null
  curl -sf "${base}/debug/traces" | grep '"traces"' >/dev/null
  curl -sf "${base}/debug/vars" | grep '"metrics"' >/dev/null
  # One second of wall-clock sampling must yield non-empty folded stacks
  # ("name;name count" lines) for flamegraph tooling.
  profile_out="$(curl -sf "${base}/debug/profile?seconds=1")"
  [[ -n "${profile_out}" ]]
  echo "${profile_out}" | head -1 | grep -E ' [0-9]+$' >/dev/null
  kill -TERM "${smoke_pid}"
  smoke_status=0
  wait "${smoke_pid}" || smoke_status=$?
  trap - EXIT
  rm -rf "${smoke_dir}"
  if [[ "${smoke_status}" != "0" ]]; then
    echo "http smoke: server exited ${smoke_status} (graceful drain failed)"
    exit 1
  fi
  echo "  http smoke passed (server drained and exited 0)"
fi

if [[ "${fast}" != "1" ]]; then
  echo "=== perfbench: configure + build the benchmark and its tests (build-perfbench/) ==="
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-perfbench -j"$(nproc)" --target perfbench perfbench_tests
  (cd build-perfbench && ctest --no-tests=error --output-on-failure -j"$(nproc)")
fi

if [[ "${bench}" == "1" ]]; then
  echo "=== paired benchmark gate: tools/ab.py ${bench_base} on every workload ==="
  python3 tools/ab.py "${bench_base}"
fi

if [[ "${fast}" == "1" || "${bench}" == "1" ]]; then
  echo "=== skipping sanitizer passes (fast/bench mode) ==="
  exit 0
fi

responder_tests="Responder|HandlerThread|PipelinedScores|ShutdownWaits|AcceptedDuringShutdown|OverloadAnswers"

echo "=== tsan: configure + build (build-tsan/) ==="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j"$(nproc)"

# Every tier-1 test under ThreadSanitizer: the obs hammers, the service's
# workers, in-flight table and cache, the event loops' cross-thread
# handoffs (acceptor -> loop inbox; score routes answered inline on the
# loop or by the service's worker -> loop inbox; blocking routes on the
# handler pool -> loop inbox) and Shutdown's wait for outstanding
# responders, the trainers' fan-out over shared parameters into
# thread-local gradient buffers, the kill-and-resume matrix, and the chaos
# suite's faults injected under concurrency. The profiler refuses to start
# under TSan, so the two ProfilerTest cases skip here. The responder and
# shutdown tests then run ten times over, since one clean pass of a race
# proves little.
echo "=== tsan: tier-1 (ctest -L tier1) ==="
(cd build-tsan && ctest -L tier1 --no-tests=error --output-on-failure -j"$(nproc)")
echo "=== tsan: responder + shutdown tests, repeated (ctest -R ... --repeat until-fail:10) ==="
(cd build-tsan && ctest -R "${responder_tests}" --repeat until-fail:10 \
    --no-tests=error --output-on-failure -j"$(nproc)")

# Every tier-1 and chaos test again under AddressSanitizer + UBSan: the
# checkpoint loaders and parsers read untrusted bytes, the inference arena
# recycles an activation buffer as soon as its tensor's last handle drops
# (it poisons free-list buffers under __SANITIZE_ADDRESS__, so a read
# through a reference that outlived its handle is a use-after-poison
# report, not a silent read of another activation), the samplers, CSR
# builders and dense kernels index by position, requests cross threads through the worker
# pool, in-flight table and cache, and a connection's lifetime spans
# responders that may fire after it is closed. The chaos tests are part of
# tier-1, so their injected faults run here too.
# halt_on_error turns a UBSan report into a test failure, not a log line.
echo "=== asan+ubsan: configure + build (build-asan/) ==="
cmake --preset asan >/dev/null
cmake --build --preset asan -j"$(nproc)"

echo "=== asan+ubsan: tier-1 (ctest -L tier1) ==="
(cd build-asan && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest -L tier1 --no-tests=error --output-on-failure -j"$(nproc)")

echo "=== all checks passed ==="
