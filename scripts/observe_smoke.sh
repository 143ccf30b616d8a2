#!/usr/bin/env bash
# Operations-plane smoke test: run misusedet_serve with the admin
# endpoint enabled, scrape /metrics, /healthz, /statusz, and /tracez
# while the node is scoring, lint the Prometheus exposition with
# scripts/promlint.sh, drive one misusedet_top dashboard refresh, and
# require the scored output to be byte-identical to a run without the
# admin plane (the read-only contract, DESIGN.md "Operations plane").
#
# On a -DMISUSEDET_FAILPOINTS=ON build the whole live leg runs with
# MISUSEDET_FAILPOINTS='admin.respond=every:2' so every second admin
# response is dropped mid-flight: the listener must survive the socket
# errors, misusedet_top's retries must still land every scrape, and the
# data path must not lose a byte. On a regular build the spec is ignored
# and the leg degenerates to the happy path.
#
# usage: scripts/observe_smoke.sh [BUILD_DIR]
set -euo pipefail

build_dir=${1:-build}
serve=$build_dir/src/serve/misusedet_serve
replay=$build_dir/examples/serve_replay
top=$build_dir/src/tools/misusedet_top
lint=$(dirname "$0")/promlint.sh
for bin in "$serve" "$replay" "$top"; do
  if [ ! -x "$bin" ]; then
    echo "missing $bin — build the '$build_dir' tree first" >&2
    exit 1
  fi
done

work=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== training demo detector"
"$replay" --train-model="$work/detector.bin" >/dev/null
"$replay" --emit-trace --sessions=24 >"$work/trace.ndjson"
total=$(wc -l <"$work/trace.ndjson")
half=$((total / 2))
echo "== trace: $total events"

echo "== baseline (no admin plane)"
"$serve" --model="$work/detector.bin" --batch=4 \
  <"$work/trace.ndjson" >"$work/baseline.out"

echo "== live run (admin plane + trace sampling + response-drop failpoint)"
fifo=$work/in.fifo
mkfifo "$fifo"
MISUSEDET_FAILPOINTS='admin.respond=every:2' \
  "$serve" --model="$work/detector.bin" --batch=4 \
  --admin-port=0 --trace-sample=4 \
  <"$fifo" >"$work/live.out" 2>"$work/live.err" &
server_pid=$!
exec 3>"$fifo" # hold the write end open across the scrape window

port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*admin endpoint on port \([0-9]*\).*/\1/p' "$work/live.err" | head -1)
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "server never logged its admin port" >&2
  cat "$work/live.err" >&2
  exit 1
fi
echo "== admin endpoint on port $port"

# First half of the stream in, then scrape a busy node.
head -n "$half" "$work/trace.ndjson" >&3

echo "== scraping /metrics (lint)"
"$top" --port="$port" --dump=metrics >"$work/metrics.txt"
"$lint" "$work/metrics.txt"
grep -q '^misusedet_serve_steps_total ' "$work/metrics.txt" ||
  { echo "steps counter missing from /metrics" >&2; exit 1; }

echo "== scraping /healthz"
"$top" --port="$port" --dump=healthz >"$work/healthz.json"
grep -q '"status":"ok"' "$work/healthz.json" ||
  { echo "unexpected health: $(cat "$work/healthz.json")" >&2; exit 1; }

echo "== scraping /statusz"
"$top" --port="$port" --dump=statusz >"$work/statusz.json"
for key in next_seq sessions_active infer_kernel; do
  grep -q "\"$key\":" "$work/statusz.json" ||
    { echo "/statusz missing key $key" >&2; exit 1; }
done

echo "== scraping /tracez"
"$top" --port="$port" --dump=tracez >"$work/tracez.json"
grep -q '"traceEvents":\[' "$work/tracez.json" ||
  { echo "/tracez is not a Chrome trace document" >&2; exit 1; }
"$top" --port="$port" --dump=tracez.ndjson >"$work/tracez.ndjson"

echo "== one misusedet_top dashboard refresh"
"$top" --port="$port" --iterations=2 --interval=0.3 --plain >"$work/top.txt"
grep -q 'sessions [0-9]' "$work/top.txt" ||
  { echo "dashboard rendered no session count" >&2; cat "$work/top.txt" >&2; exit 1; }

# Rest of the stream, EOF, graceful drain.
tail -n +"$((half + 1))" "$work/trace.ndjson" >&3
exec 3>&-
wait "$server_pid"
server_pid=""

echo "== byte-identity vs the no-admin baseline"
if ! cmp -s "$work/baseline.out" "$work/live.out"; then
  echo "scored output diverged with the admin plane enabled:" >&2
  diff "$work/baseline.out" "$work/live.out" | head >&2
  exit 1
fi

echo "observe smoke: OK (output byte-identical, all endpoints healthy)"
