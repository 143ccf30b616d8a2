#!/usr/bin/env bash
# Cluster-serving smoke test: a 3-node misusedet_serve cluster behind
# misusedet_router, with a kill -9 of one node while the stream is in
# flight. The router must detect the death, hand the dead node's
# sessions off to the survivors (journal replay, DESIGN.md "Cluster
# serving"), and keep answering — and when the cluster drains, the union
# of the nodes' session reports must be byte-identical to a single-node
# run over the same trace. That is the cluster contract in one line:
# scoring is deterministic, so losing a node loses no state and changes
# no verdict.
#
# The client reads every reply, so the check also proves no verdict was
# lost or duplicated across the handoff (one step record per event).
#
# A second leg, on a node and router of its own, runs the README cluster
# quickstart's step 3: serve_replay --connect writes the whole trace,
# half-closes, then reads. The router must keep the half-closed client
# until the node has answered every event.
#
# A third leg puts a node at --max-sessions=4 behind a router. The node's
# capacity-eviction reports reach the router ahead of the evicted
# sessions' pipelined events, and the client (which writes the whole
# trace, half-closes, then reads) must still get one step record per
# event.
#
# usage: scripts/cluster_smoke.sh [BUILD_DIR]
set -euo pipefail

build_dir=${1:-build}
serve=$build_dir/src/serve/misusedet_serve
router=$build_dir/src/router/misusedet_router
replay=$build_dir/examples/serve_replay
for bin in "$serve" "$router" "$replay"; do
  if [ ! -x "$bin" ]; then
    echo "missing $bin — build the '$build_dir' tree first" >&2
    exit 1
  fi
done

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$work"
}
trap cleanup EXIT

scrape_port() { # scrape_port STDERR_FILE
  local port=""
  for _ in $(seq 1 150); do
    port=$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "$1" | head -1)
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "no 'listening on port' line in $1" >&2
    cat "$1" >&2
    exit 1
  fi
  echo "$port"
}

echo "== training demo detector"
"$replay" --train-model="$work/detector.bin" >/dev/null
"$replay" --emit-trace --sessions=24 >"$work/trace.ndjson"
total=$(wc -l <"$work/trace.ndjson")
half=$((total / 2))
echo "== trace: $total events, node kill after $half"

echo "== single-node reference run"
"$serve" --model="$work/detector.bin" <"$work/trace.ndjson" \
  >"$work/single.out" 2>"$work/single.err"
grep '"type":"session_report"' "$work/single.out" | sort >"$work/single.reports"

echo "== starting 3 nodes + router"
node_pids=()
node_specs=""
for i in 1 2 3; do
  "$serve" --model="$work/detector.bin" --listen=0 --idle-ttl=3600 \
    >"$work/node$i.out" 2>"$work/node$i.err" &
  node_pids+=($!)
  pids+=($!)
  port=$(scrape_port "$work/node$i.err")
  node_specs="$node_specs${node_specs:+,}127.0.0.1:$port"
  echo "   node$i pid=${node_pids[$((i - 1))]} port=$port"
done
"$router" --nodes="$node_specs" --listen=0 --host=127.0.0.1 \
  >"$work/router.out" 2>"$work/router.err" &
router_pid=$!
pids+=($router_pid)
router_port=$(scrape_port "$work/router.err")
echo "   router pid=$router_pid port=$router_port"

# One NDJSON client over bash's /dev/tcp; a background cat drains every
# verdict so the replay is flow-controlled end to end.
exec 3<>"/dev/tcp/127.0.0.1/$router_port"
cat <&3 >"$work/replies.out" &
cat_pid=$!
pids+=($cat_pid)

echo "== first half of the stream"
head -n "$half" "$work/trace.ndjson" >&3

echo "== kill -9 node2 mid-stream"
kill -9 "${node_pids[1]}"
wait "${node_pids[1]}" 2>/dev/null || true

echo "== rest of the stream through the degraded cluster"
tail -n +"$((half + 1))" "$work/trace.ndjson" >&3

echo "== waiting for every verdict ($total expected)"
for _ in $(seq 1 300); do
  got=$(wc -l <"$work/replies.out")
  [ "$got" -ge "$total" ] && break
  sleep 0.1
done
got=$(wc -l <"$work/replies.out")
if [ "$got" -ne "$total" ]; then
  echo "expected $total verdicts, got $got — lost or duplicated across handoff" >&2
  tail -5 "$work/router.err" >&2
  exit 1
fi
if grep -q '"type":"error"' "$work/replies.out"; then
  echo "router answered with error records:" >&2
  grep '"type":"error"' "$work/replies.out" | head -3 >&2
  exit 1
fi
grep -q 'router: node .* down' "$work/router.err" ||
  { echo "router never noticed the dead node" >&2; exit 1; }

# Stop the router FIRST so node shutdowns below do not trigger another
# handoff round (a drained node's sessions must not be re-reported by a
# survivor), then drain the surviving nodes.
echo "== graceful drain (router, then surviving nodes)"
exec 3>&- 3<&-
kill "$router_pid"
wait "$router_pid" 2>/dev/null || true
wait "$cat_pid" 2>/dev/null || true
for i in 1 3; do
  kill "${node_pids[$((i - 1))]}"
  wait "${node_pids[$((i - 1))]}" 2>/dev/null || true
done

echo "== byte-identity of the session reports vs single node"
cat "$work"/node*.out | grep '"type":"session_report"' | sort >"$work/cluster.reports"
if ! cmp -s "$work/single.reports" "$work/cluster.reports"; then
  echo "cluster reports diverged from the single-node run:" >&2
  diff "$work/single.reports" "$work/cluster.reports" | head >&2
  exit 1
fi
sessions=$(wc -l <"$work/cluster.reports")

echo "== README step 3: serve_replay --connect through a fresh node + router"
"$serve" --model="$work/detector.bin" --listen=0 \
  >"$work/step3_node.out" 2>"$work/step3_node.err" &
step3_node=$!
pids+=($step3_node)
step3_node_port=$(scrape_port "$work/step3_node.err")
"$router" --nodes="127.0.0.1:$step3_node_port" --listen=0 --host=127.0.0.1 \
  >"$work/step3_router.out" 2>"$work/step3_router.err" &
step3_router=$!
pids+=($step3_router)
step3_port=$(scrape_port "$work/step3_router.err")
"$replay" --connect="127.0.0.1:$step3_port" --sessions=24 >"$work/step3.out"
verdicts=$(sed -n 's/^=> \([0-9]*\) verdicts.*/\1/p' "$work/step3.out")
if [ "$verdicts" != "$total" ]; then
  echo "serve_replay --connect through the router: ${verdicts:-no} verdicts for $total events" >&2
  tail -3 "$work/step3_router.err" >&2
  exit 1
fi
kill "$step3_router" "$step3_node"
wait "$step3_router" "$step3_node" 2>/dev/null || true

echo "== capacity evictions through a router: a node at --max-sessions=4"
"$serve" --model="$work/detector.bin" --listen=0 --max-sessions=4 \
  >"$work/evict_node.out" 2>"$work/evict_node.err" &
evict_node=$!
pids+=($evict_node)
evict_node_port=$(scrape_port "$work/evict_node.err")
"$router" --nodes="127.0.0.1:$evict_node_port" --listen=0 --host=127.0.0.1 \
  >"$work/evict_router.out" 2>"$work/evict_router.err" &
evict_router=$!
pids+=($evict_router)
evict_port=$(scrape_port "$work/evict_router.err")
python3 - "$evict_port" "$work/trace.ndjson" >"$work/evict.out" <<'PY'
import socket, sys
client = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
with open(sys.argv[2], "rb") as trace:
    client.sendall(trace.read())
client.shutdown(socket.SHUT_WR)
while True:
    chunk = client.recv(65536)
    if not chunk:
        break
    sys.stdout.buffer.write(chunk)
PY
steps=$(grep -c '"type":"step"' "$work/evict.out" || true)
evictions=$(grep -c '"reason":"capacity_eviction"' "$work/evict.out" || true)
if [ "$steps" != "$total" ]; then
  echo "through a router to a --max-sessions=4 node: $steps step records for $total events" \
    "($evictions eviction reports)" >&2
  tail -3 "$work/evict_router.err" >&2
  exit 1
fi
kill "$evict_router" "$evict_node"
wait "$evict_router" "$evict_node" 2>/dev/null || true

echo "cluster smoke: OK ($sessions sessions byte-identical across a node kill;" \
  "$verdicts of $total verdicts to a half-closed client;" \
  "$steps of $total step records past $evictions capacity evictions)"
