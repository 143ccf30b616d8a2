#!/usr/bin/env bash
# Fault-injection sweep: drives the end-to-end pipe server under a set of
# MISUSEDET_FAILPOINTS specs and asserts controlled degradation — the
# process must exit 0 and keep scoring under every injected fault, and a
# corrupt LSTM load must surface as flagged degraded verdicts, never a
# crash. Requires a build configured with -DMISUSEDET_FAILPOINTS=ON
# (default tree name: build-fp).
#
# usage: scripts/fault_injection_sweep.sh [BUILD_DIR]
set -euo pipefail

build_dir=${1:-build-fp}
serve=$build_dir/src/serve/misusedet_serve
replay=$build_dir/examples/serve_replay
for bin in "$serve" "$replay"; do
  if [ ! -x "$bin" ]; then
    echo "missing $bin — build a -DMISUSEDET_FAILPOINTS=ON tree first" >&2
    exit 1
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== training demo detector"
"$replay" --train-model="$work/detector.bin" >/dev/null
"$replay" --emit-trace --sessions=12 >"$work/trace.ndjson"

echo "== clean reference run"
"$serve" --model="$work/detector.bin" <"$work/trace.ndjson" >"$work/clean.out"
clean_reports=$(grep -c '"type":"session_report"' "$work/clean.out")
if [ "$clean_reports" -lt 1 ]; then
  echo "FAIL: clean run produced no session reports" >&2
  exit 1
fi
if grep -q '"degraded":true' "$work/clean.out"; then
  echo "FAIL: clean run emitted degraded verdicts" >&2
  exit 1
fi

# Each entry: "<failpoint spec>|<description>". Under every spec the
# server must exit 0 and emit the same number of session reports as the
# clean run (durability and I/O faults degrade durability, not scoring).
specs=(
  'wal.fsync=always|every WAL fsync fails'
  'wal.append=every:2|every 2nd WAL append fails'
  'wal.snapshot=always|every snapshot write fails'
)
for entry in "${specs[@]}"; do
  spec=${entry%%|*}
  desc=${entry#*|}
  echo "== sweep: $spec ($desc)"
  mkdir -p "$work/wal-sweep"
  rm -rf "$work/wal-sweep"/*
  if ! MISUSEDET_FAILPOINTS="$spec" "$serve" --model="$work/detector.bin" \
    --wal-dir="$work/wal-sweep" <"$work/trace.ndjson" >"$work/sweep.out"; then
    echo "FAIL: server crashed under $spec" >&2
    exit 1
  fi
  reports=$(grep -c '"type":"session_report"' "$work/sweep.out" || true)
  if [ "$reports" -ne "$clean_reports" ]; then
    echo "FAIL: $spec changed session report count ($reports != $clean_reports)" >&2
    exit 1
  fi
done

echo "== sweep: line_io.eof=nth:1 (producer vanishes before the first line)"
if ! MISUSEDET_FAILPOINTS='line_io.eof=nth:1' "$serve" \
  --model="$work/detector.bin" <"$work/trace.ndjson" >"$work/eof.out"; then
  echo "FAIL: server crashed on a vanishing producer" >&2
  exit 1
fi
if grep -q '"type":"session_report"' "$work/eof.out"; then
  echo "FAIL: a zero-event stream must drain with no session reports" >&2
  exit 1
fi

echo "== sweep: detector.load.lstm=always (all LSTM sections corrupt)"
if ! MISUSEDET_FAILPOINTS='detector.load.lstm=always' "$serve" \
  --model="$work/detector.bin" <"$work/trace.ndjson" >"$work/degraded.out"; then
  echo "FAIL: server crashed on degraded archive load" >&2
  exit 1
fi
if ! grep -q '"degraded":true' "$work/degraded.out"; then
  echo "FAIL: degraded detector served no flagged verdicts" >&2
  exit 1
fi
reports=$(grep -c '"type":"session_report"' "$work/degraded.out")
if [ "$reports" -ne "$clean_reports" ]; then
  echo "FAIL: degraded mode changed session report count ($reports != $clean_reports)" >&2
  exit 1
fi

echo "OK: server survived every injected fault with full scoring coverage"
