#!/usr/bin/env bash
# misusebench entry point: builds the product and the benchmark driver from
# this checkout into .bench_build/misusebench, then runs the driver. Every
# argument goes to the driver (see README.md), except --compare, which
# compares two files of recorded runs instead.
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--trace 0|1] [--smoke]
#                    [--out PATH]
#   bench/e2e/run.sh --compare=A.ndjson,B.ndjson
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

for arg in "$@"; do
  case "$arg" in
    --compare | --compare=*) exec python3 "$here/compare.py" "$@" ;;
  esac
done

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "misusebench: no product source tree at $root" >&2
  exit 2
fi

build="$root/.bench_build/misusebench"
mkdir -p "$build/tmp"
# Compiler temporaries stay inside the checkout too.
export TMPDIR="$build/tmp"
log="$build/build.log"
generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  if ! cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1; then
    tail -n 40 "$log" >&2
    exit 2
  fi
fi
if ! cmake --build "$build" --target misusebench -j "$(nproc)" >>"$log" 2>&1; then
  tail -n 40 "$log" >&2
  exit 2
fi
exec "$build/misusebench" --build-dir="$build" "$@"
