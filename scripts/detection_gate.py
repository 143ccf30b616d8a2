#!/usr/bin/env python3
"""Fail when misusebench's detection quality moves off its expectations.

    python3 scripts/detection_gate.py misusebench_smoke.ndjson

misusebench scores detect_auc and detect_rate_at_5fpr for every workload on
a fixed set of 600 normal and 200 Portal::make_misuse sessions, so both
values repeat exactly across seeds, runs and --smoke. EXPECTED holds them.
A run fails the gate when either metric differs from its expectation, in
either direction, by more than the metric's relative bound in
BENCHMARK.json. A change that moves detection quality on purpose updates
EXPECTED in the same commit.

Exit code 0 when every expected workload has runs and all of them hold,
1 naming each workload and metric that moved or is missing, 2 on an
unreadable input.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPECTED = {
    "paper_mix": {"detect_auc": 0.865483, "detect_rate_at_5fpr": 0.10},
    "paper_short": {"detect_auc": 0.882408, "detect_rate_at_5fpr": 0.13},
    "small_mix": {"detect_auc": 0.834742, "detect_rate_at_5fpr": 0.095},
    "small_durable": {"detect_auc": 0.834742, "detect_rate_at_5fpr": 0.095},
}


def main(argv):
    if len(argv) != 2:
        print("usage: detection_gate.py RUNS.ndjson", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    try:
        with open(argv[1]) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError) as e:
        print("detection_gate: cannot read %s: %s" % (argv[1], e), file=sys.stderr)
        return 2

    problems = []
    for workload, expected in EXPECTED.items():
        mine = [r for r in runs if r.get("workload") == workload]
        if not mine:
            problems.append("%s: no run recorded" % workload)
        for run in mine:
            for metric, want in expected.items():
                got = run.get("metrics", {}).get(metric, {}).get("value")
                if got is None:
                    problems.append("%s seed %s: %s missing" % (workload, run.get("seed"), metric))
                    continue
                moved = abs(got - want) / abs(want)
                verdict = "moved" if moved > bounds[metric] else "ok"
                print("%-14s seed %-3s %-20s %.6f (expected %.6f, bound %g): %s"
                      % (workload, run.get("seed"), metric, got, want, bounds[metric], verdict))
                if verdict != "ok":
                    problems.append("%s seed %s: %s %.6f is %.1f%% off %.6f (bound %g%%)"
                                    % (workload, run.get("seed"), metric, got, 100 * moved, want,
                                       100 * bounds[metric]))
    for p in problems:
        print("detection_gate: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
