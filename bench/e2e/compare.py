#!/usr/bin/env python3
"""Compare two sets of misusebench runs, workload by workload.

    python3 bench/e2e/compare.py --compare=A.ndjson,B.ndjson

Each file holds one JSON record per run, as misusebench appends them to
its --out file. A is the base (the parent commit), B the change. For every
workload and metric this prints each side's median and quartiles, the
metric's bound from BENCHMARK.json and a verdict:

  better      every B run beats every A run, or B wins at least 9 of 10
              seed-paired runs and the medians differ by more than A's
              spread (the distance between its quartiles)
  worse       B's median is worse than A's by more than the bound
  unresolved  a side's spread is wider than the bound, so a worsening
              within that spread could not be seen
  within      no worse than the bound

Recorded metrics that BENCHMARK.json does not gate (per-layer ones, tail
latency) print without a verdict.

Runs compare like for like only: every run of a workload, on both sides,
must share the run length, trace mode, inference kernels, host (cores and
CPU model) and configuration block. Otherwise nothing is compared and the
exit code is 2, naming the fields that differ. The exit code is 1 when
any gated metric reads worse, else 0.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(a, b, better):
    """Relative amount by which b is worse than a (negative: better)."""
    if a == 0:
        return 0.0
    delta = (b - a) / abs(a)
    return -delta if better == "higher" else delta


def verdict(a_runs, b_runs, bound, better):
    a = [r["value"] for r in a_runs]
    b = [r["value"] for r in b_runs]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    if all(sign * y > sign * x for x in a for y in b):
        return "better"
    spread_a = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    spread_b = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    regress = worse_by(a_med, b_med, better)
    if regress > bound:
        return "worse"
    paired = [(x["value"], y["value"]) for x in a_runs for y in b_runs if x["seed"] == y["seed"]]
    wins = sum(1 for x, y in paired if sign * y > sign * x)
    if paired and wins >= 0.9 * len(paired) and -regress > spread_a:
        return "better"
    return "within"


def settings(run):
    """The fields two runs of one workload must share to be compared."""
    fields = {"seconds": run["seconds"], "trace": run["trace"], "infer": run["infer"],
              "host.cores": run["host"]["cores"], "host.cpu_model": run["host"]["cpu_model"]}
    fields.update(("config." + k, v) for k, v in run["config"].items())
    return fields


def mismatched_settings(runs, side):
    """One message per workload whose runs on `side` differ in settings."""
    by_workload = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(settings(run))
    problems = []
    for workload, all_fields in sorted(by_workload.items()):
        keys = set().union(*all_fields)
        differ = sorted(k for k in keys if len({json.dumps(f.get(k)) for f in all_fields}) > 1)
        if differ:
            problems.append("%s: runs of %s differ in %s, so they do not compare like for like"
                            % (side, workload, ", ".join(differ)))
    return problems


def main(argv):
    spec = None
    for i, arg in enumerate(argv):
        if arg.startswith("--compare="):
            spec = arg.split("=", 1)[1]
        elif arg == "--compare" and i + 1 < len(argv):
            spec = argv[i + 1]
    if not spec or spec.count(",") != 1:
        print("usage: compare.py --compare=A.ndjson,B.ndjson", file=sys.stderr)
        return 2
    path_a, path_b = spec.split(",")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}

    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    mismatches = mismatched_settings(runs_a, "A") + mismatched_settings(runs_b, "B")
    if not mismatches:
        mismatches = mismatched_settings(runs_a + runs_b, "A and B")
    if mismatches:
        for line in mismatches:
            print("compare.py: " + line, file=sys.stderr)
        return 2

    def collect(runs):
        by = {}
        for run in runs:
            for name, m in run["metrics"].items():
                by.setdefault((run["workload"], name), []).append({"value": m["value"], "seed": run["seed"]})
        return by

    a_all, b_all = collect(runs_a), collect(runs_b)
    worse = 0
    print("%-14s %-30s %-34s %-34s %-7s %s" % ("workload", "metric", "A median [q1, q3]",
                                               "B median [q1, q3]", "bound", "verdict"))
    for key in sorted(set(a_all) & set(b_all)):
        workload, name = key
        a_q1, a_med, a_q3 = quartiles([r["value"] for r in a_all[key]])
        b_q1, b_med, b_q3 = quartiles([r["value"] for r in b_all[key]])
        if name in bounds:
            bound, better = bounds[name]
            v = verdict(a_all[key], b_all[key], bound, better)
            worse += v == "worse"
            bound_text = "%.3g" % bound
        else:
            v, bound_text = "-", "-"
        print("%-14s %-30s %-34s %-34s %-7s %s" % (
            workload, name, "%.5g [%.5g, %.5g]" % (a_med, a_q1, a_q3),
            "%.5g [%.5g, %.5g]" % (b_med, b_q1, b_q3), bound_text, v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
