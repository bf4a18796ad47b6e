#!/usr/bin/env python3
"""bench_compare — perf-regression gate over BENCH_engine.json.

Compares a freshly generated BENCH_engine.json against the committed
baseline and fails (exit 1) when the geomean of the per-(cell, engine)
minstr_per_sec ratios drops by more than --threshold (default 10%).
Engine-throughput numbers are only comparable between like hosts and
like workload sizes, so the gate SKIPS with a notice (exit 0) when:

  * host_cpus differs between the two files (different machine class),
  * scale / warmup / sim instruction counts differ (different work),
  * the files share no cells (renamed workload matrix).

Per-cell wall noise is expected — single cells finish in tens of
milliseconds — which is why the gate is on the geomean across all
cells x {polled, event}, not on any single cell. Cells slower
than the threshold are still listed, marked, for the human reading
the log.

Usage: scripts/bench_compare.py [--threshold F] BASELINE FRESH
"""

import argparse
import json
import math
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print("bench_compare: cannot read %s: %s" % (path, e),
              file=sys.stderr)
        sys.exit(2)


def cell_throughputs(doc):
    """(workload, prefetcher, engine) -> minstr_per_sec for the
    single-core cells. The threaded mix cells of older recordings
    ("mix_cells") are ignored."""
    out = {}
    for cell in doc.get("cells", []):
        for engine in ("polled", "event"):
            block = cell.get(engine)
            if block and block.get("minstr_per_sec", 0) > 0:
                out[(cell["workload"], cell["prefetcher"], engine)] = \
                    block["minstr_per_sec"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail on a geomean Minstr/s regression between "
                    "two BENCH_engine.json files")
    parser.add_argument("baseline", help="committed BENCH_engine.json")
    parser.add_argument("fresh", help="freshly generated BENCH_engine.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated geomean drop "
                        "(default: 0.10 = 10%%)")
    args = parser.parse_args(argv)

    base = load(args.baseline)
    fresh = load(args.fresh)

    for field in ("host_cpus", "scale", "warmup_instructions",
                  "sim_instructions"):
        if base.get(field) != fresh.get(field):
            print("bench_compare: SKIPPED — %s differs (baseline %r, "
                  "fresh %r); throughput is only comparable on a like "
                  "host running like work" %
                  (field, base.get(field), fresh.get(field)))
            return 0

    b = cell_throughputs(base)
    f = cell_throughputs(fresh)
    common = sorted(set(b) & set(f))
    if not common:
        print("bench_compare: SKIPPED — no common cells between %s "
              "and %s" % (args.baseline, args.fresh))
        return 0

    floor = 1.0 - args.threshold
    ratios = []
    print("%-12s %-8s %-7s | %9s %9s %7s" %
          ("workload", "pf", "engine", "before", "after", "ratio"))
    for key in common:
        ratio = f[key] / b[key]
        ratios.append(ratio)
        flag = "  << below %.0f%% floor" % (floor * 100) \
            if ratio < floor else ""
        print("%-12s %-8s %-7s | %9.3f %9.3f %6.2fx%s" %
              (key + (b[key], f[key], ratio, flag)))

    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    print("geomean over %d (cell, engine) pairs: %.3fx "
          "(gate: >= %.2fx)" % (len(ratios), geomean, floor))
    if geomean < floor:
        print("bench_compare: FAIL — geomean Minstr/s dropped %.1f%% "
              "(> %.0f%% tolerated)" %
              ((1.0 - geomean) * 100, args.threshold * 100),
              file=sys.stderr)
        return 1
    print("bench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
