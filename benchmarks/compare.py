"""Compare two benchmark result sets: a parent commit and a change.

Usage (from the repository root):
    python3 benchmarks/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --save FILE`` appended, one per run.
Runs are paired in file order within each workload, so alternate the
two sides when making them.  For every workload and end-to-end metric
in BENCHMARK.json this prints both sides' median and quartiles, the
fraction of pairs the change won (ties count for neither side) and a
verdict against the metric's bound:

    better      the change won at least 9/10 of the pairs and the medians
                differ by more than the parent's quartile distance
    worse       the change's median is worse than the parent's by more
                than the bound
    unresolved  the parent's own spread is wider than the bound, and not
                every change run beats every parent run
    same        none of the above

Exit code 1 when any verdict is worse or any run failed a check.
"""

import json
import sys
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{workload: [record, ...]} in file order, plus the machine facts seen."""
    runs, machines = {}, set()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        diag = record["diagnostics"]
        if diag["trace"]:
            continue
        runs.setdefault(diag["workload"], []).append(record)
        machines.add(json.dumps(diag["machine"], sort_keys=True))
    return runs, machines


def verdict(parent, change, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    won = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if sign * (cm - pm) > bound * abs(pm):
        return won, "worse"
    if won >= 0.9 and abs(cm - pm) > p3 - p1:
        return won, "better"
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return won, "unresolved"
    return won, "same"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (parent, p_machines), (change, c_machines) = load(argv[0]), load(argv[1])
    if p_machines != c_machines:
        print("warning: the result sets come from different machines:\n  %s\n  %s"
              % (sorted(p_machines), sorted(c_machines)), file=sys.stderr)
    header = "%-16s %-12s %-32s %-32s %6s  %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "won", "verdict")
    print(header)
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in parent or workload not in change:
            print("%-16s (no runs on %s)" % (
                workload, "both sides" if workload not in parent and workload not in change
                else "parent" if workload not in parent else "change"))
            continue
        for side in (parent[workload], change[workload]):
            if any(not r["result"]["correct"] for r in side):
                status = 1
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["result"]["metrics"][name]["value"] for r in parent[workload]]
            c = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            won, word = verdict(p, c, metric["bound"], metric["better"] == "lower")
            status |= word == "worse"
            print("%-16s %-12s %-32s %-32s %5.0f%%  %s" % (
                workload, name,
                "/".join("%.4g" % v for v in quartiles(p)),
                "/".join("%.4g" % v for v in quartiles(c)),
                100 * won, word))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
