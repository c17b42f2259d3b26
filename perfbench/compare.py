"""Compare two benchmark result files: a parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines ``perfbench/run.py --out`` appends.  Run
the two sides in alternation (parent, change, parent, change...) with
the same seeds; the i-th untraced run of a workload on one side is
paired with the i-th on the other.

For every workload and every end-to-end metric of ``BENCHMARK.json``
the report gives each side's median and quartiles, the share of pairs
the change won (ties count for neither side), and a verdict:

- ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
- ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, and not every change run beats every parent
  run;
- ``improved``: the change won at least nine tenths of the pairs and
  the medians differ by more than the parent's own quartile distance;
- ``within bound`` otherwise.

The corrected times divide by the host's slowdown, which ``run.py``
measures with a reference kernel in the benchmark's own processes.  A
change that slows the whole process (a thread contending for the GIL,
oversubscribed workers) slows the kernel by the same factor and would
be divided out.  So each run also records its median slowdown, and
where the change's median slowdown of a workload lies further from the
parent's than the parent's own quartile distance, every corrected
metric of that workload is judged on its uncorrected values instead:
``regression`` beyond the bound, else ``unresolved: host speed moved``.

Exits 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from measure import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: End-to-end metrics ``run.py`` reports uncorrected.
UNCORRECTED = ("peak_rss_mb",)


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced runs per workload, in file order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                runs[record["workload"]].append(record)
    return runs


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else 0.0
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    spreads = [(q3 - q1) / abs(m) if m else 0.0
               for q1, m, q3 in ((p1, pm, p3), (c1, cm, c3))]
    separated = all(sign * (c - p) > 0 for c in change for p in parent)
    if worse > bound:
        state = "regression"
    elif max(spreads) > bound and not separated:
        state = "unresolved"
    elif won >= 0.9 and abs(cm - pm) > p3 - p1:
        state = "improved"
    else:
        state = "within bound"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "pairs": len(pairs), "won": won, "worse_share": worse,
        "spread": spreads, "verdict": state,
    }


def host_moved(parent: list[dict], change: list[dict]) -> bool:
    """Whether the change's median host slowdown lies further from the
    parent's than the parent's own quartile distance."""
    p1, pm, p3 = quartiles(r["host_slowdown"] for r in parent)
    cm = quartiles(r["host_slowdown"] for r in change)[1]
    return abs(cm - pm) > p3 - p1


def compare(parent_path: Path, change_path: Path, bench: dict) -> list[dict]:
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        left_runs, right_runs = parent[workload], change[workload]
        moved = bool(left_runs and right_runs) and host_moved(
            left_runs, right_runs)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if not left_runs or not right_runs:
                rows.append({"workload": workload, "metric": name,
                             "verdict": "missing runs"})
                continue

            def judge(values):
                return verdict(values(left_runs), values(right_runs),
                               metric["better"], metric["bound"])

            row = judge(lambda runs: [
                r["result"]["metrics"][name]["value"] for r in runs])
            if moved and name not in UNCORRECTED:
                raw = judge(lambda runs: [r["uncorrected"][name]
                                          for r in runs])
                row["verdict"] = (
                    "regression" if raw["verdict"] == "regression"
                    else "unresolved: host speed moved"
                )
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "bound": metric["bound"], **row,
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change,
                   json.loads(BENCHMARK.read_text()))
    print(f"{'workload':<12} {'metric':<14} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>5} {'worse':>7}  verdict")
    for row in rows:
        if "parent" not in row:
            print(f"{row['workload']:<12} {row['metric']:<14} "
                  f"{row['verdict']}")
            continue
        fmt = "/".join
        print(
            f"{row['workload']:<12} {row['metric']:<14} "
            f"{fmt(f'{v:.4g}' for v in row['parent']):>32} "
            f"{fmt(f'{v:.4g}' for v in row['change']):>32} "
            f"{row['won']:>5.2f} {row['worse_share']:>+7.3f}  "
            f"{row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
