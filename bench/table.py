"""Print the baseline table from the results that bench/run.py wrote.

    python3 bench/table.py [RESULTS_DIR]

For every workload and metric: name, unit, median, first and third
quartiles, the spread (q3 - q1) / median, the bound from BENCHMARK.json, and
the sample count.  Untraced runs give the end-to-end rows, traced runs the
per-layer rows.  heavy_op_s is shown with the command it times on that
workload, e.g. heavy_op_s (divisors_s).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    results = Path(sys.argv[1]) if len(sys.argv) > 1 else BENCH / "results"
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for path in sorted(results.glob("*.json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    print("| workload | metric | unit | median | q1 | q3 | spread | bound | n |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for w in spec["workloads"]:
        for trace in (0, 1):
            recs = runs.get((w["name"], trace), [])
            if not recs:
                continue
            failed = sum(r["failed"] for r in recs)
            attempted = sum(r["attempted"] for r in recs)
            for name in recs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in recs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                label = f"{name} ({recs[0]['heavy']}_s)" if name == "heavy_op_s" else name
                print(f"| {w['name']} | {label} | {recs[0]['metrics'][name]['unit']} "
                      f"| {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} "
                      f"| {bounds.get(name, '')} | {len(values)} |")
            print(f"| {w['name']} | failed / attempted ({'traced' if trace else 'untraced'}) "
                  f"| count | {failed} / {attempted} | | | | | {len(recs)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
