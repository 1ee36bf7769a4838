"""Summarize the benchmark runs kept under `.perfbench_out/`.

    python3 perfbench/summarize.py [DIR]          # table per workload and metric
    python3 perfbench/summarize.py [DIR] --json   # the same as one JSON document

DIR defaults to `.perfbench_out/`; pointing it at a copy of another
commit's results compares the two.

For every workload and metric it gives the median over runs, the first
and third quartiles (Python's statistics.quantiles, n=4) and the spread,
(q3 - q1) / median, plus each run's output digest and exact counts, so
two sets of runs of the same code can be compared. The wall-second
diagnostics of untraced runs are summarized the same way, marked `raw`.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"


def summarize(out_dir: Path) -> dict:
    runs = defaultdict(list)
    for path in sorted(out_dir.glob("*-trace[01].json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        runs[(result["workload"], result["trace"])].append(result)
    summary: dict = {}
    for (workload, trace), results in sorted(runs.items()):
        values = defaultdict(list)
        for result in results:
            for name, metric in result["metrics"].items():
                values[name].append((metric["value"], metric["unit"]))
            for name, metric in result.get("raw", {}).items():
                values[f"raw.{name}"].append((metric["value"], metric["unit"]))
        metrics = {}
        for name, pairs in values.items():
            xs = [v for v, _ in pairs]
            median = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            metrics[name] = {
                "unit": pairs[0][1], "runs": len(xs), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
            }
        summary.setdefault(workload, {})[f"trace{trace}"] = {
            "runs": len(results),
            "failed_runs": sum(not r["correct"] for r in results),
            "digests": {str(r["seed"]): r["digest"] for r in results},
            "counts": {str(r["seed"]): r["counts"] for r in results if r["counts"]},
            "metrics": metrics,
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", type=Path, default=OUT, help="directory of result files")
    parser.add_argument("--json", action="store_true", help="print one JSON document instead of a table")
    args = parser.parse_args()
    summary = summarize(args.dir)
    if args.json:
        print(json.dumps(summary, indent=2))
        return
    for workload, sets in summary.items():
        for key, block in sets.items():
            print(f"{workload} {key}: {block['runs']} runs, {block['failed_runs']} not correct")
            for name, m in block["metrics"].items():
                spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
                print(f"  {name:30s} median {m['median']:>14.6g} {m['unit']:6s} "
                      f"q1 {m['q1']:>12.6g} q3 {m['q3']:>12.6g} spread {spread} (runs {m['runs']})")


if __name__ == "__main__":
    main()
