#!/usr/bin/env python3
"""Summarize the results files of several benchmark runs.

    python3 perfbench/summarize.py [--out FILE] [RESULTS_FILE ...]

Without files it reads every perfbench/_out/results/*.json.  Per workload
and trace mode it prints, for each metric, the median, the quartiles and
the spread (interquartile distance over the median) across runs, as
statistics.quantiles(values, n=4) gives them.  --out also writes them as
JSON together with the runs' seeds and stamps.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "_out" / "results"


def summarize(records: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for rec in records:
        key = f"{rec['stamp']['workload']}/trace{rec['stamp']['trace']}"
        groups.setdefault(key, []).append(rec)
    out = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values):
                metrics[name] = {"unit": first["unit"], "values": values}
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (median, median, median)
            metrics[name] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "values": values,
            }
        out[key] = {
            "runs": len(runs),
            "seeds": [r["stamp"]["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "stamp": {k: v for k, v in runs[0]["stamp"].items()
                      if k not in ("seed", "trace", "workload")},
            "metrics": metrics,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    files = args.files or sorted(RESULTS.glob("*.json"))
    summary = summarize([json.loads(f.read_text()) for f in files])
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, correct {group['correct']}, "
              f"failed {group['failed']}")
        for name, m in group["metrics"].items():
            if "median" not in m:
                print(f"  {name:36s} {m['values']}")
                continue
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:36s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {spread} {m['unit']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
