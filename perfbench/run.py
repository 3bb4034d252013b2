#!/usr/bin/env python3
"""orbitloop benchmark: one workload, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every measurement is made in fresh,
single-threaded Python processes that import orbitloop.cli from the
checkout's src/ and call orbitloop.cli.main(argv):

- --trace 0 first times the import of orbitloop.cli in SETUP_PROBES
  processes, then runs the workload for S seconds in one more process and
  prints the end-to-end metrics of BENCHMARK.json;
- --trace 1 runs the workload with spans around each layer and prints the
  per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A results file stamped with the backend,
library versions, core count, commit and seed is written under
perfbench/_out/results/.  Workloads are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Leaves the workload's process this much time beyond --seconds for its
# import, a slow last round and the output checks.  With the probes' 10 s
# limit, a 35 s run ends within 180 s even when every child hits its limit.
CHILD_GRACE_S = 90.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py with `args` and return the JSON of its last line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def version(module: str) -> str | None:
    try:
        return importlib.metadata.version(module)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(args, using_numba: bool) -> dict:
    """What a result depends on besides the code: backend and why it was
    chosen, library versions, core count, commit and seed."""
    flag = os.environ.get("ORBITLOOP_NO_NUMBA", "").strip().lower()
    if flag not in ("", "0", "false", "no"):
        reason = "ORBITLOOP_NO_NUMBA set"
    elif importlib.util.find_spec("numba") is None:
        reason = "numba missing"
    else:
        reason = "numba available"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "backend": "numba" if using_numba else "python",
        "backend_reason": reason,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "numba": version("numba"),
        "nproc": os.cpu_count(),
        "threads": {name: "1" for name in THREAD_VARS},
        "commit": git_commit(),
    }


def load_metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(args) -> tuple[dict, dict]:
    """Run the workload; returns (worker result, metric values by name)."""
    timeout = args.seconds + CHILD_GRACE_S
    run_args = ["run", args.workload, str(args.seed), str(args.seconds),
                str(args.trace)]
    if args.trace:
        result = run_child(run_args, timeout)
        return result, result["layers"]
    import_s = [run_child(["setup"], 10.0)["import_s"]
                for _ in range(SETUP_PROBES)]
    result = run_child(run_args, timeout)
    import_s.append(result["import_s"])
    result["setup_probes_s"] = import_s
    values = {
        "wall_s": statistics.median(result["round_wall_s"]),
        "setup_s": statistics.median(import_s),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "ok_ops_frac": (result["attempted"] - result["failed"])
        / result["attempted"],
    }
    return result, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "orbitloop" / "cli.py").is_file():
        print(f"no orbitloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    try:
        specs = load_metric_specs()[kind]
        result, values = measure(args)
        if set(values) != {m["name"] for m in specs}:
            raise BenchError(f"measured {sorted(values)}, but BENCHMARK.json "
                             f"lists {sorted(m['name'] for m in specs)}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    summary = {
        "correct": len(result["problems"]) == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {"stamp": stamp(args, result["using_numba"]),
              "rounds": len(result["round_wall_s"]),
              "known_failures": result["known_failures"],
              "unverified": result["unverified"],
              "worker": result, **summary}
    out = HERE / "_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print("stamp: " + json.dumps(record["stamp"]))
    print(f"rounds {record['rounds']}, attempted {result['attempted']}, "
          f"failed {result['failed']} (known {result['known_failures']}), "
          f"unverified {result['unverified']}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
