#!/usr/bin/env python3
"""Byte-identity matrix for the orbitloop CLI.

    python3 tools/parity.py SRC OUT

Runs a fixed matrix of CLI invocations, `python -m orbitloop.cli` with
PYTHONPATH=SRC (the src/ directory of the checkout under test), and writes
one directory per run under OUT (which must not exist yet) holding:

- scenario.json, the scenario file the run read;
- files/, the run's output directory;
- stdout.txt and exit.txt;
- stderr.json, the JSON diagnostic line, for a run that exits non-zero.

The stderr of a successful run is left out: its warnings name source file
paths.  Two checkouts behave the same on the matrix when `diff -r` of their
OUT directories prints nothing.

The matrix: `compare` at horizon_s=400 in csv and json; `simulate` on
scenarios/noisy_observer.json with noise_seed 0 to 15 and on
scenarios/short_linear_check.json; `simulate`, `analyze` and `response` on
the linear plant with linearization_sign +1 and -1; `simulate` with a
doubled measurement matrix, with a custom disturbance matrix and noise,
with a constant setpoint and xhat0, and observer_only on the linear plant
with a constant setpoint and noise; `lambert` and `drift` on the default
scenario; the plunge that exits 1 ("trajectory radius fell below 1 km");
and all seven commands on the 32 perfbench design_pool() scenarios at
horizon_s=200.  The scenario files and the pool are read from the
checkout that holds this script, so both sides of a comparison run the
same inputs.  Standard library only; runs one CLI process at a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import design_pool  # noqa: E402

COMMANDS = ("analyze", "synthesize", "lambert", "simulate", "compare",
            "drift", "response")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _scenario_file(name: str) -> dict:
    return json.loads((ROOT / "scenarios" / f"{name}.json").read_text())


def matrix() -> list[tuple[str, str, dict, list[str], str]]:
    """(run name, command, scenario tree, --set overrides, format)."""
    runs = [(f"compare_400s_{fmt}", "compare", {}, ["horizon_s=400"], fmt)
            for fmt in ("csv", "json")]
    noisy = _scenario_file("noisy_observer")
    runs += [(f"noisy_observer_seed_{n:02d}", "simulate", noisy,
              [f"noise_seed={n}"], "csv") for n in range(16)]
    runs.append(("short_linear_check", "simulate",
                 _scenario_file("short_linear_check"), [], "csv"))
    for sign in (1, -1):
        linear = {"plant_mode": "linear", "linearization_sign": sign,
                  "horizon_s": 200.0}
        runs += [(f"linear_sign{sign:+d}_{cmd}", cmd, linear, [], "csv")
                 for cmd in ("simulate", "analyze", "response")]
    short = {"horizon_s": 200.0}
    runs += [
        ("measurement_2c", "simulate",
         {**short, "measurement_matrix": [[2, 0, 0, 0], [0, 2, 0, 0]]}, [],
         "csv"),
        ("disturbance_noisy", "simulate",
         {**short, "disturbance_matrix": [[0, 0], [0, 0], [1, 0.5], [-0.5, 1]],
          "measurement_noise_sigma": [0.001, 0.002], "noise_seed": 3}, [],
         "csv"),
        ("setpoint_xhat0", "simulate",
         {**short, "reference_mode": "constant_setpoint",
          "xhat0": [4292.0, 8924.0, 7.7, 0.1]}, [], "csv"),
        ("linear_observer_only_setpoint_noisy", "simulate",
         {**short, "plant_mode": "linear", "method": "observer_only",
          "reference_mode": "constant_setpoint",
          "measurement_noise_sigma": [0.001, 0.002]}, [], "csv"),
        ("lambert", "lambert", {}, [], "csv"),
        ("drift", "drift", {}, [], "csv"),
        ("plunge", "simulate",
         {"x0": [7000.0, 0.0, -9.0, 0.0], "horizon_s": 2000.0,
          "output_dt_s": 1.0, "method": "uncontrolled"}, [], "csv"),
    ]
    for i, tree in enumerate(design_pool()):
        runs += [(f"pool_{i:02d}_{cmd}", cmd, tree, ["horizon_s=200"], "csv")
                 for cmd in COMMANDS]
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    if out.exists():
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({name: "1" for name in THREAD_VARS})
    runs = matrix()
    failed = 0
    for name, command, tree, overrides, fmt in runs:
        rundir = out / name
        rundir.mkdir(parents=True)
        (rundir / "scenario.json").write_text(json.dumps(tree, indent=1))
        argv = [sys.executable, "-m", "orbitloop.cli", command,
                "--scenario", "scenario.json", "--out", "files",
                "--format", fmt]
        for item in overrides:
            argv += ["--set", item]
        proc = subprocess.run(argv, cwd=rundir, env=env, capture_output=True,
                              text=True)
        (rundir / "stdout.txt").write_text(proc.stdout)
        (rundir / "exit.txt").write_text(f"{proc.returncode}\n")
        if proc.returncode != 0:
            failed += 1
            lines = proc.stderr.strip().splitlines()
            (rundir / "stderr.json").write_text(
                (lines[-1] if lines else "") + "\n")
    print(f"{len(runs)} runs, {failed} exited non-zero; results in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
