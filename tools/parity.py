#!/usr/bin/env python3
"""Byte-identity matrix for the orbitloop CLI, and a report of how far two
of its output trees differ.

    python3 tools/parity.py SRC OUT
    python3 tools/parity.py --diff OLD NEW

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
with a constant setpoint and xhat0, observer_only on the linear plant
with a constant setpoint and noise, and `lqr` with output_dt_s 5 and
`uncontrolled` with output_dt_s 20, whose steps must not follow the grid;
`compare` on a constant setpoint whose first coordinate is -0.0, which
every run turns into +0.0 with its first step;
`lambert` and `drift` on the default scenario; the plunge that exits 1
("trajectory radius fell below 1 km"); and all seven commands on the 32
perfbench design_pool() scenarios at horizon_s=200: 259 runs in all.  The
scenario files and the pool are read from the checkout that holds this
script, so both sides of a comparison run the same inputs.  Standard
library only; runs one CLI process at a time.

With --diff, OLD and NEW are two such OUT trees.  For each run that
differs it prints the exit-code and stderr.json changes, the files added
and missing, and, for each changed CSV column (by header), JSON number (by
key path, with list indices folded into []) and stdout line (with its
numbers read as #), the largest absolute change and the largest relative
change, |new - old| / max(|old|, |new|).  A file whose rows, columns or
keys differ is reported as a changed layout.  A summary follows: runs
unchanged, runs changed by group (the run name less its command, format
and number), and the largest change per file kind (the file's path within
its run).  Exits 0 when the trees are byte-identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
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
        ("lqr_output_dt_5", "simulate",
         {**short, "method": "lqr", "output_dt_s": 5.0}, [], "csv"),
        ("uncontrolled_output_dt_20", "simulate",
         {**short, "method": "uncontrolled", "output_dt_s": 20.0}, [], "csv"),
        ("setpoint_compare", "compare",
         {**short, "reference_mode": "constant_setpoint",
          "xf": [-0.0, 7000.0, 7.546, 0.0]}, [], "csv"),
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


def _json_cells(tree, key: str):
    """(key path, leaf as JSON text) for each leaf of a JSON tree: a number
    reads back as a float, a string keeps its quotes and does not."""
    if isinstance(tree, dict):
        for name, value in tree.items():
            yield from _json_cells(value, f"{key}.{name}" if key else name)
    elif isinstance(tree, list):
        for value in tree:
            yield from _json_cells(value, f"{key}[]")
    else:
        yield key, json.dumps(tree)


_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|\b(?:inf|nan)\b)", re.IGNORECASE)


def _cells(path: Path) -> list[tuple[str, str]]:
    """A file as (key, token) cells: a CSV's cells keyed by column header,
    a JSON file's leaves by key path, and the numbers of a text file's
    line keyed by the line with each number read as # and its spaces
    squeezed (one empty cell for a line without numbers)."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = list(csv.reader(text.splitlines())) or [[]]
        return [(header[j] if j < len(header) else f"column {j + 1}", cell)
                for row in rows for j, cell in enumerate(row)]
    if path.suffix == ".json":
        try:
            return list(_json_cells(json.loads(text), ""))
        except json.JSONDecodeError:
            pass  # compared as text
    cells = []
    for line in text.splitlines():
        key = " ".join(_NUMBER.sub("#", line).split())
        cells += [(key, n) for n in _NUMBER.findall(line)] or [(key, "")]
    return cells


def _change(old: str, new: str) -> tuple[float, float] | None:
    """(absolute, relative) change between two numeric tokens, or None
    when either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b:
        return 0.0, 0.0
    d = abs(b - a)
    if not math.isfinite(d):
        return math.inf, math.inf
    return d, d / max(abs(a), abs(b))


def _compare_file(old: Path, new: Path) -> tuple[dict, dict] | None:
    """({key: (abs, rel)} of the largest moves of each key's numbers,
    {key: count} of its other tokens that changed), or None when the two
    files' keys differ."""
    cells_old, cells_new = _cells(old), _cells(new)
    if [k for k, _ in cells_old] != [k for k, _ in cells_new]:
        return None
    numbers, other = {}, {}
    for (key, a), (_, b) in zip(cells_old, cells_new):
        if a == b:
            continue
        change = _change(a, b)
        if change is None:
            other[key] = other.get(key, 0) + 1
        else:
            d, rel = numbers.get(key, (0.0, 0.0))
            numbers[key] = (max(d, change[0]), max(rel, change[1]))
    return numbers, other


def _files(rundir: Path) -> set[str]:
    return {p.relative_to(rundir).as_posix() for p in rundir.rglob("*")
            if p.is_file()}


def _read(path: Path) -> str:
    return path.read_text().strip() if path.is_file() else "(none)"


def _compare_run(old: Path, new: Path) -> tuple[list[str], dict]:
    """Report lines for one run, and {file: {key: (abs, rel)}} of its
    numbers that moved; no lines when the run's trees are identical."""
    lines, moved = [], {}
    files_old, files_new = _files(old), _files(new)
    for name in ("exit.txt", "stderr.json"):
        a, b = _read(old / name), _read(new / name)
        if a != b:
            label = "exit code" if name == "exit.txt" else "stderr"
            lines.append(f"  {label}: {a} -> {b}")
    for name in sorted(files_new - files_old - {"stderr.json"}):
        lines.append(f"  added {name}")
    for name in sorted(files_old - files_new - {"stderr.json"}):
        lines.append(f"  missing {name}")
    for name in sorted(files_old & files_new - {"exit.txt", "stderr.json"}):
        if (old / name).read_bytes() == (new / name).read_bytes():
            continue
        result = _compare_file(old / name, new / name)
        if result is None:
            lines.append(f"  {name}: layout changed")
            continue
        numbers, other = result
        if not numbers and not other:
            lines.append(f"  {name}: bytes differ, tokens equal")
        for key, (d, rel) in numbers.items():
            lines.append(f"  {name}  {key}: max abs {d:.3g}, max rel {rel:.3g}")
        for key, count in other.items():
            lines.append(f"  {name}  {key}: {count} non-numeric cells changed")
        moved[name] = numbers
    return lines, moved


def _group(run: str) -> str:
    """The run name less a trailing command or format, then a trailing
    number: pool_03_simulate and pool_04_lambert are both "pool"."""
    run = re.sub("_(" + "|".join(COMMANDS + ("csv", "json")) + ")$", "", run)
    return re.sub(r"(_\d+|[-+]\d+)$", "", run)


def diff(old: Path, new: Path) -> int:
    for tree in (old, new):
        if not tree.is_dir():
            print(f"{tree} is not a directory", file=sys.stderr)
            return 2
    runs_old = {p.name for p in old.iterdir() if p.is_dir()}
    runs_new = {p.name for p in new.iterdir() if p.is_dir()}
    runs = sorted(runs_old | runs_new)
    groups, changed = {}, {}
    moves = {}  # file kind: [(abs, rel, run, key), ...]
    for run in runs:
        group = groups.setdefault(_group(run), [0, 0])
        group[1] += 1
        if run not in runs_new or run not in runs_old:
            lines = ["  run missing" if run not in runs_new else "  run added"]
            moved = {}
        else:
            lines, moved = _compare_run(old / run, new / run)
        if not lines:
            continue
        group[0] += 1
        changed[run] = lines
        for name, numbers in moved.items():
            moves.setdefault(name, []).extend(
                (d, rel, run, key) for key, (d, rel) in numbers.items())
    for run, lines in changed.items():
        print(run)
        print("\n".join(lines))
    print(f"{len(runs)} runs: {len(runs) - len(changed)} unchanged, "
          f"{len(changed)} changed")
    for name, (count, total) in sorted(groups.items()):
        if count:
            print(f"  {name}: {count} of {total} runs changed")
    if moves:
        print("largest change per file kind:")
    for name, entries in sorted(moves.items()):
        d, _, run_a, key_a = max(entries)
        rel, run_r, key_r = max((e[1], e[2], e[3]) for e in entries)
        print(f"  {name}: abs {d:.3g} ({run_a}, {key_a}); "
              f"rel {rel:.3g} ({run_r}, {key_r})")
    return 1 if changed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(Path(argv[1]), Path(argv[2]))
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
