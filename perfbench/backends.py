#!/usr/bin/env python3
"""Run `orbitloop compare` on each propagation backend and check that they
agree bit for bit.

    python3 perfbench/backends.py

Run it from the repository root.  Each backend runs in its own process, so
the import-time choice is honest: the pure-Python kernel under
ORBITLOOP_NO_NUMBA=1, and the numba kernel when numba can be imported.  A
missing backend is reported, not treated as an error.  With both present,
every output file must be byte-identical; the exit code is 1 otherwise.
"""

from __future__ import annotations

import filecmp
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out" / "backends"
HORIZON_S = 40.0


def run_backend(name: str) -> tuple[Path, float]:
    """Run compare on one backend; returns (output directory, wall seconds,
    numba compilation included)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if name == "python":
        env["ORBITLOOP_NO_NUMBA"] = "1"
    else:
        env.pop("ORBITLOOP_NO_NUMBA", None)
    outdir = OUT / name
    check = (f"import orbitloop, sys; "
             f"sys.exit(0 if orbitloop.USING_NUMBA == {name == 'numba'} else 3)")
    subprocess.run([sys.executable, "-c", check], env=env, check=True,
                   timeout=120)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "orbitloop.cli", "compare",
         "--scenario", str(OUT / "default.json"), "--out", str(outdir),
         "--set", f"horizon_s={HORIZON_S}"],
        env=env, check=True, capture_output=True, timeout=600)
    return outdir, time.perf_counter() - start


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "default.json").write_text("{}\n")
    outputs = {}
    for name in ("numba", "python"):
        if name == "numba" and importlib.util.find_spec("numba") is None:
            print("numba : missing (not importable); skipped")
            continue
        outputs[name], wall = run_backend(name)
        print(f"{name:6s}: compare over {HORIZON_S:g} s in {wall:.2f} s")
    if len(outputs) < 2:
        print("only one backend present: nothing to compare")
        return 0
    files = sorted(p.name for p in outputs["python"].iterdir())
    _, differ, missing = filecmp.cmpfiles(outputs["numba"], outputs["python"],
                                          files, shallow=False)
    if differ or missing:
        print(f"backends disagree: differ {differ}, missing {missing}")
        return 1
    print(f"backends agree bit for bit on {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
