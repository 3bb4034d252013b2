"""Cold start: scipy is imported only when linalg.expm or
linalg.solve_lyapunov runs, so only the `response` command loads it.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded already.  A module-level `import scipy` anywhere in the package
fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """\
import json, sys
import numpy as np
from orbitloop import cli, linalg
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
report = {"code": code, "scipy": "scipy" in sys.modules}
if report["scipy"]:
    import scipy.linalg
    m = np.random.default_rng(3).standard_normal((4, 4))
    ref = scipy.linalg.expm(m)
    report["expm_rel_err"] = float(np.abs(linalg.expm(m) - ref).max()
                                   / np.abs(ref).max())
print(json.dumps(report))
"""


def _probe(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _command(tmp_path, name):
    return (name, "--scenario", str(ROOT / "scenarios" / "default.json"),
            "--out", str(tmp_path / "out"), "--set", "horizon_s=20")


def test_import_cli_loads_no_scipy(tmp_path):
    assert _probe(tmp_path) == {"code": 0, "scipy": False}


@pytest.mark.parametrize("name", ["analyze", "synthesize", "lambert",
                                  "simulate", "compare", "drift"])
def test_command_loads_no_scipy(tmp_path, name):
    assert _probe(tmp_path, *_command(tmp_path, name)) == \
        {"code": 0, "scipy": False}


def test_response_loads_scipy_for_expm(tmp_path):
    report = _probe(tmp_path, *_command(tmp_path, "response"))
    assert report["code"] == 0
    assert report["scipy"] is True
    assert report["expm_rel_err"] <= 1e-15
