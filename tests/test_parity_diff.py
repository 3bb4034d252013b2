"""`tools/parity.py --diff OLD NEW` on small trees laid out as the matrix
writes them: one directory per run, holding exit.txt, stdout.txt, files/
and, for a run that failed, stderr.json."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def _write_tree(root):
    for run, x in (("compare_400s_csv", 1.0), ("pool_03_simulate", 2.0)):
        files = root / run / "files"
        files.mkdir(parents=True)
        (root / run / "exit.txt").write_text("0\n")
        (root / run / "stdout.txt").write_text(f"terminal error = {x} km\n")
        (files / "trajectory.csv").write_text(
            f"t,x_p,y_p\n0,{x},0\n0.1,{x + 1.0},0.5\n")
        (files / "metrics.json").write_text(
            json.dumps({"terminal_error_km": x, "method": "lqr"}))


def _move_one_number(run):
    (run / "files" / "trajectory.csv").write_text(
        "t,x_p,y_p\n0,2,0\n0.1,2.5,0.5\n")


def _fail(run):
    (run / "exit.txt").write_text("1\n")
    (run / "stderr.json").write_text('{"error": "NumericalError"}\n')


def _drop_metrics(run):
    (run / "files" / "metrics.json").unlink()


@pytest.mark.parametrize("change, code, report", [
    (None, 0, []),
    (_move_one_number, 1,
     ["files/trajectory.csv  x_p: max abs 0.5, max rel 0.167"]),
    (_fail, 1, ["exit code: 0 -> 1",
                'stderr: (none) -> {"error": "NumericalError"}']),
    (_drop_metrics, 1, ["missing files/metrics.json"]),
], ids=["equal", "one_number_moved", "exit_code_changed", "missing_file"])
def test_diff_reports_each_change(tmp_path, change, code, report):
    old, new = tmp_path / "old", tmp_path / "new"
    _write_tree(old)
    _write_tree(new)
    if change is not None:
        change(new / "pool_03_simulate")
    proc = subprocess.run([sys.executable, str(PARITY), "--diff", str(old),
                           str(new)], capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    lines = proc.stdout.splitlines()
    if change is None:
        assert lines == ["2 runs: 2 unchanged, 0 changed"]
        return
    assert lines[:len(report) + 1] == \
        ["pool_03_simulate"] + [f"  {line}" for line in report]
    assert lines[len(report) + 1:len(report) + 3] == \
        ["2 runs: 1 unchanged, 1 changed", "  pool: 1 of 1 runs changed"]
    if change is _move_one_number:
        assert lines[-2:] == [
            "largest change per file kind:",
            "  files/trajectory.csv: abs 0.5 (pool_03_simulate, x_p); "
            "rel 0.167 (pool_03_simulate, x_p)"]
