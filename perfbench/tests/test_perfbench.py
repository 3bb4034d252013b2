"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Run from the repository root.
"""

from __future__ import annotations

import copy
import filecmp
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import Runner, import_cli  # noqa: E402


def _ops(name, seed, rounds=40):
    return [workloads.round_ops(name, seed, i) for i in range(rounds)]


def test_workload_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.scenarios(name) == workloads.scenarios(name)
        for seed in (0, 1, 977):
            assert _ops(name, seed) == _ops(name, seed)
    assert _ops("design_sweep", 0) != _ops("design_sweep", 1)
    assert _ops("noisy_observer", 0) != _ops("noisy_observer", 1)


def test_every_generated_operation_has_a_reference():
    refs = workloads.load_refs()
    assert {op.ref for op in workloads.reference_ops()} == set(refs)
    for name in workloads.WORKLOADS:
        for seed in (0, 5, 31):
            for ops in _ops(name, seed, rounds=workloads.POOL_SIZE):
                assert all(op.ref in refs for op in ops)


def test_reference_check_flags_changed_results_only():
    want = workloads.load_refs()["compare_400s"]["lqr"]["outputs"]
    assert workloads.mismatches(copy.deepcopy(want), want) == []
    roundoff = copy.deepcopy(want)
    roundoff["gain_k"][0][0] *= 1 + 1e-12
    assert workloads.mismatches(roundoff, want) == []
    wrong = copy.deepcopy(want)
    wrong["metrics"]["rms_error_km"] *= 1 + 1e-3
    wrong["rows"] -= 1
    assert workloads.mismatches(wrong, want) == ["metrics.rms_error_km", "rows"]


def test_repeated_operations_count_once(tmp_path):
    refs = workloads.load_refs()
    known = next(k for k, v in refs.items()
                 if k.startswith("design_") and "outputs" not in v[""])
    runner = Runner(None, refs, tmp_path)
    for _ in range(3):
        runner.check("compare_400s", refs["compare_400s"])
        runner.check(known, refs[known])
    assert (runner.attempted, runner.failed, runner.known) == (5, 1, 1)
    assert runner.problems == []


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "design_sweep",
         "--seed", "3", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[kind]}


def test_tracing_leaves_output_files_byte_identical(tmp_path):
    cli, _ = import_cli()
    runner = Runner(cli, None, tmp_path)
    for name in workloads.WORKLOADS:
        runner.write_scenarios(workloads.scenarios(name))
    short = ("horizon_s=20",)
    ops = [workloads.Op("compare", "default", short, ""),
           workloads.Op("simulate", "noisy_observer", short + ("noise_seed=3",), "")]
    ops += workloads.round_ops("design_sweep", 0, 0)
    tracer = Tracer()
    for i, op in enumerate(ops):
        runner.execute(op, tmp_path / "plain" / str(i))
    restore = tracer.install(count_rhs=not sys.modules["orbitloop"].USING_NUMBA)
    try:
        for i, op in enumerate(ops):
            runner.execute(op, tmp_path / "traced" / str(i), tracer)
    finally:
        restore()
    assert tracer.totals()["dopri.propagate_grid"]["calls"] > 0
    for i in range(len(ops)):
        plain, traced = tmp_path / "plain" / str(i), tmp_path / "traced" / str(i)
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in traced.iterdir())
        _, differ, missing = filecmp.cmpfiles(plain, traced, names, shallow=False)
        assert (differ, missing) == ([], [])


def test_backend_check_reports_a_missing_backend():
    proc = subprocess.run([sys.executable, str(BENCH / "backends.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "python:" in proc.stdout
    assert ("missing" in proc.stdout) or ("agree bit for bit" in proc.stdout)
