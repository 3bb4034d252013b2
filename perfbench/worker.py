"""Child process of the orbitloop benchmark.

    python3 perfbench/worker.py setup
        imports orbitloop.cli and prints the import time as JSON.
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE
        imports orbitloop.cli, then runs passes of the workload through
        orbitloop.cli.main until SECONDS have passed, checks every
        operation's outputs against refs.json and prints one JSON object.

run.py starts it from the checkout root with PYTHONPATH=src and the
BLAS/OpenMP thread variables set to 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"


def import_cli():
    """Import orbitloop.cli from the checkout; returns (module, seconds)."""
    start = time.perf_counter()
    import orbitloop.cli as cli
    elapsed = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"orbitloop was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli, elapsed


class Runner:
    """Runs operations through the CLI and checks them against references.

    `attempted` counts distinct operations, however often a run repeats
    them, so that it and `failed` depend on the workload and not on how
    many rounds fit in the time; a compare call counts one per method row.
    An operation fails on a nonzero exit code, a missing output, a method
    row with an error, or a mismatch with its reference, and counts as
    failed if any of its repeats fails.  A failure that the reference also
    recorded is `known`; any other one makes the run incorrect.  An
    operation whose reference recorded a failure but which now succeeds
    cannot be checked and counts as `unverified`.
    """

    def __init__(self, cli, refs: dict | None, workdir: Path):
        self.cli = cli
        self.refs = refs
        self.scenario_dir = workdir / "scenarios"
        self.op_dir = workdir / "op"
        # (reference key, record name) -> "ok", "failed", "known" or
        # "unverified"; a failure outranks any other outcome.
        self.outcome: dict[tuple[str, str], str] = {}
        self.problems: list[str] = []
        self.bytes_written = 0

    def _count(self, state: str) -> int:
        return sum(1 for v in self.outcome.values() if v == state)

    @property
    def attempted(self) -> int:
        return len(self.outcome)

    @property
    def failed(self) -> int:
        return self._count("failed") + self._count("known")

    @property
    def known(self) -> int:
        return self._count("known")

    @property
    def unverified(self) -> int:
        return self._count("unverified")

    def write_scenarios(self, trees: dict[str, dict]):
        self.scenario_dir.mkdir(parents=True, exist_ok=True)
        for stem, tree in trees.items():
            (self.scenario_dir / f"{stem}.json").write_text(json.dumps(tree))

    def execute(self, op, outdir: Path, tracer=None) -> tuple[int, str, float]:
        """Run one operation; returns (exit code, stderr, wall seconds)."""
        argv = op.argv(self.scenario_dir, outdir)
        err = io.StringIO()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(err):
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad arguments
                    code = exc.code if isinstance(exc.code, int) else 2
            elapsed = time.perf_counter() - start
        return code, err.getvalue(), elapsed

    def run(self, op, tracer=None) -> float:
        """Run and check one operation in a fresh output directory; returns
        its wall time, which excludes the clean-up and the check."""
        shutil.rmtree(self.op_dir, ignore_errors=True)
        code, stderr, elapsed = self.execute(op, self.op_dir, tracer)
        self.bytes_written += sum(p.stat().st_size
                                  for p in self.op_dir.glob("*") if p.is_file())
        self.check(op.ref, workloads.outcomes(op.command, code, stderr,
                                              self.op_dir))
        return elapsed

    def check(self, ref_key: str, got: dict):
        # A failure of the whole operation stands for each of its records.
        for name, want in self.refs[ref_key].items():
            have = got.get(name) or got.get("") or {"missing": name}
            if "outputs" not in have:
                state = "known" if have == want else "failed"
                if state == "failed":
                    self.problems.append(f"{ref_key} {name}: {have}, "
                                         f"reference {want}")
            elif "outputs" not in want:
                state = "unverified"
            else:
                bad = workloads.mismatches(have["outputs"], want["outputs"])
                state = "failed" if bad else "ok"
                if bad:
                    self.problems.append(f"{ref_key} {name}: differs at {bad}")
            key = (ref_key, name)
            if self.outcome.get(key) not in ("failed", "known"):
                self.outcome[key] = state


def layer_metrics(tracer, rounds: int, count_rhs: bool,
                  bytes_written: int) -> dict:
    """Per-layer figures per round, from the spans and counters."""
    tot = tracer.totals()
    calls = tracer.counts

    def per_round(value):
        return value / rounds

    grid_s = per_round(tot["dopri.propagate_grid"]["s"])
    samples = per_round(calls["dopri.output_samples"])
    rhs = per_round(calls["dopri.rhs_evals"]) if count_rhs else None
    return {
        "dopri.propagate_grid_s": grid_s,
        "dopri.propagate_grid_calls": per_round(tot["dopri.propagate_grid"]["calls"]),
        "dopri.rhs_evals": rhs,
        "dopri.output_samples": samples,
        "dopri.rhs_evals_per_sample": rhs / samples if rhs and samples else None,
        "dopri.us_per_rhs": 1e6 * grid_s / rhs if rhs else None,
        "cli.build_scenario_s": per_round(tot["cli.build_scenario"]["s"]),
        "cli.write_series_s": per_round(tot["cli.write_series"]["s"]),
        "cli.write_series_rows": per_round(calls["cli.write_series_rows"]),
        "cli.bytes_written": per_round(bytes_written),
        "cli.self_s": per_round(tot["cli.main"]["self_s"]),
        "simulate.run_scenario.self_s": per_round(tot["simulate.run_scenario"]["self_s"]),
        "simulate.compute_metrics_s": per_round(tot["simulate.compute_metrics"]["s"]),
        "simulate.compare_methods.self_s": per_round(
            tot["simulate.compare_methods"]["self_s"]),
        "synthesis.lqr_gain_s": per_round(tot["synthesis.lqr_gain"]["s"]),
        "synthesis.observer_gain_s": per_round(tot["synthesis.observer_gain"]["s"]),
        "synthesis.hinf_state_feedback_s": per_round(
            tot["synthesis.hinf_state_feedback"]["s"]),
        "synthesis.solve_care_calls": per_round(tot["synthesis.solve_care"]["calls"]),
        "synthesis.solve_hinf_riccati_calls": per_round(
            tot["synthesis.solve_hinf_riccati"]["calls"]),
        "dynamics.lambert_solve_s": per_round(tot["dynamics.lambert_solve"]["s"]),
        "dynamics.lambert_solve_calls": per_round(
            tot["dynamics.lambert_solve"]["calls"]),
        "ltisys.step_response_s": per_round(tot["ltisys.step_response"]["s"]),
        "ltisys.frequency_response_s": per_round(tot["ltisys.frequency_response"]["s"]),
        "linalg.solve_lyapunov_calls": per_round(tot["linalg.solve_lyapunov"]["calls"]),
        "linalg.expm_calls": per_round(tot["linalg.expm"]["calls"]),
    }


def run_workload(cli, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    runner = Runner(cli, workloads.load_refs(), OUT / workload)
    runner.write_scenarios(workloads.scenarios(workload))
    using_numba = bool(getattr(sys.modules["orbitloop"], "USING_NUMBA", False))
    tracer = Tracer() if trace else None
    restore = tracer.install(count_rhs=not using_numba) if trace else None
    per_pass = workloads.rounds_per_pass(workload)
    round_wall = []
    start = time.perf_counter()
    try:
        # Run whole passes, so that every run covers each of the workload's
        # operations equally often; start a pass only if one more like the
        # last still ends in time.
        last_pass = 0.0
        while not round_wall or \
                time.perf_counter() - start + last_pass <= seconds:
            pass_start = time.perf_counter()
            for _ in range(per_pass):
                ops = workloads.round_ops(workload, seed, len(round_wall))
                round_wall.append(sum(runner.run(op, tracer) for op in ops))
            last_pass = time.perf_counter() - pass_start
    finally:
        if restore:
            restore()
    result = {
        "round_wall_s": round_wall,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "known_failures": runner.known,
        "unverified": runner.unverified,
        "problems": runner.problems,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "using_numba": using_numba,
    }
    if trace:
        result["layers"] = layer_metrics(tracer, len(round_wall),
                                         not using_numba, runner.bytes_written)
        result["layers"]["trace.wall_s"] = statistics.median(round_wall)
    return result


def main(argv: list[str]) -> int:
    cli, import_s = import_cli()
    if argv[0] == "setup":
        print(json.dumps({"import_s": import_s}))
        return 0
    workload, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), \
        argv[4] == "1"
    result = run_workload(cli, workload, seed, seconds, trace)
    result["import_s"] = import_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
