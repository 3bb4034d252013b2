"""Workload definitions and the reference check for the orbitloop benchmark.

A workload is an endless sequence of rounds; a round is a list of CLI
operations.  Every input is derived from the benchmark seed, and every
operation carries the key of its reference record in refs.json, which was
recorded from the seed commit by record_refs.py.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# The noisy_observer scenario is kept here rather than read from the
# repository's scenarios/ directory, so that the benchmark's input cannot
# change with the program.
NOISY_OBSERVER = {
    "horizon_s": 400.0,
    "method": "observer_lqr",
    "measurement_noise_sigma": [0.001, 0.001],
}
NOISE_SEEDS = 16  # noisy_observer uses noise_seed = seed mod NOISE_SEEDS

# design_sweep draws its scenarios from a fixed pool, so that every scenario
# it can run has a recorded reference; the seed picks the order.  A run
# covers the whole pool at least once (one pass is about 9 s on 2 shared
# vCPUs), so its count of known failures does not depend on the seed or on
# the machine's speed.
POOL_SEED = 20261017
POOL_SIZE = 32
DESIGN_COMMANDS = ("analyze", "synthesize", "lambert", "response")

WORKLOADS = ("compare_400s", "noisy_observer", "design_sweep")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `orbitloop <command> --scenario <scenario>.json`
    plus overrides, checked against reference `ref`."""

    command: str
    scenario: str
    overrides: tuple[str, ...]
    ref: str

    def argv(self, scenario_dir: Path, outdir: Path) -> list[str]:
        argv = [self.command, "--scenario",
                str(scenario_dir / f"{self.scenario}.json"),
                "--out", str(outdir)]
        for item in self.overrides:
            argv += ["--set", item]
        return argv


def _log_uniform(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-1.0, 1.0)


def design_pool() -> list[dict]:
    """The design_sweep scenarios: per-axis diagonal weights log-uniform on
    [0.1, 10], observer speed factor in [2, 6], SRP sun angle in [0, pi/2]."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        pool.append({
            "weights": {"q": [_log_uniform(rng) for _ in range(4)],
                        "r": [_log_uniform(rng) for _ in range(2)]},
            "observer_speed_factor": rng.uniform(2.0, 6.0),
            "srp": {"theta0_rad": rng.uniform(0.0, math.pi / 2)},
        })
    return pool


def scenarios(workload: str) -> dict[str, dict]:
    """Scenario trees the workload's operations refer to, by file stem."""
    if workload == "compare_400s":
        return {"default": {}}
    if workload == "noisy_observer":
        return {"noisy_observer": NOISY_OBSERVER}
    if workload == "design_sweep":
        return {f"design_{i:03d}": tree for i, tree in enumerate(design_pool())}
    raise ValueError(f"unknown workload {workload!r}")


def noise_seed(seed: int) -> int:
    return seed % NOISE_SEEDS


def _design_ops(i: int) -> list[Op]:
    return [Op(cmd, f"design_{i:03d}", (), f"design_{i:03d}/{cmd}")
            for cmd in DESIGN_COMMANDS]


def rounds_per_pass(workload: str) -> int:
    """Rounds in which a workload runs each of its operations once."""
    return POOL_SIZE if workload == "design_sweep" else 1


def round_ops(workload: str, seed: int, index: int) -> list[Op]:
    """Operations of round `index` of a workload under a benchmark seed."""
    if workload == "compare_400s":
        return [Op("compare", "default", ("horizon_s=400",), "compare_400s")]
    if workload == "noisy_observer":
        n = noise_seed(seed)
        return [Op("simulate", "noisy_observer", (f"noise_seed={n}",),
                   f"noisy_observer/{n}")]
    if workload == "design_sweep":
        order = random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)
        return _design_ops(order[index % POOL_SIZE])
    raise ValueError(f"unknown workload {workload!r}")


def reference_ops() -> list[Op]:
    """Every operation any seed can run, each once."""
    ops = round_ops("compare_400s", 0, 0)
    ops += [round_ops("noisy_observer", n, 0)[0] for n in range(NOISE_SEEDS)]
    for i in range(POOL_SIZE):
        ops += _design_ops(i)
    return ops


# ---------------------------------------------------------------------------
# Output extraction

def _rows(path: Path) -> int:
    """Data rows of a CSV series file (lines minus the header)."""
    return path.read_bytes().count(b"\n") - 1


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def extract(command: str, outdir: Path) -> dict:
    """The reference-checked numbers of one operation's output files.
    Raises OSError or KeyError when an expected file or field is missing."""
    if command == "analyze":
        d = _load(outdir / "analyze.json")
        keys = ("rank_controllability", "rank_observability", "n_states",
                "stability_class", "open_loop_eigenvalues",
                "natural_freq_sq_per_s2")
        return {k: d[k] for k in keys}
    if command == "synthesize":
        d = _load(outdir / "synthesize.json")
        return {"gain_k": d["gain_k"], "observer_gain_l": d["observer_gain_l"],
                "hinf": d["hinf"]}
    if command == "lambert":
        d = _load(outdir / "lambert.json")
        return {"v1_km_s": d["v1_km_s"],
                "closure_residual_km": d["closure_residual_km"]}
    if command == "response":
        d = _load(outdir / "response.json")
        return {"step_settling_time_s": d["step_settling_time_s"],
                "rows": {name: _rows(outdir / f"{name}.csv") for name in (
                    "step_response", "frequency_lqr",
                    "frequency_observer_lqr")}}
    if command == "simulate":
        d = _load(outdir / "metrics.json")
        return {"metrics": d, "rows": _rows(outdir / "trajectory.csv")}
    if command == "compare":
        d = _load(outdir / "compare.json")
        return {
            "gain_k": d["gain_k"],
            "observer_gain_l": d["observer_gain_l"],
            "methods": {
                name: {"metrics": row["metrics"], "error": row["error"],
                       "rows": None if row["error"] is not None
                       else _rows(outdir / f"trajectory_{name}.csv")}
                for name, row in d["methods"].items()
            },
        }
    raise ValueError(f"no extractor for {command!r}")


def outcomes(command: str, code: int, stderr: str, outdir: Path) -> dict:
    """What one operation produced, as the records the reference check
    compares: {"outputs": ...} on success, else the exit code with the
    error type, or the missing output.  `compare` gives one record per
    method row, every other command one record under the key ""."""
    if code != 0:
        try:
            error = json.loads(stderr.strip().splitlines()[-1])["error"]
        except (IndexError, ValueError, KeyError, TypeError):
            error = "unstructured"
        return {"": {"exit": code, "error": error}}
    try:
        outputs = extract(command, outdir)
    except (OSError, KeyError, ValueError) as exc:
        return {"": {"missing": f"{type(exc).__name__}: {exc}"}}
    if command != "compare":
        return {"": {"outputs": outputs}}
    shared = {k: outputs[k] for k in ("gain_k", "observer_gain_l")}
    return {
        name: {"exit": 0, "error": row["error"]} if row["error"] is not None
        else {"outputs": {**shared, "metrics": row["metrics"],
                          "rows": row["rows"]}}
        for name, row in outputs["methods"].items()
    }


# ---------------------------------------------------------------------------
# Reference comparison

# (rtol, atol) per field name; a value passes when |got - ref| <= rtol*|ref|
# + atol elementwise.  Today's outputs repeat bit for bit; the tolerances
# admit a later change of arithmetic (dense output, another Riccati solver)
# but not a change of result.  Fields not listed must match exactly.
TOLERANCES = {
    "open_loop_eigenvalues": (1e-9, 1e-15),
    "natural_freq_sq_per_s2": (1e-12, 0.0),
    "gain_k": (1e-8, 1e-12),
    "observer_gain_l": (1e-8, 1e-12),
    # H-infinity bisection stops at a relative gap of 1e-3.
    "gamma": (1e-3, 0.0),
    "v1_km_s": (1e-9, 0.0),
    # Position figures are checked to the 1e-5 km grid-refinement tolerance.
    "closure_residual_km": (1e-6, 1e-8),
    "terminal_error_km": (1e-6, 1e-5),
    "rms_error_km": (1e-6, 1e-5),
    "control_energy_km2_s3": (1e-6, 1e-9),
    # Settling times may move by one output sample (0.1 s; 0.01 s for the
    # step response) when roundoff moves a threshold crossing.
    "settling_time_s": (0.0, 0.1 + 1e-9),
    "step_settling_time_s": (0.0, 0.01 + 1e-9),
}


def _close(got, ref, tol) -> bool:
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(_close(g, r, tol) for g, r in zip(got, ref)))
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        rtol, atol = tol
        return abs(got - ref) <= rtol * abs(ref) + atol
    return got == ref


def mismatches(got, ref, path: str = "") -> list[str]:
    """Dotted paths at which `got` differs from the reference record."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [path or "."]
        out = []
        for key in sorted(ref):
            out += mismatches(got[key], ref[key], f"{path}.{key}" if path else key)
        return out
    tol = TOLERANCES.get(path.rsplit(".", 1)[-1], (0.0, 0.0))
    return [] if _close(got, ref, tol) else [path]


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())
