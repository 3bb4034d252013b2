#!/usr/bin/env python3
"""Record the reference outcomes of every operation a workload can run.

    PYTHONPATH=src python3 perfbench/record_refs.py

Run it from the repository root on the commit whose outputs are the
reference; it rewrites perfbench/refs.json.  The benchmark's correctness
check compares each operation with its record here (see workloads.py).
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from worker import OUT, Runner, import_cli


def main() -> int:
    cli, _ = import_cli()
    runner = Runner(cli, None, OUT / "record")
    for name in workloads.WORKLOADS:
        runner.write_scenarios(workloads.scenarios(name))
    refs = {}
    for op in workloads.reference_ops():
        shutil.rmtree(runner.op_dir, ignore_errors=True)
        code, stderr, _ = runner.execute(op, runner.op_dir)
        refs[op.ref] = workloads.outcomes(op.command, code, stderr,
                                          runner.op_dir)
        print(op.ref, "exit", code, file=sys.stderr)
    workloads.REFS_PATH.write_text(
        json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
