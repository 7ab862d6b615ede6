"""Record the outputs that the correctness gate compares against.

    python3 perfbench/record_reference.py

Run from the source root at the commit whose outputs are the reference.  It
runs every command line of the workloads (keyed without `verify --seed`,
which only draws test points) and writes what checks.facts extracts from
its output to perfbench/reference.json.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    root = Path.cwd()
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    commands = {checks.reference_key(argv): argv for name in workloads.WORKLOADS for argv in workloads.commands(name, 0)}
    reference = {}
    with tempfile.TemporaryDirectory(dir=build, prefix="perfbench-") as workdir:
        runner = run.Runner(root, Path(workdir), time.perf_counter() + 3600)
        for key, argv in commands.items():
            res = runner.command(argv, traced=False)
            if res.returncode != 0:
                print(f"cstacks {key} exited with {res.returncode}:\n{res.stderr}", file=sys.stderr)
                return 1
            reference[key] = checks.facts(argv, res.stdout)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
