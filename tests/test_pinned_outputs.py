"""Pinned outputs: each listed `cstacks` command against its recorded output.

`count`, `table`, `asym`, `profile` and `decay` pin their whole stdout and
their exit code.  `verify` pins its exit code and its ordered (status, check
name) pairs only: the measured digits may move inside their tolerances.
The commands run in-process through `cli.main`.

A change that moves an output rewrites the file and lists each moved line in
CHANGES.md.  To rewrite it from the current code:

    PYTHONPATH=src python3 tests/test_pinned_outputs.py
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from congruence_stacks import cli

PINNED_FILE = Path(__file__).with_name("pinned_outputs.json")
CHECK_LINE = re.compile(r"^(PASS|FAIL|SKIP)  (.*?)(?:: measured .*|  \(.*\))?$")

_EXACT_WORKLOAD = [
    "count -n 10000",
    "table --values 100,1000,10000",
    "count -n 3000 -r 2 -m 5",
    "table -r 3 -m 5 --values 100,1000,5000 --format json",
    "count -n 12 -r 1 -m 4 --witnesses",
    "asym -n 1000 --full --exact",
]
_VERIFY_WORKLOAD = [
    command + f" --seed {seed}"
    for seed in range(1, 16)
    for command in ("verify all", "verify theta transform eta falsetheta bessel -r 2 -m 5 -P 100")
]
_README = [
    "table -r 1 -m 3 --values 10,100,1000 --format csv",
    "verify all",
    "profile -n 500 --rho 0.5 --grid 720",
    "decay --moduli 3,4,5,6,7",
    "asym -n 10000 --full --exact --terms 16",
]
_MORE = [
    "table --format csv",
    "table --format json",
    "table -r 1 -m 4 --values 5000 -P 30",
    "asym -n 1000 --full --exact --format json",
    "asym -n 1000 --full --exact -P 100",
    "asym -n 1000 --full --exact -P 1200",
    "asym -n 10000000 --full --terms 16",
    "asym -n 10000000 --full --terms 16 -P 1200",
    "asym -r 50 -m 101 -n 10000 --full --exact --terms 16",
    "asym -r 1 -m 4 -n 5000 --full --exact --terms 16 -P 30",
    "asym -r 1 -m 4 -n 5000 --full --exact --terms 16 -P 30 --format json",
    "asym -r 1 -m 4 -n 5000 --full --exact --terms 16 -P 50",
    "asym -r 1 -m 4 -n 5000 --full --exact --terms 16 -P 100",
    "asym -n 1000000000000000000000000000000 --full --terms 16",
    "asym -n 100000 --full --terms 16 -P 1200",
    "asym -r 41 -m 194 -n 1 --full --terms 16",
    "verify contour -r 41 -m 194 -n 0",
    "verify contour -r 41 -m 194 -n 0 --rho 0.1",
    "verify contour -r 70 -m 363 -n 2",
    "verify contour -r 70 -m 363 -n 2 --rho 0.1",
    "decay -r 3 --moduli 4,5,7,8",
]
COMMANDS = list(dict.fromkeys(_EXACT_WORKLOAD + _VERIFY_WORKLOAD + _README + _MORE))


def observe(command: str) -> dict:
    """What the file pins of one command: its exit code, and its stdout lines or its verify statuses."""
    argv = command.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    lines = out.getvalue().splitlines()
    if argv[0] == "verify":
        return {"exit": code, "checks": [list(CHECK_LINE.match(line).groups()) for line in lines[:-1]]}
    return {"exit": code, "stdout": lines}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED_FILE.read_text())


def test_every_command_is_pinned(pinned):
    assert list(pinned) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_the_pinned_file(command, pinned):
    assert observe(command) == pinned[command]


if __name__ == "__main__":
    PINNED_FILE.write_text(json.dumps({command: observe(command) for command in COMMANDS}, indent=1) + "\n")
