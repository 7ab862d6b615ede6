import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import congruence_stacks


def test_all_lists_exactly_the_public_names_the_package_binds():
    names = congruence_stacks.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(congruence_stacks, name), name
    bound = {
        name
        for name, obj in vars(congruence_stacks).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert set(names) == bound


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package on its path."""
    src = str(Path(congruence_stacks.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


# modules the package must not pull in for these: dataclasses brings inspect,
# ast, dis and tokenize, and output formats live in cli, which loads json only
# for --format json
UNNEEDED_MODULES = ("dataclasses", "inspect", "json")


@pytest.mark.parametrize(
    "statement",
    [
        "import congruence_stacks",
        "from congruence_stacks.cli import main; main(['count', '-n', '12', '-r', '1', '-m', '4', '--witnesses'])",
        "from congruence_stacks.cli import main; main(['count', '-n', '3000', '-r', '2', '-m', '5'])",
    ],
    ids=["import", "count-witnesses", "count-3000"],
)
def test_unneeded_modules_stay_unloaded(statement):
    code = f"import sys; {statement}; print(*[m for m in {UNNEEDED_MODULES!r} if m in sys.modules], file=sys.stderr)"
    assert _run_python("-c", code).stderr == "\n"


def test_table_json_in_a_fresh_interpreter():
    # json is imported inside the JSON branch; its output is pinned byte for byte
    proc = _run_python("-m", "congruence_stacks", "table", "--values", "10,20", "-P", "30", "--format", "json")
    assert proc.stdout == (
        '[{"n": 10, "exact": "10", "asymptotic_mantissa": "1.114747901", "asymptotic_exp10": 1, '
        '"relative_error": "0.1147479007"}, {"n": 20, "exact": "96", "asymptotic_mantissa": "1.029984342", '
        '"asymptotic_exp10": 2, "relative_error": "0.07290035653"}]\n'
    )
