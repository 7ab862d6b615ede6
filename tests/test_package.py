import ast
import gc
import inspect
import os
import shlex
import subprocess
import sys
from collections import defaultdict
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


def test_no_function_name_is_defined_in_two_modules():
    # one name, one meaning: a second definition is a formula typed twice or a trap for the reader
    modules = defaultdict(set)
    for path in Path(congruence_stacks.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                modules[node.name].add(path.name)
    assert {name: sorted(found) for name, found in modules.items() if len(found) > 1} == {}


def test_bigfloat_binds_the_default_precision_alone():
    # the fixed-point width rule lives in asymptotics; bigfloat imports nothing, mpmath least of all
    body = ast.parse((Path(congruence_stacks.__file__).parent / "bigfloat.py").read_text()).body
    imports = [node for node in body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.ImportFrom) and node.module == "__future__" for node in imports)
    others = [node for node in body if node not in imports and not isinstance(node, ast.Expr)]
    assert [ast.unparse(node) for node in others] == ["DEFAULT_DPS = 50"]


def _run_python(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package on its path."""
    src = str(Path(congruence_stacks.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=check)


# modules the package must not pull in for these: dataclasses brings inspect,
# ast, dis and tokenize; output formats live in cli, which loads json only
# for --format json; and analytic, the modular kernels and the contour
# numerics, loads only for verify, profile and decay, and statistics only for
# decay's fit.  (cmath is no such module: mpmath, which the package imports,
# loads it.)
ANALYTIC = "congruence_stacks.analytic"
UNNEEDED_MODULES = ("dataclasses", "inspect", "json", "statistics", ANALYTIC)


def _main(*argv: str) -> str:
    return f"from congruence_stacks.cli import main; main({list(argv)!r})"


@pytest.mark.parametrize(
    "statement, needed",
    [
        ("import congruence_stacks", ()),
        (_main("count", "-n", "12", "-r", "1", "-m", "4", "--witnesses"), ()),
        (_main("count", "-n", "3000", "-r", "2", "-m", "5"), ()),
        # the other commands of perfbench's exact workload
        (_main("count", "-n", "10000"), ()),
        (_main("table", "--values", "100,1000,10000"), ()),
        (_main("table", "-r", "3", "-m", "5", "--values", "100,1000,5000", "--format", "json"), ("json",)),
        (_main("asym", "-n", "1000", "--full", "--exact"), ()),
        (_main("verify", "all"), (ANALYTIC,)),
        (_main("profile", "-n", "500", "--grid", "90"), (ANALYTIC,)),
    ],
    ids=[
        "import", "count-witnesses", "count-3000", "count-10000", "table", "table-json", "asym-full-exact",
        "verify-all", "profile",
    ],
)
def test_unneeded_modules_stay_unloaded(statement, needed):
    unneeded = tuple(m for m in UNNEEDED_MODULES if m not in needed)
    code = f"import sys; {statement}; print(*[m for m in {unneeded!r} if m in sys.modules], file=sys.stderr)"
    assert _run_python("-c", code).stderr == "\n"


def test_verify_loads_analytic():
    code = f"import sys; {_main('verify', 'eta')}; print({ANALYTIC!r} in sys.modules, file=sys.stderr)"
    assert _run_python("-c", code).stderr == "True\n"


def test_analytic_names_load_on_first_use():
    # a fresh interpreter, so the names are not bound yet
    code = (
        "import sys, congruence_stacks as cs; print(cs.__dict__.get('theta_sum'), end=' '); "
        "from congruence_stacks import theta_sum; analytic = sys.modules['congruence_stacks.analytic']; "
        "print(theta_sum is analytic.theta_sum is cs.__dict__['theta_sum'], "
        "cs.circle_profile is analytic.circle_profile)"
    )
    assert _run_python("-c", code).stdout == "None True True\n"


def test_dir_lists_the_lazy_names_before_they_load():
    code = f"import sys, congruence_stacks as cs; print(set(cs.__all__) <= set(dir(cs)), {ANALYTIC!r} in sys.modules)"
    assert _run_python("-c", code).stdout == "True False\n"


def test_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError, match="^module 'congruence_stacks' has no attribute 'no_such_name'$"):
        congruence_stacks.no_such_name


def test_table_json_in_a_fresh_interpreter():
    # json is imported inside the JSON branch; its output is pinned byte for byte
    proc = _run_python("-m", "congruence_stacks", "table", "--values", "10,20", "-P", "30", "--format", "json")
    assert proc.stdout == (
        '[{"n": 10, "exact": "10", "asymptotic_mantissa": "1.114747901", "asymptotic_exp10": 1, '
        '"relative_error": "0.1147479007"}, {"n": 20, "exact": "96", "asymptotic_mantissa": "1.029984342", '
        '"asymptotic_exp10": 2, "relative_error": "0.07290035653"}]\n'
    )


# The process entry point run() freezes the import heap with gc.freeze();
# cli.main, called in-process, must not.


def test_main_in_process_freezes_nothing(capsys):
    from congruence_stacks.cli import main

    assert gc.get_freeze_count() == 0
    assert main(["count", "-n", "12", "-r", "1", "-m", "4"]) == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("code", [0, 1, 2])
def test_run_freezes_before_dispatch_and_exits_with_mains_code(code):
    stub = f"lambda: print(gc.get_freeze_count()) or {code}"
    proc = _run_python(
        "-c", f"import gc; from congruence_stacks import cli; cli.main = {stub}; cli.run()", check=False
    )
    assert proc.returncode == code
    assert int(proc.stdout) > 0


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_cstacks_script_is_run():
    import tomllib

    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["cstacks"] == "congruence_stacks.cli:run"


def test_frozen_exit_still_reports_invalid_input():
    proc = _run_python("-m", "congruence_stacks", "count", "-n", "10", "-r", "2", "-m", "4", check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: r and m must be coprime, got gcd(2, 4) = 2\n"


def test_readme_quick_tour_states_what_it_computes():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    # each expression line's comment states its value; "..." ends a prefix, text after a comma is prose
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment or " = " in code:
            continue
        shown = comment.split(", ")[0]
        value = repr(eval(code, namespace))
        assert value.startswith(shown[:-3]) if shown.endswith("...") else value == shown, line
        stated.append(shown)
    assert stated == ["3167122", "7", "'3.286e+6'", "0.0375..."]


def test_readme_commands_parse():
    # every `cstacks` line of the README's sh blocks, comment stripped, names only options the parser has
    from congruence_stacks.cli import build_parser

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in readme.split("```sh\n")[1:]]
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["cstacks"]]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: cstacks {shlex.join(argv)}")
