import inspect
import os
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_json_unloaded():
    # output formats live in cli, so the library itself loads no json
    src = str(Path(congruence_stacks.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, congruence_stacks; print('json' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
