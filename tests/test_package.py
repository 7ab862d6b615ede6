import inspect

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
