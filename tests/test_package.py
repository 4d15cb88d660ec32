import types

import prolate


def test_all_names_resolve():
    namespace = {}
    exec("from prolate import *", namespace)
    for name in prolate.__all__:
        assert name in namespace, name


def test_all_lists_every_public_attribute():
    public = {name for name, value in vars(prolate).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(prolate.__all__)
    assert len(prolate.__all__) == len(set(prolate.__all__))
