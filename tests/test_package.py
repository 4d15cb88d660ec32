import importlib
import importlib.util
import types
from pathlib import Path

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


def test_traced_names_resolve():
    # the traced bench run wraps each TRACED function by name, so a deletion
    # from the package must not leave a name there behind; test_all_names_resolve
    # does the same for __all__
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name, _ in tracing.TRACED:
        assert hasattr(importlib.import_module(module), name), (module, name)
