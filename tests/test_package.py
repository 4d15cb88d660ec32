import importlib
import importlib.util
import os
import subprocess
import sys
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
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    # install looks each name up as the traced run does, and wraps every
    # namespace that imported it; uninstall puts the originals back
    import prolate.cli
    original = prolate.build_basis
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert prolate.build_basis is not original and prolate.cli.build_basis is not original
        prolate.build_basis(prolate.SlepianParams(2.0))
    finally:
        tracer.uninstall()
    assert tracer.counts["basis.build_basis.calls"] == 1
    assert prolate.build_basis is original and prolate.cli.build_basis is original


def test_runtime_needs_numpy_only(tmp_path):
    # scipy and mpmath are test oracles; the package must import and run without them
    script = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
        "import prolate\n"
        "from prolate.cli import main\n"
        "basis = prolate.build_basis(prolate.SlepianParams(5.0))\n"
        "assert basis.n_max == 11, basis.n_max\n"
        "sys.exit(main(['spectrum', '--c', '5', '--out', 'spec.csv']))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(prolate.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "spec.csv").exists()
