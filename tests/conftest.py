import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from prolate import SlepianParams, build_basis


@pytest.fixture(scope="session")
def basis_cache():
    """Memoized basis construction shared across the whole run."""
    cache = {}

    def get(c, n_max=None, T=1.0):
        key = (c, n_max, T)
        if key not in cache:
            cache[key] = build_basis(SlepianParams(c=c, T=T), n_max=n_max)
        return cache[key]

    return get
