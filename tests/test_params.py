import numpy as np
import pytest

from prolate import (Povm, PovmElement, ProbeState, SlepianParams, build_basis,
                     probabilities_limited)


def test_omega_always_derived():
    p = SlepianParams(c=6.0, T=2.0)
    assert p.omega == 3.0


def test_rejects_nonpositive():
    for c, T in ((0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -3.0)):
        with pytest.raises(ValueError):
            SlepianParams(c=c, T=T)


def test_dimensionless_outputs_invariant_under_rescaling():
    # same c, different T: identical probabilities for identical coefficients
    probe = ProbeState([1.0], [np.eye(5)[0]])
    povm = Povm((PovmElement([1.0], [np.eye(5)[1] * 0.8 + np.eye(5)[0] * 0.6]),))
    p1 = probabilities_limited(probe, povm, build_basis(SlepianParams(3.0, T=1.0), n_max=4))
    p2 = probabilities_limited(probe, povm, build_basis(SlepianParams(3.0, T=2.5), n_max=4))
    assert np.max(np.abs(p1 - p2)) < 1e-12
