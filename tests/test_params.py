import functools
import math

import numpy as np
import pytest

from prolate import (DerivativeBasis, FisherMatrix, GaussianPsf, MeasurementDesign, Povm,
                     ProbeState, SlepianParams, TwoPulseModel, build_basis,
                     design_from_sphere, probabilities_limited)
from prolate.quadrature import real_line_rule


def test_omega_always_derived():
    p = SlepianParams(c=6.0, T=2.0)
    assert p.omega == 3.0


def test_rejects_nonpositive():
    for c, T in ((0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -3.0)):
        with pytest.raises(ValueError):
            SlepianParams(c=c, T=T)


NON_FINITE = {
    "SlepianParams-c-inf": (lambda: SlepianParams(c=math.inf), "c"),
    "SlepianParams-c-nan": (lambda: SlepianParams(c=math.nan), "c"),
    "SlepianParams-T-inf": (lambda: SlepianParams(5.0, T=math.inf), "T"),
    "GaussianPsf-sigma-inf": (lambda: GaussianPsf(sigma=math.inf), "sigma"),
    "TwoPulseModel-tau-nan": (lambda: TwoPulseModel(GaussianPsf(0.4), tau=math.nan), "tau"),
    "TwoPulseModel-tau-inf": (lambda: TwoPulseModel(GaussianPsf(0.4), tau=math.inf), "tau"),
    "TwoPulseModel-tau0-inf": (lambda: TwoPulseModel(GaussianPsf(0.4), tau=0.3, tau0=math.inf),
                               "tau0"),
    "TwoPulseModel-tau0-nan": (lambda: TwoPulseModel(GaussianPsf(0.4), tau=0.3, tau0=math.nan),
                               "tau0"),
    "TwoPulseModel-nu-nan": (lambda: TwoPulseModel(GaussianPsf(0.4), tau=0.3, nu=math.nan), "nu"),
}


@pytest.mark.parametrize("make, name", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_rejects_non_finite_values_by_name(make, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        make()


# types holding arrays compare by identity: the generated __eq__ would
# compare their arrays as tuples and raise
ARRAY_HOLDERS = {
    "ProlateBasis": lambda: build_basis(SlepianParams(5.0), n_max=4),
    "Povm": lambda: Povm([[1.0, 0.0], [0.0, 0.5]]),
    "ProbeState": lambda: ProbeState([0.5, 0.5], [[0.6, 0.8], [0.8, 0.6]]),
    "MeasurementDesign": lambda: design_from_sphere(0.7, 1.0, 0.7, -0.2),
    "FisherMatrix": lambda: FisherMatrix(np.eye(2), ("a", "b")),
    "DerivativeBasis": lambda: DerivativeBasis(SlepianParams(5.0), np.eye(4, 6)),
    "RealLineRule": lambda: real_line_rule(GaussianPsf(0.3), 1.0, max_freq=10.0),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(make):
    x, y = make(), make()
    assert x == x
    assert (x == y) is False and x != y
    assert len({x, y, x}) == 2


# holders that validate their arrays keep read-only copies of them: a later
# change to the caller's array must not undo the checks
VALIDATED = {
    "Povm": (Povm, {"vectors": [[0.6, 0.8, 0.0]]}),
    "ProbeState": (ProbeState, {"weights": [1.0], "modes": [[0.6, 0.8, 0.0]]}),
    "MeasurementDesign": (MeasurementDesign, {"C": np.eye(3, 4)}),
    "DerivativeBasis": (functools.partial(DerivativeBasis, SlepianParams(5.0)),
                        {"gamma": np.eye(4, 6), "phi": np.eye(4, 6)}),
    "FisherMatrix": (functools.partial(FisherMatrix, labels=("a", "b")),
                     {"matrix": [[2.0, 0.5], [0.5, 1.0]]}),
}


@pytest.mark.parametrize("cls, fields", VALIDATED.values(), ids=VALIDATED.keys())
def test_validated_arrays_are_read_only_copies(cls, fields):
    given = {name: np.array(value, dtype=float) for name, value in fields.items()}
    held = cls(**given)
    for name, array in given.items():
        stored = getattr(held, name)
        assert not np.shares_memory(stored, array) and not stored.flags.writeable
        array *= 2.0
        assert np.array_equal(stored, np.asarray(fields[name], dtype=float))
        with pytest.raises(ValueError, match="read-only"):
            stored[...] = 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, fields", VALIDATED.values(), ids=VALIDATED.keys())
def test_non_finite_arrays_refused(cls, fields, bad):
    # every array field, one entry at a time: a NaN passed every range check
    # and reached the probabilities as [nan, nan]
    for name in fields:
        given = {key: np.array(value, dtype=float) for key, value in fields.items()}
        given[name].flat[0] = bad
        with pytest.raises(ValueError, match=rf"\.{name} has a NaN or inf entry"):
            cls(**given)


def test_dimensionless_outputs_invariant_under_rescaling():
    # same c, different T: identical probabilities for identical coefficients
    probe = ProbeState([1.0], [np.eye(5)[0]])
    povm = Povm([np.eye(5)[1] * 0.8 + np.eye(5)[0] * 0.6])
    p1 = probabilities_limited(probe, povm, build_basis(SlepianParams(3.0, T=1.0), n_max=4))
    p2 = probabilities_limited(probe, povm, build_basis(SlepianParams(3.0, T=2.5), n_max=4))
    assert np.max(np.abs(p1 - p2)) < 1e-12
