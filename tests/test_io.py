import json
import math

import numpy as np
import pytest

from prolate import BandlimitedFunction, SlepianParams, build_basis, eval_psi
from prolate import io as pio


@pytest.fixture(scope="module")
def b3():
    return build_basis(SlepianParams(3.0), n_max=5)


def test_format_number_round_trip():
    values = [0.5, 1.0 / 3.0, 0.9993524052266618, 1e-300, -2.5e17, math.pi]
    for v in values:
        assert float(pio.format_number(v)) == v
    assert pio.format_number(7) == "7"
    assert pio.format_number("limited") == "limited"


def test_basis_json_round_trip(tmp_path, b3):
    doc = pio.basis_to_dict(b3)
    path = tmp_path / "basis.json"
    pio.write_json(path, doc)
    loaded = pio.basis_from_dict(pio.load_json(path))
    assert loaded.params == b3.params
    assert loaded.n_max == b3.n_max
    assert loaded.quad_order == b3.quad_order
    assert np.array_equal(loaded.lambdas, b3.lambdas)
    assert np.array_equal(loaded.nodes, b3.nodes)
    assert np.array_equal(loaded.weights, b3.weights)
    assert np.array_equal(loaded.samples, b3.samples)
    # the reconstructed basis evaluates identically
    t = np.linspace(-2, 2, 9)
    assert np.array_equal(eval_psi(loaded, 2, t), eval_psi(b3, 2, t))


def test_basis_schema_fields(b3):
    doc = pio.basis_to_dict(b3)
    assert set(doc) == {"schema_version", "c", "T", "n_max", "quad_order",
                        "lambdas", "nodes", "weights", "samples"}
    assert doc["schema_version"] == pio.SCHEMA_VERSION


def test_bandlimited_json_round_trip(tmp_path, b3):
    g = BandlimitedFunction(b3.params, [0.1, -0.2, 0.3])
    path = tmp_path / "g.json"
    pio.write_json(path, pio.bandlimited_to_dict(g))
    loaded = pio.bandlimited_from_dict(pio.load_json(path))
    assert loaded.params == g.params
    assert np.array_equal(loaded.coeffs, g.coeffs)


def test_rejects_unknown_schema():
    with pytest.raises(ValueError):
        pio.basis_from_dict({"schema_version": 99})
    with pytest.raises(ValueError):
        pio.bandlimited_from_dict({"schema_version": 99})


def test_csv_deterministic(tmp_path):
    rows = [(1.0, 2, 1.0 / 3.0), (0.5, 7, math.pi)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    pio.write_csv(a, ("x", "n", "y"), rows, {"schema_version": 1})
    pio.write_csv(b, ("x", "n", "y"), rows, {"schema_version": 1})
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("# schema_version=1\nx,n,y\n")
    assert repr(math.pi) in text


def test_manifest_records_hashes(tmp_path):
    data = tmp_path / "data.csv"
    pio.write_csv(data, ("x",), [(1.0,)], {"schema_version": 1})
    manifest = tmp_path / "data.manifest.json"
    pio.write_manifest(manifest, "spectrum", {"c_values": [1.0]}, [data])
    doc = json.loads(manifest.read_text())
    assert doc["command"] == "spectrum"
    assert doc["outputs"][0]["sha256"] == pio.sha256_of(data)
    assert "created_utc" in doc
