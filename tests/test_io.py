import json
import math

from prolate import io as pio


def test_format_number_round_trip():
    values = [0.5, 1.0 / 3.0, 0.9993524052266618, 1e-300, -2.5e17, math.pi]
    for v in values:
        assert float(pio.format_number(v)) == v
    assert pio.format_number(7) == "7"
    assert pio.format_number("limited") == "limited"


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
