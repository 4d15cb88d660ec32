import json
import math
import tracemalloc

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


def test_csv_peak_memory_does_not_grow_with_rows(tmp_path):
    # every line goes to the file as it is formatted, so 40000 rows peak as 2000 do
    def peak(n):
        rows = ((i, 0.1 * i, "limited") for i in range(n))
        tracemalloc.start()
        try:
            pio.write_csv(tmp_path / f"{n}.csv", ("n", "t", "regime"), rows, {"rows": n})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2_000), peak(40_000)
    assert large < small + 64 * 1024, (small, large)
    assert (tmp_path / "40000.csv").read_text().splitlines()[-1] == "39999,3999.9,limited"


def test_manifest_records_hashes(tmp_path):
    data = tmp_path / "data.csv"
    pio.write_csv(data, ("x",), [(1.0,)], {"schema_version": 1})
    manifest = tmp_path / "data.manifest.json"
    pio.write_manifest(manifest, "spectrum", {"c_values": [1.0]}, [data])
    doc = json.loads(manifest.read_text())
    assert doc["command"] == "spectrum"
    assert doc["outputs"][0]["sha256"] == pio.sha256_of(data)
    assert "created_utc" in doc
