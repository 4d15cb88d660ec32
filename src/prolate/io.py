"""Versioned JSON/CSV serialization with deterministic number formatting."""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone

import numpy as np

from .basis import LAMBDA_FLOOR
from .metrology import DEFAULT_P_FLOOR, POVM_SLACK, PROB_SLACK

SCHEMA_VERSION = 1


def format_number(x) -> str:
    """Shortest decimal that reconstructs the value exactly (repr round-trip)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path, header, rows, meta: dict) -> None:
    """Write a CSV document line by line; metadata rides along as leading '#' lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={format_number(value)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_number(x) for x in row) + "\n")


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def write_manifest(path, command: str, config: dict, outputs: list) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "tolerances": {
            "lambda_floor": LAMBDA_FLOOR,
            "probability_slack": PROB_SLACK,
            "fisher_p_floor": DEFAULT_P_FLOOR,
            "povm_validity_slack": POVM_SLACK,
        },
        "outputs": [{"path": str(p), "sha256": sha256_of(p)} for p in outputs],
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    write_json(path, doc)
