"""The density-matrix JSON file format.

Schema: {"dim_a": int, "dim_b": int, "matrix": [[[re, im], ...], ...]} with
row-major rows of [real, imaginary] pairs.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import StateFormatError
from .states import BipartiteState, make_bipartite


def state_to_dict(state: BipartiteState) -> dict:
    m = state.entries
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return {"dim_a": state.dim_a, "dim_b": state.dim_b, "matrix": matrix}


def _as_number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise StateFormatError(f"matrix entries must be numbers, got {v!r}")
    return float(v)


def state_from_dict(doc) -> BipartiteState:
    if not isinstance(doc, dict):
        raise StateFormatError("document must be a JSON object")
    for key in ("dim_a", "dim_b", "matrix"):
        if key not in doc:
            raise StateFormatError(f"missing required key {key!r}")
    dim_a, dim_b = doc["dim_a"], doc["dim_b"]
    for name, v in (("dim_a", dim_a), ("dim_b", dim_b)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise StateFormatError(f"{name} must be a positive integer")
    rows = doc["matrix"]
    d = dim_a * dim_b
    if not isinstance(rows, list) or len(rows) != d:
        raise StateFormatError(f"matrix must have {d} rows")
    entries = np.empty((d, d), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise StateFormatError(f"row {i} is ragged: expected {d} entries")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise StateFormatError(f"entry ({i}, {j}) must be a [re, im] pair")
            entries[i, j] = complex(_as_number(pair[0]), _as_number(pair[1]))
    return make_bipartite(entries, dim_a, dim_b)


def save_state(path, state: BipartiteState):
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh)


def _reject_constant(name):
    raise StateFormatError(f"matrix entries must be finite numbers, got {name}")


def load_state(path) -> BipartiteState:
    """The state in a JSON file. A file that cannot be opened raises ``OSError``;
    one that is not UTF-8 JSON of the schema raises ``StateFormatError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise StateFormatError(f"invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise StateFormatError(f"not UTF-8 text: byte {exc.start} is {bad:#04x}") from exc
        except RecursionError as exc:
            raise StateFormatError("invalid JSON: nested too deeply") from exc
        except ValueError as exc:  # an integer literal past the int-conversion limit
            raise StateFormatError(f"invalid JSON: {str(exc).split(':')[0]}") from exc
    return state_from_dict(doc)
