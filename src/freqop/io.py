"""JSON interchange formats for states and matrices.

A state file is ``{"dim": d, "amps": [[re, im], ...]}`` with ``d`` entries.
A matrix file is ``{"dim": d, "rows": [[[re, im], ...], ...]}``, row-major.
Parsing is strict: non-finite numbers (NaN, Infinity, overflowing literals)
are rejected rather than passed through.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .hilbert import HermitianOperator, StateVector, UnitaryMatrix, _integer


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name!r} in input")


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"number {text!r} does not fit a finite float")
    return x


def strict_loads(text: str) -> Any:
    """``json.loads`` that refuses NaN/Infinity in any spelling.

    Nesting too deep for the parser is refused with ``ValueError`` too.
    """
    try:
        return json.loads(
            text, parse_constant=_reject_constant, parse_float=_finite_float
        )
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _complex_from_pair(pair, what: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise ValueError(f"{what} must be a [re, im] pair of numbers")
    try:
        re, im = float(pair[0]), float(pair[1])
    except OverflowError:
        raise ValueError(f"{what} has a component beyond the float range") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"{what} contains a non-finite component")
    return complex(re, im)


def _pairs(items, n: int, name: str, what: str) -> list[complex]:
    """``items`` as ``n`` [re, im] pairs; errors call it ``name``, entry j ``what[j]``."""
    if not isinstance(items, list) or len(items) != n:
        raise ValueError(f"{name} must be a list of {n} [re, im] pairs")
    return [_complex_from_pair(p, f"{what}[{j}]") for j, p in enumerate(items)]


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def state_to_dict(s: StateVector) -> dict:
    return {"dim": s.dim, "amps": [_pair(z) for z in s.amps]}


def _header(obj: Any, kind: str, key: str) -> tuple[int, Any]:
    if not isinstance(obj, dict) or set(obj) != {"dim", key}:
        raise ValueError(f'{kind} object must have exactly the keys "dim" and "{key}"')
    dim = _integer(obj["dim"])
    if dim is None or dim < 1:
        raise ValueError('"dim" must be a positive integer')
    return dim, obj[key]


def state_from_dict(obj: Any, *, normalize: bool = False) -> StateVector:
    dim, amps = _header(obj, "state", "amps")
    a = np.array(_pairs(amps, dim, '"amps"', "amps"), dtype=np.complex128)
    return StateVector(a, normalize=normalize)


def matrix_to_dict(entries: np.ndarray) -> dict:
    m = np.asarray(entries, dtype=np.complex128)
    return {
        "dim": m.shape[0],
        "rows": [[_pair(z) for z in row] for row in m],
    }


def matrix_array_from_dict(obj: Any) -> np.ndarray:
    dim, rows = _header(obj, "matrix", "rows")
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValueError(f'"rows" must be a list of {dim} rows')
    # every row is read before the dim x dim array exists, so a file of
    # short rows is refused without allocating dim**2 entries
    return np.array([_pairs(row, dim, f"row {i}", f"rows[{i}]") for i, row in enumerate(rows)],
                    dtype=np.complex128)


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return strict_loads(fh.read())


def load_state(path: str, *, normalize: bool = False) -> StateVector:
    return state_from_dict(_read_json(path), normalize=normalize)


def load_hermitian(path: str) -> HermitianOperator:
    return HermitianOperator(matrix_array_from_dict(_read_json(path)))


def load_unitary(path: str) -> UnitaryMatrix:
    return UnitaryMatrix(matrix_array_from_dict(_read_json(path)))
