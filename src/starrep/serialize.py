"""JSON wire formats: complex scalars as [re, im], matrices row-major,
canonical key-sorted dumps rounded to 12 significant digits."""
from __future__ import annotations

import json

import numpy as np

SCHEMA_VERSION = 1


def complex_to_json(z) -> list:
    z = complex(z)
    return [_round_sig(z.real), _round_sig(z.imag)]


def vector_to_json(v) -> list:
    return [complex_to_json(z) for z in np.asarray(v, dtype=complex).ravel()]


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in m]


def parse_complex(obj, where: str = "value") -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(isinstance(x, (int, float)) for x in obj)):
        raise ValueError(f"{where}: expected a [re, im] pair, got {obj!r}")
    z = complex(obj[0], obj[1])
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError(f"{where}: non-finite entry {obj!r}")
    return z


def _finite_pairs(obj, ndim: int):
    """A decoded JSON list that numpy reads as a finite int or float array of
    ndim - 1 nesting levels of [re, im] pairs, as one complex array without a
    per-entry pass; None for anything else (all-bool pairs, strings, NaN or
    inf, ragged rows, bare numbers, ints past int64), which the per-entry
    parsers then judge with their own messages."""
    try:
        a = np.array(obj)
    except (ValueError, OverflowError):
        return None
    if a.ndim != ndim or a.shape[-1] != 2 or a.dtype.kind not in "iuf" or not np.isfinite(a).all():
        return None
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def parse_vector(obj, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, list):
        raise ValueError(f"{where}: expected a list of [re, im] pairs")
    fast = _finite_pairs(obj, 2)
    if fast is not None:
        return fast
    return np.array([parse_complex(x, f"{where}[{i}]") for i, x in enumerate(obj)],
                    dtype=complex)


def parse_matrix(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty nested list")
    fast = _finite_pairs(obj, 3)
    if fast is not None:
        return fast
    rows = [parse_vector(r, f"{where}[{i}]") for i, r in enumerate(obj)]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ValueError(f"{where}: ragged rows")
    return np.array(rows, dtype=complex)


def _round_sig(x: float, digits: int = 12) -> float:
    x = float(x)
    if x == 0.0 or not np.isfinite(x):
        return 0.0 if x == 0.0 else x
    return float(f"{x:.{digits}g}")


def canonical(obj):
    """Recursively normalize for byte-stable JSON output."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_sig(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return complex_to_json(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1:
            return vector_to_json(obj)
        if obj.ndim == 2:
            return matrix_to_json(obj)
        raise TypeError("arrays of dimension > 2 are not serialized")
    return obj


def dumps_canonical(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, indent=2) + "\n"
