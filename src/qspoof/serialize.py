"""Serialization: JSON matrix literals and deterministic CSV emission.

Matrix literal format: a matrix is a nested row-major array; each entry is
either a plain real number or a two-element array ``[re, im]``.  Writers
emit plain numbers whenever the matrix is exactly real, so real scenarios
stay human-readable.  CSV output uses 12 significant digits, a header row,
LF line endings and UTF-8; identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np


def entry_from_literal(obj, where: str) -> complex:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        if not math.isfinite(obj):
            raise ValueError(f"{where}: entries must be finite, got {obj!r}")
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = obj
        ok = all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in (re, im))
        if ok:
            return complex(re, im)
    raise ValueError(f"{where}: expected a real number or [re, im] pair, got {obj!r}")


def matrix_from_literal(obj, where: str = "matrix") -> np.ndarray:
    """Parse a nested row-major literal into a square complex matrix."""
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValueError(f"{where}: expected a nonempty list of rows")
    d = len(obj)
    out = np.zeros((d, d), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, (list, tuple)) or len(row) != d:
            raise ValueError(f"{where}: row {i} must be a list of {d} entries")
        for j, entry in enumerate(row):
            out[i, j] = entry_from_literal(entry, f"{where}[{i}][{j}]")
    return out


def matrix_to_literal(m) -> list:
    """Emit a matrix literal; plain real entries when no imaginary part exists."""
    arr = np.asarray(m, dtype=np.complex128)
    if np.all(arr.imag == 0.0):
        return [[float(x.real) for x in row] for row in arr]
    return [[[float(x.real), float(x.imag)] for x in row] for row in arr]


def sig12(value: float) -> str:
    """Format a float with 12 significant digits for CSV cells."""
    return format(float(value), ".11e")


def csv_text(header, rows) -> str:
    """Assemble CSV bytes-to-be: header plus stringified rows, LF endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def roc_csv(curves) -> str:
    """CSV for ROC sweeps; the undistorted curve leaves the lam cell empty."""
    header = ["lambda", "tau", "p_false", "p_detect", "genuine_p_false", "genuine_p_detect"]
    rows = []
    for curve in curves:
        lam_cell = "" if curve.lam is None else sig12(curve.lam)
        for p in curve.points:
            rows.append(
                [
                    lam_cell,
                    sig12(p.tau),
                    sig12(p.p_false),
                    sig12(p.p_detect),
                    sig12(p.genuine_p_false),
                    sig12(p.genuine_p_detect),
                ]
            )
    return csv_text(header, rows)


def photon_csv(rows) -> str:
    """CSV for photon-number sweeps, one row per (lam, l) sample."""
    header = ["l", "mean_photon", "lambda", "p_detect", "genuine_p_detect"]
    out = []
    for r in rows:
        out.append(
            [
                str(r.l),
                sig12(r.mean_photon),
                sig12(r.lam),
                sig12(r.p_detect),
                sig12(r.genuine_p_detect),
            ]
        )
    return csv_text(header, out)


def json_text(obj) -> str:
    """Deterministic JSON rendering (sorted keys, two-space indent)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
