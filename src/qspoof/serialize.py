"""Output writers: JSON matrix literals, deterministic CSV and JSON text.

Matrix literal format: a matrix is a nested row-major array; each entry is
either a plain real number or a two-element array ``[re, im]``.  The
writer emits plain numbers whenever the matrix is exactly real, so real
matrices stay human-readable; ``config`` parses literals.  CSV output uses
a header row, LF line endings and UTF-8, and one cell rule (``cell``):
12 significant digits for a float, digits for an int, ``true``/``false``
for a bool.  A command builds each output row once, as a dict, and
``rows_csv`` or ``json_text`` renders that dict; identical inputs produce
identical bytes.
"""

from __future__ import annotations

import json
from itertools import repeat

import numpy as np


def matrix_to_literal(m) -> list:
    """Emit a matrix literal; plain real entries when no imaginary part exists."""
    arr = np.asarray(m, dtype=np.complex128)
    if np.all(arr.imag == 0.0):
        return [[float(x.real) for x in row] for row in arr]
    return [[[float(x.real), float(x.imag)] for x in row] for row in arr]


def sig12(value: float) -> str:
    """Format a float with 12 significant digits for CSV cells."""
    return format(float(value), ".11e")


def cell(value) -> str:
    """The CSV cell of one output value: ``true``/``false``, digits or ``sig12``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return sig12(value)


def csv_text(header, rows) -> str:
    """Assemble CSV bytes-to-be: header plus stringified rows, LF endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def rows_csv(rows) -> str:
    """CSV of output rows (dicts with the same keys): the keys head the columns."""
    return csv_text(rows[0], [[cell(v) for v in row.values()] for row in rows])


def fields(row) -> dict:
    """The JSON object of a sweep row: its fields, ``lam`` written ``lambda``."""
    return {("lambda" if k == "lam" else k): v for k, v in vars(row).items()}


def roc_csv(curves) -> str:
    """CSV for ROC sweeps, a row per curve and threshold; the undistorted curve leaves the lam cell empty.

    Genuine P_F is P_F, and the curves of one ``roc_sweep`` share their tau, P_F and P_D
    columns, so each column object is formatted once per call.  The lookup holds the column,
    so no ``id`` is reused during the call; an equal column that is another object gets the same cells.
    """
    header = ["lambda", "tau", "p_false", "p_detect", "genuine_p_false", "genuine_p_detect"]
    cells = {}  # id(column) -> (column, its cells)

    def formatted(column) -> list:
        hit = cells.get(id(column))
        if hit is None:
            hit = cells[id(column)] = (column, list(map(sig12, column)))
        return hit[1]

    rows = []
    for c in curves:
        lam = "" if c.lam is None else sig12(c.lam)
        rows += zip(repeat(lam), *map(formatted, (c.tau, c.p_false, c.p_detect, c.p_false, c.genuine_p_detect)))
    return csv_text(header, rows)


def photon_csv(rows) -> str:
    """CSV for photon-number sweeps, one row per (lam, l) sample: ``rows_csv`` of their ``fields``."""
    return rows_csv(list(map(fields, rows)))


def json_text(obj) -> str:
    """Deterministic JSON rendering (sorted keys, two-space indent)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
