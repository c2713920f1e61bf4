"""Deterministic SVG rendering: byte-identical output for equal input."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'
CELL = 4.0      # heatmap cell side
RADIUS = 2.0    # overlay circle radius
SIZE = 512.0    # overlay side


def _doc(width: float, height: float, body: list) -> str:
    return (_HEADER
            + f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.2f} {height:.2f}">\n'
            + "\n".join(body) + "\n</svg>\n")


def heatmap(matrix) -> str:
    """Grayscale heatmap of a matrix; NaN renders as light red."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.size == 0:
        raise ParameterError("empty matrix")
    finite = m[np.isfinite(m)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    level = np.rint(255 * (1.0 - (m - lo) / span))  # round half to even, as round()
    # fills[256] is the fill of a cell that is not finite
    fills = [f'fill="rgb({g},{g},{g})"/>' for g in range(256)] + ['fill="rgb(255,200,200)"/>']
    codes = np.where(np.isfinite(m), level, 256).astype(np.int64).tolist()
    xs = [f'<rect x="{j * CELL:.2f}" ' for j in range(m.shape[1])]
    body = []
    for i, row in enumerate(codes):
        y = f'y="{i * CELL:.2f}" width="{CELL:.2f}" height="{CELL:.2f}" '
        body += [x + y + fills[g] for x, g in zip(xs, row)]
    return _doc(m.shape[1] * CELL, m.shape[0] * CELL, body)


def overlay(points, extent) -> str:
    """Scatter overlay of a planar point set on a fixed extent.

    extent is (x_lo, x_hi, y_lo, y_hi); one circle per point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        raise ParameterError("empty point set")
    x_lo, x_hi, y_lo, y_hi = extent
    sx = SIZE / (x_hi - x_lo) if x_hi > x_lo else 1.0
    sy = SIZE / (y_hi - y_lo) if y_hi > y_lo else 1.0
    body = []
    for x, y in pts:
        cx = (x - x_lo) * sx
        cy = (y_hi - y) * sy
        body.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{RADIUS:.2f}" fill="black"/>')
    return _doc(SIZE, SIZE, body)
