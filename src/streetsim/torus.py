"""Geometry on the square torus [-L, L) x [-L, L).

All coordinates are in meters.  The fundamental cell is half-open so that
every torus point has exactly one canonical representation; a raw +L
coordinate normalizes to -L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusPoint",
    "wrap",
    "wrap_coord",
    "wrap_points",
    "min_image_delta",
    "min_image_deltas",
    "torus_distance",
    "boundary_crossing_points",
]


@dataclass(frozen=True, slots=True)
class TorusPoint:
    """A point in canonical form: both coordinates in [-L, L)."""

    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y


def wrap_coord(x: float, L: float) -> float:
    """Map a raw coordinate into [-L, L) by shifting whole periods of 2L."""
    if -L <= x < L:
        return x
    y = (x + L) % (2.0 * L) - L
    # float modulo of a negative value just below a period can land on +L
    if y >= L:
        y -= 2.0 * L
    return y


def wrap(p, L: float) -> TorusPoint:
    """Wrap a raw planar point into the fundamental cell.

    Accepts any 2-sequence (tuple, ndarray row, TorusPoint).  Raises
    ``ValueError`` for non-finite input or non-positive L.
    """
    x, y = p
    x = float(x)
    y = float(y)
    if L <= 0.0:
        raise ValueError(f"torus half-side must be positive, got {L}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"cannot wrap non-finite point ({x}, {y})")
    return TorusPoint(wrap_coord(x, L), wrap_coord(y, L))


def _wrap_coords(x: np.ndarray, L: float) -> np.ndarray:
    """Elementwise :func:`wrap_coord`: the same float operations, so bitwise equal.

    numpy's float ``%`` takes the sign of the divisor, as Python's does.
    """
    y = (x + L) % (2.0 * L) - L
    y = np.where(y >= L, y - 2.0 * L, y)
    return np.where((x >= -L) & (x < L), x, y)


def wrap_points(xy: np.ndarray, L: float) -> np.ndarray:
    """:func:`wrap` of every row of an (n, 2) array, bitwise, as a new array.

    Raises ``ValueError`` for a non-finite coordinate or non-positive L.
    """
    xy = np.asarray(xy, dtype=float)
    if L <= 0.0:
        raise ValueError(f"torus half-side must be positive, got {L}")
    if not np.isfinite(xy).all():
        raise ValueError("cannot wrap non-finite points")
    return _wrap_coords(xy, L)


def _center_delta(d: float, L: float) -> float:
    # for canonical inputs d is in (-2L, 2L) and the single +-2L shift is
    # exact (Sterbenz), matching torus_distance bit for bit
    if d < -L:
        d += 2.0 * L
    elif d >= L:
        d -= 2.0 * L
    if -L <= d < L:
        return d
    return wrap_coord(d, L)


def min_image_delta(p, q, L: float) -> tuple[float, float]:
    """Componentwise minimal-image displacement from p to q.

    Both components of the result are in [-L, L); adding the result to p
    gives the image of q closest to p.
    """
    px, py = p
    qx, qy = q
    return _center_delta(qx - px, L), _center_delta(qy - py, L)


def min_image_deltas(d: np.ndarray, L: float) -> np.ndarray:
    """Elementwise :func:`min_image_delta` of the differences ``d = q - p``.

    The single +-2L shift of ``_center_delta``, made in place on one copy of
    ``d``; only differences of non-canonical points, still outside [-L, L)
    after it, are wrapped by whole periods.
    """
    d = np.array(d, dtype=float)
    low, high = d < -L, d >= L
    np.add(d, 2.0 * L, out=d, where=low)
    np.subtract(d, 2.0 * L, out=d, where=high)
    if ((d < -L) | (d >= L)).any():
        d = _wrap_coords(d, L)
    return d


def torus_distance(p, q, L: float) -> float:
    """Minimal Euclidean distance between p and q over all periodic images.

    Both points must be canonical.  The result is at most sqrt(2)*L.
    """
    px, py = p
    qx, qy = q
    dx = abs(px - qx)
    if 2.0 * L - dx < dx:
        dx = 2.0 * L - dx
    dy = abs(py - qy)
    if 2.0 * L - dy < dy:
        dy = 2.0 * L - dy
    return math.hypot(dx, dy)


def boundary_crossing_points(p, q, L: float):
    """Where the minimal-image segment from p to q pierces the cell boundary.

    Returns ``(exit_point, reentry_point)`` as coordinate tuples, or ``None``
    when the segment stays inside the cell.  The exit point lies on the side
    the segment leaves through and the re-entry point is its mirror on the
    opposite side.  Display metadata only; the points are intentionally not
    canonicalized (an exit at x = +L stays at +L).
    """
    px, py = p
    dx, dy = min_image_delta(p, q, L)
    tx = ty = None
    if px + dx < -L:
        tx = (-L - px) / dx
    elif px + dx > L:
        tx = (L - px) / dx
    if py + dy < -L:
        ty = (-L - py) / dy
    elif py + dy > L:
        ty = (L - py) / dy
    if tx is None and ty is None:
        return None
    if ty is None or (tx is not None and tx <= ty):
        t, first_axis = tx, "x"
    else:
        t, first_axis = ty, "y"
    ex = px + t * dx
    ey = py + t * dy
    # pin the crossed coordinate exactly onto the boundary
    flip_x = first_axis == "x" or (tx is not None and tx == ty)
    flip_y = first_axis == "y" or (ty is not None and tx == ty)
    if flip_x:
        ex = -L if dx < 0 else L
    if flip_y:
        ey = -L if dy < 0 else L
    rx = -ex if flip_x else ex
    ry = -ey if flip_y else ey
    return (ex, ey), (rx, ry)
