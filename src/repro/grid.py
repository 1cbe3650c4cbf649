"""Grid partitioning and z-order cell encoding (paper §III-A, Defs 4–5).

A 2-D space ``Bounds`` is divided into a ``2^theta x 2^theta`` grid. A point
``(x, y)`` maps to integer cell coordinates ``(X, Y)`` and then to a single
cell ID by interleaving the bits of ``X`` (even positions) and ``Y`` (odd
positions) — the z-order curve. With the paper's Example 2 (theta=2), cell
coordinates (1, 2) encode to ID 9.

Two encoder implementations are provided and tested for equality:

- ``cell_ids_np`` — vectorized numpy, used by driver-side index structures;
- ``cell_id_col`` — a pure Spark *column expression* (shift/and/or folded
  over the theta bit positions), so Catalyst sees ordinary integer
  arithmetic and no Python UDF is involved.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from pyspark.sql import Column
from pyspark.sql import functions as F


@dataclass(frozen=True)
class Bounds:
    """An axis-aligned region ``[x0, x1] x [y0, y1]`` of the plane."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def cell_size(self, theta: int) -> tuple[float, float]:
        """(nu, mu): width and height of one cell at resolution ``theta``."""
        n = 1 << theta
        return self.width / n, self.height / n


#: The whole-globe space used by default (lon/lat degrees), matching the
#: paper's "divide the globe into a 2^theta x 2^theta grid" example.
WORLD = Bounds(-180.0, -90.0, 180.0, 90.0)


def z_encode_np(X: np.ndarray, Y: np.ndarray, theta: int) -> np.ndarray:
    """Interleave bits of integer grid coordinates: X at even, Y at odd."""
    X = np.asarray(X, dtype=np.int64)
    Y = np.asarray(Y, dtype=np.int64)
    out = np.zeros(np.broadcast(X, Y).shape, dtype=np.int64)
    for i in range(theta):
        out |= ((X >> i) & 1) << (2 * i)
        out |= ((Y >> i) & 1) << (2 * i + 1)
    return out


def z_decode_np(cell: np.ndarray, theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`z_encode_np`: cell ID -> (X, Y) grid coordinates."""
    cell = np.asarray(cell, dtype=np.int64)
    X = np.zeros_like(cell)
    Y = np.zeros_like(cell)
    for i in range(theta):
        X |= ((cell >> (2 * i)) & 1) << i
        Y |= ((cell >> (2 * i + 1)) & 1) << i
    return X, Y


def grid_coords_np(
    x: np.ndarray, y: np.ndarray, bounds: Bounds, theta: int
) -> tuple[np.ndarray, np.ndarray]:
    """Map point coordinates to integer grid coordinates, clipped into range.

    Points exactly on the top/right boundary belong to the last cell (the
    paper's grid covers the closed region).
    """
    nu, mu = bounds.cell_size(theta)
    n = (1 << theta) - 1
    X = np.clip(np.floor((np.asarray(x) - bounds.x0) / nu).astype(np.int64), 0, n)
    Y = np.clip(np.floor((np.asarray(y) - bounds.y0) / mu).astype(np.int64), 0, n)
    return X, Y


def cell_ids_np(x: np.ndarray, y: np.ndarray, bounds: Bounds, theta: int) -> np.ndarray:
    """Point coordinates -> z-order cell IDs (Def. 5)."""
    X, Y = grid_coords_np(x, y, bounds, theta)
    return z_encode_np(X, Y, theta)


def check_cells(sorted_cells: np.ndarray, theta: int) -> None:
    """Raise ``ValueError`` unless every cell ID of the *sorted* array lies
    on the ``2^theta x 2^theta`` grid, that is in ``[0, 4^theta)``."""
    if len(sorted_cells) and (sorted_cells[0] < 0 or int(sorted_cells[-1]) >= 1 << (2 * theta)):
        raise ValueError(
            f"cells [{int(sorted_cells[0])}, {int(sorted_cells[-1])}] fall outside "
            f"the θ={theta} grid, whose cell IDs are 0..{(1 << (2 * theta)) - 1}"
        )


# --------------------------------------------------------------------------
# Spark column expressions (Catalyst-friendly: no UDF)
# --------------------------------------------------------------------------

def grid_coord_cols(
    x: Column, y: Column, bounds: Bounds, theta: int
) -> tuple[Column, Column]:
    """Spark column version of :func:`grid_coords_np`."""
    nu, mu = bounds.cell_size(theta)
    n = (1 << theta) - 1
    X = F.least(F.greatest(F.floor((x - F.lit(bounds.x0)) / F.lit(nu)), F.lit(0)), F.lit(n))
    Y = F.least(F.greatest(F.floor((y - F.lit(bounds.y0)) / F.lit(mu)), F.lit(0)), F.lit(n))
    return X.cast("long"), Y.cast("long")


def z_encode_col(X: Column, Y: Column, theta: int) -> Column:
    """Bit-interleave two long columns with shift/and/or expressions."""
    parts = []
    for i in range(theta):
        parts.append(F.shiftleft(F.shiftright(X, i).bitwiseAND(F.lit(1)), 2 * i))
        parts.append(F.shiftleft(F.shiftright(Y, i).bitwiseAND(F.lit(1)), 2 * i + 1))
    return reduce(lambda a, b: a.bitwiseOR(b), parts)


def cell_id_col(x: Column, y: Column, bounds: Bounds, theta: int) -> Column:
    """Point coordinate columns -> z-order cell ID column."""
    X, Y = grid_coord_cols(x, y, bounds, theta)
    return z_encode_col(X, Y, theta)


def cells_to_lonlat_center(cells: np.ndarray, bounds: Bounds, theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell IDs -> (x, y) coordinates of each cell's center in `bounds` units.

    Used by DITS-G to normalize per-source grid coordinates back into
    lon/lat when sources use different resolutions (§V-B).
    """
    X, Y = z_decode_np(cells, theta)
    nu, mu = bounds.cell_size(theta)
    return bounds.x0 + (X + 0.5) * nu, bounds.y0 + (Y + 0.5) * mu
