"""DITS-G — the data center's global index (paper §V-B).

Each data source sends only its local root node; the center converts the
root MBR/pivot into lon/lat and builds the same top-down binary tree over
these *root summaries* with Algorithm 1's :func:`build_local_index`,
without leaf inverted indexes. The global index answers one question:
which data sources might contain query results (MBR intersection for OJSP,
Lemma-4 connectivity lower bound for CJSP).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import mbr_intersects, pivot_of_mbr, radius_of_mbr
from ..grid import Bounds
from .dits_local import build_local_index
from .node import InternalNode


@dataclass
class RootSummary:
    """What one source ships to the data center: its root node, in lon/lat."""

    source_id: str
    rect: np.ndarray  # lon/lat MBR covering the full area of the root's cells
    o: np.ndarray
    r: float
    n_datasets: int

    @classmethod
    def from_grid_rect(
        cls, source_id: str, g, bounds: Bounds, theta: int, n_datasets: int
    ) -> "RootSummary":
        nu, mu = bounds.cell_size(theta)
        rect = np.array(
            [
                bounds.x0 + g[0] * nu,
                bounds.y0 + g[1] * mu,
                bounds.x0 + (g[2] + 1) * nu,  # +1: cover the whole last cell
                bounds.y0 + (g[3] + 1) * mu,
            ]
        )
        return cls(source_id, rect, pivot_of_mbr(rect), radius_of_mbr(rect), n_datasets)


class SummaryLeaf:
    """A DITS-G leaf: up to f root summaries and no inverted index."""

    __slots__ = ("rect", "o", "r", "summaries", "pa")
    is_leaf = True

    def __init__(self, rect: np.ndarray, summaries: list[RootSummary]):
        self.rect = rect
        self.o = pivot_of_mbr(rect)
        self.r = radius_of_mbr(rect)
        self.summaries = summaries
        self.pa = None


GlobalNode = InternalNode | SummaryLeaf


def build_global_index(summaries: list[RootSummary], f: int = 10) -> GlobalNode:
    """Algorithm 1 over the root summaries, with summary leaves."""
    return build_local_index(summaries, f, make_leaf=SummaryLeaf)


def candidate_sources(
    root: GlobalNode,
    q_rect: np.ndarray,
    q_o: np.ndarray,
    q_r: float,
    delta_deg: float,
) -> list[RootSummary]:
    """§VI-A query distribution, step 1: sources that may hold results.

    A node or summary is kept if its MBR intersects the query MBR *or* the
    Lemma-4 lower bound on the distance to the query is within
    ``delta_deg`` (pass ``delta_deg < 0`` for OJSP, where only intersection
    matters).
    """

    def keep(x) -> bool:
        if mbr_intersects(x.rect, q_rect):
            return True
        return delta_deg >= 0 and max(float(np.hypot(*(x.o - q_o))) - x.r - q_r, 0.0) <= delta_deg

    out: list[RootSummary] = []
    stack = [root]
    while stack:
        x = stack.pop()
        if not keep(x):
            continue
        if isinstance(x, RootSummary):
            out.append(x)
        elif x.is_leaf:
            stack.extend(x.summaries)
        else:
            stack += (x.left, x.right)
    return sorted(out, key=lambda s: s.source_id)
