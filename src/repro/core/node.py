"""DITS node types (paper Defs 12–14).

All geometry is in grid coordinates (see :mod:`repro.geometry`). Nodes keep
a parent pointer ``pa`` (the paper's bidirectional structure, used by the
Appendix-C update strategies).
"""
from __future__ import annotations

import numpy as np

from ..geometry import (
    cell_coords,
    mbr_of_coords,
    mbr_union,
    pivot_of_mbr,
    radius_of_mbr,
)
from ..grid import check_cells


class DatasetNode:
    """Def. 12: one spatial dataset as an index entry."""

    __slots__ = ("id", "rect", "o", "r", "cells", "coords", "pa")

    def __init__(self, dataset_id: int, cells: np.ndarray, theta: int):
        self.id = int(dataset_id)
        self.cells = np.sort(np.asarray(cells, dtype=np.int64))
        check_cells(self.cells, theta)
        self.coords = cell_coords(self.cells, theta)
        self.rect = mbr_of_coords(self.coords)
        self.o = pivot_of_mbr(self.rect)
        self.r = radius_of_mbr(self.rect)
        self.pa = None

    @property
    def size(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DatasetNode(id={self.id}, |S|={self.size})"


class InternalNode:
    """Def. 13: binary internal node with left/right children."""

    __slots__ = ("rect", "o", "r", "left", "right", "pa")

    def __init__(self, rect: np.ndarray):
        self.rect = rect
        self.o = pivot_of_mbr(rect)
        self.r = radius_of_mbr(rect)
        self.left = None
        self.right = None
        self.pa = None

    @property
    def is_leaf(self) -> bool:
        return False


class LeafNode:
    """Def. 14: leaf holding ≤ f dataset nodes plus an inverted index from
    cell ID to the child dataset IDs containing that cell.

    The inverted index is kept in CSR form: sorted ``keys`` with posting
    lengths ``plen``, and the postings of ``keys[i]`` in
    ``post[indptr[i]:indptr[i + 1]]``, so OverlapSearch's bound computation
    and verification are vectorized numpy operations.
    """

    __slots__ = ("rect", "o", "r", "ch", "f", "pa", "keys", "plen", "indptr", "post")

    def __init__(self, rect: np.ndarray, children: list[DatasetNode], f: int):
        self.rect = rect
        self.o = pivot_of_mbr(rect)
        self.r = radius_of_mbr(rect)
        self.ch = children
        self.f = f
        self.pa = None
        self.rebuild_inv()

    def rebuild_inv(self) -> None:
        """(Re)build the inverted index in CSR form with vectorized sorts:
        sorted key array + postings (dataset ids) in one flat array.

        A stable sort on the concatenated (cell, dataset) rows preserves
        child order inside each posting list, matching the dict the
        insertion loop would build.
        """
        for nd in self.ch:
            nd.pa = self
        if not self.ch:
            self.keys = np.empty(0, dtype=np.int64)
            self.plen = np.empty(0, dtype=np.int64)
            self.indptr = np.zeros(1, dtype=np.int64)
            self.post = np.empty(0, dtype=np.int64)
            return
        all_cells = np.concatenate([nd.cells for nd in self.ch])
        all_ids = np.concatenate(
            [np.full(len(nd.cells), nd.id, dtype=np.int64) for nd in self.ch]
        )
        order = np.argsort(all_cells, kind="stable")
        self.keys, self.plen = np.unique(all_cells, return_counts=True)
        indptr = np.zeros(len(self.keys) + 1, dtype=np.int64)
        np.cumsum(self.plen, out=indptr[1:])
        self.indptr = indptr
        self.post = all_ids[order]

    @property
    def is_leaf(self) -> bool:
        return True


def refresh_geometry(node) -> None:
    """Recompute rect/o/r of an internal or leaf node from its children."""
    if isinstance(node, LeafNode):
        kids = node.ch
    else:
        kids = [c for c in (node.left, node.right) if c is not None]
    rect = kids[0].rect
    for k in kids[1:]:
        rect = mbr_union(rect, k.rect)
    node.rect = rect
    node.o = pivot_of_mbr(rect)
    node.r = radius_of_mbr(rect)
