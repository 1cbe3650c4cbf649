"""QuadTree baseline (Gargantini '82 style region quadtree).

Built over the *cell IDs of all datasets* (paper §VII-B): each entry is one
(cell, dataset_id) pair, leaf capacity 4, subdivision stops at single-cell
resolution (entries sharing a cell can never be separated). Overlap search
finds all leaves intersecting the query MBR, keeps entries whose cell is in
the query set, counts per dataset and sorts — the inverted-index-like
behaviour the paper describes.
"""
from __future__ import annotations

import numpy as np

from ..core.overlap import rank_topk
from ..grid import z_decode_np


class _QNode:
    __slots__ = ("x0", "y0", "size", "entries", "children", "_arr")

    def __init__(self, x0: int, y0: int, size: int):
        self.x0 = x0
        self.y0 = y0
        self.size = size  # side length in cells (power of two)
        self.entries: list[tuple[int, int, int, int]] | None = []  # (X, Y, cell, did)
        self.children: list[_QNode] | None = None
        self._arr: np.ndarray | None = None  # cached array form of entries

    def arr(self) -> np.ndarray:
        if self._arr is None:
            self._arr = np.asarray(self.entries, dtype=np.int64).reshape(-1, 4)
        return self._arr

    def intersects(self, xmin, ymin, xmax, ymax) -> bool:
        return not (
            self.x0 + self.size - 1 < xmin
            or xmax < self.x0
            or self.y0 + self.size - 1 < ymin
            or ymax < self.y0
        )


class QuadTreeIndex:
    CAPACITY = 4

    def __init__(self, datasets: dict[int, np.ndarray], theta: int):
        self.theta = theta
        self.cells: dict[int, np.ndarray] = {}
        self.root = _QNode(0, 0, 1 << theta)
        # Bulk build: recursive vectorized partitioning of all (X, Y, cell,
        # dataset) rows — same tree as repeated insertion, built in
        # O(N log N) numpy passes.
        rows = []
        for did in sorted(datasets):
            cells = np.asarray(datasets[did], dtype=np.int64)
            self.cells[did] = cells
            X, Y = z_decode_np(cells, theta)
            rows.append(
                np.stack([X, Y, cells, np.full(len(cells), did, dtype=np.int64)], axis=1)
            )
        if rows:
            self._bulk(self.root, np.concatenate(rows))

    def _bulk(self, node: _QNode, rows: np.ndarray) -> None:
        if len(rows) <= self.CAPACITY or node.size == 1:
            node.entries = [tuple(int(v) for v in r) for r in rows]
            return
        half = node.size // 2
        node.entries = None
        node.children = [
            _QNode(node.x0, node.y0, half),
            _QNode(node.x0 + half, node.y0, half),
            _QNode(node.x0, node.y0 + half, half),
            _QNode(node.x0 + half, node.y0 + half, half),
        ]
        right = rows[:, 0] >= node.x0 + half
        top = rows[:, 1] >= node.y0 + half
        for i, mask in enumerate(
            (~right & ~top, right & ~top, ~right & top, right & top)
        ):
            self._bulk(node.children[i], rows[mask])

    # -- maintenance ------------------------------------------------------
    def insert(self, dataset_id: int, cells: np.ndarray) -> None:
        cells = np.asarray(cells, dtype=np.int64)
        self.cells[dataset_id] = cells
        X, Y = z_decode_np(cells, self.theta)
        for x, y, c in zip(X, Y, cells):
            self._insert_entry(self.root, int(x), int(y), int(c), dataset_id)

    def delete(self, dataset_id: int) -> None:
        cells = self.cells.pop(dataset_id, None)
        if cells is None:
            return
        X, Y = z_decode_np(cells, self.theta)
        for x, y in zip(X, Y):
            self._delete_entry(self.root, int(x), int(y), dataset_id)

    def update(self, dataset_id: int, cells: np.ndarray) -> None:
        self.delete(dataset_id)
        self.insert(dataset_id, cells)

    def _insert_entry(self, node: _QNode, x: int, y: int, c: int, did: int) -> None:
        while node.children is not None:
            node = node.children[self._quadrant(node, x, y)]
        node.entries.append((x, y, c, did))
        node._arr = None
        if len(node.entries) > self.CAPACITY and node.size > 1:
            self._split(node)

    def _delete_entry(self, node: _QNode, x: int, y: int, did: int) -> None:
        while node.children is not None:
            node = node.children[self._quadrant(node, x, y)]
        node.entries = [e for e in node.entries if not (e[0] == x and e[1] == y and e[3] == did)]
        node._arr = None

    @staticmethod
    def _quadrant(node: _QNode, x: int, y: int) -> int:
        half = node.size // 2
        return (1 if x >= node.x0 + half else 0) + (2 if y >= node.y0 + half else 0)

    def _split(self, node: _QNode) -> None:
        half = node.size // 2
        node.children = [
            _QNode(node.x0, node.y0, half),
            _QNode(node.x0 + half, node.y0, half),
            _QNode(node.x0, node.y0 + half, half),
            _QNode(node.x0 + half, node.y0 + half, half),
        ]
        entries, node.entries = node.entries, None
        for x, y, c, did in entries:
            self._insert_entry(node, x, y, c, did)

    # -- search -----------------------------------------------------------
    def search(
        self,
        query_cells: np.ndarray,
        k: int,
        exclude: frozenset[int] = frozenset(),
    ) -> list[tuple[int, int]]:
        q = np.unique(np.asarray(query_cells, dtype=np.int64))
        X, Y = z_decode_np(q, self.theta)
        xmin, xmax = int(X.min()), int(X.max())
        ymin, ymax = int(Y.min()), int(Y.max())
        # Count *distinct overlapping cells* per dataset: a (cell, did) pair
        # appears once in the tree, so entry hits are distinct by design.
        # Per-leaf matching is vectorized (searchsorted against the sorted
        # query cells).
        parts: list[np.ndarray] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.intersects(xmin, ymin, xmax, ymax):
                continue
            if node.children is not None:
                stack.extend(node.children)
            elif node.entries:
                arr = node.arr()
                pos = np.searchsorted(q, arr[:, 2])
                ok = pos < len(q)
                hit = np.zeros(len(arr), dtype=bool)
                hit[ok] = q[pos[ok]] == arr[ok, 2]
                if hit.any():
                    parts.append(arr[hit, 3])
        if not parts:
            return []
        ids, counts = np.unique(np.concatenate(parts), return_counts=True)
        return rank_topk(
            (
                (int(d), int(o))
                for d, o in zip(ids, counts)
                if int(d) not in exclude and o > 0
            ),
            k,
        )
