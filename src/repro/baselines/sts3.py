"""STS3 baseline (Peng et al., SIGMOD'16) — flat inverted index over cells.

Search counts every dataset that shares any cell with the query, then sorts
them all — the paper's observation that its runtime is insensitive to k.
"""
from __future__ import annotations

import numpy as np

from ..core.overlap import rank_topk


class STS3Index:
    """cell ID -> list of dataset IDs containing it, over one data source."""

    def __init__(self, datasets: dict[int, np.ndarray]):
        self.inv: dict[int, list[int]] = {}
        self.cells: dict[int, np.ndarray] = {}
        self._arr: dict[int, np.ndarray] = {}  # lazy array form per posting
        if not datasets:
            return
        # Bulk build: one stable sort over all (cell, dataset) rows, then
        # slice out the posting list of each distinct cell.
        ids_sorted = sorted(datasets)
        for did in ids_sorted:
            self.cells[did] = np.asarray(datasets[did], dtype=np.int64)
        all_cells = np.concatenate([self.cells[d] for d in ids_sorted])
        all_ids = np.concatenate(
            [np.full(len(self.cells[d]), d, dtype=np.int64) for d in ids_sorted]
        )
        order = np.argsort(all_cells, kind="stable")
        post = all_ids[order]
        keys, counts = np.unique(all_cells, return_counts=True)
        offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        for i, c in enumerate(keys):
            self.inv[int(c)] = post[offsets[i] : offsets[i + 1]].tolist()

    def _posting_arr(self, c: int) -> np.ndarray:
        a = self._arr.get(c)
        if a is None:
            a = np.asarray(self.inv[c], dtype=np.int64)
            self._arr[c] = a
        return a

    def insert(self, dataset_id: int, cells: np.ndarray) -> None:
        cells = np.asarray(cells, dtype=np.int64)
        self.cells[dataset_id] = cells
        for c in cells:
            self.inv.setdefault(int(c), []).append(dataset_id)
            self._arr.pop(int(c), None)

    def update(self, dataset_id: int, cells: np.ndarray) -> None:
        """Replace a dataset by walking only its old and new cells."""
        self.delete(dataset_id)
        self.insert(dataset_id, cells)

    def delete(self, dataset_id: int) -> None:
        for c in self.cells.pop(dataset_id, ()):
            pl = self.inv.get(int(c))
            if pl is not None:
                pl.remove(dataset_id)
                if not pl:
                    del self.inv[int(c)]
            self._arr.pop(int(c), None)

    def search(
        self,
        query_cells: np.ndarray,
        k: int,
        exclude: frozenset[int] = frozenset(),
    ) -> list[tuple[int, int]]:
        inv = self.inv
        parts = [self._posting_arr(c) for c in map(int, query_cells) if c in inv]
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
