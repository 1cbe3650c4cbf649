"""Josie-style baseline (Zhu et al., SIGMOD'19), reduced to the behaviours
the paper relies on.

Build: a *sorted* inverted index — per-dataset token lists are sorted by
global token frequency (rarest first), each posting carries (dataset id,
position of the token in that dataset's sorted list, dataset size), and
postings are kept sorted by dataset id. The extra sorting is what makes
Josie's construction and updates the slowest in Figs 8/21/22.

Search: exact top-k set intersection with the prefix filter — query tokens
are processed rarest-first; once the k-th best partial count is at least the
number of unprocessed tokens, no unseen dataset can reach the top-k, so
candidate admission is frozen (early termination of candidate generation).
Counts of admitted candidates stay exact because every query token's posting
list is still drained for already-admitted candidates.
"""
from __future__ import annotations

import bisect

import numpy as np

from ..core.overlap import rank_topk


class JosieIndex:
    def __init__(self, datasets: dict[int, np.ndarray]):
        self.cells: dict[int, np.ndarray] = {}
        # token -> sorted list of (dataset_id, position, size)
        self.inv: dict[int, list[tuple[int, int, int]]] = {}
        self.freq: dict[int, int] = {}
        self._pids: dict[int, np.ndarray] = {}  # lazy id-array per posting
        for did in sorted(datasets):
            self.cells[did] = np.asarray(datasets[did], dtype=np.int64)
        for cells in self.cells.values():
            for c in cells:
                self.freq[int(c)] = self.freq.get(int(c), 0) + 1
        for did, cells in self.cells.items():
            self._post(did, cells)

    def _sorted_tokens(self, cells: np.ndarray) -> list[int]:
        return sorted((int(c) for c in cells), key=lambda t: (self.freq.get(t, 0), t))

    def _post(self, did: int, cells: np.ndarray) -> None:
        toks = self._sorted_tokens(cells)
        size = len(toks)
        for pos, t in enumerate(toks):
            pl = self.inv.setdefault(t, [])
            bisect.insort(pl, (did, pos, size))
            self._pids.pop(t, None)

    def insert(self, dataset_id: int, cells: np.ndarray) -> None:
        cells = np.asarray(cells, dtype=np.int64)
        self.cells[dataset_id] = cells
        for c in cells:
            self.freq[int(c)] = self.freq.get(int(c), 0) + 1
        self._post(dataset_id, cells)

    def delete(self, dataset_id: int) -> None:
        cells = self.cells.pop(dataset_id, None)
        if cells is None:
            return
        for c in cells:
            t = int(c)
            pl = self.inv.get(t, [])
            self.inv[t] = [e for e in pl if e[0] != dataset_id]
            self._pids.pop(t, None)
            if not self.inv[t]:
                del self.inv[t]
            self.freq[t] -= 1
            if self.freq[t] == 0:
                del self.freq[t]

    def update(self, dataset_id: int, cells: np.ndarray) -> None:
        self.delete(dataset_id)
        self.insert(dataset_id, cells)

    def search(
        self,
        query_cells: np.ndarray,
        k: int,
        exclude: frozenset[int] = frozenset(),
    ) -> list[tuple[int, int]]:
        # Rarest-first query token order (the prefix of an imagined sorted
        # query set). Counting is vectorized over a dense per-dataset array;
        # the freeze check runs periodically (freezing *later* than the
        # earliest safe point is always correct — just less pruning).
        toks = self._sorted_tokens(np.unique(np.asarray(query_cells, dtype=np.int64)))
        all_ids = np.array(sorted(self.cells), dtype=np.int64)
        n = len(all_ids)
        if n == 0 or not toks:
            return []
        counts = np.zeros(n, dtype=np.int64)
        seen = np.zeros(n, dtype=bool)
        allowed = np.ones(n, dtype=bool)
        for e in exclude:
            j = np.searchsorted(all_ids, e)
            if j < n and all_ids[j] == e:
                allowed[j] = False
        frozen = False
        n_q = len(toks)
        for i, t in enumerate(toks):
            remaining = n_q - i  # tokens left including this one
            if not frozen and i % 8 == 0 and int(seen.sum()) >= k:
                kth = int(np.partition(counts[seen], -k)[-k])
                # Strict: an unseen dataset can still reach `remaining`
                # overlap, and at equality it could win the (-overlap, id)
                # tie-break, so admission only closes when it cannot tie.
                if kth > remaining:
                    frozen = True
            pl = self.inv.get(t)
            if not pl:
                continue
            pids = self._pids.get(t)
            if pids is None:
                pids = np.fromiter((e[0] for e in pl), dtype=np.int64, count=len(pl))
                self._pids[t] = pids
            idx = np.searchsorted(all_ids, pids)
            idx = idx[allowed[idx]]
            if frozen:
                idx = idx[seen[idx]]
            counts[idx] += 1
            seen[idx] = True
        hit = seen & (counts > 0)
        return rank_topk(((int(d), int(o)) for d, o in zip(all_ids[hit], counts[hit])), k)
