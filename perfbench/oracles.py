"""Reference answers the benchmark checks every operation against.

Both oracles run outside the timed region and share no code with the
search paths beyond the reference functions the repository keeps for this
purpose: ``brute_force_topk`` for OJSP and ``geometry.min_cell_distance``
(exact Def. 6) for CJSP connectivity.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.coverage import is_connected_result
from repro.core.overlap import brute_force_topk
from repro.geometry import cell_coords, min_cell_distance


class OverlapOracle:
    """``brute_force_topk`` over the datasets that share a cell with the query.

    Datasets that share no cell have overlap 0 and are never joinable, so
    restricting the brute-force scan to the posting lists of the query's
    cells changes no answer. The postings follow inserts, updates and
    deletes, so the oracle tracks a changing index too.
    """

    def __init__(self, datasets: dict[int, np.ndarray]):
        self.datasets: dict[int, np.ndarray] = {}
        self._post: dict[int, set[int]] = defaultdict(set)
        for did, cells in datasets.items():
            self.put(did, cells)

    def put(self, did: int, cells: np.ndarray) -> None:
        if did in self.datasets:
            self.remove(did)
        self.datasets[did] = cells
        for c in cells.tolist():
            self._post[c].add(did)

    def remove(self, did: int) -> None:
        for c in self.datasets.pop(did).tolist():
            ids = self._post[c]
            ids.discard(did)
            if not ids:
                del self._post[c]

    def topk(self, query: np.ndarray, k: int, exclude: frozenset[int]) -> list[tuple[int, int]]:
        post = self._post
        cand: set[int] = set()
        for c in query.tolist():
            ids = post.get(c)
            if ids:
                cand |= ids
        return brute_force_topk(query, {d: self.datasets[d] for d in cand}, k, exclude)


def static_topk(
    datasets: dict[int, np.ndarray], queries: list[int], k: int
) -> dict[int, list[tuple[int, int]]]:
    """OJSP answers for corpus datasets used as queries (each excluded from
    its own answer), with the same posting-list restriction as
    :class:`OverlapOracle` held in flat arrays instead of Python sets."""
    ids = np.array(sorted(datasets), dtype=np.int64)
    lens = np.array([len(datasets[d]) for d in ids.tolist()])
    cells = np.concatenate([datasets[d] for d in ids.tolist()])
    order = np.argsort(cells, kind="stable")
    keys, owners = cells[order], np.repeat(ids, lens)[order]
    out = {}
    for qid in queries:
        q = datasets[qid]
        lo = np.searchsorted(keys, q, "left")
        n = np.searchsorted(keys, q, "right") - lo
        pos = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(int(n.sum()))
        cand = np.unique(owners[pos]).tolist()
        out[qid] = brute_force_topk(q, {d: datasets[d] for d in cand}, k, frozenset([qid]))
    return out


class CoverageOracle:
    """Exact greedy CJSP with Def-6 connectivity and the (max gain, min id) rule.

    A dataset is directly connected to the merged result iff it lies within
    ``delta`` of one of its members, so the greedy only needs the pairwise
    member distances. They are computed once with ``min_cell_distance`` for
    every pair whose MBR gap (a lower bound on the distance) is at most
    ``max_delta``; pairs further apart cannot connect at any tested delta.
    """

    def __init__(self, datasets: dict[int, np.ndarray], theta: int, max_delta: float):
        self.datasets = datasets
        self.theta = theta
        ids = sorted(datasets)
        coords = [cell_coords(datasets[d], theta) for d in ids]
        lo = np.array([c.min(axis=0) for c in coords])
        hi = np.array([c.max(axis=0) for c in coords])
        self.near: dict[int, list[tuple[int, float]]] = {d: [] for d in ids}
        for i, a in enumerate(ids):
            gap = np.maximum(0.0, np.maximum(lo[i + 1:] - hi[i], lo[i] - hi[i + 1:]))
            for j in np.nonzero(np.hypot(gap[:, 0], gap[:, 1]) <= max_delta)[0] + i + 1:
                d = min_cell_distance(coords[i], coords[j])
                if d <= max_delta:
                    self.near[a].append((ids[j], d))
                    self.near[ids[j]].append((a, d))
        self._sets = {d: set(c.tolist()) for d, c in datasets.items()}
        self._connected: dict[tuple, bool] = {}

    def greedy(self, qid: int, delta: float, k: int) -> list[tuple[int, int]]:
        covered = set(self._sets[qid])
        taken = {qid}
        cand = {n for n, d in self.near[qid] if d <= delta}
        result: list[tuple[int, int]] = []
        for _ in range(k):
            best = None  # (gain, id)
            for did in cand - taken:
                g = len(self._sets[did] - covered)
                if best is None or g > best[0] or (g == best[0] and did < best[1]):
                    best = (g, did)
            if best is None:
                break
            gain, did = best
            result.append((did, gain))
            taken.add(did)
            covered |= self._sets[did]
            cand |= {n for n, d in self.near[did] if d <= delta}
        return result

    def connected(self, qid: int, ids: tuple[int, ...], delta: float) -> bool:
        """Def-9 check of a returned result with the repository's own checker."""
        key = (qid, ids, delta)
        if key not in self._connected:
            self._connected[key] = all(d in self.datasets for d in ids) and is_connected_result(
                list(ids), self.datasets, self.datasets[qid], delta, self.theta
            )
        return self._connected[key]
