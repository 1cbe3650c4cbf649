"""OverlapSearch — paper Algorithm 2 (§VI-B) plus a brute-force reference.

Branch-and-bound over DITS-L: internal nodes whose MBR misses the query MBR
are pruned; each surviving leaf gets Lemma-2/3 intersection bounds from its
inverted index, leaves are verified in decreasing upper-bound order, and
verification stops once a leaf's upper bound cannot beat the current k-th
best overlap.

Ranking is deterministic everywhere in this repo: datasets are ordered by
``(-overlap, dataset_id)`` and only datasets with overlap > 0 are joinable
(an index search cannot surface MBR-disjoint, zero-overlap datasets, so the
brute-force reference applies the same rule).
"""
from __future__ import annotations

import heapq

import numpy as np

from ..geometry import mbr_intersects
from .node import DatasetNode, LeafNode


def rank_key(row) -> tuple[int, int]:
    """Sort key of the repo-wide order on ``(dataset_id, score, ...)`` rows:
    higher score first, then the smaller dataset id."""
    return -row[1], row[0]


def rank_topk(rows, k: int) -> list:
    """The first ``k`` of ``rows`` under :func:`rank_key`; [] for k <= 0."""
    return sorted(rows, key=rank_key)[: max(k, 0)]


def overlap_of(a: np.ndarray, b: np.ndarray) -> int:
    """|S_a ∩ S_b| for two sorted cell-ID arrays."""
    return int(np.intersect1d(a, b, assume_unique=True).size)


def brute_force_topk(
    query_cells: np.ndarray,
    datasets: dict[int, np.ndarray],
    k: int,
    exclude: frozenset[int] = frozenset(),
) -> list[tuple[int, int]]:
    """Reference OJSP answer: [(dataset_id, overlap)] sorted by (-overlap, id)."""
    q = np.sort(np.asarray(query_cells, dtype=np.int64))
    scored = [
        (did, overlap_of(q, cells))
        for did, cells in datasets.items()
        if did not in exclude
    ]
    return rank_topk([(d, o) for d, o in scored if o > 0], k)


def _matched_key_idx(leaf: LeafNode, query_cells: np.ndarray) -> np.ndarray:
    """Indices into ``leaf.keys`` of the query cells present in the leaf.

    ``query_cells`` must be sorted (DatasetNode cells always are).
    """
    keys = leaf.keys
    if len(keys) == 0 or len(query_cells) == 0:
        return np.empty(0, dtype=np.int64)
    pos = np.searchsorted(keys, query_cells)
    ok = pos < len(keys)
    pos = pos[ok]
    hit = keys[pos] == query_cells[ok]
    return pos[hit]


def leaf_bounds(leaf: LeafNode, query_cells: np.ndarray) -> tuple[int, int]:
    """(lower, upper) intersection bounds of Lemmas 3 and 2.

    Upper: number of query cells present in the leaf's inverted index keys.
    Lower: number of query cells whose posting list covers *every* child.
    """
    m = _matched_key_idx(leaf, query_cells)
    ub = int(m.size)
    lb = int((leaf.plen[m] == len(leaf.ch)).sum())
    return lb, ub


def _verify_matched(leaf: LeafNode, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact overlaps for ``leaf``'s children given matched key indices ``m``.

    Gathers all posting entries of the matched cells in one vectorized pass
    (ranges flattened with ``np.repeat`` arithmetic), then counts per
    dataset. Returns (dataset_ids, counts).
    """
    indptr, post = leaf.indptr, leaf.post
    starts = indptr[m]
    lens = indptr[m + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    offs = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
    ids = post[np.repeat(starts, lens) + offs]
    return np.unique(ids, return_counts=True)


def overlap_search(
    root,
    query_node: DatasetNode,
    k: int,
    exclude: frozenset[int] = frozenset(),
) -> list[tuple[int, int]]:
    """Algorithm 2: exact top-k by overlap using DITS-L.

    Returns [(dataset_id, overlap)] sorted by (-overlap, id), overlap > 0;
    [] for k <= 0.
    """
    if k <= 0:
        return []
    q_rect = query_node.rect
    q_cells = query_node.cells

    # Filter step: collect intersecting leaves with their Lemma-2 upper
    # bound (the matched-cell indices are kept so verification reuses them).
    candidates: list[tuple[int, LeafNode, np.ndarray]] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if not mbr_intersects(node.rect, q_rect):
            continue
        if node.is_leaf:
            m = _matched_key_idx(node, q_cells)
            if m.size > 0:
                candidates.append((int(m.size), node, m))
        else:
            stack.append(node.left)
            stack.append(node.right)

    # Verification step, best-upper-bound first with early termination.
    candidates.sort(key=lambda t: -t[0])
    # Min-heap keyed (overlap, -id): the root is the *worst* kept result
    # under the (-overlap, id) preference order.
    heap: list[tuple[int, int, int]] = []
    for ub, leaf, m in candidates:
        if len(heap) == k and ub < heap[0][0]:
            break  # no child of this (or any later) leaf can enter top-k
        ids, cnts = _verify_matched(leaf, m)
        for did, ov in zip(ids.tolist(), cnts.tolist()):
            if did in exclude:
                continue
            entry = (ov, -did, did)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
    return rank_topk([(did, ov) for ov, _nid, did in heap if ov > 0], k)


def query_node_from_cells(cells: np.ndarray, theta: int) -> DatasetNode:
    """Wrap raw query cells as a node (id = -1 marks 'not a corpus dataset')."""
    return DatasetNode(-1, cells, theta)
