"""CoverageSearch — paper Algorithm 3 (§VI-C) for the NP-hard CJSP.

Greedy with *spatial merge*: the current result set (query ∪ chosen
datasets) is kept as one merged node; each iteration performs a single DITS
traversal (``find_connect_set``) that uses the Lemma-4 triangle-inequality
bounds to find all dataset nodes directly connected to the merged set, then
picks the one with maximum marginal gain, size-filtering candidates with
``|S_D| < tau`` before computing exact gains.

The exact Def-6 test for a dataset the bounds cannot decide is
:func:`slab_probe`: the searching set is sorted on x once per search, and
only the cells of both sets within ``delta`` of each other on both axes
reach :func:`~repro.geometry.min_cell_distance`, which stays the full-scan
reference for :func:`is_connected_result`. The covered set is a sorted
int64 array, so a gain is one ``searchsorted`` over a candidate's cells.

Tie-break: maximum gain, then smaller dataset id — identical to the SG /
SG+DITS baselines, so all three algorithms return the same result set.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from ..geometry import min_cell_distance, node_distance_bounds
from .dits_local import iter_dataset_nodes
from .node import DatasetNode


def slab_probe(coords: np.ndarray, delta: float) -> Callable[[DatasetNode], bool]:
    """Exact Def-6 test against one coord set: ``connected(nd)`` is
    ``min_cell_distance(coords, nd.coords) <= delta``.

    ``coords`` is sorted on x once. Per dataset node, only the slab of
    ``coords`` whose x and y lie within ``delta`` of the node's MBR, and
    only the node's cells within ``delta`` of that slab's bounding box,
    reach the exact distance (the projection filter for fixed-radius
    search: Friedman, Baskett & Shustek 1975; Bentley, Stanat & Williams
    1977). Every pair dropped has |dx| or |dy| > ``delta`` between lattice
    points, so its float distance exceeds ``delta`` too: the answer equals
    the full scan's.
    """
    xy = coords[np.argsort(coords[:, 0], kind="stable")]
    xs = xy[:, 0]

    def connected(nd: DatasetNode) -> bool:
        x0, y0, x1, y1 = nd.rect
        lo = np.searchsorted(xs, x0 - delta, side="left")
        hi = np.searchsorted(xs, x1 + delta, side="right")
        slab = xy[lo:hi]
        slab = slab[(slab[:, 1] >= y0 - delta) & (slab[:, 1] <= y1 + delta)]
        if len(slab) == 0:
            return False
        sy = slab[:, 1]
        b = nd.coords
        b = b[
            (b[:, 0] >= slab[0, 0] - delta)
            & (b[:, 0] <= slab[-1, 0] + delta)
            & (b[:, 1] >= sy.min() - delta)
            & (b[:, 1] <= sy.max() + delta)
        ]
        return len(b) > 0 and min_cell_distance(slab, b) <= delta

    return connected


def find_connect_set(node, query_node: DatasetNode, delta: float, out: list) -> None:
    """Algorithm 3's FindConnectSet: all dataset nodes with
    ``dist(S_Q, S_D) <= delta``, pruned/accepted with Lemma-4 bounds; the
    datasets of a leaf the bounds cannot decide go through one
    :func:`slab_probe` built for this search."""
    _find_connect(node, query_node, delta, slab_probe(query_node.coords, delta), out)


def _find_connect(node, query_node, delta, connected, out) -> None:
    lb, ub = node_distance_bounds(node.o, node.r, query_node.o, query_node.r)
    if ub <= delta:
        out.extend(iter_dataset_nodes(node))
    elif lb <= delta:
        if node.is_leaf:
            out.extend(nd for nd in node.ch if connected(nd))
        else:
            _find_connect(node.left, query_node, delta, connected, out)
            _find_connect(node.right, query_node, delta, connected, out)


def marginal_gain(cells: np.ndarray, covered: np.ndarray) -> int:
    """Eq. 3: number of entries of ``cells`` not in ``covered``, a sorted
    int64 array."""
    if len(covered) == 0:
        return len(cells)
    i = np.minimum(np.searchsorted(covered, cells), len(covered) - 1)
    return int(len(cells) - np.count_nonzero(covered[i] == cells))


def _pick_best(
    candidates: list[DatasetNode], covered: np.ndarray, taken: set[int]
) -> tuple[DatasetNode | None, int]:
    """Max-marginal-gain candidate with the shared size filter + tie-break."""
    best: DatasetNode | None = None
    tau = -1
    for nd in sorted(candidates, key=lambda n: (-n.size, n.id)):
        if nd.id in taken:
            continue
        if nd.size < tau:
            break  # gain <= |S_D| < tau: nothing later can win
        g = marginal_gain(nd.cells, covered)
        if g > tau or (g == tau and best is not None and nd.id < best.id):
            best, tau = nd, g
    return best, tau


def coverage_search(
    root,
    query_node: DatasetNode,
    delta: float,
    k: int,
    theta: int,
    exclude: frozenset[int] = frozenset(),
) -> list[tuple[int, int]]:
    """Algorithm 3. Returns [(dataset_id, gain_at_selection)] in pick order.

    The selected set, together with the query, always satisfies spatial
    connectivity: every pick is directly connected to the merged result of
    the picks before it.
    """
    covered = query_node.cells
    taken: set[int] = set(exclude)
    result: list[tuple[int, int]] = []
    # The merged set only grows, so its connected-candidate set is the
    # union of the candidates of its members: one tree search with the
    # *newly merged* node per iteration finds exactly the new candidates
    # (the "single search per iteration" the merge strategy buys — a
    # literal merged-ball search would visit the same leaves with a much
    # weaker Lemma-4 bound, since one ball around a spread-out union has a
    # huge radius and prunes nothing).
    newly_merged: DatasetNode = query_node
    cand_by_id: dict[int, DatasetNode] = {}
    for _ in range(k):
        found: list[DatasetNode] = []
        find_connect_set(root, newly_merged, delta, found)
        for nd in found:
            cand_by_id.setdefault(nd.id, nd)
        best, tau = _pick_best(list(cand_by_id.values()), covered, taken)
        if best is None:
            break  # no connected candidate remains
        result.append((best.id, tau))
        taken.add(best.id)
        covered = np.union1d(covered, best.cells)
        newly_merged = best
    return result


def coverage_of(result_ids, datasets: dict[int, np.ndarray], query_cells: np.ndarray) -> int:
    """|S_Q ∪ ⋃ S_D| — the CJSP objective value of a result set."""
    covered = {int(c) for c in query_cells}
    for did in result_ids:
        covered.update(int(c) for c in datasets[did])
    return len(covered)


def is_connected_result(
    result_ids,
    datasets: dict[int, np.ndarray],
    query_cells: np.ndarray,
    delta: float,
    theta: int,
) -> bool:
    """Exact Def. 9 check: {query} ∪ result is spatially connected.

    Builds the direct-connection graph with exact Def. 6 distances and
    verifies a single connected component.
    """
    from ..geometry import cell_coords

    members = [cell_coords(np.asarray(query_cells, dtype=np.int64), theta)] + [
        cell_coords(datasets[d], theta) for d in result_ids
    ]
    n = len(members)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if min_cell_distance(members[i], members[j]) <= delta:
                adj[i][j] = adj[j][i] = True
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in range(n):
            if adj[u][v] and v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n
