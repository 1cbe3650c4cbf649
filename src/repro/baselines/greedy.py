"""CJSP baselines (§VII-D): SG and SG+DITS.

- **SG** (standard greedy, Hochbaum & Pathria extended to CJSP): every
  iteration scans *all* datasets, keeps those directly connected to the
  current result set (exact Def. 6 distances — no index), and picks the
  maximum-marginal-gain one. O(k·n) scans, each an O(|A|·|B|)
  ``min_cell_distance`` over every cell pair.
- **SG+DITS** uses DITS-L's ``find_connect_set`` to find connected
  candidates, but — unlike CoverageSearch — runs one tree search *per
  result-set member* per iteration instead of merging the result into a
  single query node.

Both share CoverageSearch's size filter and (gain, then smaller id)
tie-break, so all three algorithms return identical result sets — a
cross-check the tests rely on.
"""
from __future__ import annotations

import numpy as np

from ..geometry import min_cell_distance
from ..core.coverage import _pick_best
from ..core.dits_local import build_dataset_nodes
from ..core.node import DatasetNode


class SGCoverage:
    """Index-free standard greedy for CJSP.

    Its connectivity test stays the full O(|A|·|B|) ``min_cell_distance``
    scan, not CoverageSearch's ``slab_probe``: SG is the paper's index-free
    baseline of Figs 15-18 and the independent reference the differential
    tests compare the index paths against. Given the probe, SG measured
    faster than SG+DITS across Fig 18 on COV_WB, which flips the paper's
    ordering of the two baselines.
    """

    def __init__(self, datasets: dict[int, np.ndarray], theta: int):
        self.nodes = build_dataset_nodes(datasets, theta)
        self.theta = theta

    def search(
        self,
        query_node: DatasetNode,
        delta: float,
        k: int,
        exclude: frozenset[int] = frozenset(),
    ) -> list[tuple[int, int]]:
        covered = query_node.cells
        merged_coords = query_node.coords
        taken: set[int] = set(exclude)
        result: list[tuple[int, int]] = []
        for _ in range(k):
            candidates = [
                nd
                for nd in self.nodes
                if nd.id not in taken
                and min_cell_distance(merged_coords, nd.coords) <= delta
            ]
            best, tau = _pick_best(candidates, covered, taken)
            if best is None:
                break
            result.append((best.id, tau))
            taken.add(best.id)
            covered = np.union1d(covered, best.cells)
            merged_coords = DatasetNode(-1, covered, self.theta).coords
        return result


class SGDitsCoverage:
    """SG accelerated with DITS-L, one tree search per result member."""

    def __init__(self, root, theta: int):
        self.root = root
        self.theta = theta

    def search(
        self,
        query_node: DatasetNode,
        delta: float,
        k: int,
        exclude: frozenset[int] = frozenset(),
    ) -> list[tuple[int, int]]:
        from ..core.coverage import find_connect_set

        covered = query_node.cells
        members: list[DatasetNode] = [query_node]
        taken: set[int] = set(exclude)
        result: list[tuple[int, int]] = []
        for _ in range(k):
            by_id: dict[int, DatasetNode] = {}
            for m in members:
                found: list[DatasetNode] = []
                find_connect_set(self.root, m, delta, found)
                for nd in found:
                    by_id.setdefault(nd.id, nd)
            best, tau = _pick_best(list(by_id.values()), covered, taken)
            if best is None:
                break
            result.append((best.id, tau))
            taken.add(best.id)
            covered = np.union1d(covered, best.cells)
            members.append(best)
        return result
