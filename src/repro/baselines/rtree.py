"""R-tree baseline (Guttman '84): dynamic insertion with quadratic split.

Indexes one MBR entry per dataset (grid coordinates). Overlap search
collects every dataset whose MBR intersects the query MBR and computes the
exact cell-set intersection per candidate (paper §VII-C). The
insertion-time balancing work is what makes it slower to build than DITS-L
in Fig. 8.
"""
from __future__ import annotations

import numpy as np

from ..geometry import mbr_intersects, mbr_union
from ..core.node import DatasetNode
from ..core.overlap import rank_topk


def _area(r: np.ndarray) -> float:
    return float((r[2] - r[0]) * (r[3] - r[1]))


def _enlargement(r: np.ndarray, add: np.ndarray) -> float:
    return _area(mbr_union(r, add)) - _area(r)


class _RNode:
    __slots__ = ("leaf", "entries", "parent")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.entries: list[tuple[np.ndarray, object]] = []  # (rect, child|DatasetNode)
        self.parent: _RNode | None = None

    def rect(self) -> np.ndarray:
        r = self.entries[0][0]
        for e in self.entries[1:]:
            r = mbr_union(r, e[0])
        return r


class RTreeIndex:
    def __init__(self, datasets: dict[int, np.ndarray], theta: int, f: int = 10):
        self.M = max(2, f)
        self.m = max(1, self.M // 2)
        self.theta = theta
        self.root = _RNode(leaf=True)
        self.nodes: dict[int, DatasetNode] = {}
        for did in sorted(datasets):
            self.insert(did, datasets[did])

    # -- maintenance ------------------------------------------------------
    def insert(self, dataset_id: int, cells: np.ndarray) -> None:
        nd = DatasetNode(dataset_id, cells, self.theta)
        self.nodes[dataset_id] = nd
        leaf = self._choose_leaf(self.root, nd.rect)
        leaf.entries.append((nd.rect, nd))
        self._handle_overflow(leaf)

    def delete(self, dataset_id: int) -> None:
        nd = self.nodes.pop(dataset_id, None)
        if nd is None:
            return
        leaf = self._find_leaf(self.root, nd)
        if leaf is None:
            return
        leaf.entries = [e for e in leaf.entries if e[1] is not nd]
        # Guttman's full CondenseTree re-inserts underfull nodes; for this
        # baseline we keep underfull leaves (search stays correct, only
        # packing quality differs).

    def update(self, dataset_id: int, cells: np.ndarray) -> None:
        self.delete(dataset_id)
        self.insert(dataset_id, cells)

    def _choose_leaf(self, node: _RNode, rect: np.ndarray) -> _RNode:
        while not node.leaf:
            best = min(
                node.entries,
                key=lambda e: (_enlargement(e[0], rect), _area(e[0])),
            )
            node = best[1]
        return node

    def _find_leaf(self, node: _RNode, nd: DatasetNode) -> _RNode | None:
        if node.leaf:
            return node if any(e[1] is nd for e in node.entries) else None
        for r, child in node.entries:
            if mbr_intersects(r, nd.rect):
                found = self._find_leaf(child, nd)
                if found is not None:
                    return found
        return None

    def _handle_overflow(self, node: _RNode) -> None:
        while True:
            self._refresh_parent_rects(node)
            if len(node.entries) <= self.M:
                return
            a, b = self._quadratic_split(node)
            if node.parent is None:
                new_root = _RNode(leaf=False)
                for child in (a, b):
                    child.parent = new_root
                    new_root.entries.append((child.rect(), child))
                self.root = new_root
                return
            parent = node.parent
            parent.entries = [e for e in parent.entries if e[1] is not node]
            for child in (a, b):
                child.parent = parent
                parent.entries.append((child.rect(), child))
            node = parent

    def _refresh_parent_rects(self, node: _RNode) -> None:
        cur = node.parent
        child = node
        while cur is not None:
            cur.entries = [
                (child.rect(), c) if c is child else (r, c) for r, c in cur.entries
            ]
            child = cur
            cur = cur.parent

    def _quadratic_split(self, node: _RNode) -> tuple[_RNode, _RNode]:
        entries = node.entries
        # PickSeeds: the pair wasting the most area.
        worst, seeds = -np.inf, (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = _area(mbr_union(entries[i][0], entries[j][0])) - _area(
                    entries[i][0]
                ) - _area(entries[j][0])
                if waste > worst:
                    worst, seeds = waste, (i, j)
        a = _RNode(leaf=node.leaf)
        b = _RNode(leaf=node.leaf)
        a.entries.append(entries[seeds[0]])
        b.entries.append(entries[seeds[1]])
        ra, rb = entries[seeds[0]][0], entries[seeds[1]][0]
        unassigned = [e for idx, e in enumerate(entries) if idx not in seeds]
        while unassigned:
            # Min-fill guarantee: if one side needs every remaining entry
            # to reach m, give it all of them.
            if len(a.entries) + len(unassigned) <= self.m:
                tgt, take = a, unassigned
                unassigned = []
            elif len(b.entries) + len(unassigned) <= self.m:
                tgt, take = b, unassigned
                unassigned = []
            else:
                e = unassigned.pop(0)
                da = _enlargement(ra, e[0])
                db = _enlargement(rb, e[0])
                tgt, take = (a, [e]) if (da, _area(ra)) <= (db, _area(rb)) else (b, [e])
            for e in take:
                tgt.entries.append(e)
                if tgt is a:
                    ra = mbr_union(ra, e[0])
                else:
                    rb = mbr_union(rb, e[0])
        if not node.leaf:
            for n in (a, b):
                for _r, child in n.entries:
                    child.parent = n
        return a, b

    # -- search -----------------------------------------------------------
    def intersecting_datasets(self, q_rect: np.ndarray) -> list[DatasetNode]:
        out: list[DatasetNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            for r, child in node.entries:
                if mbr_intersects(r, q_rect):
                    if node.leaf:
                        out.append(child)
                    else:
                        stack.append(child)
        return out

    def search(
        self,
        query_node: DatasetNode,
        k: int,
        exclude: frozenset[int] = frozenset(),
    ) -> list[tuple[int, int]]:
        q = query_node.cells
        scored = []
        for nd in self.intersecting_datasets(query_node.rect):
            if nd.id in exclude:
                continue
            ov = int(np.intersect1d(q, nd.cells, assume_unique=True).size)
            if ov > 0:
                scored.append((nd.id, ov))
        return rank_topk(scored, k)
