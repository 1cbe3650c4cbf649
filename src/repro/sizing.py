"""Structural memory model for the five indexes (Fig. 8 right).

Rather than process RSS (noisy, allocator-dependent), we count the bytes
each structure *logically* holds, with one shared cost model so the indexes
are comparable — the same style of accounting the paper's theoretical
comparison uses (#nodes x node size + postings):

- tree/index node base: 64 B; MBR: 32 B; pivot+radius: 24 B;
- pointer: 8 B; cell ID / dataset ID: 8 B;
- Josie posting entry (id, position, size): 24 B.
"""
from __future__ import annotations

NODE_BASE = 64
MBR_BYTES = 32
PIVOT_BYTES = 24
PTR_BYTES = 8
ID_BYTES = 8

from .baselines.josie import JosieIndex
from .baselines.quadtree import QuadTreeIndex, _QNode
from .baselines.rtree import RTreeIndex, _RNode
from .baselines.sts3 import STS3Index


def _dataset_node_bytes(nd) -> int:
    return NODE_BASE + MBR_BYTES + PIVOT_BYTES + PTR_BYTES + len(nd.cells) * ID_BYTES


def dits_bytes(root) -> int:
    """DITS-L: internal nodes + leaves (+ inverted postings) + dataset nodes."""
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        total += NODE_BASE + MBR_BYTES + PIVOT_BYTES + 2 * PTR_BYTES
        if node.is_leaf:
            total += sum(_dataset_node_bytes(nd) for nd in node.ch)
            total += (len(node.keys) + len(node.post)) * ID_BYTES
        else:
            stack.append(node.left)
            stack.append(node.right)
    return total


def sts3_bytes(index: STS3Index) -> int:
    total = NODE_BASE
    total += sum(ID_BYTES + len(pl) * ID_BYTES for pl in index.inv.values())
    total += sum(len(c) * ID_BYTES for c in index.cells.values())
    return total


def josie_bytes(index: JosieIndex) -> int:
    total = NODE_BASE
    total += sum(ID_BYTES + len(pl) * 3 * ID_BYTES for pl in index.inv.values())
    total += sum(len(c) * ID_BYTES for c in index.cells.values())
    total += len(index.freq) * 2 * ID_BYTES
    return total


def quadtree_bytes(index: QuadTreeIndex) -> int:
    total = 0
    stack: list[_QNode] = [index.root]
    while stack:
        node = stack.pop()
        total += NODE_BASE + MBR_BYTES
        if node.children is not None:
            total += 4 * PTR_BYTES
            stack.extend(node.children)
        else:
            total += len(node.entries) * 4 * ID_BYTES
    return total


def rtree_bytes(index: RTreeIndex) -> int:
    total = 0
    stack: list[_RNode] = [index.root]
    while stack:
        node = stack.pop()
        total += NODE_BASE
        total += len(node.entries) * (MBR_BYTES + PTR_BYTES)
        if node.leaf:
            total += sum(_dataset_node_bytes(nd) for _r, nd in node.entries)
        else:
            stack.extend(child for _r, child in node.entries)
    return total
