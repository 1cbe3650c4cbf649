"""DITS-L construction — paper Algorithm 1 (§V-A).

Top-down binary split: the root encloses all dataset nodes; each recursion
picks the widest MBR dimension and splits the dataset nodes at the median of
their pivots on that axis. Recursion stops when ≤ f nodes remain, producing
a :class:`~repro.core.node.LeafNode` with an inverted index. Complexity
O(n log n) build + O(n·|S_D|) postings (Appendix D).
"""
from __future__ import annotations

import numpy as np

from ..geometry import mbr_union
from .node import DatasetNode, InternalNode, LeafNode


def build_dataset_nodes(datasets: dict[int, np.ndarray], theta: int) -> list[DatasetNode]:
    """Transform raw cell-based datasets into dataset nodes (Def. 12)."""
    return [DatasetNode(did, cells, theta) for did, cells in sorted(datasets.items())]


def _enclosing_rect(nodes: list) -> np.ndarray:
    rect = nodes[0].rect
    for nd in nodes[1:]:
        rect = mbr_union(rect, nd.rect)
    return rect


def build_local_index(nodes: list, f: int, parent=None, make_leaf=None):
    """Algorithm 1 over ``nodes``: anything with an MBR ``rect`` and a
    pivot ``o``, non-empty. Returns the (sub)tree root.

    Leaves are ``make_leaf(rect, nodes)``: by default DITS-L's
    :class:`LeafNode` with its inverted index; DITS-G passes its summary
    leaf, so both indexes share one tree shape (§V-B).
    """
    rect = _enclosing_rect(nodes)
    if len(nodes) <= f:
        leaf = make_leaf(rect, list(nodes)) if make_leaf else LeafNode(rect, list(nodes), f)
        leaf.pa = parent
        return leaf
    root = InternalNode(rect)
    root.pa = parent
    # Widest dimension of the enclosing MBR (Lines 11-14).
    widths = (rect[2] - rect[0], rect[3] - rect[1])
    d_split = 0 if widths[0] >= widths[1] else 1
    pivots = np.array([nd.o[d_split] for nd in nodes])
    median = float(np.median(pivots))
    left = [nd for nd in nodes if nd.o[d_split] <= median]
    right = [nd for nd in nodes if nd.o[d_split] > median]
    if not left or not right:
        # Degenerate case (many identical pivots): fall back to an even
        # split so recursion always terminates.
        order = np.argsort(pivots, kind="stable")
        half = len(nodes) // 2
        left = [nodes[i] for i in order[:half]]
        right = [nodes[i] for i in order[half:]]
    root.left = build_local_index(left, f, root, make_leaf)
    root.right = build_local_index(right, f, root, make_leaf)
    return root


def build_dits_l(
    datasets: dict[int, np.ndarray], theta: int, f: int
) -> InternalNode | LeafNode:
    """Convenience wrapper: {dataset_id: cells} -> DITS-L root.

    No datasets give an empty root leaf, the root an index keeps after
    deleting every dataset: searches find nothing and inserts fill it.
    """
    if not datasets:
        return LeafNode(np.zeros(4), [], f)
    return build_local_index(build_dataset_nodes(datasets, theta), f)


def iter_dataset_nodes(node):
    """Yield every DatasetNode under ``node`` (DFS)."""
    if node.is_leaf:
        yield from node.ch
    else:
        yield from iter_dataset_nodes(node.left)
        yield from iter_dataset_nodes(node.right)


def iter_leaves(node):
    """Yield every LeafNode under ``node`` (DFS)."""
    if node.is_leaf:
        yield node
    else:
        yield from iter_leaves(node.left)
        yield from iter_leaves(node.right)


def tree_height(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + max(tree_height(node.left), tree_height(node.right))


def count_nodes(node) -> tuple[int, int, int]:
    """(internal, leaf, dataset) node counts under ``node``."""
    if node.is_leaf:
        return 0, 1, len(node.ch)
    li, ll, ld = count_nodes(node.left)
    ri, rl, rd = count_nodes(node.right)
    return li + ri + 1, ll + rl, ld + rd
