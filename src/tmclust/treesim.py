"""Root-preserving common-subtree similarity between topic forests.

A mapping between two forests is a set of node-number pairs that is
one-to-one, label-preserving, ancestor-preserving in both directions,
sibling-order-preserving in both directions, and contains the root pair
whenever it is non-empty.  A node may be left unmatched, which promotes
its children into its sibling position, so matches can skip levels.  This
is a tree edit mapping with unit insert and delete and no relabelling: a
maximum mapping M gives the edit distance n1 + n2 - 2|M|.  So
`max_common_subtree` fills Zhang and Shasha's keyroot table (SIAM J.
Comput. 18(6), 1989) over postorder arrays, with no recursion at any
depth, and reads its mapping back from that table.

The similarity of two forests of n1 and n2 nodes with a maximum mapping M
is (2|M| - 2) / (n1 + n2 - 2), in [0, 1]: a Dice overlap over non-root
nodes, with the shared synthetic root discounted.  Forests whose roots
differ have an empty mapping and score 0.0; two root-only forests with one
root label score 1.0.  `build_matrix` holds it for every pair, and
`build_matrix([a, b]).values[0, 1]` is the similarity of one pair.

Every entry point goes through one pair routine, and `build_matrix`
builds each forest's full postorder once, straight from its level-order
parent indices.  Before the table, both forests
are contracted: each non-root node whose label does not occur among the
other forest's non-root nodes is deleted and its children are promoted
into its place.  A pair that shares no non-root label scores exactly 0,
and two contracted trees that are equal map whole; neither fills a table.
All this is exact because a mapping can only use shared labels, and
contraction keeps ancestry and left-to-right order among the nodes that
remain.  Since it keeps their relative postorder too, a contraction is
the full postorder filtered to the kept nodes, with each leftmost
position renumbered by a prefix count: one linear pass per forest and
pair.  On pinned and XTM-derived forests nearly every pair that shares a
label contracts to two equal trees, so the equal-tree test pays there.
"""

from __future__ import annotations

from itertools import accumulate, compress

import numpy as np

from .errors import ValidationError
from .matrix import SimilarityMatrix
from .xtm import TopicForest

TM_MEASURE = "tm-sim"


class _Form:
    """One forest's full postorder, in which the root comes last.

    At position p: `bfs[p]` is the node's BFS index (its node number - 1),
    `labels[p]` its label id and `leftmost[p]` the position of the first
    node of its subtree.  Label ids come from a codec shared by every
    forest that is compared, so ids compare across forests.
    """

    __slots__ = ("bfs", "labels", "leftmost", "nonroot")

    def __init__(self, forest: TopicForest, codec: dict[str, int]) -> None:
        parents = forest.parents
        n = len(parents)
        size = [1] * n
        for k in range(n - 1, 0, -1):
            size[parents[k]] += size[k]
        # Node k's subtree starts where its previous sibling's ends, or where
        # its parent's starts if it is a first child, and ends at node k.
        first = [0] * n
        for k in range(1, n):
            p = parents[k]
            first[k] = first[k - 1] + size[k - 1] if parents[k - 1] == p else first[p]
        post = [0] * n
        for k in range(n):
            post[first[k] + size[k] - 1] = k
        ids = [codec.setdefault(label, len(codec)) for label in forest.labels]
        self.bfs = post
        self.labels = [ids[k] for k in post]
        self.leftmost = [first[k] for k in post]
        self.nonroot = frozenset(self.labels[:-1])


def _postorder(form: _Form, keep: frozenset[int]) -> tuple[list[bool], list[int], list[int]]:
    """`form` contracted to the non-root labels in `keep`, in postorder.

    Every other non-root node is deleted and its children take its place
    among its siblings, which keeps the relative postorder of the nodes
    that remain.  A kept node's subtree then starts at the first kept node
    at or after its old leftmost position.  Returns which positions of
    `form` are kept, and the label and new leftmost position of each kept
    node.
    """
    kept = list(map(keep.__contains__, form.labels))
    kept[-1] = True
    # before[p]: how many kept nodes come before position p.
    before = list(accumulate(kept, initial=0))
    return kept, list(compress(form.labels, kept)), [before[p] for p in compress(form.leftmost, kept)]


def _forest_table(
    x: int, y: int, t1: tuple[list[int], list[int]], t2: tuple[list[int], list[int]], td: list[list[int]]
) -> list[list[int]]:
    """Zhang-Shasha forest table for the subtrees rooted at postorder
    positions x and y, and the subtree entries of `td` it reaches.

    fd[a][b] is the largest mapping between the postorder forests
    l1[x] .. l1[x]+a-1 and l2[y] .. l2[y]+b-1.  Where both forests are whole
    subtrees (rooted at i and j) the entry is also td[i][j]; elsewhere it
    reads td of the last subtree pair, which an earlier call has filled.
    """
    labels1, leftmost1 = t1
    labels2, leftmost2 = t2
    lx, ly = leftmost1[x], leftmost2[y]
    cols = range(1, y - ly + 2)
    fd = [[0] * (y - ly + 2) for _ in range(x - lx + 2)]
    for a in range(1, x - lx + 2):
        i = lx + a - 1
        li, label, tdi, row, prev = leftmost1[i], labels1[i], td[i], fd[a], fd[a - 1]
        before = fd[li - lx]
        for b in cols:
            j = ly + b - 1
            best = prev[b] if prev[b] > row[b - 1] else row[b - 1]
            lj = leftmost2[j]
            if li == lx and lj == ly:
                if label == labels2[j] and prev[b - 1] >= best:
                    best = prev[b - 1] + 1
                tdi[j] = best
            else:
                joined = before[lj - ly] + tdi[j]
                if joined > best:
                    best = joined
            row[b] = best
    return fd


def _pair(a: _Form, b: _Form, pairs: list[tuple[int, int]] | None = None) -> int:
    """Size of a maximum mapping; its BFS index pairs go to `pairs` if given."""
    if a.labels[-1] != b.labels[-1]:
        return 0
    keep = a.nonroot & b.nonroot
    if not keep:
        if pairs is not None:
            pairs.append((0, 0))
        return 1
    kept1, labels1, leftmost1 = _postorder(a, keep)
    kept2, labels2, leftmost2 = _postorder(b, keep)
    n1, n2 = len(labels1), len(labels2)
    if pairs is not None:
        order1, order2 = list(compress(a.bfs, kept1)), list(compress(b.bfs, kept2))
    if labels1 == labels2 and leftmost1 == leftmost2:
        if pairs is not None:
            pairs.extend(zip(order1, order2))
        return n1
    t1, t2 = (labels1, leftmost1), (labels2, leftmost2)
    td = [[0] * n2 for _ in range(n1)]
    # A keyroot is the highest node of each leftmost leaf; the last is the root.
    keyroots1, keyroots2 = (sorted({l: p for p, l in enumerate(lm)}.values()) for lm in (leftmost1, leftmost2))
    for x in keyroots1:
        for y in keyroots2:
            _forest_table(x, y, t1, t2, td)
    if pairs is not None:
        # Walk each subtree pair's table back from its corner; a subtree
        # pair whose best mapping the walk takes is walked in its turn.
        # The roots share a label, so the root pair is always matched.
        stack = [(n1 - 1, n2 - 1)]
        while stack:
            x, y = stack.pop()
            fd = _forest_table(x, y, t1, t2, td)
            lx, ly = leftmost1[x], leftmost2[y]
            i, j = x, y
            while i >= lx and j >= ly:
                a, b = i - lx + 1, j - ly + 1
                value = fd[a][b]
                whole = leftmost1[i] == lx and leftmost2[j] == ly
                if whole and labels1[i] == labels2[j] and value == fd[a - 1][b - 1] + 1:
                    pairs.append((order1[i], order2[j]))
                    i, j = i - 1, j - 1
                elif value == fd[a - 1][b]:
                    i -= 1
                elif value == fd[a][b - 1]:
                    j -= 1
                else:
                    stack.append((i, j))
                    i, j = leftmost1[i] - 1, leftmost2[j] - 1
    return td[n1 - 1][n2 - 1]


def _similarity(a: _Form, b: _Form) -> float:
    if a.labels[-1] != b.labels[-1]:
        return 0.0
    n1, n2 = len(a.labels), len(b.labels)
    if n1 == 1 and n2 == 1:
        return 1.0
    return (2.0 * _pair(a, b) - 2.0) / (n1 + n2 - 2.0)


def _forms(*forests: TopicForest) -> list[_Form]:
    codec: dict[str, int] = {}
    return [_Form(forest, codec) for forest in forests]


def max_common_subtree(a: TopicForest, b: TopicForest) -> frozenset[tuple[int, int]]:
    """A maximum root-preserving mapping: pairs (i, j) of node numbers, each
    a node's index in its forest's `labels` plus 1, `a`'s side first."""
    collected: list[tuple[int, int]] = []
    _pair(*_forms(a, b), collected)
    return frozenset((i + 1, j + 1) for i, j in collected)


def build_matrix(forests: list[TopicForest]) -> SimilarityMatrix:
    """Pairwise tm-sim matrix; each forest's arrays are built once."""
    if len(forests) < 2:
        raise ValidationError("need at least 2 forests to build a matrix")
    forms = _forms(*forests)
    n = len(forms)
    values = np.eye(n, dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = _similarity(forms[i], forms[j])
    matrix = SimilarityMatrix(
        measure=TM_MEASURE, doc_ids=[f.doc_id for f in forests], values=values
    )
    matrix.validate()
    return matrix

