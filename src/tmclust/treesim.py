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
`brute_force_common_subtree` is an exhaustive oracle for small trees and
shares no code with the table beyond node numbering.

Every entry point goes through one pair routine, and `build_matrix`
builds each forest's arrays once.  Before the table, both forests are
contracted: each non-root node whose label does not occur among the other
forest's non-root nodes is deleted and its children are promoted into its
place.  A pair that shares no non-root label scores exactly 0, and two
contracted trees that are equal map whole; neither fills a table.  All
this is exact because a mapping can only use shared labels, and
contraction keeps ancestry and left-to-right order among the nodes that
remain.  On pinned and XTM-derived forests nearly every pair that shares
a label contracts to two equal trees, so the equal-tree test pays there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import SimilarityMatrix
from .xtm import TopicForest, TopicNode, iter_bfs, number_nodes

TM_MEASURE = "tm-sim"


@dataclass(frozen=True)
class Mapping:
    """Pairs (i, j) of BFS node numbers, T1 side first."""

    pairs: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.pairs)


class _Form:
    """BFS arrays of one forest (index k <-> node number k + 1).

    Label ids come from a codec shared by every forest that is compared,
    so ids compare across forests.
    """

    __slots__ = ("labels", "children", "nonroot")

    def __init__(self, forest: TopicForest, codec: dict[str, int]) -> None:
        order = list(iter_bfs(forest.root))
        index = {id(node): k for k, node in enumerate(order)}
        self.labels = [codec.setdefault(node.label, len(codec)) for node in order]
        self.children = [tuple(index[id(c)] for c in node.children) for node in order]
        self.nonroot = frozenset(self.labels[1:])


def _postorder(form: _Form, keep: frozenset[int]) -> tuple[tuple[int, ...], list[int], list[int]]:
    """`form` contracted to the non-root labels in `keep`, in postorder.

    Every other non-root node is deleted and its children take its place
    among its siblings.  Returns the BFS index, label and leftmost-leaf
    position of each kept node, so traced pairs are in the BFS numbering.
    """
    labels = form.labels
    # lifted[k]: the kept nodes of k's subtree in postorder, which is what
    # k contributes to its parent's postorder.
    lifted: list[tuple[int, ...]] = [()] * len(labels)
    for k in range(len(labels) - 1, -1, -1):
        below = tuple(x for c in form.children[k] for x in lifted[c])
        lifted[k] = below + (k,) if k == 0 or labels[k] in keep else below
    order = lifted[0]
    return order, [labels[k] for k in order], [p + 1 - len(lifted[k]) for p, k in enumerate(order)]


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
    """Size of a maximum mapping; its index pairs go to `pairs` if given."""
    if a.labels[0] != b.labels[0]:
        return 0
    keep = a.nonroot & b.nonroot
    if not keep:
        if pairs is not None:
            pairs.append((0, 0))
        return 1
    order1, labels1, leftmost1 = _postorder(a, keep)
    order2, labels2, leftmost2 = _postorder(b, keep)
    n1, n2 = len(order1), len(order2)
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
    if a.labels[0] != b.labels[0]:
        return 0.0
    n1, n2 = len(a.labels), len(b.labels)
    if n1 == 1 and n2 == 1:
        return 1.0
    return (2.0 * _pair(a, b) - 2.0) / (n1 + n2 - 2.0)


def _forms(*forests: TopicForest) -> list[_Form]:
    codec: dict[str, int] = {}
    return [_Form(forest, codec) for forest in forests]


def common_subtree_size(a: TopicForest, b: TopicForest) -> int:
    """Cardinality of a maximum valid mapping between the two forests."""
    return _pair(*_forms(a, b))


def max_common_subtree(a: TopicForest, b: TopicForest) -> Mapping:
    """A maximum root-preserving mapping, as BFS node-number pairs."""
    collected: list[tuple[int, int]] = []
    _pair(*_forms(a, b), collected)
    return Mapping(frozenset((i + 1, j + 1) for i, j in collected))


def tm_similarity(a: TopicForest, b: TopicForest) -> float:
    """Dice-style similarity over non-root nodes, in [0, 1].

    sim = (2*|mapping| - 2) / (n1 + n2 - 2); the shared synthetic root is
    discounted.  Forests whose roots differ have an empty mapping and
    score 0.0; two root-only forests with one root label score 1.0.
    """
    return _similarity(*_forms(a, b))


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


# Relation codes used by the oracle and the independent mapping checker.
_SELF, _ANC, _DESC, _LEFT, _RIGHT = 0, 1, 2, 3, 4


def _relation_table(forest: TopicForest) -> tuple[dict[int, str], list[list[int]]]:
    """Full pairwise relation matrix over BFS node numbers, 1-based."""
    numbers = number_nodes(forest)
    labels = {k: node.label for node, k in numbers.items()}
    parent: dict[int, int] = {}
    preorder: dict[int, int] = {}

    def walk(node: TopicNode, counter: list[int]) -> None:
        preorder[numbers[node]] = counter[0]
        counter[0] += 1
        for child in node.children:
            parent[numbers[child]] = numbers[node]
            walk(child, counter)

    walk(forest.root, [0])
    n = len(numbers)
    ancestors: dict[int, set[int]] = {}
    for k in range(1, n + 1):
        chain = set()
        cur = k
        while cur in parent:
            cur = parent[cur]
            chain.add(cur)
        ancestors[k] = chain
    rel = [[_SELF] * (n + 1) for _ in range(n + 1)]
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v:
                rel[u][v] = _SELF
            elif u in ancestors[v]:
                rel[u][v] = _ANC
            elif v in ancestors[u]:
                rel[u][v] = _DESC
            elif preorder[u] < preorder[v]:
                rel[u][v] = _LEFT
            else:
                rel[u][v] = _RIGHT
    return labels, rel


def mapping_violations(a: TopicForest, b: TopicForest, mapping: Mapping) -> list[str]:
    """Check a mapping against all five invariants, from first principles."""
    labels1, rel1 = _relation_table(a)
    labels2, rel2 = _relation_table(b)
    pairs = sorted(mapping.pairs)
    problems: list[str] = []
    seen_i: set[int] = set()
    seen_j: set[int] = set()
    for i, j in pairs:
        if i not in labels1 or j not in labels2:
            problems.append(f"pair ({i},{j}) is out of range")
            continue
        if labels1[i] != labels2[j]:
            problems.append(f"pair ({i},{j}) is not label-preserving")
        if i in seen_i or j in seen_j:
            problems.append(f"pair ({i},{j}) breaks one-to-one")
        seen_i.add(i)
        seen_j.add(j)
    if pairs and (1, 1) not in mapping.pairs:
        problems.append("non-empty mapping does not contain the root pair")
    for x in range(len(pairs)):
        i1, j1 = pairs[x]
        for y in range(x + 1, len(pairs)):
            i2, j2 = pairs[y]
            if rel1[i1][i2] != rel2[j1][j2]:
                problems.append(
                    f"pairs ({i1},{j1}) and ({i2},{j2}) disagree on order/ancestry"
                )
    return problems


def brute_force_common_subtree(a: TopicForest, b: TopicForest) -> Mapping:
    """Exhaustive maximum-mapping search; refuses trees above 10 nodes."""
    labels1, rel1 = _relation_table(a)
    labels2, rel2 = _relation_table(b)
    n1, n2 = len(labels1), len(labels2)
    if n1 > 10 or n2 > 10:
        raise ValueError(
            f"brute force oracle limited to 10 nodes per tree, got {n1} and {n2}"
        )
    candidates = {
        i: [j for j in range(1, n2 + 1) if labels2[j] == labels1[i]]
        for i in range(1, n1 + 1)
    }
    best: list[tuple[int, int]] = []

    def search(i: int, chosen: list[tuple[int, int]], used: set[int]) -> None:
        nonlocal best
        if len(chosen) + (n1 - i + 1) <= len(best):
            return
        if i > n1:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        for j in candidates[i]:
            if j in used:
                continue
            if all(rel1[pi][i] == rel2[pj][j] for pi, pj in chosen):
                chosen.append((i, j))
                used.add(j)
                search(i + 1, chosen, used)
                chosen.pop()
                used.remove(j)
        search(i + 1, chosen, used)

    if labels1[1] == labels2[1]:
        search(2, [(1, 1)], {1})
    return Mapping(frozenset(best))
