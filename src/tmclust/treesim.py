"""Root-preserving common-subtree similarity between topic forests.

A mapping between two forests is a set of node-number pairs that is
one-to-one, label-preserving, ancestor-preserving in both directions,
sibling-order-preserving in both directions, and contains the root pair
whenever it is non-empty.  `max_common_subtree` finds a maximum mapping
with a memoized dynamic program over ordered forests (a node may be left
unmatched, which promotes its children into its sibling position, so
matches can skip levels).  `brute_force_common_subtree` is an exhaustive
oracle for small trees and shares no code with the DP beyond node
numbering.

Every entry point goes through one pair routine, and `build_matrix`
builds each forest's arrays once.  Before the DP, both forests are
contracted: each non-root node whose label does not occur among the other
forest's non-root nodes is deleted and its children are promoted into its
place.  A pair that shares no non-root label skips the DP and scores
exactly 0.  Both are exact because a mapping preserves labels, so it can
only use shared labels, and contraction keeps ancestry and left-to-right
order among the nodes that remain.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .xtm import TopicForest, TopicNode, iter_bfs, number_nodes

TM_MEASURE = "tm-sim"
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


@dataclass(frozen=True)
class Mapping:
    """Pairs (i, j) of BFS node numbers, T1 side first."""

    pairs: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.pairs)


def csv_fields(texts: list[str]) -> list[str]:
    """Each text as one CSV field: quoted, with each quote doubled, when it
    holds a comma, a quote, a CR or an LF; as it is otherwise.

    csv.writer with lineterminator "\\n" leaves a CR unquoted before Python
    3.13, and a reader then splits the row there.  On text without a CR
    this gives what csv.writer writes.
    """
    return [
        '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text
        for text in texts
    ]


@dataclass
class SimilarityMatrix:
    measure: str
    doc_ids: list[str]
    values: np.ndarray

    def validate(self) -> None:
        n = len(self.doc_ids)
        if self.values.shape != (n, n):
            raise ValidationError(
                f"matrix shape {self.values.shape} does not match {n} doc ids"
            )
        if not np.array_equal(self.values, self.values.T):
            raise ValidationError(f"{self.measure} matrix is not symmetric")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ValidationError(f"{self.measure} matrix has entries outside [0, 1]")
        if not np.all(np.diag(self.values) == 1.0):
            raise ValidationError(f"{self.measure} matrix diagonal is not 1")

    def to_csv(self) -> str:
        """One `repr(float(v))` per cell; each entry above the diagonal is
        formatted once and mirrored, so the matrix must be symmetric bit for bit.
        Doc ids are written by `csv_fields`."""
        values = np.asarray(self.values, dtype=float)
        if not np.array_equal(values.view(np.int64), values.T.view(np.int64)):
            raise ValidationError(f"{self.measure} matrix is not symmetric")
        cells: list[list[str]] = []
        for i, row in enumerate(values.tolist()):
            cells.append([above[i] for above in cells] + [repr(v) for v in row[i:]])
        ids = csv_fields(self.doc_ids)
        lines = [",".join(["doc_id"] + ids)]
        lines += [doc_id + "," + ",".join(row) for doc_id, row in zip(ids, cells)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, measure: str) -> "SimilarityMatrix":
        """Parse `to_csv` output.  `text` must keep its line endings as
        written: a quoted doc id may hold a CR."""
        try:
            rows = list(csv.reader(io.StringIO(text)))
        except csv.Error as exc:
            raise ValidationError(f"matrix CSV is malformed: {exc}") from exc
        if not rows or rows[0][:1] != ["doc_id"]:
            raise ValidationError("matrix CSV must start with a doc_id header row")
        doc_ids = rows[0][1:]
        try:
            # One call for every cell; numpy converts a str as float() does.
            values = np.array([row[1:] for row in rows[1:]], dtype=float)
        except ValueError as exc:
            raise ValidationError(f"matrix CSV has a ragged or non-numeric row: {exc}") from exc
        matrix = cls(measure=measure, doc_ids=doc_ids, values=values)
        matrix.validate()
        return matrix


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


class _Tree:
    """A form contracted to the non-root labels in `keep`.

    Every other non-root node is deleted and its children take its place
    among its siblings.  Kept nodes keep their BFS index, so traced pairs
    are in the original numbering; entries of deleted nodes are unused.
    Shape ids come from `shapes`, shared by both trees of a pair.
    """

    __slots__ = ("labels", "children", "sizes", "shapes")

    def __init__(self, form: _Form, keep: frozenset[int], shapes: dict[tuple, int]) -> None:
        labels = self.labels = form.labels
        n = len(labels)
        self.children: list[tuple[int, ...]] = [()] * n
        self.sizes = [0] * n
        self.shapes = [0] * n
        # lifted[k]: what node k contributes to its parent's child list.
        lifted: list[tuple[int, ...]] = [()] * n
        for k in range(n - 1, -1, -1):
            kids = tuple(x for c in form.children[k] for x in lifted[c])
            if k and labels[k] not in keep:
                lifted[k] = kids
                continue
            lifted[k] = (k,)
            self.children[k] = kids
            self.sizes[k] = 1 + sum(self.sizes[c] for c in kids)
            key = (labels[k], tuple(self.shapes[c] for c in kids))
            self.shapes[k] = shapes.setdefault(key, len(shapes))


def _forest_lcs(
    f1: tuple[int, ...],
    f2: tuple[int, ...],
    t1: _Tree,
    t2: _Tree,
    memo: dict,
) -> int:
    if not f1 or not f2:
        return 0
    key = (f1, f2)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if tuple(t1.shapes[i] for i in f1) == tuple(t2.shapes[j] for j in f2):
        value = sum(t1.sizes[i] for i in f1)
        memo[key] = value
        return value
    v, rest1 = f1[0], f1[1:]
    w, rest2 = f2[0], f2[1:]
    value = max(
        _forest_lcs(t1.children[v] + rest1, f2, t1, t2, memo),
        _forest_lcs(f1, t2.children[w] + rest2, t1, t2, memo),
    )
    if t1.labels[v] == t2.labels[w]:
        matched = (
            1
            + _forest_lcs(t1.children[v], t2.children[w], t1, t2, memo)
            + _forest_lcs(rest1, rest2, t1, t2, memo)
        )
        if matched > value:
            value = matched
    memo[key] = value
    return value


def _trace(
    f1: tuple[int, ...],
    f2: tuple[int, ...],
    t1: _Tree,
    t2: _Tree,
    memo: dict,
    out: list[tuple[int, int]],
) -> None:
    while f1 and f2:
        if tuple(t1.shapes[i] for i in f1) == tuple(t2.shapes[j] for j in f2):
            stack = list(zip(f1, f2))
            while stack:
                v, w = stack.pop()
                out.append((v, w))
                stack.extend(zip(t1.children[v], t2.children[w]))
            return
        target = _forest_lcs(f1, f2, t1, t2, memo)
        v, rest1 = f1[0], f1[1:]
        w, rest2 = f2[0], f2[1:]
        if t1.labels[v] == t2.labels[w]:
            inner = _forest_lcs(t1.children[v], t2.children[w], t1, t2, memo)
            outer = _forest_lcs(rest1, rest2, t1, t2, memo)
            if 1 + inner + outer == target:
                out.append((v, w))
                _trace(t1.children[v], t2.children[w], t1, t2, memo, out)
                f1, f2 = rest1, rest2
                continue
        promoted1 = t1.children[v] + rest1
        if _forest_lcs(promoted1, f2, t1, t2, memo) == target:
            f1 = promoted1
            continue
        f2 = t2.children[w] + rest2


def _pair(a: _Form, b: _Form, pairs: list[tuple[int, int]] | None = None) -> int:
    """Size of a maximum mapping; its index pairs go to `pairs` if given.

    A mapping preserves labels, so only non-root labels found in both
    forests can occur in it beyond the root pair.  The DP therefore runs
    on both forests contracted to those labels, and not at all when there
    are none.
    """
    if a.labels[0] != b.labels[0]:
        return 0
    if pairs is not None:
        pairs.append((0, 0))
    keep = a.nonroot & b.nonroot
    if not keep:
        return 1
    shapes: dict[tuple, int] = {}
    t1, t2 = _Tree(a, keep, shapes), _Tree(b, keep, shapes)
    memo: dict = {}
    size = 1 + _forest_lcs(t1.children[0], t2.children[0], t1, t2, memo)
    if pairs is not None:
        _trace(t1.children[0], t2.children[0], t1, t2, memo, pairs)
    return size


def _similarity(a: _Form, b: _Form) -> float:
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
    discounted.  Two root-only forests are defined as identical (1.0).
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
    n1, n2 = a.n, b.n
    if n1 > 10 or n2 > 10:
        raise ValueError(
            f"brute force oracle limited to 10 nodes per tree, got {n1} and {n2}"
        )
    labels1, rel1 = _relation_table(a)
    labels2, rel2 = _relation_table(b)
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
