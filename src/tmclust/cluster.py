"""Hierarchical agglomerative clustering over a similarity matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import SimilarityMatrix

LINKAGES = ("single", "complete", "average")


@dataclass
class Dendrogram:
    """Merge history; leaves are doc indices 0..N-1, merged clusters get
    fresh ids N, N+1, ... in merge order."""

    n_leaves: int
    merges: list[tuple[int, int, float, int]]


def hac(matrix: SimilarityMatrix, linkage: str = "average") -> Dendrogram:
    """Greedy agglomeration merging the most similar pair of clusters.

    Ties are broken by the smallest (cluster id, cluster id) pair.  A merge
    of clusters a < b builds the new row from a's row and then b's, since
    np.maximum and np.minimum return the second of a -0.0/0.0 tie: single
    takes the max, complete the min, average the size-weighted mean.

    Row and column c of one (2N-1)x(2N-1) working matrix hold cluster c:
    leaves are 0..N-1, merged clusters N..2N-2, and retired or not yet made
    ids hold -inf, as does the diagonal.  It takes (2N-1)^2 * 8 bytes:
    0.46 MB at N = 120, 32 MB at N = 1000.  Each row caches its partner,
    the smallest id among its most similar columns, which is what `argmax`
    returns, and `top`, that partner's cell (the "generic" algorithm of
    Müllner, arXiv:1109.2378).  If (p, q) is the smallest tied pair, p is
    the smallest id whose `top` is the maximum, so `top.argmax()` finds it,
    and its partner is q.  The recorded height is that cell, never a
    reduction, so the sign of a zero height does not depend on the order
    in which numpy's SIMD kernels reduce a row.

    After a merge only the rows whose partner was a or b, and the new row,
    are scanned again.  Every other row compares its cache with the new
    column, as an average can round above both of its parts; the new id is
    the largest, so an equal value keeps the cached partner.  A step costs
    O(N) plus O(N) per row scanned again, a handful on typical matrices;
    the worst case stays O(N^3).
    """
    if linkage not in LINKAGES:
        raise ValidationError(f"unknown linkage {linkage!r}")
    matrix.validate()
    n = len(matrix.doc_ids)
    if n < 2:
        raise ValidationError("need at least 2 documents to cluster")

    sims = np.full((2 * n - 1, 2 * n - 1), -np.inf)
    sims[:n, :n] = matrix.values
    np.fill_diagonal(sims, -np.inf)
    sizes = [1] * n + [0] * (n - 1)
    # Rows not yet made have no partner until they are scanned.
    partner = np.full(2 * n - 1, -1)
    partner[:n] = sims[:n].argmax(axis=1)
    top = np.full(2 * n - 1, -np.inf)
    top[:n] = sims[np.arange(n), partner[:n]]
    merges: list[tuple[int, int, float, int]] = []

    for new in range(n, 2 * n - 1):
        a = int(top.argmax())
        b = int(partner[a])
        merges.append((a, b, float(top[a]), new))

        if linkage == "single":
            row = np.maximum(sims[a], sims[b])
        elif linkage == "complete":
            row = np.minimum(sims[a], sims[b])
        else:
            row = (sizes[a] * sims[a] + sizes[b] * sims[b]) / (sizes[a] + sizes[b])
        sims[new] = row
        sims[:, new] = row
        # Rows a and b are never read again; their columns leave every row.
        sims[:, a] = -np.inf
        sims[:, b] = -np.inf
        sizes[new] = sizes[a] + sizes[b]

        stale = partner == a
        stale |= partner == b
        stale[a] = stale[b] = False
        stale[new] = True
        top[a] = top[b] = -np.inf
        merged = sims[new]
        gain = merged > top
        partner[gain] = new
        top[gain] = merged[gain]
        rows = stale.nonzero()[0]
        cols = sims[rows].argmax(axis=1)
        partner[rows] = cols
        top[rows] = sims[rows, cols]

    return Dendrogram(n_leaves=n, merges=merges)


def cut(dendrogram: Dendrogram, k: int) -> list[int]:
    """Undo the last k-1 merges; surviving components are the clusters,
    numbered 0..k-1 by their smallest document index.  Returns each
    document's cluster id, so every id in 0..k-1 occurs."""
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} out of range 1..{n}")
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for left, right, _, new_id in dendrogram.merges[: n - k]:
        members[new_id] = members.pop(left) + members.pop(right)
    groups = sorted(members.values(), key=min)
    labels = [0] * n
    for cluster, docs in enumerate(groups):
        for doc in docs:
            labels[doc] = cluster
    return labels
