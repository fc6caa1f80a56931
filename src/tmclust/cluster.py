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


@dataclass
class ClusterAssignment:
    """Flat cut: doc index -> cluster id in 0..k-1, all k clusters non-empty."""

    k: int
    labels: list[int]


def hac(matrix: SimilarityMatrix, linkage: str = "average") -> Dendrogram:
    """Greedy agglomeration merging the most similar pair of clusters.

    Ties are broken by the smallest (cluster id, cluster id) pair.  Merged
    similarities are maintained in place: single keeps the max, complete
    the min, average the size-weighted mean.

    Each active row caches its best similarity (`top`) and its partner:
    the column of smallest cluster id among those that reach it (the
    "generic" algorithm of Müllner, arXiv:1109.2378).  The tie-break then
    needs no scan over pairs.  If (p, q) is the smallest tied pair, p has
    the smallest id of all rows whose `top` is the maximum, and its partner
    is q, since a tied partner of smaller id would give a smaller pair.

    A merge writes the merged row into p's slot and retires q's.  Only the
    rows whose partner was p or q are scanned again, each taking its tied
    column of smallest id; p is one of them, as its partner was q.  Every
    other row compares its cache with the new column p.  The merged
    cluster's id is larger than every other, so an equal value keeps the
    cached partner.  The size-weighted sum, min and max are commutative,
    so the merged row has the same bits whichever part is named first,
    and the cache holds entries of that working matrix unchanged.  A step
    costs O(N) plus O(N) per row scanned again, a handful on typical
    matrices; the worst case stays O(N^3).
    """
    if linkage not in LINKAGES:
        raise ValidationError(f"unknown linkage {linkage!r}")
    matrix.validate()
    n = len(matrix.doc_ids)
    if n < 2:
        raise ValidationError("need at least 2 documents to cluster")

    # Retired slots and the diagonal hold -inf, so no max ever picks them.
    sims = matrix.values.astype(float)
    np.fill_diagonal(sims, -np.inf)
    cluster_id = np.arange(n)
    sizes = [1] * n
    # Cluster ids start in slot order, so argmax's first maximum is the
    # partner of smallest id.
    partner = sims.argmax(axis=1)
    top = sims.max(axis=1)
    merges: list[tuple[int, int, float, int]] = []

    for step in range(n - 1):
        tied = (top == top.max()).nonzero()[0]
        slot = tied[cluster_id[tied].argmin()]
        other = partner[slot]
        new_id = n + step
        merges.append((int(cluster_id[slot]), int(cluster_id[other]), float(top[slot]), new_id))

        if linkage == "single":
            row = np.maximum(sims[slot], sims[other])
        elif linkage == "complete":
            row = np.minimum(sims[slot], sims[other])
        else:
            size_a, size_b = sizes[slot], sizes[other]
            row = (size_a * sims[slot] + size_b * sims[other]) / (size_a + size_b)
        sims[slot, :] = row
        sims[:, slot] = row
        sims[slot, slot] = -np.inf
        sims[other, :] = -np.inf
        sims[:, other] = -np.inf
        sizes[slot] += sizes[other]
        cluster_id[slot] = new_id

        # Rows whose partner took part in the merge are scanned again below,
        # and the retired slot leaves the cache.
        stale = partner == slot
        stale |= partner == other
        stale[other] = False
        top[other] = -np.inf
        partner[other] = -1
        # Every other row compares with the new column; a tie keeps its partner.
        merged = sims[slot]
        gain = merged > top
        partner[gain] = slot
        top[gain] = merged[gain]
        rows = stale.nonzero()[0]
        block = sims[rows]
        best = block.max(axis=1)
        top[rows] = best
        partner[rows] = np.where(block == best[:, None], cluster_id, 2 * n).argmin(axis=1)

    return Dendrogram(n_leaves=n, merges=merges)


def cut(dendrogram: Dendrogram, k: int) -> ClusterAssignment:
    """Undo the last k-1 merges; surviving components are the clusters,
    numbered 0..k-1 by their smallest document index."""
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
    return ClusterAssignment(k=k, labels=labels)
