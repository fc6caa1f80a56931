"""Baseline pairwise similarity measures on sparse term vectors.

`_pairwise` computes a measure's whole matrix; a pair function is its
two-vector case.  Each row is spread into one dense row over the vocabulary
and read by every later row on its own sorted term ids (padded with the id
of an always-zero slot), so sums run in sorted-term order.  An empty vector
scores 0 against any other under cosine, jaccard and kld.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .textpipe import TermVector
from .matrix import SimilarityMatrix


def _rowsum(x: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as a Python loop adds them."""
    return x.cumsum(axis=1)[:, -1]


def _pairwise(measure: str, vectors: list[TermVector]) -> np.ndarray:
    """`measure` between every two of `vectors`; the diagonal is 1."""
    code = {t: k for k, t in enumerate(sorted({t for v in vectors for t in v.entries}))}
    n, width = len(vectors), max([1] + [len(v.entries) for v in vectors])
    ids, w = np.full((n, width), len(code)), np.zeros((n, width))
    for r, v in enumerate(vectors):
        terms = sorted(v.entries)
        ids[r, : len(terms)] = [code[t] for t in terms]
        w[r, : len(terms)] = [v.entries[t] for t in terms]
    norm = np.sqrt(_rowsum(np.square(w)))
    scale = norm if measure == "euclidean" else _rowsum(w) if measure == "kld" else np.ones(n)
    w = np.divide(w, scale[:, None], out=np.zeros_like(w), where=scale[:, None] > 0.0)
    # What a term adds to distance^2 or the JSD if the other vector lacks it (jaccard: w^2).
    mass = (lambda v: 0.5 * v) if measure == "kld" else np.square
    total = _rowsum(mass(w))
    out, dense = np.eye(n), np.zeros(len(code) + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n - 1):
            rest = slice(i + 1, n)
            dense[ids[i]] = w[i]
            x, y = dense[ids[rest]], w[rest]
            dense[ids[i]] = 0.0
            if measure in ("cosine", "jaccard"):
                dot = _rowsum(x * y)
                den = norm[i] * norm[rest] if measure == "cosine" else total[i] + total[rest] - dot
                out[i, rest] = out[rest, i] = np.where(den > 0.0, np.minimum(1.0, dot / den), 0.0)
                continue
            both = (x != 0.0) & (y != 0.0)
            if measure == "euclidean":
                shared = np.square(x - y)
            else:
                m = 0.5 * (x + y)
                shared = 0.5 * x * np.log2(x / m) + 0.5 * y * np.log2(y / m)
            # Shared terms plus the sum of the two one-sided remainders: order-free.
            sx, sy = (_rowsum(np.where(both, mass(v), 0.0)) for v in (x, y))
            sep = _rowsum(np.where(both, shared, 0.0)) + ((total[i] - sx) + (total[rest] - sy))
            if measure == "euclidean":
                out[i, rest] = out[rest, i] = 1.0 / (1.0 + np.sqrt(sep))
            else:
                live = (scale[i] > 0.0) & (scale[rest] > 0.0)
                out[i, rest] = out[rest, i] = np.where(live, 1.0 - np.clip(sep, 0.0, 1.0), 0.0)
    return out


def cosine_sim(a: TermVector, b: TermVector) -> float:
    """dot(a, b) / (|a| * |b|); 0 when either vector is zero."""
    return float(_pairwise("cosine", [a, b])[0, 1])


def euclidean_sim(a: TermVector, b: TermVector) -> float:
    """1 / (1 + L2 distance) on L2-normalized inputs; zero vectors stay at the origin."""
    return float(_pairwise("euclidean", [a, b])[0, 1])


def jaccard_sim(a: TermVector, b: TermVector) -> float:
    """dot(a, b) / (|a|^2 + |b|^2 - dot(a, b)); 0 when both vectors are zero."""
    return float(_pairwise("jaccard", [a, b])[0, 1])


def kld_sim(a: TermVector, b: TermVector) -> float:
    """1 - Jensen-Shannon divergence (log base 2); 1 if identical, 0 if disjoint or empty."""
    return float(_pairwise("kld", [a, b])[0, 1])


def jsd(a: TermVector, b: TermVector) -> float:
    """The Jensen-Shannon divergence behind `kld_sim`, clamped to [0, 1]."""
    return 1.0 - kld_sim(a, b)


MEASURES = {
    "euclidean": euclidean_sim, "cosine": cosine_sim, "jaccard": jaccard_sim, "kld": kld_sim,
}


def build_matrix_base(measure: str, vectors: list[TermVector]) -> SimilarityMatrix:
    """Pairwise matrix for one baseline measure; diagonal pinned to 1."""
    if measure not in MEASURES:
        raise ValidationError(f"unknown measure {measure!r}")
    if len(vectors) < 2:
        raise ValidationError("need at least 2 vectors to build a matrix")
    matrix = SimilarityMatrix(measure, [v.doc_id for v in vectors], _pairwise(measure, vectors))
    matrix.validate()
    return matrix
