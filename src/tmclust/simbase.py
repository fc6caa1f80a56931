"""Baseline pairwise similarity measures on sparse term vectors.

`_pairwise` computes a measure's whole matrix; a pair function is its
two-vector case.  Weights are > 0, so a term that only one of two vectors
holds adds exactly +0.0 to each of a pair's sums.  A pair's sums therefore
run over the terms both vectors hold, in sorted-term order: a term ->
document inverted index lists every shared term of every pair, and
`np.bincount`, which adds in input order, sums each pair.  Row sums (norm,
L1 mass) are bincounts too.  Entries whose normalized weight is 0 are
dropped before the index is built.  The pairs are generated for blocks of
first documents of at most `_BLOCK_PAIRS` entries, which keeps the working
set bounded.  An empty vector scores 0 against any other under cosine,
jaccard and kld.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .textpipe import TermVector
from .matrix import SimilarityMatrix


# Pair entries generated at a time: blocks of first documents are cut so that
# each holds at most this many (or one document), which bounds the working set.
_BLOCK_PAIRS = 2048


def _pairwise(measure: str, vectors: list[TermVector]) -> np.ndarray:
    """`measure` between every two of `vectors`; the diagonal is 1."""
    n = len(vectors)
    terms = [t for v in vectors for t in v.entries]
    vocab = sorted(set(terms))
    code = dict(zip(vocab, range(len(vocab))))
    tid = np.fromiter(map(code.__getitem__, terms), np.int64, len(terms))
    doc = np.repeat(np.arange(n), [len(v.entries) for v in vectors])
    w = np.fromiter((x for v in vectors for x in v.entries.values()), float, len(terms))
    # Document-major and term-minor, so that row sums run in sorted-term order.
    order = np.argsort(doc * len(vocab) + tid, kind="stable")
    tid, doc, w = tid[order], doc[order], w[order]
    norm = np.sqrt(np.bincount(doc, np.square(w), n))
    scale = norm if measure == "euclidean" else np.bincount(doc, w, n) if measure == "kld" else np.ones(n)
    w = np.divide(w, scale[doc], out=np.zeros_like(w), where=scale[doc] > 0.0)
    # An entry whose normalized weight is 0 adds +0.0 to every sum: drop it.
    keep = w != 0.0
    tid, doc, w = tid[keep], doc[keep], w[keep]
    # What a term adds to distance^2 or the JSD if the other vector lacks it (jaccard: w^2).
    mass = (lambda v: 0.5 * v) if measure == "kld" else np.square
    total = np.bincount(doc, mass(w), n)

    # The inverted index: entries by term, then by document.  An entry pairs
    # with each later entry of its term, and bincount adds a pair's terms in
    # the order the index holds them, as a loop over the sorted shared terms would.
    index = np.argsort(tid * n + doc, kind="stable")
    term, owner, weight = tid[index], doc[index], w[index]
    partners = np.searchsorted(term, term, side="right") - np.arange(len(term)) - 1
    at = np.empty_like(index)  # at[k]: where the k-th entry sits in the index
    at[index] = np.arange(len(index))
    # Document i's entries are start[i]:start[i + 1]; load[i] pair entries come before them.
    start = np.searchsorted(doc, np.arange(n + 1))
    load = np.concatenate(([0], np.cumsum(partners[at])))[start]
    sums = np.zeros((1 if measure in ("cosine", "jaccard") else 3, n * n))
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(load, load[lo] + _BLOCK_PAIRS, side="right")) - 1)
        first = at[start[lo] : start[hi]]
        count = partners[first]
        second = np.arange(count.sum()) + np.repeat(first + 1 - (np.cumsum(count) - count), count)
        first = np.repeat(first, count)
        pair = (owner[first] - lo) * n + owner[second]
        x, y = weight[first], weight[second]
        if measure in ("cosine", "jaccard"):
            parts = [x * y]
        elif measure == "euclidean":
            parts = [np.square(x - y), mass(x), mass(y)]
        else:
            m = 0.5 * (x + y)
            parts = [0.5 * x * np.log2(x / m) + 0.5 * y * np.log2(y / m), mass(x), mass(y)]
        for row, part in zip(sums, parts):
            row[lo * n : hi * n] = np.bincount(pair, part, (hi - lo) * n)
        lo = hi

    sums = sums.reshape(-1, n, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        if measure in ("cosine", "jaccard"):
            dot = sums[0]
            den = norm[:, None] * norm if measure == "cosine" else total[:, None] + total - dot
            out = np.where(den > 0.0, np.minimum(1.0, dot / den), 0.0)
        else:
            # Shared terms plus the sum of the two one-sided remainders: order-free.
            sep = sums[0] + ((total[:, None] - sums[1]) + (total - sums[2]))
            if measure == "euclidean":
                out = 1.0 / (1.0 + np.sqrt(sep))
            else:
                live = (scale[:, None] > 0.0) & (scale > 0.0)
                out = np.where(live, 1.0 - np.clip(sep, 0.0, 1.0), 0.0)
    # Row i holds its pairs with j > i; mirror them and pin the diagonal.
    lower = np.tril_indices(n, -1)
    out[lower] = out.T[lower]
    np.fill_diagonal(out, 1.0)
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
