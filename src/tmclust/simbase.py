"""Baseline pairwise similarity measures on sparse term vectors:

- euclidean: 1 / (1 + L2 distance) on L2-normalized inputs; zero vectors
  stay at the origin.
- cosine: dot(a, b) / (|a| * |b|); 0 when either vector is zero.
- jaccard: dot(a, b) / (|a|^2 + |b|^2 - dot(a, b)); 0 when both are zero.
- kld: 1 - Jensen-Shannon divergence (log base 2); 1 if identical, 0 if
  disjoint or either vector is empty.

`_pairwise` computes the whole matrix of any set of measures in one pass,
and a pair's score is its two-vector case.  Weights are > 0, so a term
that only one of two vectors holds adds exactly +0.0 to each of a pair's
sums.  A pair's sums therefore run over the terms both vectors hold, in
sorted-term order: a term -> document inverted index lists every shared
term of every pair, and `np.bincount`, which adds in input order, sums
each pair.  Row sums (norm, L1 mass) are bincounts too.  The flat arrays,
the index and the pair lists are built once for every measure; each
measure then gathers its own normalized weights.  Cosine and jaccard
share one bincount of raw dot products.  Under euclidean and kld a pair
entry counts only where both of its normalized weights are non-zero: a
weight that underflows to 0 is one-sided, as if its term were absent, so
each sum adds the same entries in the same order whichever measures run
together.  The pairs are generated for blocks of first documents of at
most `_BLOCK_PAIRS` entries, and each block finishes its rows of every
matrix, which keeps the working set bounded.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .textpipe import TermVector
from .matrix import SimilarityMatrix


# In this order in `cli.MEASURE_CHOICES` and so in the report rows.
MEASURES = ("euclidean", "cosine", "jaccard", "kld")

# Pair entries generated at a time: blocks of first documents are cut so that
# each holds at most this many (or one document), which bounds the working set.
_BLOCK_PAIRS = 2048

# What a term adds to distance^2 or the JSD if the other vector lacks it.
_MASS = {"euclidean": np.square, "kld": lambda v: 0.5 * v}


def _pairwise(measures: list[str], vectors: list[TermVector]) -> dict[str, np.ndarray]:
    """Each of `measures` between every two of `vectors`; each diagonal is 1."""
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
    square = np.bincount(doc, np.square(w), n)  # also jaccard's |v|^2
    norm = np.sqrt(square)
    scale = {"euclidean": norm, "kld": np.bincount(doc, w, n)}

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

    # Euclidean's and kld's normalized weights, in index order, and row totals.
    unit, total = {}, {}
    for measure in measures:
        if measure in scale:
            by_doc = scale[measure][doc]
            u = np.divide(w, by_doc, out=np.zeros_like(w), where=by_doc > 0.0)
            unit[measure], total[measure] = u[index], np.bincount(doc, _MASS[measure](u), n)
    out = {measure: np.empty((n, n)) for measure in measures}
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(load, load[lo] + _BLOCK_PAIRS, side="right")) - 1)
        first = at[start[lo] : start[hi]]
        count = partners[first]
        second = np.arange(count.sum()) + np.repeat(first + 1 - (np.cumsum(count) - count), count)
        first = np.repeat(first, count)
        pair = (owner[first] - lo) * n + owner[second]
        rows = slice(lo, hi)

        def sums(where: np.ndarray, part: np.ndarray) -> np.ndarray:
            return np.bincount(where, part, (hi - lo) * n).reshape(hi - lo, n)

        if "cosine" in out or "jaccard" in out:  # raw weights are > 0: no entry is masked
            dot = sums(pair, weight[first] * weight[second])
        for measure in measures:
            if measure in ("cosine", "jaccard"):
                den = norm[rows, None] * norm if measure == "cosine" else square[rows, None] + square - dot
                with np.errstate(divide="ignore", invalid="ignore"):
                    out[measure][rows] = np.where(den > 0.0, np.minimum(1.0, dot / den), 0.0)
                continue
            # A pair entry counts only where both of its normalized weights are non-zero.
            x, y = unit[measure][first], unit[measure][second]
            live = (x != 0.0) & (y != 0.0)
            x, y, kept, mass = x[live], y[live], pair[live], _MASS[measure]
            if measure == "euclidean":
                shared = np.square(x - y)
            else:
                m = 0.5 * (x + y)
                shared = 0.5 * x * np.log2(x / m) + 0.5 * y * np.log2(y / m)
            both, one, other = (sums(kept, part) for part in (shared, mass(x), mass(y)))
            # Shared terms plus the sum of the two one-sided remainders: order-free.
            sep = both + ((total[measure][rows, None] - one) + (total[measure] - other))
            if measure == "euclidean":
                out[measure][rows] = 1.0 / (1.0 + np.sqrt(sep))
            else:
                alive = (scale["kld"][rows, None] > 0.0) & (scale["kld"] > 0.0)
                out[measure][rows] = np.where(alive, 1.0 - np.clip(sep, 0.0, 1.0), 0.0)
        lo = hi

    # Row i holds its pairs with j > i; mirror them and pin the diagonal.
    lower = np.tril_indices(n, -1)
    for values in out.values():
        values[lower] = values.T[lower]
        np.fill_diagonal(values, 1.0)
    return out


def build_matrices_base(
    measures: list[str], vectors: list[TermVector]
) -> dict[str, SimilarityMatrix]:
    """Pairwise matrices for the baseline `measures`, all from one pass over
    one term index; each diagonal pinned to 1."""
    for measure in measures:
        if measure not in MEASURES:
            raise ValidationError(f"unknown measure {measure!r}")
    if len(vectors) < 2:
        raise ValidationError("need at least 2 vectors to build a matrix")
    matrices = {}
    for measure, values in _pairwise(measures, vectors).items():
        matrices[measure] = SimilarityMatrix(measure, [v.doc_id for v in vectors], values)
        matrices[measure].validate()
    return matrices
