from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from tmclust import cli
from tmclust.cluster import LINKAGES, Dendrogram, cut, hac
from tmclust.errors import ValidationError
from tmclust.treesim import SimilarityMatrix


def matrix_from(values: list[list[float]], ids: list[str] | None = None) -> SimilarityMatrix:
    array = np.array(values, dtype=float)
    ids = ids or [f"d{i}" for i in range(len(values))]
    return SimilarityMatrix(measure="test", doc_ids=ids, values=array)


def three_doc_matrix() -> SimilarityMatrix:
    return matrix_from(
        [
            [1.0, 0.9, 0.1],
            [0.9, 1.0, 0.2],
            [0.1, 0.2, 1.0],
        ],
        ids=["a", "b", "c"],
    )


def test_two_docs_single_merge():
    matrix = matrix_from([[1.0, 0.42], [0.42, 1.0]])
    dendrogram = hac(matrix, "single")
    assert dendrogram.merges == [(0, 1, 0.42, 2)]


def test_three_docs_single_linkage_trace():
    dendrogram = hac(three_doc_matrix(), "single")
    assert dendrogram.merges[0] == (0, 1, 0.9, 3)
    assert dendrogram.merges[1] == (2, 3, pytest.approx(0.2), 4)


def test_three_docs_complete_linkage_trace():
    dendrogram = hac(three_doc_matrix(), "complete")
    assert dendrogram.merges[0] == (0, 1, 0.9, 3)
    assert dendrogram.merges[1] == (2, 3, pytest.approx(0.1), 4)


def test_three_docs_average_linkage_trace():
    dendrogram = hac(three_doc_matrix(), "average")
    assert dendrogram.merges[1][2] == pytest.approx((0.1 + 0.2) / 2)


def test_cut_extremes():
    dendrogram = hac(three_doc_matrix(), "single")
    assert cut(dendrogram, 3).labels == [0, 1, 2]
    assert cut(dendrogram, 1).labels == [0, 0, 0]


def test_cut_two_clusters_after_single_linkage():
    dendrogram = hac(three_doc_matrix(), "single")
    assert cut(dendrogram, 2).labels == [0, 0, 1]


def test_cut_rejects_out_of_range_k():
    dendrogram = hac(three_doc_matrix(), "single")
    with pytest.raises(ValidationError):
        cut(dendrogram, 0)
    with pytest.raises(ValidationError):
        cut(dendrogram, 4)


def test_merge_count_and_every_cut_size():
    rng = random.Random(13)
    n = 12
    values = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = rng.random()
    matrix = SimilarityMatrix("test", [f"d{i}" for i in range(n)], values)
    for linkage in LINKAGES:
        dendrogram = hac(matrix, linkage)
        assert len(dendrogram.merges) == n - 1
        for k in range(1, n + 1):
            assignment = cut(dendrogram, k)
            assert len(set(assignment.labels)) == k


def test_merge_similarities_non_increasing():
    rng = random.Random(17)
    for linkage in LINKAGES:
        n = 10
        values = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                values[i, j] = values[j, i] = rng.random()
        dendrogram = hac(SimilarityMatrix("t", [f"d{i}" for i in range(n)], values), linkage)
        sims = [m[2] for m in dendrogram.merges]
        assert all(a >= b - 1e-12 for a, b in zip(sims, sims[1:]))


def _partition(labels: list[int], ids: list[str]) -> set[frozenset[str]]:
    groups: dict[int, set[str]] = {}
    for doc_id, cluster in zip(ids, labels):
        groups.setdefault(cluster, set()).add(doc_id)
    return {frozenset(g) for g in groups.values()}


def test_permutation_invariance_on_tie_free_matrix():
    rng = random.Random(19)
    n = 9
    values = np.eye(n)
    # Distinct similarities so no tie-break is exercised.
    sims = rng.sample(range(1, 1000), n * (n - 1) // 2)
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = sims[idx] / 1000.0
            idx += 1
    ids = [f"d{i}" for i in range(n)]
    matrix = SimilarityMatrix("t", ids, values)
    perm = list(range(n))
    rng.shuffle(perm)
    shuffled = SimilarityMatrix(
        "t", [ids[p] for p in perm], values[np.ix_(perm, perm)].copy()
    )
    for linkage in LINKAGES:
        for k in (2, 3, 4):
            base = _partition(cut(hac(matrix, linkage), k).labels, ids)
            again = _partition(
                cut(hac(shuffled, linkage), k).labels, shuffled.doc_ids
            )
            assert base == again


def test_block_matrix_recovery_small():
    blocks, size = 3, 5
    n = blocks * size
    values = np.zeros((n, n))
    for b in range(blocks):
        values[b * size : (b + 1) * size, b * size : (b + 1) * size] = 1.0
    matrix = SimilarityMatrix("t", [f"d{i}" for i in range(n)], values)
    for linkage in LINKAGES:
        assignment = cut(hac(matrix, linkage), blocks)
        expected = [i // size for i in range(n)]
        assert assignment.labels == expected


def test_hac_validates_matrix_and_linkage():
    bad = SimilarityMatrix(
        "t", ["a", "b"], np.array([[1.0, 0.4], [0.5, 1.0]])
    )
    with pytest.raises(ValidationError, match="symmetric"):
        hac(bad, "single")
    good = matrix_from([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValidationError, match="linkage"):
        hac(good, "ward")


def _reference_hac(matrix: SimilarityMatrix, linkage: str) -> Dendrogram:
    """The cubic HAC: copy the active block and scan it whole at each step.
    The height is the merged pair's cell, which `sub.max()` equals in value;
    a reduction may return either sign when -0.0 and 0.0 tie."""
    sims = matrix.values.astype(float).copy()
    n = len(matrix.doc_ids)
    np.fill_diagonal(sims, -np.inf)
    active = list(range(n))
    cluster_id = list(range(n))
    sizes = [1] * n
    merges: list[tuple[int, int, float, int]] = []

    for step in range(n - 1):
        sub = sims[np.ix_(active, active)]
        best = float(sub.max())
        ii, jj = np.nonzero(sub == best)
        pick = min(
            (tuple(sorted((cluster_id[active[x]], cluster_id[active[y]]))), active[x], active[y])
            for x, y in zip(ii, jj)
            if x < y
        )
        (left, right), slot_a, slot_b = pick
        height = float(sims[slot_a, slot_b])

        # The smaller id's row comes first: np.maximum and np.minimum return
        # their second argument when -0.0 and 0.0 tie.
        lo, hi = (slot_a, slot_b) if cluster_id[slot_a] == left else (slot_b, slot_a)
        if linkage == "single":
            row = np.maximum(sims[lo], sims[hi])
        elif linkage == "complete":
            row = np.minimum(sims[lo], sims[hi])
        else:
            row = (sizes[lo] * sims[lo] + sizes[hi] * sims[hi]) / (sizes[lo] + sizes[hi])
        sims[slot_a, :] = row
        sims[:, slot_a] = row
        sims[slot_a, slot_a] = -np.inf
        sims[slot_b, :] = -np.inf
        sims[:, slot_b] = -np.inf

        new_id = n + step
        merges.append((left, right, height, new_id))
        sizes[slot_a] += sizes[slot_b]
        cluster_id[slot_a] = new_id
        active.remove(slot_b)

    return Dendrogram(n_leaves=n, merges=merges)


def _random_matrix(rng: np.random.Generator, n: int, levels: int | None) -> SimilarityMatrix:
    """Symmetric, unit diagonal; entries k/levels (many ties) or, with
    levels None, uniform draws."""
    if levels is None:
        upper = rng.random((n, n))
    else:
        upper = rng.integers(0, levels, (n, n)) / levels
    upper = np.triu(upper, 1)
    return SimilarityMatrix("t", [f"d{i}" for i in range(n)], upper + upper.T + np.eye(n))


def _assert_same_merges(got: Dendrogram, want: Dendrogram) -> None:
    assert got.n_leaves == want.n_leaves
    # The tuples compare heights with ==; repr also tells 0.0 from -0.0.
    assert got.merges == want.merges
    for (*_, height, _), (*_, expected, _) in zip(got.merges, want.merges):
        assert type(height) is float and repr(height) == repr(expected)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_hac_matches_the_reference_on_tie_heavy_matrices(linkage):
    rng = np.random.default_rng(2024)
    for n in range(2, 61):
        # Every level count up to N = 30, then one per N, to keep the test fast.
        for levels in range(1, 6) if n <= 30 else [1 + n % 5]:
            matrix = _random_matrix(rng, n, levels)
            _assert_same_merges(hac(matrix, linkage), _reference_hac(matrix, linkage))


@pytest.mark.parametrize("linkage", LINKAGES)
def test_hac_matches_the_reference_on_a_tie_free_matrix(linkage):
    matrix = _random_matrix(np.random.default_rng(120), 120, None)
    upper = matrix.values[np.triu_indices(120, 1)]
    assert len(set(upper.tolist())) == len(upper)
    _assert_same_merges(hac(matrix, linkage), _reference_hac(matrix, linkage))


# SHA-256 of repr(merges) over `_signed_zero_matrices`, one digest per
# linkage; a height's sign must not depend on numpy's SIMD kernels.
SIGNED_ZERO_SHA256 = {
    "single": "34f2f1b9d8224eb6e206c9edcfa8a730f9105f58005eb212d16ef062d3cd43da",
    "complete": "1600ca17676ea57725d34ebfd3732c0cc1a2613bbca957444ef3fe370640ffc7",
    "average": "e3aaa61857b216398debe6bb182d910d623dbb7bb4efdd91a7c067a132c587e6",
}


def _signed_zero_matrices():
    """Seeded symmetric matrices with entries from {-0.0, 0.0, 5e-324, 1/3,
    0.5}, mirrored bit for bit: six at each N in 2..39, two each at 60, 120
    and 200."""
    rng = np.random.default_rng(20)
    for n in list(range(2, 40)) * 6 + [60, 120, 200] * 2:
        values = rng.choice([-0.0, 0.0, 5e-324, 1 / 3, 0.5], (n, n))
        lower = np.tril_indices(n, -1)
        values[lower] = values.T[lower]
        np.fill_diagonal(values, 1.0)
        yield SimilarityMatrix("t", [f"d{i}" for i in range(n)], values)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_hac_matches_the_reference_on_signed_zero_ties(linkage):
    digest = hashlib.sha256()
    heights = set()
    for matrix in _signed_zero_matrices():
        dendrogram = hac(matrix, linkage)
        _assert_same_merges(dendrogram, _reference_hac(matrix, linkage))
        digest.update(repr(dendrogram.merges).encode())
        heights |= {repr(m[2]) for m in dendrogram.merges}
    assert {"-0.0", "0.0"} <= heights
    assert digest.hexdigest() == SIGNED_ZERO_SHA256[linkage]


def _dendrogram_json(dendrogram: Dendrogram) -> str:
    obj = {"n_leaves": dendrogram.n_leaves, "merges": [list(m) for m in dendrogram.merges]}
    return json.dumps(obj, sort_keys=True) + "\n"


def test_dendrogram_json_text_matches_json_dumps(tmp_path):
    odd = matrix_from(
        [
            [1.0, 5e-324, 1 / 3, 5e-324],
            [5e-324, 1.0, 0.5, 1 / 3],
            [1 / 3, 0.5, 1.0, 0.5],
            [5e-324, 1 / 3, 0.5, 1.0],
        ]
    )
    matrices = [matrix_from([[1.0, 0.42], [0.42, 1.0]]), odd]
    matrices.append(_random_matrix(np.random.default_rng(5), 9, None))
    heights = set()
    for linkage in LINKAGES:
        for matrix in matrices:
            dendrogram = hac(matrix, linkage)
            heights |= {m[2] for m in dendrogram.merges}
            cli._cluster_stage(tmp_path, matrix, linkage, 1)
            text = (tmp_path / f"dendrogram_{matrix.measure}.json").read_text("utf-8")
            assert text == _dendrogram_json(dendrogram)
            assert json.loads(text)["merges"] == [list(m) for m in dendrogram.merges]
    assert {5e-324, 1 / 3, 0.5}.issubset(heights)
