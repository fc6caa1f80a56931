from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from oracles import reference_pairwise
from tmclust.errors import ValidationError
from tmclust.simbase import _BLOCK_PAIRS, MEASURES, _pairwise, build_matrices_base
from tmclust.textpipe import TermVector


def vec(doc_id: str, **entries: float) -> TermVector:
    return TermVector(doc_id, dict(entries))


def sim(measure: str, a: TermVector, b: TermVector) -> float:
    """One pair's score: the off-diagonal entry of its two-vector matrix."""
    return float(build_matrices_base([measure], [a, b])[measure].values[0, 1])


def test_cosine_examples():
    a = vec("a", x=1.0, y=1.0)
    assert sim("cosine", a, a) == pytest.approx(1.0)
    assert sim("cosine", vec("a", x=1.0), vec("b", y=1.0)) == 0.0
    assert sim("cosine", a, vec("b", x=1.0)) == pytest.approx(1 / math.sqrt(2))


def test_euclidean_examples():
    a = vec("a", x=2.0, y=1.0)
    assert sim("euclidean", a, a) == 1.0
    ortho = sim("euclidean", vec("a", x=1.0), vec("b", y=1.0))
    assert ortho == pytest.approx(1 / (1 + math.sqrt(2)))
    assert sim("euclidean", a, vec("b", x=1.0)) == sim("euclidean", vec("b", x=1.0), a)


def test_euclidean_zero_vector_stays_at_origin():
    zero = vec("z")
    unit = vec("u", x=3.0)
    assert sim("euclidean", zero, unit) == pytest.approx(0.5)
    assert sim("euclidean", zero, zero) == 1.0


def test_jaccard_examples():
    a = vec("a", x=1.0, y=1.0)
    assert sim("jaccard", a, a) == 1.0
    assert sim("jaccard", vec("a", x=1.0), vec("b", y=1.0)) == 0.0
    assert sim("jaccard", a, vec("b", x=1.0)) == pytest.approx(0.5)
    assert sim("jaccard", vec("z1"), vec("z2")) == 0.0


def test_kld_examples():
    p = vec("p", x=1.0)
    q = vec("q", x=0.5, y=0.5)
    # Independent numeric JSD evaluation, base 2.
    m_x, m_y = (1.0 + 0.5) / 2, 0.25
    expected_jsd = 0.5 * (1.0 * math.log2(1.0 / m_x)) + 0.5 * (
        0.5 * math.log2(0.5 / m_x) + 0.5 * math.log2(0.5 / m_y)
    )
    assert sim("kld", p, q) == pytest.approx(1 - expected_jsd)
    assert sim("kld", p, q) == pytest.approx(0.6887, abs=1e-4)
    assert sim("kld", q, q) == 1.0
    assert sim("kld", vec("a", x=1.0), vec("b", y=1.0)) == 0.0


def test_kld_with_an_empty_vector_is_zero():
    empty, q = vec("empty"), vec("q", x=1.0, y=2.0)
    assert sim("kld", empty, q) == 0.0
    assert sim("kld", q, empty) == 0.0
    assert sim("kld", empty, vec("empty2")) == 0.0
    assert 1 - sim("kld", empty, q) == 1.0


def _random_vec(rng: random.Random, doc_id: str, vocab: list[str]) -> TermVector:
    entries = {
        t: rng.uniform(0.1, 5.0) for t in vocab if rng.random() < 0.6
    }
    if not entries:
        entries = {vocab[0]: 1.0}
    return TermVector(doc_id, entries)


def test_all_measures_symmetric_in_range_and_self_one():
    rng = random.Random(8)
    vocab = [f"t{i}" for i in range(10)]
    for _ in range(50):
        a = _random_vec(rng, "a", vocab)
        b = _random_vec(rng, "b", vocab)
        for name in MEASURES:
            assert sim(name, a, b) == sim(name, b, a), name
            assert 0.0 <= sim(name, a, b) <= 1.0, name
            assert sim(name, a, a) == pytest.approx(1.0), name


def test_cosine_scale_invariant_jaccard_not():
    a = vec("a", x=1.0, y=2.0)
    b = vec("b", x=2.0, y=1.0)
    scaled = vec("a3", x=3.0, y=6.0)
    assert sim("cosine", scaled, b) == pytest.approx(sim("cosine", a, b))
    assert sim("jaccard", scaled, b) != pytest.approx(sim("jaccard", a, b))


def test_jsd_matches_direct_summation_oracle():
    rng = random.Random(9)
    vocab = [f"t{i}" for i in range(12)]
    for _ in range(100):
        a = _random_vec(rng, "a", vocab)
        b = _random_vec(rng, "b", vocab)
        total_a = sum(a.entries.values())
        total_b = sum(b.entries.values())
        terms = sorted(set(a.entries) | set(b.entries))
        p = np.array([a.entries.get(t, 0.0) / total_a for t in terms])
        q = np.array([b.entries.get(t, 0.0) / total_b for t in terms])
        m = 0.5 * (p + q)
        with np.errstate(divide="ignore", invalid="ignore"):
            kl_pm = np.where(p > 0, p * np.log2(np.divide(p, m, out=np.zeros_like(p), where=m > 0)), 0.0).sum()
            kl_qm = np.where(q > 0, q * np.log2(np.divide(q, m, out=np.zeros_like(q), where=m > 0)), 0.0).sum()
        oracle = 0.5 * kl_pm + 0.5 * kl_qm
        assert abs((1 - sim("kld", a, b)) - oracle) <= 1e-12
        assert abs(sim("kld", a, b) - (1 - oracle)) <= 1e-12


def test_build_matrix_base_shape_and_diag():
    vectors = [
        vec("a", x=1.0, y=1.0),
        vec("b", x=1.0),
        vec("c", y=2.0),
    ]
    for measure in MEASURES:
        matrix = build_matrices_base([measure], vectors)[measure]
        matrix.validate()
        assert matrix.doc_ids == ["a", "b", "c"]
        assert np.all(np.diag(matrix.values) == 1.0)


def test_build_matrix_base_scores_an_empty_vector_zero_with_unit_diagonal():
    vectors = [vec("ok", x=1.0), vec("empty"), vec("other", x=2.0, y=1.0)]
    for measure in ("cosine", "jaccard", "kld"):
        values = build_matrices_base([measure], vectors)[measure].values
        assert list(values[1]) == [0.0, 1.0, 0.0], measure
        assert list(values[:, 1]) == [0.0, 1.0, 0.0], measure
    euclidean = build_matrices_base(["euclidean"], vectors)["euclidean"].values
    assert list(euclidean[1]) == [0.5, 1.0, 0.5]


def _vector_set(rng: random.Random, n: int) -> list[TermVector]:
    """Random vectors with empty ones, duplicates, and subset and disjoint supports."""
    vocab = [f"t{k:02d}" for k in range(16)]
    vectors: list[TermVector] = []
    for k in range(n):
        kind = rng.randrange(6)
        if kind == 0:
            terms = []
        elif kind == 1 and vectors:
            vectors.append(TermVector(f"d{k}", dict(rng.choice(vectors).entries)))
            continue
        elif kind == 2 and vectors:
            base = sorted(rng.choice(vectors).entries)
            terms = rng.sample(base, rng.randint(0, len(base)))
        elif kind == 3:
            terms = [f"only{k}x{m}" for m in range(rng.randint(1, 4))]
        else:
            terms = rng.sample(vocab, rng.randint(1, len(vocab)))
        rng.shuffle(terms)
        entries = {t: rng.uniform(0.05, 1.0) * 10 ** rng.uniform(-3, 3) for t in terms}
        vectors.append(TermVector(f"d{k}", entries))
    return vectors


def _count_kinds(vectors: list[TermVector], kinds: dict[str, int]) -> None:
    """Add the empty vectors and the duplicate, disjoint and subset pairs to `kinds`."""
    for i, a in enumerate(vectors):
        kinds["empty"] += not a.entries
        for b in vectors[i + 1 :]:
            sa, sb = set(a.entries), set(b.entries)
            if sa and sb:
                kinds["duplicate"] += a.entries == b.entries
                kinds["disjoint"] += not sa & sb
                kinds["subset"] += sa < sb or sb < sa


def _loop_dot(a: TermVector, b: TermVector) -> float:
    dot = 0.0
    for t in sorted(a.entries):
        if t in b.entries:
            dot += a.entries[t] * b.entries[t]
    return dot


def _loop_sum_squares(a: TermVector) -> float:
    total = 0.0
    for t in sorted(a.entries):
        total += a.entries[t] * a.entries[t]
    return total


def _loop_cosine(a: TermVector, b: TermVector) -> float:
    norm_a, norm_b = math.sqrt(_loop_sum_squares(a)), math.sqrt(_loop_sum_squares(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return min(1.0, _loop_dot(a, b) / (norm_a * norm_b))


def _loop_jaccard(a: TermVector, b: TermVector) -> float:
    dot = _loop_dot(a, b)
    denom = _loop_sum_squares(a) + _loop_sum_squares(b) - dot
    return 0.0 if denom == 0.0 else min(1.0, dot / denom)


def _dense(a: TermVector, b: TermVector) -> tuple[np.ndarray, np.ndarray]:
    terms = sorted(set(a.entries) | set(b.entries))
    return (
        np.array([a.entries.get(t, 0.0) for t in terms]),
        np.array([b.entries.get(t, 0.0) for t in terms]),
    )


def _dense_euclidean(a: TermVector, b: TermVector) -> float:
    x, y = _dense(a, b)
    ux = x / np.linalg.norm(x) if x.any() else x
    uy = y / np.linalg.norm(y) if y.any() else y
    return 1.0 / (1.0 + float(np.linalg.norm(ux - uy)))


def _dense_kld(a: TermVector, b: TermVector) -> float:
    x, y = _dense(a, b)
    if not x.any() or not y.any():
        return 0.0
    p, q = x / x.sum(), y / y.sum()
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        part = np.where(p > 0, 0.5 * p * np.log2(p / m), 0.0) + np.where(
            q > 0, 0.5 * q * np.log2(q / m), 0.0
        )
    return 1.0 - min(1.0, max(0.0, float(part.sum())))


def test_matrix_entries_are_the_pair_functions_and_match_oracles():
    rng = random.Random(11)
    exact = {"cosine": _loop_cosine, "jaccard": _loop_jaccard}
    close = {"euclidean": _dense_euclidean, "kld": _dense_kld}
    kinds = {"empty": 0, "duplicate": 0, "disjoint": 0, "subset": 0}
    for n in (2, 3, 7, 12):
        for _ in range(6):
            vectors = _vector_set(rng, n)
            for measure in MEASURES:
                values = build_matrices_base([measure], vectors)[measure].values
                assert np.all(np.diag(values) == 1.0)
                for i in range(n):
                    for j in range(i + 1, n):
                        a, b = vectors[i], vectors[j]
                        assert values[i, j] == sim(measure, a, b) == sim(measure, b, a), measure
                        if measure in exact:
                            assert values[i, j] == exact[measure](a, b), measure
                        else:
                            assert abs(values[i, j] - close[measure](a, b)) <= 1e-12, measure
            _count_kinds(vectors, kinds)
    assert all(count > 0 for count in kinds.values()), kinds


def test_build_matrix_base_rejects_unknown_measure():
    with pytest.raises(ValidationError, match="unknown measure"):
        build_matrices_base(["pearson"], [vec("a", x=1.0), vec("b", x=1.0)])
    with pytest.raises(ValidationError, match="unknown measure 'pearson'"):
        build_matrices_base(["cosine", "pearson"], [vec("a", x=1.0), vec("b", x=1.0)])


def test_bincount_adds_weights_in_input_order():
    # _pairwise relies on this: a pairwise sum would give 1 + 2**-51.
    assert np.bincount([0] * 5, [1.0] + [2.0**-53] * 4)[0] == 1.0


def _zipf_vector_set(rng: random.Random, n: int) -> list[TermVector]:
    """Vectors over a Zipf vocabulary, with subnormal, tiny and huge weights,
    and empty, duplicate, subset and disjoint vectors among them."""
    vocab = [f"w{k:03d}" for k in range(rng.choice([6, 60, 300]))]
    zipf = [1.0 / (k + 1) for k in range(len(vocab))]
    vectors: list[TermVector] = []
    for k in range(n):
        kind = rng.randrange(8)
        if kind == 0:
            entries = {}
        elif kind == 1 and vectors:
            entries = dict(rng.choice(vectors).entries)
        elif kind == 2 and vectors:
            base = sorted(rng.choice(vectors).entries)
            entries = {t: rng.uniform(0.1, 3.0) for t in rng.sample(base, rng.randint(0, len(base)))}
        elif kind == 3:
            entries = {f"own{k}x{m}": rng.uniform(0.1, 2.0) for m in range(rng.randint(1, 3))}
        else:
            entries = {}
            for t in rng.choices(vocab, zipf, k=rng.randint(1, 60)):
                r = rng.random()
                entries[t] = (
                    5e-324 if r < 0.05
                    else rng.uniform(1e-310, 1e-300) if r < 0.1
                    else 10 ** rng.uniform(-150, 150) if r < 0.15
                    else rng.uniform(0.01, 10.0)
                )
        items = list(entries.items())
        rng.shuffle(items)
        vectors.append(TermVector(f"d{k}", dict(items)))
    return vectors


def _underflows(vectors: list[TermVector]) -> bool:
    """Whether the weight of a term that two vectors share normalizes to 0
    under euclidean or kld; under cosine no weight is 0."""
    df = Counter(t for v in vectors for t in v.entries)
    for v in vectors:
        w = np.array(list(v.entries.values()))
        shared = np.array([df[t] > 1 for t in v.entries], dtype=bool)
        for scale in (np.sqrt(np.square(w).sum()), w.sum()):
            unit = np.divide(w, scale, out=np.zeros_like(w), where=scale > 0.0)
            if (unit[shared] == 0.0).any():
                return True
    return False


def test_pairwise_is_bit_identical_to_the_padded_row_loop():
    # Every non-empty set of measures, in both orders, comes from one pass.
    subsets = [
        [m for k, m in enumerate(MEASURES) if mask >> k & 1] for mask in range(1, 2 ** len(MEASURES))
    ]
    rng = random.Random(14)
    kinds = {
        "empty": 0, "duplicate": 0, "disjoint": 0, "subset": 0, "subnormal": 0, "blocks": 0,
        "underflow": 0,
    }
    for n in (2, 3, 7, 20, 60, 150):
        for _ in range(3):
            vectors = _zipf_vector_set(rng, n)
            want = {m: reference_pairwise(m, vectors).view(np.int64) for m in MEASURES}
            for measures in subsets:
                for order in (measures, measures[::-1]):
                    got = _pairwise(order, vectors)
                    assert list(got) == order
                    for measure, values in got.items():
                        assert np.array_equal(values.view(np.int64), want[measure]), (measure, order)
            df = Counter(t for v in vectors for t in v.entries)
            kinds["blocks"] += sum(d * (d - 1) // 2 for d in df.values()) > 2 * _BLOCK_PAIRS
            kinds["subnormal"] += any(w < np.finfo(float).tiny for v in vectors for w in v.entries.values())
            kinds["underflow"] += _underflows(vectors)
            _count_kinds(vectors, kinds)
    assert all(count > 0 for count in kinds.values()), kinds
