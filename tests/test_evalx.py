from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from conftest import evaluate_table

from tmclust.errors import ValidationError
from tmclust.evalx import evaluate


def purity(counts: list[list[int]], classes: list[str] | None = None) -> float:
    return evaluate_table(counts, classes).purity


def entropy(counts: list[list[int]], classes: list[str] | None = None) -> float:
    return evaluate_table(counts, classes).entropy


def row(cluster: int, size: int, purity: float, entropy: float, dominant: str) -> dict:
    """One `per_cluster` entry."""
    return {"cluster": cluster, "size": size, "purity": purity, "entropy": entropy, "dominant_class": dominant}


def test_contingency_perfect_two_classes():
    report = evaluate([0, 0, 1, 1], ["a", "a", "b", "b"], "m", "d")
    assert report.per_cluster == [row(0, 2, 1.0, 0.0, "a"), row(1, 2, 1.0, 0.0, "b")]


def test_contingency_single_cluster_row():
    report = evaluate([0, 0, 0, 0], ["a", "a", "a", "b"], "m", "d")
    assert report.k == 1
    assert report.per_cluster == [row(0, 4, 0.75, report.entropy, "a")]
    assert report.entropy == pytest.approx(0.8112781244591328, abs=1e-9)


def test_contingency_zero_cells():
    report = evaluate([0, 1], ["a", "b"], "m", "d")
    assert report.per_cluster == [row(0, 1, 1.0, 0.0, "a"), row(1, 1, 1.0, 0.0, "b")]


def test_contingency_rejects_unlabeled_doc():
    with pytest.raises(ValidationError, match="'doc7'"):
        evaluate([0, 0], ["a", None], "m", "d", doc_ids=["doc1", "doc7"])
    with pytest.raises(ValidationError, match="2 assigned documents but 1 labels"):
        evaluate([0, 0], ["a"], "m", "d")
    with pytest.raises(ValidationError, match="no documents"):
        evaluate([], [], "m", "d")


def test_purity_perfect_is_exactly_one():
    assert purity([[2, 0], [0, 2]]) == 1.0
    assert purity([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1.0


def test_purity_single_cluster():
    assert purity([[3, 1]]) == pytest.approx(0.75, abs=1e-9)


def test_purity_weighted_two_clusters():
    assert purity([[2, 0], [1, 1]]) == pytest.approx(0.75, abs=1e-9)


def test_entropy_pure_is_exactly_zero():
    assert entropy([[4, 0], [0, 2]]) == 0.0


def test_entropy_even_split_is_one():
    assert entropy([[2, 2]]) == pytest.approx(1.0, abs=1e-9)


def test_entropy_three_to_one_split():
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert entropy([[3, 1]]) == pytest.approx(expected, abs=1e-9)
    assert entropy([[3, 1]]) == pytest.approx(0.8112781244591328, abs=1e-9)


def test_entropy_single_class_is_zero():
    assert entropy([[5]], classes=["only"]) == 0.0


def test_entropy_uses_class_count_base():
    # Uniform over 4 classes in one cluster: maximal, so exactly 1 in base 4.
    assert entropy([[3, 3, 3, 3]]) == pytest.approx(1.0, abs=1e-9)


def test_relabeling_invariance():
    rng = random.Random(23)
    counts = [[rng.randint(0, 6) for _ in range(3)] for _ in range(4)]
    counts[0][0] += 1
    base_purity = purity(counts)
    base_entropy = entropy(counts)
    rows = counts[:]
    rng.shuffle(rows)
    permuted_cols = [[row[2], row[0], row[1]] for row in rows]
    assert purity(permuted_cols) == pytest.approx(base_purity)
    assert entropy(permuted_cols) == pytest.approx(base_entropy)


def _random_table(rng: random.Random) -> list[list[int]]:
    clusters = rng.randint(2, 5)
    classes = rng.randint(2, 4)
    counts = [[rng.randint(0, 5) for _ in range(classes)] for _ in range(clusters)]
    for row in counts:
        if sum(row) == 0:
            row[0] = 1
    return counts


def test_merging_clusters_never_increases_purity():
    rng = random.Random(29)
    for _ in range(100):
        counts = _random_table(rng)
        before = purity(counts)
        i, j = rng.sample(range(len(counts)), 2)
        merged = [row for k, row in enumerate(counts) if k not in (i, j)]
        merged.append([a + b for a, b in zip(counts[i], counts[j])])
        assert purity(merged) <= before + 1e-12


def test_splitting_clusters_never_increases_entropy():
    rng = random.Random(31)
    for _ in range(100):
        counts = _random_table(rng)
        before = entropy(counts)
        idx = rng.randrange(len(counts))
        row = counts[idx]
        part_a = [rng.randint(0, c) for c in row]
        part_b = [c - a for c, a in zip(row, part_a)]
        if sum(part_a) == 0 or sum(part_b) == 0:
            continue
        split = [r for k, r in enumerate(counts) if k != idx] + [part_a, part_b]
        assert entropy(split) <= before + 1e-12


def test_purity_bounds_and_exactness_condition():
    rng = random.Random(37)
    for _ in range(100):
        counts = _random_table(rng)
        total = sum(map(sum, counts))
        max_class_share = max(
            sum(row[j] for row in counts) for j in range(len(counts[0]))
        ) / total
        report = evaluate_table(counts)
        p, e = report.purity, report.entropy
        assert max_class_share - 1e-12 <= p <= 1.0
        assert 0.0 <= e <= 1.0 + 1e-12
        single_class = all(sum(1 for c in row if c) == 1 for row in counts)
        assert (p == 1.0) == single_class
        assert (e == 0.0) == single_class


def test_evaluate_report_fields_and_weighting():
    report = evaluate([0, 0, 1, 1], ["a", "b", "b", "b"], "cosine", "toy")
    assert report.measure == "cosine"
    assert report.dataset == "toy"
    assert report.k == 2
    sizes = [c["size"] for c in report.per_cluster]
    purities = [c["purity"] for c in report.per_cluster]
    entropies = [c["entropy"] for c in report.per_cluster]
    n = sum(sizes)
    assert report.purity == pytest.approx(
        sum(s * p for s, p in zip(sizes, purities)) / n
    )
    assert report.entropy == pytest.approx(
        sum(s * e for s, e in zip(sizes, entropies)) / n
    )
    # k counts the ids that occur, not the largest id plus one.
    assert evaluate([0, 2, 2], ["a", "b", "b"], "m", "d").k == 2


def test_per_cluster_helpers_match_shapes():
    report = evaluate([0, 0, 1, 1], ["a", "a", "a", "b"], "m", "d")
    assert [c["purity"] for c in report.per_cluster] == [1.0, 0.5]
    assert [c["entropy"] for c in report.per_cluster] == [0.0, 1.0]


def _row_entropy(row: list[int], base: int) -> float:
    """One cluster's class entropy, in the order of operations of `evaluate`."""
    value = 0.0
    if base > 1:
        for count in row:
            if count:
                value -= count / sum(row) * math.log(count / sum(row), base)
    return value


def test_evaluate_scores_equal_the_table_scores_on_random_cuts():
    rng = random.Random(43)
    single_class = 0
    for _ in range(1000):
        n = rng.randint(1, 30)
        k = rng.randint(1, n)
        labels = [rng.randrange(k) for _ in range(n)]
        classes = rng.randint(1, 4)
        gold = [f"cls{rng.randrange(classes)}" for _ in range(n)]
        single_class += len(set(gold)) == 1
        # The cluster x class table: a row per id, in id order, and a column
        # per class, in sorted order.
        ids, names = sorted(set(labels)), sorted(set(gold))
        pairs = Counter(zip(labels, gold))
        counts = [[pairs[cluster, name] for name in names] for cluster in ids]
        report = evaluate(labels, gold, "m", "d")
        rows = report.per_cluster
        assert report.k == len(ids)
        assert [c["cluster"] for c in rows] == ids
        assert [c["size"] for c in rows] == list(map(sum, counts))
        assert [c["dominant_class"] for c in rows] == [names[r.index(max(r))] for r in counts]
        # repr tells 0.0 from -0.0 and every bit of a float.
        base = len(names)
        assert [repr(c["purity"]) for c in rows] == [repr(max(r) / sum(r)) for r in counts]
        assert [repr(c["entropy"]) for c in rows] == [repr(_row_entropy(r, base)) for r in counts]
        assert repr(report.purity) == repr(sum(map(max, counts)) / n)
        assert repr(report.entropy) == repr(sum(sum(r) * _row_entropy(r, base) for r in counts) / n)
    assert single_class > 0
