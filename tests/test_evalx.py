from __future__ import annotations

import math
import random

import pytest

from tmclust.cluster import ClusterAssignment
from tmclust.errors import ValidationError
from tmclust.evalx import (
    ContingencyTable,
    contingency,
    entropy,
    evaluate,
    per_cluster_entropy,
    per_cluster_purity,
    purity,
)


def table(counts: list[list[int]], classes: list[str] | None = None) -> ContingencyTable:
    classes = classes or [f"cls{j}" for j in range(len(counts[0]))]
    return ContingencyTable(
        cluster_ids=list(range(len(counts))), class_labels=classes, counts=counts
    )


def test_contingency_perfect_two_classes():
    assignment = ClusterAssignment(k=2, labels=[0, 0, 1, 1])
    result = contingency(assignment, ["a", "a", "b", "b"])
    assert result.counts == [[2, 0], [0, 2]]


def test_contingency_single_cluster_row():
    assignment = ClusterAssignment(k=1, labels=[0, 0, 0, 0])
    result = contingency(assignment, ["a", "a", "a", "b"])
    assert result.counts == [[3, 1]]


def test_contingency_zero_cells():
    assignment = ClusterAssignment(k=2, labels=[0, 1])
    result = contingency(assignment, ["a", "b"])
    assert result.counts == [[1, 0], [0, 1]]


def test_contingency_rejects_unlabeled_doc():
    assignment = ClusterAssignment(k=1, labels=[0, 0])
    with pytest.raises(ValidationError, match="'doc7'"):
        contingency(assignment, ["a", None], doc_ids=["doc1", "doc7"])


def test_purity_perfect_is_exactly_one():
    assert purity(table([[2, 0], [0, 2]])) == 1.0
    assert purity(table([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1.0


def test_purity_single_cluster():
    assert purity(table([[3, 1]])) == pytest.approx(0.75, abs=1e-9)


def test_purity_weighted_two_clusters():
    assert purity(table([[2, 0], [1, 1]])) == pytest.approx(0.75, abs=1e-9)


def test_entropy_pure_is_exactly_zero():
    assert entropy(table([[4, 0], [0, 2]])) == 0.0


def test_entropy_even_split_is_one():
    assert entropy(table([[2, 2]])) == pytest.approx(1.0, abs=1e-9)


def test_entropy_three_to_one_split():
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert entropy(table([[3, 1]])) == pytest.approx(expected, abs=1e-9)
    assert entropy(table([[3, 1]])) == pytest.approx(0.8112781244591328, abs=1e-9)


def test_entropy_single_class_is_zero():
    assert entropy(table([[5]], classes=["only"])) == 0.0


def test_entropy_uses_class_count_base():
    # Uniform over 4 classes in one cluster: maximal, so exactly 1 in base 4.
    assert entropy(table([[3, 3, 3, 3]])) == pytest.approx(1.0, abs=1e-9)


def test_relabeling_invariance():
    rng = random.Random(23)
    counts = [[rng.randint(0, 6) for _ in range(3)] for _ in range(4)]
    counts[0][0] += 1
    base_purity = purity(table(counts))
    base_entropy = entropy(table(counts))
    rows = counts[:]
    rng.shuffle(rows)
    permuted_cols = [[row[2], row[0], row[1]] for row in rows]
    assert purity(table(permuted_cols)) == pytest.approx(base_purity)
    assert entropy(table(permuted_cols)) == pytest.approx(base_entropy)


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
        before = purity(table(counts))
        i, j = rng.sample(range(len(counts)), 2)
        merged = [row for k, row in enumerate(counts) if k not in (i, j)]
        merged.append([a + b for a, b in zip(counts[i], counts[j])])
        assert purity(table(merged)) <= before + 1e-12


def test_splitting_clusters_never_increases_entropy():
    rng = random.Random(31)
    for _ in range(100):
        counts = _random_table(rng)
        before = entropy(table(counts))
        idx = rng.randrange(len(counts))
        row = counts[idx]
        part_a = [rng.randint(0, c) for c in row]
        part_b = [c - a for c, a in zip(row, part_a)]
        if sum(part_a) == 0 or sum(part_b) == 0:
            continue
        split = [r for k, r in enumerate(counts) if k != idx] + [part_a, part_b]
        assert entropy(table(split)) <= before + 1e-12


def test_purity_bounds_and_exactness_condition():
    rng = random.Random(37)
    for _ in range(100):
        counts = _random_table(rng)
        t = table(counts)
        total = t.total
        max_class_share = max(
            sum(row[j] for row in counts) for j in range(len(counts[0]))
        ) / total
        p = purity(t)
        e = entropy(t)
        assert max_class_share - 1e-12 <= p <= 1.0
        assert 0.0 <= e <= 1.0 + 1e-12
        single_class = all(sum(1 for c in row if c) == 1 for row in counts)
        assert (p == 1.0) == single_class
        assert (e == 0.0) == single_class


def test_evaluate_report_fields_and_weighting():
    assignment = ClusterAssignment(k=2, labels=[0, 0, 1, 1])
    report = evaluate(assignment, ["a", "b", "b", "b"], "cosine", "toy")
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


def test_per_cluster_helpers_match_shapes():
    t = table([[2, 0], [1, 1]])
    assert per_cluster_purity(t) == [1.0, 0.5]
    assert len(per_cluster_entropy(t)) == 2


def test_evaluate_scores_equal_the_table_scores_on_random_cuts():
    rng = random.Random(43)
    single_class = 0
    for _ in range(1000):
        n = rng.randint(1, 30)
        k = rng.randint(1, n)
        assignment = ClusterAssignment(k=k, labels=[rng.randrange(k) for _ in range(n)])
        classes = rng.randint(1, 4)
        gold = [f"cls{rng.randrange(classes)}" for _ in range(n)]
        single_class += len(set(gold)) == 1
        t = contingency(assignment, gold)
        report = evaluate(assignment, gold, "m", "d")
        rows = report.per_cluster
        assert [c["cluster"] for c in rows] == t.cluster_ids
        assert [c["size"] for c in rows] == list(map(sum, t.counts))
        # repr tells 0.0 from -0.0 and every bit of a float.
        assert [repr(c["purity"]) for c in rows] == list(map(repr, per_cluster_purity(t)))
        assert [repr(c["entropy"]) for c in rows] == list(map(repr, per_cluster_entropy(t)))
        assert repr(report.purity) == repr(purity(t))
        assert repr(report.entropy) == repr(entropy(t))
    assert single_class > 0
