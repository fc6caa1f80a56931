"""Cluster quality scoring against gold labels: purity and entropy, each a
size-weighted mean over the clusters.  A cluster's entropy is in log base =
the class count (Zhao and Karypis, 2004), so it is 0 when there is one class."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .cluster import ClusterAssignment
from .errors import ValidationError


@dataclass
class ContingencyTable:
    """counts[i][j] = documents in cluster i with gold class j."""

    cluster_ids: list[int]
    class_labels: list[str]
    counts: list[list[int]]

    @property
    def total(self) -> int:
        return sum(map(sum, self.counts))


@dataclass
class EvalReport:
    measure: str
    dataset: str
    k: int
    purity: float
    entropy: float
    per_cluster: list[dict] = field(default_factory=list)


def contingency(
    assignment: ClusterAssignment,
    gold: Sequence[str | None],
    doc_ids: Sequence[str] | None = None,
) -> ContingencyTable:
    """Exact cluster-vs-class counts; every document must carry a label."""
    if len(gold) != len(assignment.labels):
        raise ValidationError(
            f"{len(assignment.labels)} assigned documents but {len(gold)} labels"
        )
    for idx, label in enumerate(gold):
        if label is None or label == "":
            name = doc_ids[idx] if doc_ids else f"doc index {idx}"
            raise ValidationError(f"document {name!r} has no gold label")
    classes = sorted({str(label) for label in gold})
    class_index = {label: j for j, label in enumerate(classes)}
    clusters = sorted(set(assignment.labels))
    cluster_index = {c: i for i, c in enumerate(clusters)}
    counts = [[0] * len(classes) for _ in clusters]
    for cluster, label in zip(assignment.labels, gold):
        counts[cluster_index[cluster]][class_index[str(label)]] += 1
    return ContingencyTable(cluster_ids=clusters, class_labels=classes, counts=counts)


def _cluster_entropy(table: ContingencyTable, row: list[int]) -> float:
    """Class entropy of one row of `table`, log base = class count; 0 with one class."""
    base = len(table.class_labels)
    if base < 2:
        return 0.0
    size = sum(row)
    value = 0.0
    for count in row:
        if count:
            share = count / size
            value -= share * math.log(share, base)
    return value


def _sum_over_n(table: ContingencyTable, score) -> float:
    """sum(score(row)) over the non-empty rows, divided by N."""
    total = table.total
    if total <= 0:
        raise ValidationError("contingency table is empty")
    return sum(score(row) for row in table.counts if sum(row)) / total


def purity(table: ContingencyTable) -> float:
    """Size-weighted dominant-class share, computed as sum(max) / N."""
    return _sum_over_n(table, max)


def entropy(table: ContingencyTable) -> float:
    """Size-weighted class entropy per cluster, log base = class count."""
    return _sum_over_n(table, lambda row: sum(row) * _cluster_entropy(table, row))


def evaluate(
    assignment: ClusterAssignment,
    gold: Sequence[str | None],
    measure: str,
    dataset: str,
    doc_ids: Sequence[str] | None = None,
) -> EvalReport:
    table = contingency(assignment, gold, doc_ids)
    # contingency() makes a row only for a cluster that holds a document.
    per_cluster = [
        {
            "cluster": cluster,
            "size": sum(row),
            "purity": max(row) / sum(row),
            "entropy": _cluster_entropy(table, row),
            "dominant_class": table.class_labels[row.index(max(row))],
        }
        for cluster, row in zip(table.cluster_ids, table.counts)
    ]
    return EvalReport(
        measure=measure,
        dataset=dataset,
        k=assignment.k,
        purity=purity(table),
        entropy=entropy(table),
        per_cluster=per_cluster,
    )
