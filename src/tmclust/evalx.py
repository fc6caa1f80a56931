"""Cluster quality scoring against gold labels: purity and entropy."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
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

    def to_json(self) -> dict:
        return asdict(self)


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


def per_cluster_purity(table: ContingencyTable) -> list[float]:
    return [max(row) / sum(row) for row in table.counts if sum(row)]


def purity(table: ContingencyTable) -> float:
    """Size-weighted dominant-class share, computed as sum(max) / N."""
    total = table.total
    if total <= 0:
        raise ValidationError("contingency table is empty")
    return sum(max(row) for row in table.counts if sum(row)) / total


def per_cluster_entropy(table: ContingencyTable) -> list[float]:
    base = len(table.class_labels)
    if base < 2:
        return [0.0 for row in table.counts if sum(row)]
    out = []
    for row in table.counts:
        size = sum(row)
        if not size:
            continue
        value = 0.0
        for count in row:
            if count:
                share = count / size
                value -= share * math.log(share, base)
        out.append(value)
    return out


def entropy(table: ContingencyTable) -> float:
    """Size-weighted class entropy per cluster, log base = class count."""
    total = table.total
    if total <= 0:
        raise ValidationError("contingency table is empty")
    sizes = [sum(row) for row in table.counts if sum(row)]
    values = per_cluster_entropy(table)
    return sum(size * value for size, value in zip(sizes, values)) / total


def evaluate(
    assignment: ClusterAssignment,
    gold: Sequence[str | None],
    measure: str,
    dataset: str,
    doc_ids: Sequence[str] | None = None,
) -> EvalReport:
    table = contingency(assignment, gold, doc_ids)
    purities = per_cluster_purity(table)
    entropies = per_cluster_entropy(table)
    per_cluster = [
        {
            "cluster": cluster,
            "size": sum(row),
            "purity": pur,
            "entropy": ent,
            "dominant_class": table.class_labels[row.index(max(row))],
        }
        for cluster, row, pur, ent in zip(
            table.cluster_ids, table.counts, purities, entropies
        )
    ]
    return EvalReport(
        measure=measure,
        dataset=dataset,
        k=assignment.k,
        purity=purity(table),
        entropy=entropy(table),
        per_cluster=per_cluster,
    )
