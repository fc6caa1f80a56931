"""Cluster quality scoring against gold labels: purity and entropy, each a
size-weighted mean over the clusters.  A cluster's entropy is in log base =
the class count (Zhao and Karypis, 2004), so it is 0 when there is one class."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ValidationError


@dataclass
class EvalReport:
    measure: str
    dataset: str
    k: int
    purity: float
    entropy: float
    per_cluster: list[dict] = field(default_factory=list)


def _row_entropy(row: list[int], base: int) -> float:
    """Class entropy of one cluster's class counts, log base `base`; 0 with one class."""
    if base < 2:
        return 0.0
    size = sum(row)
    value = 0.0
    for count in row:
        if count:
            share = count / size
            value -= share * math.log(share, base)
    return value


def evaluate(
    labels: Sequence[int],
    gold: Sequence[str | None],
    measure: str,
    dataset: str,
    doc_ids: Sequence[str] | None = None,
) -> EvalReport:
    """Score the cluster ids `labels` (one per document) against the `gold`
    classes, each of which must be set.  `k` is the number of distinct ids.

    The cluster x class table has one row per id, in id order, and one
    column per class, in sorted order.  Purity is sum(row max) / N and
    entropy sum(row size * row entropy) / N, over the rows in that order."""
    if len(gold) != len(labels):
        raise ValidationError(f"{len(labels)} assigned documents but {len(gold)} labels")
    if not labels:
        raise ValidationError("no documents to score")
    for idx, label in enumerate(gold):
        if label is None or label == "":
            name = doc_ids[idx] if doc_ids else f"doc index {idx}"
            raise ValidationError(f"document {name!r} has no gold label")
    classes = sorted({str(label) for label in gold})
    column = {label: j for j, label in enumerate(classes)}
    table = {cluster: [0] * len(classes) for cluster in sorted(set(labels))}
    for cluster, label in zip(labels, gold):
        table[cluster][column[str(label)]] += 1
    # Every row holds a document, as each id comes from `labels`.
    per_cluster = [
        {
            "cluster": cluster,
            "size": sum(row),
            "purity": max(row) / sum(row),
            "entropy": _row_entropy(row, len(classes)),
            "dominant_class": classes[row.index(max(row))],
        }
        for cluster, row in table.items()
    ]
    n = len(labels)
    return EvalReport(
        measure=measure,
        dataset=dataset,
        k=len(table),
        purity=sum(max(row) for row in table.values()) / n,
        entropy=sum(c["size"] * c["entropy"] for c in per_cluster) / n,
        per_cluster=per_cluster,
    )
