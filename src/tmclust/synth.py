"""Synthetic planted-cluster corpora for experiments and tests.

Each cluster owns a fixed topic-tree skeleton and a term pool; documents
get a noisy copy of their cluster's skeleton and a bag-of-words text that
mixes cluster terms with a vocabulary shared across all clusters.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .xtm import DOC_ROOT_LABEL, TopicForest, TopicNode, forest_json_text, sort_forest

# Term ids spell their digits as letters, because `tokenize` keeps only
# [a-z]+: "common03" would reach the vectors as "common".
_DIGIT_LETTERS = str.maketrans("0123456789", "abcdefghij")


@dataclass
class PlantedDoc:
    doc_id: str
    label: str
    text: str
    forest: TopicForest


def _skeleton(cluster: int, branches: int = 3, leaves: int = 3) -> list[tuple[str, list[str]]]:
    return [
        (
            f"c{cluster}topic{b}",
            [f"c{cluster}sub{b}{l}" for l in range(leaves)],
        )
        for b in range(branches)
    ]


def make_planted_corpus(
    n_clusters: int = 4,
    docs_per_cluster: int = 25,
    node_noise: float = 0.2,
    shared_vocab_frac: float = 0.5,
    tokens_per_doc: int = 80,
    seed: int = 0,
) -> list[PlantedDoc]:
    rng = random.Random(seed)
    shared_pool = [f"common{i:02d}".translate(_DIGIT_LETTERS) for i in range(30)]
    cluster_pools = [
        [f"c{c}word{i:02d}".translate(_DIGIT_LETTERS) for i in range(30)]
        for c in range(n_clusters)
    ]

    docs: list[PlantedDoc] = []
    for cluster in range(n_clusters):
        skeleton = _skeleton(cluster)
        for d in range(docs_per_cluster):
            doc_id = f"c{cluster}d{d:02d}"
            noise_counter = 0

            def noise_label() -> str:
                nonlocal noise_counter
                noise_counter += 1
                return f"zz{doc_id}n{noise_counter}"

            root = TopicNode(label=DOC_ROOT_LABEL)
            for branch_label, leaf_labels in skeleton:
                label = noise_label() if rng.random() < node_noise else branch_label
                branch = TopicNode(label=label)
                for leaf in leaf_labels:
                    if rng.random() < node_noise:
                        if rng.random() < 0.5:
                            continue
                        branch.children.append(TopicNode(label=noise_label()))
                    else:
                        branch.children.append(TopicNode(label=leaf))
                root.children.append(branch)
            forest = sort_forest(TopicForest(doc_id=doc_id, root=root))

            tokens = [
                rng.choice(shared_pool)
                if rng.random() < shared_vocab_frac
                else rng.choice(cluster_pools[cluster])
                for _ in range(tokens_per_doc)
            ]
            docs.append(
                PlantedDoc(
                    doc_id=doc_id,
                    label=f"cluster{cluster}",
                    text=" ".join(tokens),
                    forest=forest,
                )
            )
    return docs


def write_jsonl(docs: list[PlantedDoc], path: str | Path) -> Path:
    """Write planted docs as a JSONL corpus with embedded tree fixtures."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for doc in docs:
            record = {
                "id": doc.doc_id,
                "text": doc.text,
                "label": doc.label,
                "tree": json.loads(forest_json_text(doc.forest)),
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return target
