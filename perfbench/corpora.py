"""Seeded corpus generators for the three benchmark workloads.

Every token is alphabetic, so the program's `[a-z]+` tokenizer keeps the
whole vocabulary.  Each generator writes its corpus under `dest` and
returns a `Corpus` that records what the program is given, the gold
labels, and each document's tree labels for the tm-sim check.

The generators depend only on the standard library and the seed, so a
change to the program never changes the inputs it is measured on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Must equal tmclust.xtm.DOC_ROOT_LABEL: pinned JSONL trees are rooted there.
DOC_ROOT_LABEL = "⟨DOC⟩"

BASELINES = ("euclidean", "cosine", "jaccard", "kld")
ALL_MEASURES = BASELINES + ("tm-sim",)

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass
class Corpus:
    workload: str
    path: Path
    mode: str
    measures: tuple[str, ...]
    labels: dict[str, str]
    # Non-root tree labels per document, or None when the program builds
    # the forests itself (text-dir fallback forests).
    tree_labels: dict[str, list[str]] | None
    stats: dict = field(default_factory=dict)


def lexicon(rng: random.Random, count: int, exclude: set[str] = frozenset()) -> list[str]:
    """`count` distinct six-letter CVC+CVC pseudo-words, none in `exclude`."""
    words: list[str] = []
    seen = set(exclude)
    while len(words) < count:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_ONSETS)
            for _ in range(2)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _sentences(rng: random.Random, tokens: list[str], lo: int = 6, hi: int = 12) -> str:
    out = []
    i = 0
    while i < len(tokens):
        n = rng.randint(lo, hi)
        out.append(" ".join(tokens[i : i + n]) + ".")
        i += n
    return " ".join(out)


def _zipf_weights(n: int, exponent: float = 1.0) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


def _write_labels(dest: Path, labels: dict[str, str]) -> None:
    rows = ["doc_id,label"] + [f"{d},{lab}" for d, lab in labels.items()]
    (dest / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def _labels_of(tree: dict) -> list[str]:
    out: list[str] = []
    stack = list(tree["children"])
    while stack:
        node = stack.pop()
        out.append(node["label"])
        stack.extend(node["children"])
    return sorted(out)


def planted_jsonl(seed: int, dest: Path, n_docs: int) -> Corpus:
    """Four classes; pinned trees of about 13 nodes over 3 levels.

    Tree labels come from per-class pools plus per-document noise labels,
    so a cross-class pair shares no non-root label and scores exactly 0:
    about 75% of all pairs.  Texts hold about 45 distinct terms, 37 of
    them from a vocabulary shared by every class, so the baselines do not
    all separate the classes.
    """
    rng = random.Random(f"planted-jsonl/{seed}")
    n_classes, n_topics, n_subs = 4, 5, 5
    lex = lexicon(rng, n_classes * (n_topics * (1 + n_subs) + 60) + 200)
    words = iter(lex)
    shared = [next(words) for _ in range(200)]
    classes = []
    for _ in range(n_classes):
        topics = [(next(words), [next(words) for _ in range(n_subs)]) for _ in range(n_topics)]
        classes.append((topics, [next(words) for _ in range(60)]))
    noise = lexicon(rng, 4 * n_docs, exclude=set(lex))

    dest.mkdir(parents=True, exist_ok=True)
    labels: dict[str, str] = {}
    tree_labels: dict[str, list[str]] = {}
    lines = []
    for d in range(n_docs):
        cls = d % n_classes
        doc_id = f"doc{d:04d}"
        topics, pool = classes[cls]
        children = []
        for topic, subs in rng.sample(topics, 3):
            kids = [
                noise.pop() if rng.random() < 0.15 else sub
                for sub in rng.sample(subs, rng.randint(2, 4))
            ]
            children.append(
                {"label": topic, "children": [{"label": k, "children": []} for k in kids]}
            )
        tree = {"label": DOC_ROOT_LABEL, "children": children}
        terms = rng.sample(pool, 8) + rng.sample(shared, 37)
        tokens = terms + [rng.choice(terms) for _ in range(35)]
        rng.shuffle(tokens)
        labels[doc_id] = f"class{cls}"
        tree_labels[doc_id] = _labels_of(tree)
        record = {"id": doc_id, "text": _sentences(rng, tokens), "label": labels[doc_id]}
        lines.append(json.dumps({**record, "tree": tree}, sort_keys=True, ensure_ascii=False))
    path = dest / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Corpus(
        workload="planted-jsonl",
        path=path,
        mode="jsonl",
        measures=ALL_MEASURES,
        labels=labels,
        tree_labels=tree_labels,
        stats={"docs": n_docs, "classes": n_classes},
    )


def _xtm_document(topics: list[tuple[str, str]], edges: list[tuple[str, str]]) -> str:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<topicMap xmlns="http://www.topicmaps.org/xtm/" version="2.0">',
    ]
    for name, text in topics:
        parts.append(
            f'<topic id="{name}"><topicName><value>{name}</value></topicName>'
            f"<occurrence><resourceData>{text}</resourceData></occurrence></topic>"
        )
    for parent, child in edges:
        parts.append(
            '<association><type><topicRef href="#superclass-subclass"/></type>'
            f'<role><type><topicRef href="#superclass"/></type><topicRef href="#{parent}"/></role>'
            f'<role><type><topicRef href="#subclass"/></type><topicRef href="#{child}"/></role>'
            "</association>"
        )
    parts.append("</topicMap>")
    return "\n".join(parts) + "\n"


def xtm_taxonomy(seed: int, dest: Path, n_docs: int) -> Corpus:
    """XTM files whose topics are paths through one shared taxonomy.

    The taxonomy has branching 4 and depth 5.  A document is the union of
    six root-to-leaf paths, each starting in its class's top-level branch
    with probability 0.45, which gives about 26 topics per document.  Most
    pairs share a top-level topic, so under 10% of pairs score 0.
    """
    rng = random.Random(f"xtm-taxonomy/{seed}")
    branching, depth, n_classes, n_paths = 4, 5, 4, 6
    n_nodes = sum(branching**k for k in range(1, depth + 1))
    words = lexicon(rng, n_nodes + 400)
    names = iter(words[:n_nodes])
    gloss_pool = words[n_nodes:]
    # children[name] lists the taxonomy children of a topic; None is the top.
    children: dict[str | None, list[str]] = {}
    frontier: list[str | None] = [None]
    for _ in range(depth):
        nxt = []
        for parent in frontier:
            children[parent] = [next(names) for _ in range(branching)]
            nxt.extend(children[parent])
        frontier = nxt
    gloss = {
        name: " ".join(rng.sample(gloss_pool, 3)) for kids in children.values() for name in kids
    }

    dest.mkdir(parents=True, exist_ok=True)
    labels: dict[str, str] = {}
    tree_labels: dict[str, list[str]] = {}
    for d in range(n_docs):
        cls = d % n_classes
        doc_id = f"doc{d:04d}"
        parent_of: dict[str, str | None] = {}
        for _ in range(n_paths):
            top = children[None]
            node = top[cls] if rng.random() < 0.45 else rng.choice(top)
            parent_of[node] = None
            for _ in range(depth - 1):
                child = rng.choice(children[node])
                parent_of[child] = node
                node = child
        topics = sorted(parent_of)
        edges = sorted((p, c) for c, p in parent_of.items() if p is not None)
        (dest / f"{doc_id}.xtm").write_text(
            _xtm_document([(t, gloss[t]) for t in topics], edges), encoding="utf-8"
        )
        labels[doc_id] = f"class{cls}"
        tree_labels[doc_id] = topics
    _write_labels(dest, labels)
    return Corpus(
        workload="xtm-taxonomy",
        path=dest,
        mode="xtm-dir",
        measures=ALL_MEASURES,
        labels=labels,
        tree_labels=tree_labels,
        stats={"docs": n_docs, "classes": n_classes},
    )


def text_baselines(seed: int, dest: Path, n_docs: int) -> Corpus:
    """Plain-text documents with a Zipf-distributed vocabulary.

    Each of five classes draws 20% of its tokens from its own topical
    vocabulary and the rest from 4000 shared words, which gives about 70
    distinct terms per document.  Only the four baselines are run.
    """
    rng = random.Random(f"text-baselines/{seed}")
    n_classes, n_shared, n_topical = 5, 4000, 150
    words = lexicon(rng, n_shared + n_classes * n_topical)
    shared = words[:n_shared]
    topical = [
        words[n_shared + c * n_topical : n_shared + (c + 1) * n_topical] for c in range(n_classes)
    ]
    shared_w = _zipf_weights(n_shared)
    topical_w = _zipf_weights(n_topical, 0.8)

    dest.mkdir(parents=True, exist_ok=True)
    labels: dict[str, str] = {}
    for d in range(n_docs):
        cls = d % n_classes
        doc_id = f"doc{d:04d}"
        n_tokens = rng.randint(90, 110)
        n_topic = int(0.2 * n_tokens)
        tokens = rng.choices(shared, shared_w, k=n_tokens - n_topic) + rng.choices(
            topical[cls], topical_w, k=n_topic
        )
        rng.shuffle(tokens)
        (dest / f"{doc_id}.txt").write_text(_sentences(rng, tokens) + "\n", encoding="utf-8")
        labels[doc_id] = f"class{cls}"
    _write_labels(dest, labels)
    return Corpus(
        workload="text-baselines",
        path=dest,
        mode="text-dir",
        measures=BASELINES,
        labels=labels,
        tree_labels=None,
        stats={"docs": n_docs, "classes": n_classes},
    )


# Workload name -> (generator, documents at scale 1.0).
WORKLOADS = {
    "planted-jsonl": (planted_jsonl, 60),
    "xtm-taxonomy": (xtm_taxonomy, 36),
    "text-baselines": (text_baselines, 120),
}


def generate(workload: str, seed: int, dest: Path, scale: float = 1.0) -> Corpus:
    make, n_docs = WORKLOADS[workload]
    return make(seed, dest, max(8, round(n_docs * scale)))
