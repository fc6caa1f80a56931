"""Test oracles: code that only the tests call, kept out of the library.

- `mapping_violations` checks a mapping against the five invariants from
  first principles, and `brute_force_common_subtree` is an exhaustive
  search for small trees.  Neither shares code with `treesim`'s table
  beyond node numbering.
- `bfs_arrays` and `lifted_postorder` are the contraction that
  `treesim._postorder` replaced: each node lifts the tuple of the kept
  nodes of its subtree into its parent's, which copies whole subtrees at
  every level.
- `serialize_xtm` writes the XTM subset that `parse_xtm` reads, and
  `validate_forest` checks a forest's invariants.
- `reference_parse_xtm` is the XTM parser that `xtm.parse_xtm` replaced:
  it strips each child's namespace with `_local` in a Python loop per
  lookup, where `parse_xtm` renames every tag once and uses ElementTree's
  own child lookups.
- `certifies` and `label_dice` are the certified-corpus oracle: on a
  corpus whose forests `certifies` accepts, tm-sim is the label-set Dice
  that `label_dice` computes from one product of a 0/1 matrix.
- `reference_pairwise` is the baseline matrix routine that the inverted
  index in `simbase._pairwise` replaced: one row at a time, each later row
  read off a dense copy of the row through its own padded term ids.
- `reference_from_csv` is the matrix reader that `SimilarityMatrix.from_csv`
  replaced: `csv.reader` splits every row, and numpy converts every cell,
  both halves of the symmetric matrix alike.
- `tokenize_old`, `reference_sentence_tokens` and `reference_fallback_forest`
  are the text analysis that `textpipe`'s one pass replaced: the text is
  split into sentences first, each sentence is tokenized on its own, and the
  whole text is tokenized again for its term counts.
"""

from __future__ import annotations

import csv
import io
import re
import reprlib
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict

import numpy as np

from tmclust.errors import ValidationError, XtmParseError
from tmclust.matrix import SimilarityMatrix
from tmclust.textpipe import TermVector, default_stopwords, light_stem
from tmclust.treesim import _forms, _pair
from tmclust.xtm import (
    DOC_ROOT_LABEL,
    Association,
    Occurrence,
    Topic,
    TopicForest,
    TopicMapDoc,
    forest_from_json,
    normalize_label,
)


def common_subtree_size(a: TopicForest, b: TopicForest) -> int:
    """Cardinality of a maximum valid mapping, from the keyroot table."""
    return _pair(*_forms(a, b))


def bfs_arrays(forest: TopicForest, codec: dict[str, int]) -> tuple[list[int], list[tuple[int, ...]]]:
    """BFS label ids and child index tuples (index k <-> node number k + 1)."""
    labels = [codec.setdefault(label, len(codec)) for label in forest.labels]
    children: list[list[int]] = [[] for _ in labels]
    for k, parent in enumerate(forest.parents[1:], start=1):
        children[parent].append(k)
    return labels, [tuple(kids) for kids in children]


def lifted_postorder(
    labels: list[int], children: list[tuple[int, ...]], keep: frozenset[int]
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """The BFS arrays contracted to the non-root labels in `keep`: the BFS
    index, label and leftmost-leaf position of each kept node, in postorder."""
    # lifted[k]: the kept nodes of k's subtree in postorder, which is what
    # k contributes to its parent's postorder.
    lifted: list[tuple[int, ...]] = [()] * len(labels)
    for k in range(len(labels) - 1, -1, -1):
        below = tuple(x for c in children[k] for x in lifted[c])
        lifted[k] = below + (k,) if k == 0 or labels[k] in keep else below
    order = lifted[0]
    return order, [labels[k] for k in order], [p + 1 - len(lifted[k]) for p, k in enumerate(order)]


# Relation codes used by the oracle and the independent mapping checker.
_SELF, _ANC, _DESC, _LEFT, _RIGHT = 0, 1, 2, 3, 4


def _relation_table(forest: TopicForest) -> tuple[dict[int, str], list[list[int]]]:
    """Full pairwise relation matrix over BFS node numbers, 1-based."""
    labels = {k: label for k, label in enumerate(forest.labels, start=1)}
    parent = {k: p + 1 for k, p in enumerate(forest.parents, start=1) if p >= 0}
    _, children = bfs_arrays(forest, {})
    preorder: dict[int, int] = {}
    stack = [0]
    while stack:
        k = stack.pop()
        preorder[k + 1] = len(preorder)
        stack.extend(reversed(children[k]))
    n = len(labels)
    ancestors: dict[int, set[int]] = {}
    for k in range(1, n + 1):
        chain = set()
        cur = k
        while cur in parent:
            cur = parent[cur]
            chain.add(cur)
        ancestors[k] = chain
    rel = [[_SELF] * (n + 1) for _ in range(n + 1)]
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v:
                rel[u][v] = _SELF
            elif u in ancestors[v]:
                rel[u][v] = _ANC
            elif v in ancestors[u]:
                rel[u][v] = _DESC
            elif preorder[u] < preorder[v]:
                rel[u][v] = _LEFT
            else:
                rel[u][v] = _RIGHT
    return labels, rel


def mapping_violations(
    a: TopicForest, b: TopicForest, mapping: frozenset[tuple[int, int]]
) -> list[str]:
    """Check a mapping against all five invariants, from first principles."""
    labels1, rel1 = _relation_table(a)
    labels2, rel2 = _relation_table(b)
    pairs = sorted(mapping)
    problems: list[str] = []
    seen_i: set[int] = set()
    seen_j: set[int] = set()
    for i, j in pairs:
        if i not in labels1 or j not in labels2:
            problems.append(f"pair ({i},{j}) is out of range")
            continue
        if labels1[i] != labels2[j]:
            problems.append(f"pair ({i},{j}) is not label-preserving")
        if i in seen_i or j in seen_j:
            problems.append(f"pair ({i},{j}) breaks one-to-one")
        seen_i.add(i)
        seen_j.add(j)
    if pairs and (1, 1) not in mapping:
        problems.append("non-empty mapping does not contain the root pair")
    for x in range(len(pairs)):
        i1, j1 = pairs[x]
        for y in range(x + 1, len(pairs)):
            i2, j2 = pairs[y]
            if rel1[i1][i2] != rel2[j1][j2]:
                problems.append(
                    f"pairs ({i1},{j1}) and ({i2},{j2}) disagree on order/ancestry"
                )
    return problems


def brute_force_common_subtree(a: TopicForest, b: TopicForest) -> frozenset[tuple[int, int]]:
    """Exhaustive maximum-mapping search; refuses trees above 10 nodes."""
    labels1, rel1 = _relation_table(a)
    labels2, rel2 = _relation_table(b)
    n1, n2 = len(labels1), len(labels2)
    if n1 > 10 or n2 > 10:
        raise ValueError(
            f"brute force oracle limited to 10 nodes per tree, got {n1} and {n2}"
        )
    candidates = {
        i: [j for j in range(1, n2 + 1) if labels2[j] == labels1[i]]
        for i in range(1, n1 + 1)
    }
    best: list[tuple[int, int]] = []

    def search(i: int, chosen: list[tuple[int, int]], used: set[int]) -> None:
        nonlocal best
        if len(chosen) + (n1 - i + 1) <= len(best):
            return
        if i > n1:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        for j in candidates[i]:
            if j in used:
                continue
            if all(rel1[pi][i] == rel2[pj][j] for pi, pj in chosen):
                chosen.append((i, j))
                used.add(j)
                search(i + 1, chosen, used)
                chosen.pop()
                used.remove(j)
        search(i + 1, chosen, used)

    if labels1[1] == labels2[1]:
        search(2, [(1, 1)], {1})
    return frozenset(best)


def euler_tokens(forest: TopicForest) -> list[tuple[str, bool]]:
    """The forest as balanced parentheses: an open token (label, False) as a
    walk in preorder enters each node, and a close token (label, True) as it
    leaves the node."""
    children: list[list[int]] = [[] for _ in forest.labels]
    for k, parent in enumerate(forest.parents[1:], start=1):
        children[parent].append(k)
    tokens, stack = [], [0]
    while stack:
        k = stack.pop()
        if k < 0:
            tokens.append((forest.labels[~k], True))
            continue
        tokens.append((forest.labels[k], False))
        stack.append(~k)
        stack.extend(reversed(children[k]))
    return tokens


def certifies(forests: list[TopicForest]) -> bool:
    """Whether tm-sim is the label-set Dice on every pair of `forests`.

    The certificate: every forest's labels are distinct, and the directed
    graph whose edges join consecutive tokens of each forest's
    `euler_tokens` has no cycle (Kahn's algorithm, CACM 5(11), 1962).

    Proof.  Let S be a topological order of the graph.  A forest's tokens
    are distinct and its sequence is a path through all of them, so S
    restricted to them is that sequence.  Contracting a forest onto a label
    set (deleting every other non-root node and promoting its children)
    deletes exactly the other labels' tokens from its sequence.  So for two
    forests with one root label and K their shared non-root labels, both
    contract onto K to S restricted to the root's and K's tokens: one tree,
    which maps onto itself whole.  No mapping is larger, as each pair it
    holds shares a label, so |M| = |K| + 1."""
    successors: defaultdict[tuple[str, bool], set] = defaultdict(set)
    for forest in forests:
        if len(set(forest.labels)) < len(forest.labels):
            return False
        tokens = euler_tokens(forest)
        for before, after in zip(tokens, tokens[1:]):
            successors[before].add(after)
            successors[after]  # a token with no successor is a node too
    indegree = Counter(after for nexts in successors.values() for after in nexts)
    ready = [token for token in successors if not indegree[token]]
    done = 0
    while ready:
        done += 1
        for after in successors[ready.pop()]:
            indegree[after] -= 1
            if not indegree[after]:
                ready.append(after)
    return done == len(successors)


def label_dice(forests: list[TopicForest]) -> np.ndarray:
    """The label-set Dice of every pair: `(2.0 * M - 2.0) / (n1 + n2 - 2.0)`,
    `treesim._similarity`'s own float expression, with M = |K| + 1 and |K|
    from one float64 product of the 0/1 document x non-root label matrix,
    whose sums are small integers and so exact.  A pair whose roots differ
    scores 0.0, two root-only forests with one root label 1.0, and the
    diagonal is 1.0, as in `build_matrix`."""
    codec: dict[str, int] = {}
    rows = [[codec.setdefault(label, len(codec)) for label in f.labels[1:]] for f in forests]
    x = np.zeros((len(forests), len(codec)))
    for i, ids in enumerate(rows):
        x[i, ids] = 1.0
    shared = x @ x.T + 1.0
    n = np.array([len(f.labels) for f in forests], dtype=float)
    with np.errstate(invalid="ignore"):  # 0 / 0 for two root-only forests
        values = (2.0 * shared - 2.0) / (n[:, None] + n[None, :] - 2.0)
    values[np.isnan(values)] = 1.0
    roots = np.array([f.labels[0] for f in forests], dtype=object)
    values[roots[:, None] != roots[None, :]] = 0.0
    np.fill_diagonal(values, 1.0)
    return values


def serialize_xtm(doc: TopicMapDoc) -> bytes:
    """Emit the supported XTM subset; parse(serialize(d)) == d on retained fields."""
    root = ET.Element("topicMap", {"xmlns": "http://www.topicmaps.org/xtm/", "version": "2.0"})
    occs_by_topic: dict[str, list[Occurrence]] = {}
    for occ in doc.occurrences:
        occs_by_topic.setdefault(occ.topic, []).append(occ)
    for topic in doc.topics:
        t_el = ET.SubElement(root, "topic", {"id": topic.id})
        name_el = ET.SubElement(t_el, "topicName")
        ET.SubElement(name_el, "value").text = topic.name
        for occ in occs_by_topic.get(topic.id, []):
            o_el = ET.SubElement(t_el, "occurrence")
            ET.SubElement(o_el, "resourceData").text = occ.value
    for assoc in doc.associations:
        a_el = ET.SubElement(root, "association")
        type_el = ET.SubElement(a_el, "type")
        ET.SubElement(type_el, "topicRef", {"href": f"#{assoc.assoc_type}"})
        parts = assoc.assoc_type.split("-")
        if len(parts) >= 2 and parts[0] != parts[-1]:
            role_labels = (parts[0], parts[-1])
        else:
            role_labels = ("parent", "child")
        for role_label, member in zip(role_labels, (assoc.parent_role, assoc.child_role)):
            r_el = ET.SubElement(a_el, "role")
            rt_el = ET.SubElement(r_el, "type")
            ET.SubElement(rt_el, "topicRef", {"href": f"#{role_label}"})
            ET.SubElement(r_el, "topicRef", {"href": f"#{member}"})
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def validate_forest(forest: TopicForest) -> None:
    """Raise ValidationError unless the forest meets its invariants: as many
    labels as parents, the root at 0 with parent -1 and the synthetic label,
    every other parent earlier than its node and `parents[1:]` non-decreasing
    (so siblings are consecutive, in level order), and each run of siblings
    sorted by label."""
    labels, parents = forest.labels, forest.parents
    if len(labels) != len(parents) or not labels or parents[0] != -1:
        raise ValidationError(f"forest of {forest.doc_id!r} has no root at node 0")
    if labels[0] != DOC_ROOT_LABEL:
        raise ValidationError(f"forest root of {forest.doc_id!r} is labeled {labels[0]!r}")
    for k in range(1, len(labels)):
        if not 0 <= parents[k] < k or parents[k] < parents[k - 1]:
            raise ValidationError(f"forest of {forest.doc_id!r} is not in level order at node {k}")
        if parents[k] == parents[k - 1] and labels[k] < labels[k - 1]:
            raise ValidationError(
                f"unsorted sibling labels {labels[k - 1]!r}, {labels[k]!r} in forest of {forest.doc_id!r}"
            )


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _ref_fragment(href: str) -> str:
    return href.rsplit("#", 1)[-1]


def _byte_offset(data: bytes, line: int, column: int) -> int:
    lines = data.split(b"\n")
    return sum(len(ln) + 1 for ln in lines[: line - 1]) + column


def reference_parse_xtm(data: bytes, doc_id: str = "") -> TopicMapDoc:
    """Parse XTM 2.0 bytes into a TopicMapDoc, one child loop per lookup.

    Only the supported subset is extracted (topic ids, first topicName,
    occurrence resourceData, binary associations with typed roles);
    everything else is ignored without error.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        offset = _byte_offset(data, line, column)
        raise XtmParseError(
            f"malformed XML at byte offset {offset} (line {line}, column {column}): {exc}",
            offset=offset,
        ) from exc

    topics: list[Topic] = []
    occurrences: list[Occurrence] = []
    seen_ids: set[str] = set()
    raw_associations = []

    for elem in root:
        kind = _local(elem.tag)
        if kind == "topic":
            topic_id = elem.get("id")
            if topic_id is None:
                continue
            if topic_id in seen_ids:
                raise ValidationError(f"topic id collision: {reprlib.repr(topic_id)}")
            seen_ids.add(topic_id)
            name = _first_topic_name(elem)
            if name is None:
                name = normalize_label(topic_id)
            if not name:
                raise ValidationError(f"topic {reprlib.repr(topic_id)} has an empty name")
            topics.append(Topic(id=topic_id, name=name))
            occurrences.extend(_topic_occurrences(elem, topic_id))
        elif kind == "association":
            raw_associations.append(elem)

    names = {t.id: t.name for t in topics}
    associations = [
        assoc
        for elem in raw_associations
        if (assoc := _parse_association(elem, names)) is not None
    ]
    return TopicMapDoc(
        doc_id=doc_id, topics=topics, associations=associations, occurrences=occurrences
    )


def _first_topic_name(topic_elem: ET.Element) -> str | None:
    for child in topic_elem:
        if _local(child.tag) != "topicName":
            continue
        for part in child:
            if _local(part.tag) == "value":
                return normalize_label(part.text or "")
        return normalize_label(child.text or "")
    return None


def _topic_occurrences(topic_elem: ET.Element, topic_id: str) -> list[Occurrence]:
    found = []
    for child in topic_elem:
        if _local(child.tag) != "occurrence":
            continue
        for part in child:
            if _local(part.tag) == "resourceData":
                found.append(Occurrence(topic=topic_id, value=part.text or ""))
    return found


def _type_label(elem: ET.Element, names: dict[str, str]) -> str:
    for child in elem:
        if _local(child.tag) == "type":
            for ref in child:
                if _local(ref.tag) == "topicRef":
                    frag = _ref_fragment(ref.get("href", ""))
                    return names.get(frag, normalize_label(frag))
    return ""


def _parse_association(elem: ET.Element, names: dict[str, str]) -> Association | None:
    assoc_type = _type_label(elem, names)
    roles: list[tuple[str, str]] = []
    for child in elem:
        if _local(child.tag) != "role":
            continue
        role_type = _type_label(child, names)
        member = None
        for ref in child:
            if _local(ref.tag) == "topicRef":
                member = _ref_fragment(ref.get("href", ""))
        if member is not None:
            roles.append((role_type, member))
    if len(roles) != 2:
        return None
    for _, member in roles:
        if member not in names:
            raise ValidationError(
                f"association role references unknown topic {reprlib.repr(member)}"
            )
    parts = assoc_type.split("-")
    role_types = [rt for rt, _ in roles]
    if len(parts) >= 2 and parts[0] in role_types and parts[-1] in role_types and parts[0] != parts[-1]:
        parent = next(m for rt, m in roles if rt == parts[0])
        child = next(m for rt, m in roles if rt == parts[-1])
    else:
        parent, child = roles[0][1], roles[1][1]
    if parent == child:
        return None
    return Association(assoc_type=assoc_type, parent_role=parent, child_role=child)


def _rowsum(x: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as a Python loop adds them."""
    return x.cumsum(axis=1)[:, -1]


def reference_pairwise(measure: str, vectors: list[TermVector]) -> np.ndarray:
    """`measure` between every two of `vectors`; the diagonal is 1."""
    code = {t: k for k, t in enumerate(sorted({t for v in vectors for t in v.entries}))}
    n, width = len(vectors), max([1] + [len(v.entries) for v in vectors])
    ids, w = np.full((n, width), len(code)), np.zeros((n, width))
    for r, v in enumerate(vectors):
        terms = sorted(v.entries)
        ids[r, : len(terms)] = [code[t] for t in terms]
        w[r, : len(terms)] = [v.entries[t] for t in terms]
    norm = np.sqrt(_rowsum(np.square(w)))
    scale = norm if measure == "euclidean" else _rowsum(w) if measure == "kld" else np.ones(n)
    w = np.divide(w, scale[:, None], out=np.zeros_like(w), where=scale[:, None] > 0.0)
    # What a term adds to distance^2 or the JSD if the other vector lacks it (jaccard: w^2).
    mass = (lambda v: 0.5 * v) if measure == "kld" else np.square
    total = _rowsum(mass(w))
    out, dense = np.eye(n), np.zeros(len(code) + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n - 1):
            rest = slice(i + 1, n)
            dense[ids[i]] = w[i]
            x, y = dense[ids[rest]], w[rest]
            dense[ids[i]] = 0.0
            if measure in ("cosine", "jaccard"):
                dot = _rowsum(x * y)
                den = norm[i] * norm[rest] if measure == "cosine" else total[i] + total[rest] - dot
                out[i, rest] = out[rest, i] = np.where(den > 0.0, np.minimum(1.0, dot / den), 0.0)
                continue
            both = (x != 0.0) & (y != 0.0)
            if measure == "euclidean":
                shared = np.square(x - y)
            else:
                m = 0.5 * (x + y)
                shared = 0.5 * x * np.log2(x / m) + 0.5 * y * np.log2(y / m)
            # Shared terms plus the sum of the two one-sided remainders: order-free.
            sx, sy = (_rowsum(np.where(both, mass(v), 0.0)) for v in (x, y))
            sep = _rowsum(np.where(both, shared, 0.0)) + ((total[i] - sx) + (total[rest] - sy))
            if measure == "euclidean":
                out[i, rest] = out[rest, i] = 1.0 / (1.0 + np.sqrt(sep))
            else:
                live = (scale[i] > 0.0) & (scale[rest] > 0.0)
                out[i, rest] = out[rest, i] = np.where(live, 1.0 - np.clip(sep, 0.0, 1.0), 0.0)
    return out


def reference_from_csv(text: str, measure: str) -> SimilarityMatrix:
    """Parse a matrix CSV.  Row i must carry the header's i-th doc id."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValidationError(f"matrix CSV is malformed: {exc}") from exc
    if not rows or rows[0][:1] != ["doc_id"]:
        raise ValidationError("matrix CSV must start with a doc_id header row")
    doc_ids = rows[0][1:]
    try:
        # One call for every cell; numpy converts a str as float() does.
        values = np.array([row[1:] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"matrix CSV has a ragged or non-numeric row: {exc}") from exc
    for doc_id, row in zip(doc_ids, rows[1:]):
        row_id = row[0] if row else ""
        if row_id != doc_id:
            raise ValidationError(f"matrix CSV row {row_id!r} is where the header has {doc_id!r}")
    matrix = SimilarityMatrix(measure=measure, doc_ids=doc_ids, values=values)
    matrix.validate()
    return matrix


def tokenize_old(
    text: str, stopwords: frozenset[str] | None = None, stem: bool = False
) -> list[str]:
    """Lower-cased runs of a-z, length >= 2, stopwords removed, then stemmed."""
    stop = default_stopwords() if stopwords is None else stopwords
    tokens = [tok for tok in re.findall(r"[a-z]+", text.lower()) if len(tok) >= 2 and tok not in stop]
    return [light_stem(tok) for tok in tokens] if stem else tokens


def reference_sentence_tokens(
    text: str, stopwords: frozenset[str] | None = None, stem: bool = False
) -> list[list[str]]:
    """The tokens of each sentence, each sentence split off before it is
    tokenized."""
    return [tokenize_old(s, stopwords, stem) for s in re.split(r"[.!?]+", text)]


def reference_fallback_forest(
    doc_id: str, text: str, stopwords: frozenset[str] | None = None, stem: bool = False
) -> TopicForest:
    """The fallback forest from split sentences, each topic picked by a key
    computed per candidate."""
    sentence_tokens = reference_sentence_tokens(text, stopwords, stem)
    doc_counts = Counter(tokenize_old(text, stopwords, stem))
    children_of: dict[str, set[str]] = {}
    for tokens in sentence_tokens:
        if not tokens:
            continue
        distinct = set(tokens)
        topic = min(distinct, key=lambda t: (-doc_counts[t], t))
        children_of.setdefault(topic, set()).update(distinct - {topic})
    topics = [
        {"label": topic, "children": [{"label": c, "children": []} for c in sorted(children_of[topic])]}
        for topic in sorted(children_of)
    ]
    return forest_from_json(doc_id, {"label": DOC_ROOT_LABEL, "children": topics})
