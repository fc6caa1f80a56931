"""XTM topic-map ingestion and topic-tree derivation.

Parses a small XTM subset, turns each document into a deterministic
ordered forest of topic labels under a synthetic root, and numbers forest
nodes in level order.  The subset `parse_xtm` reads:

- tags match on their local name, in any namespace or none;
- a topic is a `topic` child of the root element with an `id` (one without
  is skipped); its name comes from its first `topicName` or, if it has
  none, from its first XTM 2.0 `name`: that element's `value` text, or
  else its own text; a topic with neither is named by its id.  Each goes
  through `normalize_label`.  Variants, scopes and `baseName` stay unread;
- occurrence text comes from every `resourceData` of every `occurrence`
  of a topic;
- an association is an `association` child of the root, typed by the
  first `type` that holds a `topicRef`; it needs exactly two roles that
  have a `topicRef`, and a role's last `topicRef` names its member;
- the role-type rule picks the parent: for a type `a-...-b` with a role
  typed `a` and one typed `b` (a != b), the `a` role is the parent, and
  otherwise the first role is.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .errors import ValidationError, XtmParseError

DOC_ROOT_LABEL = "⟨DOC⟩"

# Association types whose (parent role, child role) induce tree edges.
DEFAULT_HIERARCHICAL_TYPES = frozenset(
    {"superclass-subclass", "parent-child", "broader-narrower"}
)

_WS_RE = re.compile(r"\s+")


def normalize_label(raw: str) -> str:
    """Lower-case a label and collapse internal whitespace."""
    return _WS_RE.sub(" ", raw.strip()).lower()


@dataclass(frozen=True)
class Topic:
    id: str
    name: str


@dataclass(frozen=True)
class Association:
    assoc_type: str
    parent_role: str
    child_role: str


@dataclass(frozen=True)
class Occurrence:
    topic: str
    value: str


@dataclass
class TopicMapDoc:
    doc_id: str
    topics: list[Topic] = field(default_factory=list)
    associations: list[Association] = field(default_factory=list)
    occurrences: list[Occurrence] = field(default_factory=list)


@dataclass(eq=False)
class TopicNode:
    """One positional node of a topic tree; labels may repeat."""

    label: str
    children: list["TopicNode"] = field(default_factory=list)


@dataclass(eq=False)
class TopicForest:
    """A document's topic trees under one synthetic root node."""

    doc_id: str
    root: TopicNode


def iter_bfs(root: TopicNode) -> Iterator[TopicNode]:
    """Yield nodes level by level, left to right."""
    queue = deque([root])
    while queue:
        node = queue.popleft()
        yield node
        queue.extend(node.children)


def number_nodes(forest: TopicForest) -> dict[TopicNode, int]:
    """Number nodes breadth-first starting from the root at 1."""
    return {node: k for k, node in enumerate(iter_bfs(forest.root), start=1)}


def _ref_fragment(href: str) -> str:
    return href.rsplit("#", 1)[-1]


def parse_xtm(data: bytes, doc_id: str = "") -> TopicMapDoc:
    """Parse XTM bytes into a TopicMapDoc: the subset above, ignoring the rest."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        offset = sum(len(ln) + 1 for ln in data.split(b"\n")[: line - 1]) + column
        raise XtmParseError(
            f"malformed XML at byte offset {offset} (line {line}, column {column}): {exc}",
            offset=offset,
        ) from exc
    # Local names, so that the plain-tag lookups below match in any namespace.
    for elem in root.iter():
        elem.tag = elem.tag.rpartition("}")[2]

    names: dict[str, str] = {}
    occurrences: list[Occurrence] = []
    for topic in root.findall("topic"):
        topic_id = topic.get("id")
        if topic_id is None:
            continue
        if topic_id in names:
            raise ValidationError(f"topic id collision: {topic_id!r}")
        first = topic.find("topicName")
        if first is None:
            first = topic.find("name")
        name = normalize_label(topic_id if first is None else first.findtext("value", first.text) or "")
        if not name:
            raise ValidationError(f"topic {topic_id!r} has an empty name")
        names[topic_id] = name
        occurrences += (
            Occurrence(topic=topic_id, value=resource.text or "")
            for occurrence in topic.findall("occurrence")
            for resource in occurrence.findall("resourceData")
        )

    associations = [
        assoc
        for elem in root.findall("association")
        if (assoc := _parse_association(elem, names)) is not None
    ]
    topics = [Topic(id=key, name=label) for key, label in names.items()]
    return TopicMapDoc(doc_id=doc_id, topics=topics, associations=associations, occurrences=occurrences)


def _type_label(elem: ET.Element, names: dict[str, str]) -> str:
    """The label of the first `type` child that holds a `topicRef`, or ""."""
    for type_elem in elem.findall("type"):
        ref = type_elem.find("topicRef")
        if ref is not None:
            frag = _ref_fragment(ref.get("href", ""))
            return names[frag] if frag in names else normalize_label(frag)
    return ""


def _parse_association(elem: ET.Element, names: dict[str, str]) -> Association | None:
    assoc_type = _type_label(elem, names)
    # (role type, member) per role with a topicRef; the last topicRef wins.
    roles = [
        (_type_label(role, names), _ref_fragment(refs[-1].get("href", "")))
        for role in elem.findall("role")
        if (refs := role.findall("topicRef"))
    ]
    if len(roles) != 2:
        return None
    for _, member in roles:
        if member not in names:
            raise ValidationError(f"association role references unknown topic {member!r}")
    parts = assoc_type.split("-")
    by_type = dict(roles)
    if len(parts) >= 2 and parts[0] != parts[-1] and parts[0] in by_type and parts[-1] in by_type:
        parent, child = by_type[parts[0]], by_type[parts[-1]]
    else:
        parent, child = roles[0][1], roles[1][1]
    if parent == child:
        return None
    return Association(assoc_type=assoc_type, parent_role=parent, child_role=child)


def derive_forest(doc: TopicMapDoc) -> TopicForest:
    """Build the document's ordered topic forest.

    Associations whose type is in `DEFAULT_HIERARCHICAL_TYPES` induce
    parent->child edges.  A child keeps only the edge from its
    lexicographically smallest parent label; remaining edges are applied in
    sorted (parent, child) label order and any edge that would close a
    cycle is skipped.  Topics left without a parent hang off the synthetic
    root.  Sibling lists are sorted by (label, topic id).
    """
    names = {t.id: t.name for t in doc.topics}
    edges = {
        (assoc.parent_role, assoc.child_role)
        for assoc in doc.associations
        if assoc.assoc_type in DEFAULT_HIERARCHICAL_TYPES
    }

    # One parent per child: smallest (parent label, parent id) wins.
    by_child: dict[str, list[tuple[str, str]]] = {}
    for parent, child in edges:
        by_child.setdefault(child, []).append((parent, child))
    chosen = [
        min(cands, key=lambda e: (names[e[0]], e[0]))
        for cands in by_child.values()
    ]
    chosen.sort(key=lambda e: (names[e[0]], names[e[1]], e[0], e[1]))

    parent_of: dict[str, str] = {}
    for parent, child in chosen:
        ancestor = parent
        while ancestor is not None and ancestor != child:
            ancestor = parent_of.get(ancestor)
        if ancestor is None:  # the edge closes no cycle
            parent_of[child] = parent

    nodes = {t.id: TopicNode(label=t.name) for t in doc.topics}
    root = TopicNode(label=DOC_ROOT_LABEL)
    # Each topic joins its parent's list in (label, id) order, which leaves
    # every sibling list sorted; no walk, so a hierarchy of any depth works.
    for topic in sorted(doc.topics, key=lambda t: (t.name, t.id)):
        parent = parent_of.get(topic.id)
        (root if parent is None else nodes[parent]).children.append(nodes[topic.id])
    return TopicForest(doc_id=doc.doc_id, root=root)


def sort_forest(forest: TopicForest) -> TopicForest:
    """Re-sort every sibling list by label (stable), in place."""
    for node in iter_bfs(forest.root):
        node.children.sort(key=lambda c: c.label)
    return forest


def forest_json_text(forest: TopicForest) -> str:
    """The forest in the JSON tree fixture form, each node
    {"label": str, "children": [...]}, as one line the way
    `json.dumps(..., sort_keys=True) + "\\n"` writes it.

    One walk over the nodes with an explicit stack builds the text: no
    intermediate dict and no recursion, so a forest of any depth is written,
    where `json.dumps` raises `RecursionError` at about 500 levels.
    """
    parts: list[str] = []
    # A node still to write, or a text to emit as it is.
    stack: list = [forest.root]
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
            continue
        parts.append('{"children": [')
        stack.append('], "label": ' + encode_basestring_ascii(node.label) + "}")
        for child in reversed(node.children):
            stack.append(child)
            stack.append(", ")
        if node.children:
            stack.pop()  # no separator before the first child
    parts.append("\n")
    return "".join(parts)


def forest_from_json(doc_id: str, obj: dict) -> TopicForest:
    """Load the JSON tree fixture form, canonicalizing sibling order."""

    def convert(item: dict) -> TopicNode:
        children = item.get("children", []) if isinstance(item, dict) else None
        if not isinstance(children, list) or not isinstance(item.get("label"), str):
            raise ValidationError(f"bad tree node in fixture for {doc_id!r}: {item!r}")
        return TopicNode(label=item["label"], children=[convert(c) for c in children])

    root = convert(obj)
    if root.label != DOC_ROOT_LABEL:
        raise ValidationError(
            f"tree fixture for {doc_id!r} must be rooted at {DOC_ROOT_LABEL!r}, "
            f"got {root.label!r}"
        )
    return sort_forest(TopicForest(doc_id=doc_id, root=root))

