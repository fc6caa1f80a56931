from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from conftest import XTM_ZOO, forest_dict, make_forest, node, random_forest
from oracles import reference_parse_xtm, serialize_xtm, validate_forest

from tmclust.errors import ValidationError, XtmParseError
from tmclust.xtm import (
    DOC_ROOT_LABEL,
    Association,
    Topic,
    TopicMapDoc,
    derive_forest,
    forest_from_json,
    forest_json_text,
    iter_bfs,
    normalize_label,
    number_nodes,
    parse_xtm,
)


def test_parse_zoo_fixture_counts():
    doc = parse_xtm(XTM_ZOO, doc_id="zoo")
    assert len(doc.topics) == 3
    assert len(doc.associations) == 2
    assert [t.name for t in doc.topics] == ["animals", "cats", "dogs"]
    assert doc.occurrences == [type(doc.occurrences[0])(topic="cats", value="felines purr")]


def test_parse_empty_topic_map():
    doc = parse_xtm(b"<topicMap/>")
    assert doc.topics == []
    assert doc.associations == []


def test_parse_first_name_wins():
    data = b"""<topicMap>
      <topic id="t1">
        <topicName><value>First Name</value></topicName>
        <topicName><value>Second Name</value></topicName>
      </topic>
    </topicMap>"""
    doc = parse_xtm(data)
    assert doc.topics == [Topic(id="t1", name="first name")]


def test_parse_unknown_elements_ignored():
    data = b"""<topicMap>
      <mergeMap href="x"/>
      <topic id="t1"><topicName><value>A</value></topicName><itemIdentity href="y"/></topic>
      <reifier/>
    </topicMap>"""
    doc = parse_xtm(data)
    assert [t.id for t in doc.topics] == ["t1"]


def test_parse_malformed_xml_reports_byte_offset():
    data = b"<topicMap>\n  <topic id='x'</topicMap>"
    with pytest.raises(XtmParseError) as excinfo:
        parse_xtm(data)
    assert "byte offset" in str(excinfo.value)
    assert excinfo.value.offset is not None
    assert 0 <= excinfo.value.offset <= len(data)


def test_parse_topic_id_collision():
    data = b"""<topicMap>
      <topic id="dup"><topicName><value>A</value></topicName></topic>
      <topic id="dup"><topicName><value>B</value></topicName></topic>
    </topicMap>"""
    with pytest.raises(ValidationError, match="dup"):
        parse_xtm(data)


def test_parse_unknown_role_target_rejected():
    data = b"""<topicMap>
      <topic id="a"><topicName><value>A</value></topicName></topic>
      <association>
        <type><topicRef href="#parent-child"/></type>
        <role><type><topicRef href="#parent"/></type><topicRef href="#a"/></role>
        <role><type><topicRef href="#child"/></type><topicRef href="#ghost"/></role>
      </association>
    </topicMap>"""
    with pytest.raises(ValidationError, match="ghost"):
        parse_xtm(data)


def random_xtm(rng: random.Random) -> bytes:
    """A random document in and around the subset `parse_xtm` reads.

    It draws tags in no namespace, in XTM's as the default, or under two
    prefixes (XTM's and another namespace); unknown elements at every level,
    a topic nested in one of them, topics without an id and a repeated id;
    names with and without a `value`, with text of their own, and a second
    name; several `resourceData`; `type`s with and without a `topicRef` in
    any order; roles with 0-2 `topicRef`s and associations with 1-3 roles;
    and now and then a truncated document.
    """
    style = rng.choice(["none", "default", "prefixes"])
    ids = [f"t{k}" for k in range(rng.randint(0, 5))]
    hrefs = [f"#{i}" for i in ids] + [
        "#superclass-subclass", "#parent-child", "#broader-narrower", "#part-of",
        "#superclass", "#subclass", "#parent", "#child", "#Broader", "#ghost",
        "x#y#t0", "t1", "",
    ]

    def el(local: str, *body: str, attrs: str = "") -> str:
        prefix = rng.choice(["x:", "y:", ""]) if style == "prefixes" else ""
        return f"<{prefix}{local}{attrs}>{''.join(body)}</{prefix}{local}>"

    def maybe(chance: float, make) -> list[str]:
        return [make()] if rng.random() < chance else []

    def repeat(lo: int, hi: int, make) -> list[str]:
        return [make() for _ in range(rng.randint(lo, hi))]

    def mix(*children: str) -> list[str]:
        order = list(children)
        rng.shuffle(order)
        return [rng.choice(["", "\n  ", " tail "]) + child for child in order]

    def text() -> str:
        return rng.choice(["", " ", "Alpha", " Beta\n Gamma ", "\u00dcn\u00ef &amp; Co", "b"])

    def name_text() -> str:
        return rng.choice(["Alpha", " Beta\n Gamma ", "\u00dcn\u00ef &amp; Co", "b"] * 8 + [" "])

    def unknown() -> str:
        return el(rng.choice(["instanceOf", "variant", "itemIdentity", "scope"]), text())

    def topic_ref(href: str | None = None) -> str:
        if href is None and rng.random() < 0.05:
            return el("topicRef")
        return el("topicRef", attrs=f' href="{href or rng.choice(hrefs)}"')

    def member_ref() -> str:
        return topic_ref(f"#{rng.choice(ids)}" if ids and rng.random() < 0.97 else None)

    def types() -> list[str]:
        return repeat(0, 2, lambda: el("type", topic_ref() if rng.random() < 0.6 else unknown()))

    def topic(topic_id: str | None) -> str:
        def name() -> str:
            own = maybe(0.5, name_text)
            value = maybe(0.6, lambda: el("value", name_text()))
            return el("topicName", *own, *mix(*value, *maybe(0.3, unknown)))

        def occurrence() -> str:
            return el("occurrence", *mix(*types(), *repeat(0, 3, lambda: el("resourceData", text()))))

        names = [name() for _ in range(rng.choice([0, 1, 1, 1, 2]))]
        attrs = "" if topic_id is None else f' id="{topic_id}"'
        return el("topic", *mix(*names, *repeat(0, 2, occurrence), *repeat(0, 1, unknown)), attrs=attrs)

    def association() -> str:
        # Mostly a hierarchical type with roles typed by its two ends, in
        # either order, so that the role-type rule often picks the parent.
        ends = rng.choice([("superclass", "subclass"), ("parent", "child"), ("broader", "narrower")])

        def typed(label: str) -> list[str]:
            return [el("type", topic_ref(f"#{label}"))] if rng.random() < 0.7 else types()

        def role() -> str:
            return el("role", *mix(*typed(rng.choice(ends)), *repeat(0, 2, member_ref)))

        return el("association", *mix(*typed("-".join(ends)), *repeat(1, 3, role), *maybe(0.2, unknown)))

    topic_ids: list[str | None] = list(ids)
    if ids and rng.random() < 0.1:
        topic_ids.append(rng.choice(ids))  # a repeated id
    topic_ids += [None] * rng.choice([0, 0, 0, 1])
    children = [topic(topic_id) for topic_id in topic_ids]
    children += repeat(0, 4, association) + repeat(0, 2, unknown)
    children += maybe(0.1, lambda: el("scope", topic("nested")))
    decls = {
        "none": "",
        "default": ' xmlns="http://www.topicmaps.org/xtm/"',
        "prefixes": ' xmlns:x="http://www.topicmaps.org/xtm/" xmlns:y="urn:example:other"',
    }[style]
    head = rng.choice(["", '<?xml version="1.0" encoding="UTF-8"?>\n'])
    data = (head + el("topicMap", *mix(*children), attrs=decls + ' version="2.0"')).encode("utf-8")
    if rng.random() < 0.03:
        data = data[: rng.randrange(len(data))]
    return data


def _parse_outcome(parse, data: bytes):
    """The TopicMapDoc, or the type, message and offset of the error."""
    try:
        return parse(data, doc_id="d")
    except (ValidationError, XtmParseError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def test_parse_matches_the_child_loop_parser_on_2000_random_documents():
    rng = random.Random(15)
    seen: Counter[str] = Counter()
    for _ in range(2000):
        data = random_xtm(rng)
        got = _parse_outcome(parse_xtm, data)
        assert got == _parse_outcome(reference_parse_xtm, data), data
        if isinstance(got, TopicMapDoc):
            seen["parsed"] += 1
            seen["associations"] += bool(got.associations)
            seen["occurrences"] += bool(got.occurrences)
            seen["named by id"] += any(t.name == t.id for t in got.topics)
        else:
            kinds = ("collision", "empty name", "unknown topic", "malformed XML")
            seen[next(kind for kind in kinds if kind in got[1])] += 1
    # Both parsers agree on every outcome, and every outcome occurs.
    assert seen["parsed"] >= 1000, seen
    assert min(seen.values()) >= 20 and len(seen) == 8, seen


def test_normalize_label():
    assert normalize_label("  Mixed   Case\tLabel ") == "mixed case label"


def test_roundtrip_fixpoint_on_retained_fields():
    first = parse_xtm(XTM_ZOO, doc_id="zoo")
    second = parse_xtm(serialize_xtm(first), doc_id="zoo")
    assert second.topics == first.topics
    assert second.associations == first.associations
    assert second.occurrences == first.occurrences
    third = parse_xtm(serialize_xtm(second), doc_id="zoo")
    assert third == second


def _doc(topics: list[str], edges: list[tuple[str, str]]) -> TopicMapDoc:
    return TopicMapDoc(
        doc_id="d",
        topics=[Topic(id=t, name=t) for t in topics],
        associations=[
            Association(assoc_type="parent-child", parent_role=p, child_role=c)
            for p, c in edges
        ],
    )


def test_derive_forest_basic_hierarchy():
    forest = derive_forest(_doc(["a", "b", "c"], [("a", "b"), ("a", "c")]))
    assert len(number_nodes(forest)) == 4
    assert forest_dict(forest) == {
        "label": DOC_ROOT_LABEL,
        "children": [
            {
                "label": "a",
                "children": [
                    {"label": "b", "children": []},
                    {"label": "c", "children": []},
                ],
            }
        ],
    }


def test_derive_forest_flat_when_no_associations():
    forest = derive_forest(_doc(["x", "y"], []))
    assert len(number_nodes(forest)) == 3
    assert [c.label for c in forest.root.children] == ["x", "y"]


def test_derive_forest_breaks_cycle_deterministically():
    forest = derive_forest(_doc(["a", "b"], [("a", "b"), ("b", "a")]))
    # Edge from the lexicographically larger parent (b) is dropped.
    assert forest_dict(forest) == {
        "label": DOC_ROOT_LABEL,
        "children": [
            {"label": "a", "children": [{"label": "b", "children": []}]}
        ],
    }


def test_derive_forest_single_parent_smallest_label_wins():
    forest = derive_forest(_doc(["a", "z", "kid"], [("z", "kid"), ("a", "kid")]))
    top = {c.label: c for c in forest.root.children}
    assert [c.label for c in top["a"].children] == ["kid"]
    assert top["z"].children == []


def test_derive_forest_ignores_non_hierarchical_associations():
    doc = TopicMapDoc(
        doc_id="d",
        topics=[Topic(id="a", name="a"), Topic(id="b", name="b")],
        associations=[Association(assoc_type="mentions", parent_role="a", child_role="b")],
    )
    forest = derive_forest(doc)
    assert [c.label for c in forest.root.children] == ["a", "b"]


def test_derive_forest_deterministic_under_permutation():
    rng = random.Random(7)
    topics = ["a", "b", "c", "d", "e"]
    edges = [("a", "b"), ("a", "c"), ("c", "d")]
    reference = forest_dict(derive_forest(_doc(topics, edges)))
    for _ in range(10):
        shuffled_topics = topics[:]
        shuffled_edges = edges[:]
        rng.shuffle(shuffled_topics)
        rng.shuffle(shuffled_edges)
        again = derive_forest(_doc(shuffled_topics, shuffled_edges))
        assert forest_dict(again) == reference


def test_derive_forest_node_count_is_topics_plus_root():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 8)
        topics = [f"t{i}" for i in range(n)]
        edges = []
        for i in range(1, n):
            if rng.random() < 0.6:
                edges.append((topics[rng.randrange(i)], topics[i]))
        forest = derive_forest(_doc(topics, edges))
        validate_forest(forest)
        assert len(number_nodes(forest)) == n + 1


def test_number_nodes_two_children():
    forest = make_forest("d", node("a"), node("b"))
    numbered = {n.label: k for n, k in number_nodes(forest).items()}
    assert numbered == {DOC_ROOT_LABEL: 1, "a": 2, "b": 3}


def test_number_nodes_single_node():
    forest = make_forest("d")
    assert list(number_nodes(forest).values()) == [1]


def test_number_nodes_chain():
    forest = make_forest("d", node("a", node("b")))
    numbered = {n.label: k for n, k in number_nodes(forest).items()}
    assert numbered == {DOC_ROOT_LABEL: 1, "a": 2, "b": 3}


def test_number_nodes_bijective_and_depth_monotone():
    rng = random.Random(11)
    for _ in range(50):
        forest = random_forest(rng, max_nodes=12)
        numbered = number_nodes(forest)
        values = sorted(numbered.values())
        assert values == list(range(1, len(list(iter_bfs(forest.root))) + 1))
        depth = {id(forest.root): 0}
        for parent in iter_bfs(forest.root):
            for child in parent.children:
                depth[id(child)] = depth[id(parent)] + 1
        for u, nu in numbered.items():
            for v, nv in numbered.items():
                if depth[id(u)] < depth[id(v)]:
                    assert nu < nv


def test_forest_json_roundtrip():
    forest = make_forest("d", node("b", node("x")), node("a"))
    loaded = forest_from_json("d", forest_dict(forest))
    assert forest_dict(loaded) == forest_dict(forest)


def _json_dumps_oracle(forest) -> str:
    return json.dumps(forest_dict(forest), sort_keys=True) + "\n"


def test_forest_json_text_escapes_labels_like_json_dumps():
    awkward = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "café ünï", "⟨DOC⟩", "", "🌲"]
    forest = make_forest(
        "d",
        node(awkward[0], node(awkward[1]), node(awkward[2], node(awkward[3]))),
        *(node(label) for label in awkward[3:]),
    )
    assert forest_json_text(forest) == _json_dumps_oracle(forest)


def test_forest_json_text_of_a_root_only_forest():
    forest = make_forest("d")
    assert forest_json_text(forest) == _json_dumps_oracle(forest)
    assert forest_json_text(forest) == '{"children": [], "label": "\\u27e8DOC\\u27e9"}\n'


def test_forest_json_text_of_deep_and_random_forests():
    # The oracle, json.dumps, recurses; 300 levels stay well inside the
    # recursion limit.
    chain = node("c299")
    for depth in range(298, -1, -1):
        chain = node(f"c{depth}", chain, node("leaf"))
    forests = [make_forest("deep", chain, node("z"))]
    rng = random.Random(5)
    forests += [random_forest(rng, max_nodes=rng.randint(1, 40)) for _ in range(200)]
    for forest in forests:
        assert forest_json_text(forest) == _json_dumps_oracle(forest)


def test_forest_json_text_of_a_5000_level_chain():
    # Far past what json.dumps can encode, so the expected text is built by hand.
    depth = 5000
    chain = node(f"c{depth - 1}")
    for level in range(depth - 2, -1, -1):
        chain = node(f"c{level}", chain)
    # The root and every chain node but the leaf open a list that closes
    # after the leaf, innermost first.
    above = [DOC_ROOT_LABEL] + [f"c{level}" for level in range(depth - 1)]
    expected = (
        '{"children": [' * depth + '{"children": [], "label": "c4999"}'
        + "".join('], "label": ' + json.dumps(label) + "}" for label in reversed(above))
        + "\n"
    )
    assert forest_json_text(make_forest("chain", chain)) == expected


def test_forest_from_json_requires_doc_root():
    with pytest.raises(ValidationError, match="rooted"):
        forest_from_json("d", {"label": "nope", "children": []})


@pytest.mark.parametrize("children", [5, None, {"label": "t"}])
def test_forest_from_json_rejects_children_that_are_not_a_list(children):
    tree = {"label": DOC_ROOT_LABEL, "children": [{"label": "t", "children": children}]}
    with pytest.raises(ValidationError, match="bad tree node in fixture for 'd'"):
        forest_from_json("d", tree)


def test_validate_forest_rejects_unsorted_siblings():
    from tmclust.xtm import TopicForest, TopicNode

    bad = TopicNode(
        label=DOC_ROOT_LABEL,
        children=[TopicNode(label="b"), TopicNode(label="a")],
    )
    with pytest.raises(ValidationError, match="unsorted"):
        validate_forest(TopicForest(doc_id="d", root=bad))
