"""Shared builders for tests."""

from __future__ import annotations

import random

from tmclust.xtm import DOC_ROOT_LABEL, TopicForest, TopicNode, sort_forest

XTM_ZOO = b"""<?xml version="1.0" encoding="UTF-8"?>
<topicMap xmlns="http://www.topicmaps.org/xtm/" version="2.0">
  <topic id="animals"><topicName><value>Animals</value></topicName></topic>
  <topic id="cats"><topicName><value>Cats</value></topicName>
    <occurrence><type><topicRef href="#desc"/></type><resourceData>felines purr</resourceData></occurrence>
  </topic>
  <topic id="dogs"><topicName><value>Dogs</value></topicName></topic>
  <association>
    <type><topicRef href="#superclass-subclass"/></type>
    <role><type><topicRef href="#superclass"/></type><topicRef href="#animals"/></role>
    <role><type><topicRef href="#subclass"/></type><topicRef href="#cats"/></role>
  </association>
  <association>
    <type><topicRef href="#superclass-subclass"/></type>
    <role><type><topicRef href="#superclass"/></type><topicRef href="#animals"/></role>
    <role><type><topicRef href="#subclass"/></type><topicRef href="#dogs"/></role>
  </association>
</topicMap>
"""


def forest_dict(forest: TopicForest) -> dict:
    """The JSON tree fixture form as a dict: {"label": str, "children": [...]}."""

    def convert(node: TopicNode) -> dict:
        return {"label": node.label, "children": [convert(c) for c in node.children]}

    return convert(forest.root)


def node(label: str, *children: TopicNode) -> TopicNode:
    return TopicNode(label=label, children=list(children))


def make_forest(doc_id: str, *children: TopicNode) -> TopicForest:
    return sort_forest(
        TopicForest(doc_id=doc_id, root=node(DOC_ROOT_LABEL, *children))
    )


def random_forest(
    rng: random.Random,
    max_nodes: int = 10,
    alphabet: str = "abcde",
    doc_id: str = "rnd",
    min_nodes: int = 1,
) -> TopicForest:
    root = TopicNode(label=DOC_ROOT_LABEL)
    nodes = [root]
    for _ in range(rng.randint(min_nodes, max_nodes) - 1):
        parent = rng.choice(nodes)
        child = TopicNode(label=rng.choice(alphabet))
        parent.children.append(child)
        nodes.append(child)
    return sort_forest(TopicForest(doc_id=doc_id, root=root))
