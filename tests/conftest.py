"""Shared builders for tests."""

from __future__ import annotations

import random

from tmclust.evalx import EvalReport, evaluate
from tmclust.xtm import DOC_ROOT_LABEL, TopicForest, forest_from_json

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
    nodes = [{"label": label, "children": []} for label in forest.labels]
    for k, parent in enumerate(forest.parents[1:], start=1):
        nodes[parent]["children"].append(nodes[k])
    return nodes[0]


def node(label: str, *children: dict) -> dict:
    """One node of the JSON tree fixture form, with its children."""
    return {"label": label, "children": list(children)}


def make_forest(doc_id: str, *children: dict) -> TopicForest:
    return forest_from_json(doc_id, node(DOC_ROOT_LABEL, *children))


def random_forest(
    rng: random.Random,
    max_nodes: int = 10,
    alphabet: str = "abcde",
    doc_id: str = "rnd",
    min_nodes: int = 1,
) -> TopicForest:
    root = node(DOC_ROOT_LABEL)
    nodes = [root]
    for _ in range(rng.randint(min_nodes, max_nodes) - 1):
        parent = rng.choice(nodes)
        child = node(rng.choice(alphabet))
        parent["children"].append(child)
        nodes.append(child)
    return forest_from_json(doc_id, root)


def evaluate_table(counts: list[list[int]], classes: list[str] | None = None) -> EvalReport:
    """`evaluate` of a cut whose cluster i holds counts[i][j] documents of
    class j, the classes named `classes` or else cls0, cls1, ..."""
    classes = classes or [f"cls{j}" for j in range(len(counts[0]))]
    cells = [(i, classes[j], c) for i, row in enumerate(counts) for j, c in enumerate(row)]
    labels = [i for i, _, c in cells for _ in range(c)]
    gold = [label for _, label, c in cells for _ in range(c)]
    return evaluate(labels, gold, "m", "d")
