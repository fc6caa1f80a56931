from __future__ import annotations

import json
import math
import random

import pytest
from conftest import forest_dict, make_forest, node
from oracles import validate_forest

from tmclust.errors import ValidationError
from tmclust.textpipe import (
    Corpus,
    CorpusDoc,
    build_fallback_forest,
    load_corpus,
    tokenize,
    vectorize,
)
from tmclust.xtm import DOC_ROOT_LABEL, number_nodes


def test_tokenize_basic():
    assert tokenize("The cat sat.") == ["cat", "sat"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_drops_short_and_stopwords():
    assert tokenize("A a I") == []


def test_tokenize_is_alphabetic_only():
    assert tokenize("alpha42 beta_gamma 3.14") == ["alpha", "beta", "gamma"]


def test_tokenize_stemming_is_optional():
    text = "racing cars raced past boxes"
    assert tokenize(text) == ["racing", "cars", "raced", "past", "boxes"]
    assert tokenize(text, stem=True) == ["rac", "car", "rac", "past", "box"]


def _corpus(*texts: str) -> Corpus:
    return Corpus(
        docs=[CorpusDoc(doc_id=f"d{i}", text=t, label="x") for i, t in enumerate(texts)]
    )


def test_vectorize_single_doc_weights():
    _, vectors = vectorize(_corpus("cat cat dog"))
    assert vectors[0].entries == pytest.approx(
        {"cat": 2 * math.log(2), "dog": math.log(2)}
    )


def test_vectorize_absent_term_has_no_entry():
    _, vectors = vectorize(_corpus("cat cat", "dog"))
    assert "dog" not in vectors[0].entries
    assert "cat" not in vectors[1].entries


def test_vectorize_identical_docs_identical_vectors():
    _, vectors = vectorize(_corpus("tree map tree", "tree map tree"))
    assert vectors[0].entries == vectors[1].entries


def test_vectorize_formula_uses_df_across_corpus():
    df, vectors = vectorize(_corpus("cat dog", "cat bird"))
    n, df_cat = 2, 2
    assert df == {"bird": 1, "cat": 2, "dog": 1}
    assert vectors[0].entries["cat"] == pytest.approx(math.log(1 + n / df_cat))
    assert vectors[0].entries["dog"] == pytest.approx(math.log(1 + n / 1))


def test_vectorize_permutation_invariant_weights():
    docs = ["cat dog", "dog bird fish", "cat cat fish"]
    _, forward = vectorize(_corpus(*docs))
    corpus_rev = Corpus(
        docs=[CorpusDoc(doc_id=f"d{2 - i}", text=t, label="x") for i, t in enumerate(reversed(docs))]
    )
    _, backward = vectorize(corpus_rev)
    by_id_fwd = {v.doc_id: v.entries for v in forward}
    by_id_bwd = {v.doc_id: v.entries for v in backward}
    assert by_id_fwd == by_id_bwd


def test_vectorize_tf_scales_linearly():
    text = "cat dog dog fish"
    _, base = vectorize(_corpus(text, "other words"))
    _, doubled = vectorize(_corpus(text + " " + text, "other words"))
    for term, weight in base[0].entries.items():
        assert doubled[0].entries[term] == pytest.approx(2 * weight)


def test_vectorize_empty_doc_flagged_as_zero_vector():
    _, vectors = vectorize(_corpus("the a of", "cat dog"))
    assert vectors[0].is_zero
    assert not vectors[1].is_zero


def test_vectorize_rejects_empty_corpus():
    with pytest.raises(ValidationError):
        vectorize(Corpus(docs=[]))


def test_fallback_forest_modal_topic_merging():
    forest = build_fallback_forest("d", "red cars race. red wins.")
    assert forest_dict(forest) == {
        "label": DOC_ROOT_LABEL,
        "children": [
            {
                "label": "red",
                "children": [
                    {"label": "cars", "children": []},
                    {"label": "race", "children": []},
                    {"label": "wins", "children": []},
                ],
            }
        ],
    }


def test_fallback_forest_single_word():
    forest = build_fallback_forest("d", "alpha")
    assert len(number_nodes(forest)) == 2
    assert forest.root.children[0].label == "alpha"


def test_fallback_forest_deterministic():
    a = build_fallback_forest("d1", "blue moon rises. blue star fades.")
    b = build_fallback_forest("d2", "blue moon rises. blue star fades.")
    assert forest_dict(a) == forest_dict(b)


def test_fallback_forest_empty_text_gives_root_only():
    forest = build_fallback_forest("d", "the of and.")
    assert len(number_nodes(forest)) == 1
    assert forest.root.label == DOC_ROOT_LABEL


def test_fallback_forest_satisfies_forest_invariants():
    rng = random.Random(5)
    words = ["tree", "map", "graph", "node", "edge", "label", "topic"]
    for _ in range(25):
        sentences = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 4))
        ]
        forest = build_fallback_forest("d", ". ".join(sentences))
        validate_forest(forest)


def test_load_text_dir(tmp_path):
    (tmp_path / "a.txt").write_text("cat dog", encoding="utf-8")
    (tmp_path / "b.txt").write_text("bird fish", encoding="utf-8")
    (tmp_path / "labels.csv").write_text("doc_id,label\na,pets\nb,wild\n", encoding="utf-8")
    corpus = load_corpus(tmp_path, "text-dir")[0]
    assert [d.doc_id for d in corpus.docs] == ["a", "b"]
    assert corpus.classes == ["pets", "wild"]


@pytest.mark.parametrize(
    "stems, rows, labels, warned",
    [
        # The header, then a row that labels the document named doc_id.
        (["b", "doc_id"], "doc_id,label\ndoc_id,label\nb,x\n", {"b": "x", "doc_id": "label"}, []),
        (["b", "doc_id"], "b,x\ndoc_id,y\n", {"b": "x", "doc_id": "y"}, []),
        # A repeated header further down is data, and names no document here.
        (["b"], "doc_id,label\nb,x\ndoc_id,label\n", {"b": "x"}, ["doc_id"]),
    ],
    ids=["header-then-doc_id", "no-header", "repeated-header"],
)
def test_labels_csv_header_can_only_be_the_first_row(tmp_path, capsys, stems, rows, labels, warned):
    for stem in stems:
        (tmp_path / f"{stem}.txt").write_text("cat dog", encoding="utf-8")
    (tmp_path / "labels.csv").write_text(rows, encoding="utf-8")
    corpus = load_corpus(tmp_path, "text-dir")[0]
    assert {d.doc_id: d.label for d in corpus.docs} == labels
    assert capsys.readouterr().err == "".join(
        f"warning: labels.csv names {doc_id!r}, which is not a document of the corpus\n"
        for doc_id in warned
    )


def test_load_text_dir_missing_label(tmp_path):
    (tmp_path / "a.txt").write_text("cat", encoding="utf-8")
    (tmp_path / "labels.csv").write_text("doc_id,label\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="'a'"):
        load_corpus(tmp_path, "text-dir")


def test_load_text_dir_empty(tmp_path):
    (tmp_path / "labels.csv").write_text("doc_id,label\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="no documents"):
        load_corpus(tmp_path, "text-dir")


def test_load_jsonl_with_tree_fixture(tmp_path):
    tree = forest_dict(make_forest("x", node("topic", node("leaf"))))
    path = tmp_path / "corpus.jsonl"
    lines = [
        json.dumps({"id": "x", "text": "some text", "label": "l1", "tree": tree}),
        json.dumps({"id": "y", "text": "other text", "label": "l2"}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus, trees = load_corpus(path, "jsonl")
    assert [d.doc_id for d in corpus.docs] == ["x", "y"]
    assert set(trees) == {"x"}
    assert forest_dict(trees["x"]) == tree


def test_load_jsonl_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "x", "text": "t"}) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="label"):
        load_corpus(path, "jsonl")


def test_corpus_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    lines = [{"id": 1, "text": "a", "label": "x"}, {"id": "1", "text": "b", "label": "y"}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValidationError, match=r"dup\.jsonl:2: duplicate doc id '1' \(first on line 1\)"):
        load_corpus(path, "jsonl")
