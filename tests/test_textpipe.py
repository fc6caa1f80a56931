from __future__ import annotations

import json
import math
import random
from collections import Counter

import pytest
from conftest import forest_dict, make_forest, node
from oracles import (
    reference_fallback_forest,
    reference_sentence_tokens,
    validate_forest,
)

from tmclust.errors import ValidationError
from tmclust.textpipe import TermVector, _sentence_tokens, analyse, load_corpus, tfidf
from tmclust.xtm import DOC_ROOT_LABEL, TopicForest


def _tokens(text: str, stopwords: frozenset[str] | None = None, stem: bool = False) -> list[str]:
    """Every token of `text` in order: its sentence tokens, flattened."""
    return [tok for tokens in _sentence_tokens(text, stopwords, stem) for tok in tokens]


def _counts(text: str, stem: bool = False) -> dict[str, int]:
    return analyse("d", text, None, None, stem, {})[1]


def _fallback(doc_id: str, text: str) -> TopicForest:
    return analyse(doc_id, text, None, None, False, {})[0]


def _tfidf(*texts: str, ids: list[str] | None = None) -> list[TermVector]:
    """`tfidf` of the counts that `analyse` gives each text, as `ingest` runs
    them: one vocabulary for the corpus, documents `d0`, `d1`, ... unless
    `ids` names them."""
    ids = ids or [f"d{i}" for i in range(len(texts))]
    vocab: dict[str, str] = {}
    return tfidf(ids, [analyse(i, text, None, None, False, vocab)[1] for i, text in zip(ids, texts)])


def test_tokenize_basic():
    assert _tokens("The cat sat.") == ["cat", "sat"]
    assert _counts("The cat sat.") == {"cat": 1, "sat": 1}


def test_tokenize_empty():
    assert _tokens("") == []
    assert _counts("") == {}


def test_tokenize_drops_short_and_stopwords():
    assert _counts("A a I") == {}


def test_tokenize_is_alphabetic_only():
    assert _tokens("alpha42 beta_gamma 3.14") == ["alpha", "beta", "gamma"]


def test_tokenize_stemming_is_optional():
    text = "racing cars raced past boxes"
    assert _tokens(text) == ["racing", "cars", "raced", "past", "boxes"]
    assert _tokens(text, stem=True) == ["rac", "car", "rac", "past", "box"]
    assert _counts(text, stem=True) == {"rac": 2, "car": 1, "past": 1, "box": 1}


def test_vectorize_single_doc_weights():
    vectors = _tfidf("cat cat dog")
    assert vectors[0].entries == pytest.approx(
        {"cat": 2 * math.log(2), "dog": math.log(2)}
    )


def test_vectorize_absent_term_has_no_entry():
    vectors = _tfidf("cat cat", "dog")
    assert "dog" not in vectors[0].entries
    assert "cat" not in vectors[1].entries


def test_vectorize_identical_docs_identical_vectors():
    vectors = _tfidf("tree map tree", "tree map tree")
    assert vectors[0].entries == vectors[1].entries


def test_vectorize_formula_uses_df_across_corpus():
    vectors = _tfidf("cat dog", "cat bird")
    n, df_cat = 2, 2
    assert vectors[0].entries["cat"] == pytest.approx(math.log(1 + n / df_cat))
    assert vectors[0].entries["dog"] == pytest.approx(math.log(1 + n / 1))


def test_vectorize_permutation_invariant_weights():
    docs = ["cat dog", "dog bird fish", "cat cat fish"]
    forward = _tfidf(*docs)
    backward = _tfidf(*reversed(docs), ids=["d2", "d1", "d0"])
    by_id_fwd = {v.doc_id: v.entries for v in forward}
    by_id_bwd = {v.doc_id: v.entries for v in backward}
    assert by_id_fwd == by_id_bwd


def test_vectorize_tf_scales_linearly():
    text = "cat dog dog fish"
    base = _tfidf(text, "other words")
    doubled = _tfidf(text + " " + text, "other words")
    for term, weight in base[0].entries.items():
        assert doubled[0].entries[term] == pytest.approx(2 * weight)


def test_vectorize_empty_doc_flagged_as_zero_vector():
    vectors = _tfidf("the a of", "cat dog")
    assert vectors[0].entries == {}
    assert vectors[1].entries


def test_vectorize_rejects_empty_corpus(tmp_path):
    # A corpus with no document never reaches `analyse` or `tfidf`.
    (tmp_path / "empty.jsonl").write_text("\n", encoding="utf-8")
    for path, mode in ((tmp_path, "text-dir"), (tmp_path / "empty.jsonl", "jsonl")):
        with pytest.raises(ValidationError, match="no documents found"):
            load_corpus(path, mode)


def test_fallback_forest_modal_topic_merging():
    forest = _fallback("d", "red cars race. red wins.")
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
    forest = _fallback("d", "alpha")
    assert forest.labels == [DOC_ROOT_LABEL, "alpha"]
    assert forest.parents == [-1, 0]


def test_fallback_forest_deterministic():
    a = _fallback("d1", "blue moon rises. blue star fades.")
    b = _fallback("d2", "blue moon rises. blue star fades.")
    assert forest_dict(a) == forest_dict(b)


def test_fallback_forest_empty_text_gives_root_only():
    forest = _fallback("d", "the of and.")
    assert forest.labels == [DOC_ROOT_LABEL]
    assert forest.parents == [-1]


def test_fallback_forest_satisfies_forest_invariants():
    rng = random.Random(5)
    words = ["tree", "map", "graph", "node", "edge", "label", "topic"]
    for _ in range(25):
        sentences = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 4))
        ]
        forest = _fallback("d", ". ".join(sentences))
        validate_forest(forest)


# Pieces of random texts for the one-pass tokenizer: every kind of sentence
# break, CRLF, digits, `_`, and characters whose lower case leaves a-z or
# changes length: `İ` lowers to `i` plus a combining dot, the Kelvin sign to
# `k`, and a capital sigma lowers by what follows it.
_TOKENIZER_PIECES = [
    "red", "Cars", "RACE", "racing", "boxes", "ties", "the", "of", "a", "i",
    " ", " ", " ", "\r\n", "\n", ".", "...", "?!", "!", "?", "42", "_",
    "İ", "İstanbul", "\u212aelvin", "ΑΣ.Β", "café", "ß",
]


@pytest.mark.parametrize("stem", [False, True], ids=["plain", "stem"])
@pytest.mark.parametrize(
    "stopwords",
    [None, frozenset(), frozenset({"red", "cars", "rac", "kelvin"})],
    ids=["default", "none", "custom"],
)
def test_one_pass_tokenizer_matches_splitting_sentences_first(stopwords, stem):
    rng = random.Random(23)
    for _ in range(400):
        text = "".join(rng.choice(_TOKENIZER_PIECES) for _ in range(rng.randint(0, 30)))
        want = reference_sentence_tokens(text, stopwords, stem)
        got = _sentence_tokens(text, stopwords, stem)
        assert [s for s in got if s] == [s for s in want if s], text
        assert _tokens(text, stopwords, stem) == [tok for s in want for tok in s], text
        forest, counts = analyse("d", text, None, stopwords, stem, {})
        assert counts == Counter(tok for s in want for tok in s), text
        reference = reference_fallback_forest("d", text, stopwords, stem)
        assert forest_dict(forest) == forest_dict(reference), text


def test_load_text_dir(tmp_path):
    (tmp_path / "a.txt").write_text("cat dog", encoding="utf-8")
    (tmp_path / "b.txt").write_text("bird fish", encoding="utf-8")
    (tmp_path / "labels.csv").write_text("doc_id,label\na,pets\nb,wild\n", encoding="utf-8")
    docs = load_corpus(tmp_path, "text-dir")
    assert [d.doc_id for d in docs] == ["a", "b"]
    assert [d.label for d in docs] == ["pets", "wild"]
    assert [d.tree for d in docs] == [None, None]


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
    docs = load_corpus(tmp_path, "text-dir")
    assert {d.doc_id: d.label for d in docs} == labels
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
    x, y = load_corpus(path, "jsonl")
    assert [x.doc_id, y.doc_id] == ["x", "y"]
    assert forest_dict(x.tree) == tree
    assert y.tree is None


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
