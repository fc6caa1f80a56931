from __future__ import annotations

from oracles import validate_forest

from tmclust.synth import make_planted_corpus, write_jsonl
from tmclust.textpipe import load_corpus, tokenize
from tmclust.xtm import number_nodes


def test_planted_corpus_shape_and_validity():
    docs = make_planted_corpus(n_clusters=4, docs_per_cluster=25, seed=0)
    assert len(docs) == 100
    labels = {d.label for d in docs}
    assert labels == {f"cluster{c}" for c in range(4)}
    for doc in docs:
        validate_forest(doc.forest)
        assert len(number_nodes(doc.forest)) >= 2
        assert doc.text


def test_planted_words_survive_tokenize():
    docs = make_planted_corpus(n_clusters=4, docs_per_cluster=25, seed=0)
    words = {word for doc in docs for word in doc.text.split()}
    # 1000 draws from each 30-word pool reach every word of the shared pool
    # and of the four cluster pools.
    assert len(words) == 30 + 4 * 30
    for word in sorted(words):
        assert tokenize(word) == [word]


def test_planted_corpus_deterministic_for_seed(tmp_path):
    a = write_jsonl(make_planted_corpus(seed=3), tmp_path / "a.jsonl")
    b = write_jsonl(make_planted_corpus(seed=3), tmp_path / "b.jsonl")
    assert a.read_bytes() == b.read_bytes()
    c = write_jsonl(make_planted_corpus(seed=4), tmp_path / "c.jsonl")
    assert a.read_bytes() != c.read_bytes()


def test_planted_corpus_loads_with_trees(tmp_path):
    path = write_jsonl(make_planted_corpus(n_clusters=2, docs_per_cluster=3, seed=1), tmp_path / "p.jsonl")
    corpus, trees = load_corpus(path, "jsonl")
    assert len(corpus.docs) == 6
    assert set(trees) == {d.doc_id for d in corpus.docs}
