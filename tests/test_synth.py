from __future__ import annotations

from oracles import validate_forest

from tmclust.synth import make_planted_corpus, write_jsonl
from tmclust.textpipe import analyse, load_corpus


def test_planted_corpus_shape_and_validity():
    docs = make_planted_corpus(n_clusters=4, docs_per_cluster=25, seed=0)
    assert len(docs) == 100
    labels = {d.label for d in docs}
    assert labels == {f"cluster{c}" for c in range(4)}
    for doc in docs:
        validate_forest(doc.tree)
        assert len(doc.tree.labels) >= 2
        assert doc.text


def test_planted_words_survive_tokenize():
    docs = make_planted_corpus(n_clusters=4, docs_per_cluster=25, seed=0)
    words = {word for doc in docs for word in doc.text.split()}
    # 1000 draws from each 30-word pool reach every word of the shared pool
    # and of the four cluster pools.
    assert len(words) == 30 + 4 * 30
    for word in sorted(words):
        assert analyse("d", word, None, None, False, {})[1] == {word: 1}


def test_planted_corpus_deterministic_for_seed(tmp_path):
    a = write_jsonl(make_planted_corpus(seed=3), tmp_path / "a.jsonl")
    b = write_jsonl(make_planted_corpus(seed=3), tmp_path / "b.jsonl")
    assert a.read_bytes() == b.read_bytes()
    c = write_jsonl(make_planted_corpus(seed=4), tmp_path / "c.jsonl")
    assert a.read_bytes() != c.read_bytes()


def test_planted_corpus_loads_with_trees(tmp_path):
    path = write_jsonl(make_planted_corpus(n_clusters=2, docs_per_cluster=3, seed=1), tmp_path / "p.jsonl")
    docs = load_corpus(path, "jsonl")
    assert len(docs) == 6
    assert all(doc.tree is not None for doc in docs)


def test_planted_corpus_reads_back_as_written(tmp_path):
    docs = make_planted_corpus(3, 4, seed=2)
    assert load_corpus(write_jsonl(docs, tmp_path / "p.jsonl"), "jsonl") == docs
