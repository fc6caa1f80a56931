from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import XTM_ZOO
from oracles import serialize_xtm

from tmclust import cli, simbase, textpipe
from tmclust.cli import (
    MEASURE_CHOICES,
    ExperimentConfig,
    cmd_cluster,
    cmd_evaluate,
    cmd_experiment,
    cmd_ingest,
    cmd_simmatrix,
    main,
)
from tmclust.synth import make_planted_corpus, write_jsonl
from tmclust.treesim import SimilarityMatrix
from tmclust.xtm import DOC_ROOT_LABEL, Association, Topic, TopicMapDoc

TEXT_DOCS = {
    "d1": ("red cars race fast. red wins again.", "racing"),
    "d2": ("red cars race hard. red track wins.", "racing"),
    "d3": ("soup recipe needs onions. soup tastes great.", "cooking"),
    "d4": ("soup recipe wants garlic. soup smells great.", "cooking"),
}


def write_text_corpus(base: Path, docs: dict[str, tuple[str, str]] = TEXT_DOCS) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    rows = ["doc_id,label"]
    for doc_id, (text, label) in docs.items():
        (base / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        rows.append(f"{doc_id},{label}")
    (base / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return base


def write_xtm_corpus(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    docs = {
        "zoo_a": (XTM_ZOO, "pets"),
        "zoo_b": (XTM_ZOO.replace(b"Dogs", b"Wolves"), "wild"),
        "zoo_c": (XTM_ZOO.replace(b"Cats", b"Lynxes"), "wild"),
    }
    rows = ["doc_id,label"]
    for doc_id, (xml, label) in docs.items():
        (base / f"{doc_id}.xtm").write_bytes(xml)
        rows.append(f"{doc_id},{label}")
    (base / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return base


def write_planted_jsonl(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    docs = make_planted_corpus(n_clusters=2, docs_per_cluster=4, seed=7)
    # Ids that a CSV field must quote, a bare CR among them.
    for k, doc_id in enumerate(["cr\rid", 'a,"b"']):
        docs[k] = dataclasses.replace(docs[k], doc_id=doc_id)
    return write_jsonl(docs, base / "planted.jsonl")


CORPUS_WRITERS = {
    "jsonl": write_planted_jsonl,
    "text-dir": write_text_corpus,
    "xtm-dir": write_xtm_corpus,
}


def artifact_bytes(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def config_for(tmp_path: Path, corpus: Path, mode: str, **overrides) -> ExperimentConfig:
    values = {
        "corpus": str(corpus),
        "mode": mode,
        "out_dir": str(tmp_path / "out"),
        "dataset": "toy",
    }
    values.update(overrides)
    return ExperimentConfig(**values)


def test_ingest_text_dir_writes_forests_and_vectors(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    out = cmd_ingest(config_for(tmp_path, corpus, "text-dir"))
    assert sorted(p.stem for p in (out / "forests").glob("*.json")) == [
        "d1", "d2", "d3", "d4",
    ]
    assert (out / "vectors.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["doc_ids"] == ["d1", "d2", "d3", "d4"]
    assert manifest["classes"] == ["cooking", "racing"]


def test_ingest_empty_dir_is_a_data_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "labels.csv").write_text("doc_id,label\n", encoding="utf-8")
    code = main(
        ["ingest", "--corpus", str(empty), "--mode", "text-dir", "--out-dir", str(tmp_path / "out")]
    )
    assert code == 2


def test_ingest_xtm_dir_skips_fallback_builder(tmp_path):
    corpus = tmp_path / "xtms"
    corpus.mkdir()
    (corpus / "zoo.xtm").write_bytes(XTM_ZOO)
    (corpus / "labels.csv").write_text("doc_id,label\nzoo,animals\n", encoding="utf-8")
    out = cmd_ingest(config_for(tmp_path, corpus, "xtm-dir"))
    tree = json.loads((out / "forests" / "zoo.json").read_text())
    # Hierarchy comes from the associations, not from sentence statistics.
    assert [c["label"] for c in tree["children"]] == ["animals"]
    assert [c["label"] for c in tree["children"][0]["children"]] == ["cats", "dogs"]


def test_simmatrix_tm_sim_identical_docs(tmp_path):
    docs = {
        "a": ("red cars race. red wins.", "x"),
        "b": ("red cars race. red wins.", "x"),
    }
    corpus = write_text_corpus(tmp_path / "corpus", docs)
    config = config_for(tmp_path, corpus, "text-dir")
    cmd_ingest(config)
    path = cmd_simmatrix(config, "tm-sim")
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[1][1:] == ["1.0", "1.0"]
    assert rows[2][1:] == ["1.0", "1.0"]


def test_simmatrix_cosine_disjoint_docs(tmp_path):
    docs = {
        "a": ("alpha beta gamma", "x"),
        "b": ("delta epsilon zeta", "y"),
    }
    corpus = write_text_corpus(tmp_path / "corpus", docs)
    config = config_for(tmp_path, corpus, "text-dir")
    cmd_ingest(config)
    path = cmd_simmatrix(config, "cosine")
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[1][1:] == ["1.0", "0.0"]
    assert rows[2][1:] == ["0.0", "1.0"]


def test_simmatrix_is_byte_identical_across_runs(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    first_cfg = config_for(tmp_path, corpus, "text-dir", out_dir=str(tmp_path / "out1"))
    second_cfg = config_for(tmp_path, corpus, "text-dir", out_dir=str(tmp_path / "out2"))
    for config in (first_cfg, second_cfg):
        cmd_ingest(config)
        for measure in ("cosine", "tm-sim", "kld"):
            cmd_simmatrix(config, measure)
    for name in ("matrix_cosine.csv", "matrix_tm-sim.csv", "matrix_kld.csv", "vectors.json"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


def test_experiment_with_stopword_only_document_scores_kld_zero(tmp_path):
    docs = dict(TEXT_DOCS, d3=("the and of it. it is the.", "cooking"))
    corpus = write_text_corpus(tmp_path / "corpus", docs)
    out = tmp_path / "out"
    code = main(["experiment", "--corpus", str(corpus), "--mode", "text-dir", "--out-dir", str(out)])
    assert code == 0
    assert (out / "report.csv").exists()
    rows = list(csv.reader((out / "matrix_kld.csv").read_text().splitlines()))
    assert rows[3] == ["d3", "0.0", "0.0", "1.0", "0.0"]


def test_cluster_and_evaluate_stage_chain(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    config = config_for(tmp_path, corpus, "text-dir")
    cmd_ingest(config)
    cmd_simmatrix(config, "tm-sim")
    assignment_path = cmd_cluster(config, "tm-sim")
    rows = list(csv.reader(assignment_path.read_text().splitlines()))
    assert rows[0] == ["doc_id", "cluster"]
    assert len(rows) == 5
    report = cmd_evaluate(config, "tm-sim")
    # k defaults to the gold class count.
    assert report.k == 2
    assert (Path(config.out_dir) / "eval_tm-sim.json").exists()


def test_experiment_writes_report_and_config_echo(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    config = config_for(tmp_path, corpus, "text-dir")
    report_path = cmd_experiment(config)
    rows = list(csv.reader(report_path.read_text().splitlines()))
    assert rows[0] == ["dataset", "measure", "linkage", "k", "purity", "entropy"]
    assert len(rows) == 6
    assert [row[1] for row in rows[1:]] == [
        "euclidean", "cosine", "jaccard", "kld", "tm-sim",
    ]
    echo = json.loads((Path(config.out_dir) / "run_config.json").read_text())
    assert echo["corpus"] == str(corpus)
    assert echo["measures"] == list(config.measures)
    # CSV is the one matrix format.
    assert sorted(p.name for p in Path(config.out_dir).glob("matrix_*")) == [
        f"matrix_{m}.csv" for m in sorted(config.measures)
    ]


@pytest.mark.parametrize("dataset", ["a\rb", "a\rb,c", 'x,"y"', "plain"])
def test_report_csv_reads_back_the_dataset_name(tmp_path, dataset):
    corpus = write_text_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    argv = ["experiment", "--corpus", str(corpus), "--mode", "text-dir", "--out-dir", str(out)]
    assert main([*argv, "--measures", "cosine,tm-sim", "--dataset", dataset]) == 0
    data = (out / "report.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))
    assert [row["dataset"] for row in rows] == [dataset, dataset]
    if "\r" not in dataset:
        # Without a CR in the name, the bytes are what csv.writer writes.
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(rows[0].keys())
        writer.writerows(row.values() for row in rows)
        assert data == expected.getvalue().encode("utf-8")


def test_experiment_jsonl_with_trees(tmp_path):
    path = write_jsonl(
        make_planted_corpus(n_clusters=2, docs_per_cluster=4, seed=7),
        tmp_path / "planted.jsonl",
    )
    config = ExperimentConfig(
        corpus=str(path),
        mode="jsonl",
        out_dir=str(tmp_path / "out"),
        dataset="planted-small",
        measures=["cosine", "tm-sim"],
    )
    report_path = cmd_experiment(config)
    rows = list(csv.reader(report_path.read_text().splitlines()))
    assert len(rows) == 3
    by_measure = {row[1]: row for row in rows[1:]}
    assert float(by_measure["tm-sim"][4]) == 1.0


def test_cli_exit_codes(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    out_dir = str(tmp_path / "out")
    ok = main(["ingest", "--corpus", str(corpus), "--mode", "text-dir", "--out-dir", out_dir])
    assert ok == 0
    usage = main(["simmatrix", "--measure", "bogus", "--corpus", str(corpus), "--out-dir", out_dir])
    assert usage == 1
    missing = main(
        ["ingest", "--corpus", str(tmp_path / "nowhere"), "--mode", "text-dir", "--out-dir", out_dir]
    )
    assert missing == 2


def _forest_labels(out: Path) -> set[str]:
    labels: set[str] = set()
    for path in (out / "forests").glob("*.json"):
        stack = [json.loads(path.read_text("utf-8"))]
        while stack:
            item = stack.pop()
            labels.add(item["label"])
            stack.extend(item["children"])
    return labels


def test_stopwords_file_removes_its_words_from_vectors_and_forests(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    stopwords = tmp_path / "stop.txt"
    stopwords.write_text("Soup\nred\n", encoding="utf-8")
    common = ["ingest", "--corpus", str(corpus), "--mode", "text-dir"]
    for out, flags, kept in (
        (tmp_path / "default", [], True),
        (tmp_path / "custom", ["--stopwords", str(stopwords)], False),
    ):
        assert main([*common, "--out-dir", str(out), *flags]) == 0
        vectors = json.loads((out / "vectors.json").read_text("utf-8"))
        terms = set(vectors["index"]).union(*vectors["vectors"].values())
        labels = _forest_labels(out)
        for word in ("soup", "red"):
            assert (word in terms) is kept and (word in labels) is kept
        assert "cars" in terms and "cars" in labels


def test_experiment_stem_writes_stemmed_terms_and_forest_labels(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    argv = ["experiment", "--corpus", str(corpus), "--mode", "text-dir", "--out-dir", str(out)]
    assert main([*argv, "--stem"]) == 0
    vectors = json.loads((out / "vectors.json").read_text("utf-8"))
    terms = set(vectors["index"]).union(*vectors["vectors"].values())
    labels = _forest_labels(out)
    for word, stemmed in (("cars", "car"), ("wins", "win"), ("onions", "onion")):
        assert stemmed in terms and word not in terms
        assert stemmed in labels and word not in labels
    assert json.loads((out / "run_config.json").read_text("utf-8"))["stem"] is True


def test_readme_command_line_flags_exist_in_the_parser(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    offered = set()
    for command in cli._SUBCOMMANDS:
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        offered |= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert named and named <= offered, sorted(named - offered)


def test_readme_command_line_block_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("tmclust ")]
    assert len(lines) == 5
    write_text_corpus(tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
    assert (tmp_path / "out" / "report.csv").is_file()


def test_process_exit_status(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    common = [sys.executable, "-m", "tmclust.cli", "ingest", "--out-dir", str(tmp_path / "out")]
    for flags, status in (
        (["--corpus", str(corpus), "--mode", "text-dir"], 0),
        (["--corpus", str(corpus), "--mode", "bogus"], 1),
        (["--corpus", str(tmp_path / "nowhere"), "--mode", "text-dir"], 2),
    ):
        done = subprocess.run([*common, *flags], env=env, capture_output=True, text=True)
        assert done.returncode == status, done.stderr
        assert "Traceback" not in done.stderr


def test_deeply_nested_tree_exits_2_without_traceback(tmp_path, capsys):
    # json.dumps cannot encode a 1000-deep chain either, so build the line by hand.
    depth = 1000
    chain = '{"label": "t", "children": [' * depth + "]}" * depth
    tree = '{"label": ' + json.dumps(DOC_ROOT_LABEL) + ', "children": [' + chain + "]}"
    lines = [
        '{"id": "deep", "label": "x", "text": "alpha beta", "tree": ' + tree + "}",
        '{"id": "flat", "label": "y", "text": "gamma delta"}',
    ]
    corpus = tmp_path / "deep.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(
        ["experiment", "--corpus", str(corpus), "--mode", "jsonl",
         "--out-dir", str(tmp_path / "out"), "--measures", "tm-sim"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {corpus}:1: ") and "nested too deeply" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# The longest id a forest file name holds: 250 UTF-8 bytes, as "é" takes two.
LONGEST_ID = "é" * 125


@pytest.mark.parametrize(
    "doc_id",
    ["../../escaped", "x/y", "a\x00b", "a\ud800", LONGEST_ID + "a"],
    ids=["escape", "slash", "nul", "surrogate", "251-bytes"],
)
def test_jsonl_doc_id_that_cannot_be_a_file_name_exits_2(tmp_path, capsys, doc_id):
    corpus = tmp_path / "ids.jsonl"
    records = [
        {"id": LONGEST_ID, "text": "alpha beta", "label": "x"},
        {"id": doc_id, "text": "gamma", "label": "y"},
    ]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "a" / "b" / "out"
    ingest = ["ingest", "--corpus", str(corpus), "--mode", "jsonl", "--out-dir", str(out)]
    assert main(ingest) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}:2: ") and repr(doc_id) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.rglob("*")) == [corpus]
    # Without the bad line, the 250-byte id names its forest file.
    corpus.write_text(json.dumps(records[0]) + "\n", encoding="utf-8")
    assert main(ingest) == 0
    assert (out / "forests" / f"{LONGEST_ID}.json").is_file()


def test_cli_config_file_with_flag_override(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "corpus": str(corpus),
                "mode": "text-dir",
                "out_dir": str(tmp_path / "from_file"),
                "measures": ["cosine"],
                "dataset": "toy",
            }
        ),
        encoding="utf-8",
    )
    code = main(
        ["experiment", "--config", str(config_path), "--out-dir", str(tmp_path / "override")]
    )
    assert code == 0
    assert (tmp_path / "override" / "report.csv").exists()
    assert not (tmp_path / "from_file").exists()


def test_seed_is_an_experiment_flag_echoed_into_run_config(tmp_path):
    # Nothing in the pipeline is random or timed, so no command takes a seed
    # or a timing switch, and run_config.json echoes only what changes an output.
    corpus = write_text_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    common = ["--corpus", str(corpus), "--mode", "text-dir", "--out-dir", str(out)]
    stages = {
        "ingest": [],
        "simmatrix": ["--measure", "cosine"],
        "cluster": ["--measure", "cosine"],
        "evaluate": ["--measure", "cosine"],
        "experiment": ["--measures", "cosine"],
    }
    for stage, measure in stages.items():
        for flag in (["--seed", "5"], ["--timing"]):
            assert main([stage, *common, *measure, *flag]) == 1
    assert not out.exists()
    assert main(["experiment", *common, "--measures", "cosine"]) == 0
    echo = json.loads((out / "run_config.json").read_text())
    assert echo["measures"] == ["cosine"]
    assert sorted(echo) == [
        "corpus", "dataset", "k", "linkage", "measures", "mode", "out_dir", "stem", "stopwords",
    ]


# The five flags every command takes (--config also as -c), and the flags
# each command takes besides them.
SHARED_FLAGS = {"--config", "-c", "--corpus", "--mode", "--out-dir", "--dataset"}
COMMAND_FLAGS = {
    "ingest": {"--stopwords", "--stem"},
    "simmatrix": {"--measure"},
    "cluster": {"--measure", "--linkage", "--k"},
    "evaluate": {"--measure"},
    "experiment": {"--stopwords", "--stem", "--linkage", "--k", "--measures"},
}
# Each flag that some command does not take, with a value for it.
FLAG_VALUES = {"--stopwords": ["stop.txt"], "--stem": [], "--linkage": ["single"], "--k": ["2"]}
UNREAD_FLAGS = [
    (command, flag)
    for command, flags in COMMAND_FLAGS.items()
    for flag in FLAG_VALUES
    if flag not in flags
]


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_the_command_takes(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
    assert listed - {"-h", "--help"} == SHARED_FLAGS | COMMAND_FLAGS[command]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_a_flag_the_command_does_not_read_is_a_usage_error(
    tmp_path, capsys, monkeypatch, command, flag
):
    corpus = write_text_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    argv = [command, "--corpus", str(corpus), "--out-dir", str(out)]
    if "--measure" in COMMAND_FLAGS[command]:
        argv += ["--measure", "cosine"]
    assert main(["experiment", "--corpus", str(corpus), "--out-dir", str(out)]) == 0
    before = artifact_bytes(out)
    written = []
    monkeypatch.setattr(cli, "_write", lambda path, text: written.append(path))
    capsys.readouterr()
    assert main([*argv, flag, *FLAG_VALUES[flag]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: unrecognized arguments: ") and flag in err
    assert written == [] and artifact_bytes(out) == before
    assert main(argv) == 0 and written  # without the flag, the command writes


def test_only_ingest_and_experiment_need_a_corpus(tmp_path, capsys):
    corpus = write_text_corpus(tmp_path / "corpus")
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    for command in ("ingest", "experiment"):
        assert main([command, "--out-dir", str(staged)]) == 1
        err = capsys.readouterr().err
        assert err == "usage error: a corpus path is required (flag --corpus or config)\n"
    assert not staged.exists()
    assert main(["experiment", "--corpus", str(corpus), "--out-dir", str(whole)]) == 0
    assert main(["ingest", "--corpus", str(corpus), "--out-dir", str(staged)]) == 0
    for command in ("simmatrix", "cluster", "evaluate"):
        assert main([command, "--out-dir", str(staged), "--measure", "cosine"]) == 0
    staged_files, whole_files = artifact_bytes(staged), artifact_bytes(whole)
    assert "eval_cosine.json" in staged_files
    assert {name: whole_files[name] for name in staged_files} == staged_files


def test_a_config_file_may_hold_every_key_for_every_command(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    argv = ["experiment", "--corpus", str(corpus), "--out-dir", str(whole), "--stem"]
    assert main([*argv, "--linkage", "complete", "--k", "3"]) == 0
    config = ["--config", str(whole / "run_config.json"), "--out-dir", str(staged)]
    assert main(["ingest", *config]) == 0
    for command in ("simmatrix", "cluster", "evaluate"):
        assert main([command, *config, "--measure", "jaccard"]) == 0
    staged_files, whole_files = artifact_bytes(staged), artifact_bytes(whole)
    assert json.loads(staged_files["eval_jaccard.json"])["k"] == 3
    assert {name: whole_files[name] for name in staged_files} == staged_files


def test_zero_valued_flags_are_set_flags(tmp_path):
    corpus = write_text_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"k": 3, "measures": ["cosine"]}), encoding="utf-8")
    common = ["experiment", "--config", str(config_path), "--corpus", str(corpus)]
    # --k 0 is a flag that was set, so it is refused rather than taken as unset.
    assert main([*common, "--out-dir", str(out), "--k", "0"]) == 1
    assert not out.exists()
    # Unset, the file's k = 3 stands, and that run succeeds.
    assert main([*common, "--out-dir", str(out)]) == 0
    assert json.loads((out / "run_config.json").read_text())["k"] == 3


def test_cli_rejects_unknown_config_key(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"corpus": "x", "bogus": 1}), encoding="utf-8")
    assert main(["ingest", "--config", str(config_path)]) == 1


@pytest.mark.parametrize(
    "content, named",
    [
        (None, "config.json"),
        (b"[1]", "config.json"),
        (b'{"corpus": "\xff"}', "config.json"),
        (b'{"corpus": "x", "k": "3"}', "'k'"),
        (b'{"corpus": "x", "k": true}', "'k'"),
        (b'{"corpus": 5}', "'corpus'"),
        (b'{"corpus": "x", "measures": "cosine"}', "'measures'"),
        (b'{"corpus": "x", "measures": ["cosine", 3]}', "'measures'"),
        (b'{"corpus": "x", "stem": "yes"}', "'stem'"),
        (b'{"corpus": "x", "measures": ["cosine", "cosine"]}', "'cosine'"),
        (b"[" * 5000 + b"]" * 5000, "config.json"),
    ],
    ids=["directory", "array", "not-utf8", "k-string", "k-bool", "corpus-number",
         "measures-string", "measures-number", "stem-string", "measures-twice",
         "nested-5000-deep"],
)
def test_malformed_config_file_is_a_usage_error(tmp_path, capsys, content, named):
    config_path = tmp_path / "config.json"
    if content is None:
        config_path.mkdir()
    else:
        config_path.write_bytes(content)
    assert main(["ingest", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert named in err


def test_cli_requires_corpus():
    assert main(["ingest"]) == 1


@pytest.mark.parametrize("mode", sorted(CORPUS_WRITERS))
def test_experiment_writes_what_the_staged_chain_writes(tmp_path, mode):
    corpus = CORPUS_WRITERS[mode](tmp_path / "corpus")
    common = ["--corpus", str(corpus), "--mode", mode, "--dataset", "toy"]
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    assert main(["experiment", *common, "--out-dir", str(whole)]) == 0
    assert main(["ingest", *common, "--out-dir", str(staged)]) == 0
    for measure in MEASURE_CHOICES:
        for stage in ("simmatrix", "cluster", "evaluate"):
            assert main([stage, *common, "--out-dir", str(staged), "--measure", measure]) == 0
    whole_files, staged_files = artifact_bytes(whole), artifact_bytes(staged)
    # report.csv and run_config.json are experiment's own; every other file is shared.
    assert sorted(set(whole_files) - set(staged_files)) == ["report.csv", "run_config.json"]
    assert {name: whole_files[name] for name in staged_files} == staged_files


def test_experiment_reads_no_artifact_back(tmp_path, monkeypatch):
    corpus = write_planted_jsonl(tmp_path / "corpus")
    common = ["experiment", "--corpus", str(corpus), "--mode", "jsonl"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*common, "--out-dir", str(first)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("experiment read an artifact back")

    for name in ("_read", "_read_manifest", "_read_forests", "_read_vectors"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(SimilarityMatrix, "from_csv", refuse)
    assert main([*common, "--out-dir", str(second)]) == 0
    assert (second / "report.csv").read_bytes() == (first / "report.csv").read_bytes()


def test_experiment_builds_every_baseline_matrix_in_one_pass(tmp_path, monkeypatch):
    corpus = write_text_corpus(tmp_path / "corpus")
    calls = []
    pairwise = simbase._pairwise

    def counted(measures, vectors):
        calls.append(list(measures))
        return pairwise(measures, vectors)

    monkeypatch.setattr(simbase, "_pairwise", counted)
    assert main(["experiment", "--corpus", str(corpus), "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == [["euclidean", "cosine", "jaccard", "kld"]]


def test_experiment_with_a_bad_k_or_document_count_writes_nothing(tmp_path, capsys):
    corpus = write_text_corpus(tmp_path / "corpus", dict(list(TEXT_DOCS.items())[:3]))
    out = tmp_path / "out"
    common = ["--corpus", str(corpus), "--out-dir", str(out)]
    assert main(["experiment", *common]) == 0
    write_text_corpus(corpus)  # a fourth document joins the corpus
    before = artifact_bytes(out)
    capsys.readouterr()
    assert main(["experiment", *common, "--k", "9"]) == 2
    assert capsys.readouterr().err == "error: k=9 out of range 1..4\n"
    assert artifact_bytes(out) == before
    # A staged cluster cuts before it writes the dendrogram.
    assert main(["cluster", *common, "--measure", "cosine", "--k", "9"]) == 2
    assert capsys.readouterr().err == "error: k=9 out of range 1..3\n"
    assert artifact_bytes(out) == before
    # A one-document corpus can be ingested, but not clustered.
    one = write_text_corpus(tmp_path / "one", {"d1": TEXT_DOCS["d1"]})
    solo = ["--corpus", str(one), "--out-dir", str(tmp_path / "solo")]
    assert main(["experiment", *solo]) == 2
    assert capsys.readouterr().err == "error: need at least 2 documents to cluster\n"
    assert not (tmp_path / "solo").exists()
    assert main(["ingest", *solo]) == 0


def test_experiment_with_a_missing_stopwords_file_writes_nothing(tmp_path, capsys):
    corpus = write_text_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    common = ["experiment", "--corpus", str(corpus), "--out-dir", str(out)]
    assert main(common) == 0
    before = artifact_bytes(out)
    capsys.readouterr()
    assert main([*common, "--stopwords", str(tmp_path / "none.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: stopwords file not found: ")
    assert artifact_bytes(out) == before


def test_a_failed_experiment_leaves_no_artifact_of_an_earlier_run(tmp_path, capsys):
    corpus = write_text_corpus(tmp_path / "corpus", dict(list(TEXT_DOCS.items())[:3]))
    out = tmp_path / "out"
    common = ["--corpus", str(corpus), "--out-dir", str(out)]
    assert main(["experiment", *common]) == 0
    write_text_corpus(corpus)  # a fourth document joins the corpus
    (out / "eval_kld.json").unlink()
    (out / "eval_kld.json").mkdir()  # an artifact name the run can neither delete nor write
    capsys.readouterr()
    assert main(["experiment", *common]) == 2
    assert "eval_kld.json" in capsys.readouterr().err
    # Every other artifact of the earlier run is deleted before the first write.
    assert artifact_bytes(out) == {}
    (out / "eval_kld.json").rmdir()
    assert main(["experiment", *common]) == 0
    rerun = artifact_bytes(out)
    assert {"report.csv", "run_config.json"} <= rerun.keys()
    shutil.rmtree(out)
    assert main(["experiment", *common]) == 0
    assert rerun == artifact_bytes(out)


def test_an_experiment_that_fails_midway_leaves_only_its_own_artifacts(tmp_path, monkeypatch):
    corpus = write_text_corpus(tmp_path / "corpus", dict(list(TEXT_DOCS.items())[:3]))
    out, clean = tmp_path / "out", tmp_path / "clean"
    assert main(["experiment", "--corpus", str(corpus), "--out-dir", str(out)]) == 0
    write_text_corpus(corpus)  # a fourth document joins the corpus
    assert main(["experiment", "--corpus", str(corpus), "--out-dir", str(clean)]) == 0
    evaluate = cli._evaluate_stage

    def failing(out, measure, manifest, assignment):
        if measure == "kld":
            raise OSError("disk full")
        return evaluate(out, measure, manifest, assignment)

    monkeypatch.setattr(cli, "_evaluate_stage", failing)
    assert main(["experiment", "--corpus", str(corpus), "--out-dir", str(out)]) == 2
    left, want = artifact_bytes(out), artifact_bytes(clean)
    assert "matrix_kld.csv" in left and "matrix_tm-sim.csv" not in left
    assert {name: want.get(name) for name in left} == left


def test_ingest_deletes_every_artifact_of_an_earlier_chain(tmp_path, capsys):
    corpus = write_text_corpus(tmp_path / "corpus", dict(list(TEXT_DOCS.items())[:3]))
    out = tmp_path / "out"
    common = ["--corpus", str(corpus), "--out-dir", str(out)]
    assert main(["experiment", *common, "--measures", "cosine"]) == 0
    (corpus / "d1.txt").write_text(TEXT_DOCS["d4"][0], encoding="utf-8")  # same ids, new text
    (out / "forests" / "gone.json").write_text("{}\n")  # a document no longer in the corpus
    (out / "notes.txt").write_text("not an artifact\n")
    assert main(["ingest", *common]) == 0
    written = ["manifest.json", "vectors.json", *(f"forests/d{k}.json" for k in (1, 2, 3))]
    assert sorted(artifact_bytes(out)) == sorted([*written, "notes.txt"])
    capsys.readouterr()
    assert main(["cluster", *common, "--measure", "cosine"]) == 2
    path = out / "matrix_cosine.csv"
    assert capsys.readouterr().err == f"error: missing {path}; run simmatrix first\n"
    assert main(["simmatrix", *common, "--measure", "cosine"]) == 0
    assert main(["cluster", *common, "--measure", "cosine"]) == 0
    assert (out / "assignment_cosine.csv").read_text("utf-8") == "doc_id,cluster\nd1,0\nd2,1\nd3,0\n"


def _crlf(text: str) -> str:
    return text.replace("\n", "\r\n")


def _lower_cells_with_a_trailing_zero(text: str) -> str:
    """Each cell below the diagonal written as repr(v) + "0" where that keeps v."""
    lines = text.split("\n")
    n = len(lines) - 2  # the header, and the empty text after the last LF
    for i in range(1, n + 1):
        head, *cells = lines[i].rsplit(",", n)  # the doc id may hold a comma
        cells[: i - 1] = [c + "0" if "." in c and "e" not in c else c for c in cells[: i - 1]]
        lines[i] = ",".join([head, *cells])
    return "\n".join(lines)


@pytest.mark.parametrize("rewrite", [_crlf, _lower_cells_with_a_trailing_zero], ids=["crlf", "lower-zero"])
def test_staged_cluster_reads_a_rewritten_matrix_as_the_original(tmp_path, rewrite):
    corpus = write_planted_jsonl(tmp_path / "corpus")
    out = tmp_path / "out"
    common = ["--corpus", str(corpus), "--mode", "jsonl", "--out-dir", str(out)]
    assert main(["experiment", *common, "--measures", "cosine"]) == 0
    cluster = ["cluster", *common, "--measure", "cosine", "--linkage", "complete"]
    assert main(cluster) == 0
    outputs = [out / "dendrogram_cosine.json", out / "assignment_cosine.csv"]
    want = [path.read_bytes() for path in outputs]
    matrix = out / "matrix_cosine.csv"
    text = matrix.read_bytes().decode("utf-8")
    assert rewrite(text) != text
    matrix.write_bytes(rewrite(text).encode("utf-8"))
    for path in outputs:
        path.unlink()
    assert main(cluster) == 0
    assert [path.read_bytes() for path in outputs] == want


# SHA-256 of every clustering artifact that `experiment` writes for
# make_planted_corpus(4, 10, seed=0), recorded when HAC still kept a rank
# array beside the cluster ids to break ties.
GOLDEN_EXPERIMENT_SHA256 = {
    (): {
        "assignment_cosine.csv": "2e5bad17b018b9ee576c261df2017a701646bd501f2ff524f8861ed87eb3055a",
        "assignment_euclidean.csv": "2e5bad17b018b9ee576c261df2017a701646bd501f2ff524f8861ed87eb3055a",
        "assignment_jaccard.csv": "2e5bad17b018b9ee576c261df2017a701646bd501f2ff524f8861ed87eb3055a",
        "assignment_kld.csv": "2e5bad17b018b9ee576c261df2017a701646bd501f2ff524f8861ed87eb3055a",
        "assignment_tm-sim.csv": "2e5bad17b018b9ee576c261df2017a701646bd501f2ff524f8861ed87eb3055a",
        "dendrogram_cosine.json": "5a75b9539642394a2a5b862366ab4968c4b2e4e9f72edb3d1abdf29da2a7cbea",
        "dendrogram_euclidean.json": "96d77575c4f4b85a38682efa7bca4ab7679b8f2c1a6e1283839f2225ea96458a",
        "dendrogram_jaccard.json": "44b592379d06fc8c0dbf5fb0bc89ef4026207932e66d403c8ed04d77dc93b350",
        "dendrogram_kld.json": "224bfd233f7e139e896a2b6677db5fbb92b4e3d3edaa616e985d3ba81694b960",
        "dendrogram_tm-sim.json": "0613b00d62316d563273130d6f843b0fac0efdfbc617270af7a303e5a0bb5d6f",
        "eval_cosine.json": "03319d71b2172bfcfc31fe24609ef5e8a89fee57543d63ce0731b4c732b6d9fc",
        "eval_euclidean.json": "8d73284f5ea3c911a12eac82a989d229086ad3c3d8ee9af6382562339a35bfc5",
        "eval_jaccard.json": "a945073021731993c321d45e9a60104e507860bb7934562bd5e50adc5ef0d2fa",
        "eval_kld.json": "eca406061c8ba048322f4f6646d0fec9610bb1c07d488b4140fb807d227637ae",
        "eval_tm-sim.json": "df99b3020ff5e2052edfec0973900e9c8e59ceaf09aad9f7156cb7b5604568cb",
        "report.csv": "97c8a8af5a74a5fb64f4e31d4b631c2b031cc94716b6996a3c04ad8e0217394d",
    },
    # Cut below the class count, so that a cluster mixes two classes.
    ("--linkage", "complete", "--k", "3"): {
        "assignment_cosine.csv": "f759c19279c746b19b87b93fb18c359de87aeb273ad4ad89e4b189aeafe351ed",
        "assignment_euclidean.csv": "f759c19279c746b19b87b93fb18c359de87aeb273ad4ad89e4b189aeafe351ed",
        "assignment_jaccard.csv": "f759c19279c746b19b87b93fb18c359de87aeb273ad4ad89e4b189aeafe351ed",
        "assignment_kld.csv": "bf98a0a8771f1e36a1fc2ea46d54beec4baf50cc409f95ad1740d47ce749e372",
        "assignment_tm-sim.csv": "d2e04263fd54f00bb1385d6b1eda1ec7a902ca0c8a09ded5d53939280f0205ff",
        "dendrogram_cosine.json": "e7e7f07eafe215a167aaa0e7fc0dd362da65719bec32105f90952569e2c9be55",
        "dendrogram_euclidean.json": "09ca9279a49516c81b5a6d9e51f34bfa83fcfdfd4a659615c1056410e75da918",
        "dendrogram_jaccard.json": "d92f323c2b3252bc9979c6b247d1b6ca450a72c184650951befdd33a053644b1",
        "dendrogram_kld.json": "08da60613892d60ab273c95abc6a45c7574ef2cf3adf09843912e9109e8f2bf6",
        "dendrogram_tm-sim.json": "684faa71af8169fc5156ff1b8097112fd9e4eb06bf47a71fda82c64cdec20b75",
        "eval_cosine.json": "253b476741281e54f4d395fc05d85de540b2f729625c58b9f9b5c6c1e5a65dac",
        "eval_euclidean.json": "d2c96ff993e39548a679338826ba9d90155332e9530f801f71e189edda35f492",
        "eval_jaccard.json": "f067044f97e3000f3023fa925e807588d0605607291664fc8f4b50a85d28a4a4",
        "eval_kld.json": "678de33b390205b4a97a14016fd2151f42c2dc5c02b34131d59a7c56860ec4cb",
        "eval_tm-sim.json": "f1734b61b3d5c410efe7289d2914b94598193064de831c6f579170b1525dd36d",
        "report.csv": "c61e32f444a67ea45ef8cc290205aad5f0794d5bb57341ae51025f3f95d3268c",
    },
}


@pytest.mark.parametrize("flags", list(GOLDEN_EXPERIMENT_SHA256), ids=["default", "complete-k3"])
def test_golden_planted_experiment(tmp_path, flags):
    corpus = write_jsonl(make_planted_corpus(4, 10, seed=0), tmp_path / "planted.jsonl")
    out = tmp_path / "out"
    common = ["--corpus", str(corpus), "--mode", "jsonl", "--out-dir", str(out)]
    assert main(["experiment", *common, *flags]) == 0
    patterns = ("dendrogram_*.json", "assignment_*.csv", "eval_*.json", "report.csv")
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for pattern in patterns
        for path in out.glob(pattern)
    }
    assert digests == GOLDEN_EXPERIMENT_SHA256[flags]


def _bom_input(tmp_path: Path, corpus: Path, case: str) -> tuple[Path, list[str]]:
    """The file that `case` reads, and the flags that make a run read it."""
    if case == "jsonl":
        return corpus, []
    if case == "stopwords":
        path = tmp_path / "stop.txt"
        path.write_text("red\nsoup\n", encoding="utf-8")
        return path, ["--stopwords", str(path)]
    if case == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"corpus": str(corpus), "mode": "text-dir"}), encoding="utf-8")
        return path, ["--config", str(path)]
    path = corpus / "labels.csv"
    if case == "labels-no-header":
        path.write_text(path.read_text("utf-8").split("\n", 1)[1], encoding="utf-8")
    return path, []


@pytest.mark.parametrize("case", ["labels", "labels-no-header", "jsonl", "stopwords", "config"])
def test_a_leading_byte_order_mark_is_not_data(tmp_path, capsys, case):
    mode = "jsonl" if case == "jsonl" else "text-dir"
    corpus = CORPUS_WRITERS[mode](tmp_path / "corpus")
    path, flags = _bom_input(tmp_path, corpus, case)
    if case != "config":
        flags += ["--corpus", str(corpus), "--mode", mode]
    assert main(["ingest", *flags, "--out-dir", str(tmp_path / "plain")]) == 0
    path.write_bytes("\ufeff".encode("utf-8") + path.read_bytes())
    assert main(["ingest", *flags, "--out-dir", str(tmp_path / "bom")]) == 0
    assert capsys.readouterr().err == ""
    assert artifact_bytes(tmp_path / "bom") == artifact_bytes(tmp_path / "plain")


def test_staged_forest_with_a_bad_node_exits_2_naming_the_file(tmp_path, capsys):
    corpus = write_text_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    common = ["--corpus", str(corpus), "--mode", "text-dir", "--out-dir", str(out)]
    assert main(["ingest", *common]) == 0
    path = out / "forests" / "d2.json"
    forest = json.loads(path.read_text("utf-8"))
    forest["children"][0]["label"] = 7
    path.write_text(json.dumps(forest), encoding="utf-8")
    capsys.readouterr()
    assert main(["simmatrix", *common, "--measure", "tm-sim"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {path}: bad tree node in fixture for 'd2'")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("mode", ["text-dir", "xtm-dir"])
def test_labels_csv_duplicate_and_stray_ids_are_warned(tmp_path, capsys, mode):
    corpus = CORPUS_WRITERS[mode](tmp_path / "corpus")
    first = sorted(p.stem for p in corpus.iterdir() if p.name != "labels.csv")[0]
    with (corpus / "labels.csv").open("a", encoding="utf-8") as handle:
        handle.write(f"{first},relabelled\nghost,pets\n")
    out = tmp_path / "out"
    assert main(["ingest", "--corpus", str(corpus), "--mode", mode, "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: labels.csv lists document {first!r} more than once; the last row wins",
        "warning: labels.csv names 'ghost', which is not a document of the corpus",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["labels"][first] == "relabelled"
    assert "ghost" not in manifest["doc_ids"]


def _truncate(path: Path) -> None:
    path.write_text(path.read_text("utf-8")[:-10], encoding="utf-8")


def _ragged_row(path: Path) -> None:
    lines = path.read_text("utf-8").splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _non_numeric_cell(path: Path) -> None:
    lines = path.read_text("utf-8").splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",high"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _no_cluster_column(path: Path) -> None:
    lines = path.read_text("utf-8").splitlines()
    lines[1] = lines[1].split(",")[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _not_utf8(path: Path) -> None:
    path.write_bytes(b"\xff" + path.read_bytes())


def _delete(path: Path) -> None:
    path.unlink()


def _nest_deeply(path: Path) -> None:
    path.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")


def _rename_docs(path: Path) -> None:
    """Rename every doc id d<n> to old<n>, as if left by a run over other documents."""
    path.write_text(re.sub(r"\bd(\d)\b", r"old\1", path.read_text("utf-8")), encoding="utf-8")


# The stage whose run writes each stage input.
WRITTEN_BY = {
    "manifest.json": "ingest",
    "forests/d1.json": "ingest",
    "vectors.json": "ingest",
    "matrix_cosine.csv": "simmatrix",
    "assignment_cosine.csv": "cluster",
}


@pytest.mark.parametrize(
    "name, corrupt, stage, measure",
    [
        ("manifest.json", _truncate, "simmatrix", "cosine"),
        ("forests/d1.json", _truncate, "simmatrix", "tm-sim"),
        ("vectors.json", _truncate, "simmatrix", "cosine"),
        ("matrix_cosine.csv", _ragged_row, "cluster", "cosine"),
        ("matrix_cosine.csv", _non_numeric_cell, "cluster", "cosine"),
        ("assignment_cosine.csv", _no_cluster_column, "evaluate", "cosine"),
        ("vectors.json", _not_utf8, "simmatrix", "cosine"),
        ("matrix_cosine.csv", _not_utf8, "cluster", "cosine"),
        ("manifest.json", _delete, "simmatrix", "cosine"),
        ("forests/d1.json", _delete, "simmatrix", "tm-sim"),
        ("vectors.json", _delete, "simmatrix", "cosine"),
        ("matrix_cosine.csv", _delete, "cluster", "cosine"),
        ("assignment_cosine.csv", _delete, "evaluate", "cosine"),
        ("matrix_cosine.csv", _rename_docs, "cluster", "cosine"),
        ("assignment_cosine.csv", _rename_docs, "evaluate", "cosine"),
        ("vectors.json", _nest_deeply, "simmatrix", "cosine"),
        ("forests/d1.json", _nest_deeply, "simmatrix", "tm-sim"),
    ],
    ids=[
        "manifest", "forest", "vectors", "matrix-ragged", "matrix-text", "assignment",
        "vectors-not-utf8", "matrix-not-utf8", "manifest-missing", "forest-missing",
        "vectors-missing", "matrix-missing", "assignment-missing", "matrix-stale",
        "assignment-stale", "vectors-nested", "forest-nested",
    ],
)
def test_corrupt_stage_input_exits_2_naming_the_file(tmp_path, capsys, name, corrupt, stage, measure):
    corpus = write_text_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    common = ["--corpus", str(corpus), "--mode", "text-dir", "--out-dir", str(out)]
    assert main(["experiment", *common, "--measures", "cosine,tm-sim"]) == 0
    corrupt(out / name)
    before = artifact_bytes(out)
    capsys.readouterr()
    assert main([stage, *common, "--measure", measure]) == 2
    assert artifact_bytes(out) == before
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / name) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    if corrupt is _delete:
        assert err == f"error: missing {out / name}; run {WRITTEN_BY[name]} first\n"
    if corrupt is _rename_docs:
        assert err.endswith(f"; run {WRITTEN_BY[name]} again\n")
    if corrupt is _nest_deeply:
        assert err.startswith(f"error: bad {out / name}: ")


def _weight(value):
    """Set the weight of d1's first term to `value`; the error must name both."""

    def reshape(vectors: dict) -> dict:
        entries = vectors["vectors"]["d1"]
        entries[min(entries)] = value
        return vectors

    return reshape


def _without_classes(manifest: dict) -> dict:
    del manifest["classes"]
    return manifest


@pytest.mark.parametrize(
    "name, reshape, stage",
    [
        ("vectors.json", lambda vectors: {}, "simmatrix"),
        ("vectors.json", _weight("x"), "simmatrix"),
        ("manifest.json", lambda manifest: [], "simmatrix"),
        ("manifest.json", _without_classes, "cluster"),
        ("vectors.json", _weight(math.nan), "simmatrix"),
        ("vectors.json", _weight(math.inf), "simmatrix"),
        ("vectors.json", _weight(-math.inf), "simmatrix"),
        ("vectors.json", _weight(0), "simmatrix"),
        ("vectors.json", _weight(-1.5), "simmatrix"),
    ],
    ids=[
        "vectors-empty", "vectors-weight-text", "manifest-list", "manifest-no-classes",
        "vectors-weight-nan", "vectors-weight-infinity", "vectors-weight-minus-infinity",
        "vectors-weight-zero", "vectors-weight-negative",
    ],
)
def test_wrongly_shaped_stage_json_exits_2_naming_the_file(tmp_path, capsys, name, reshape, stage):
    corpus = write_text_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    common = ["--corpus", str(corpus), "--mode", "text-dir", "--out-dir", str(out)]
    assert main(["experiment", *common, "--measures", "cosine"]) == 0
    path = out / name
    stored = json.loads(path.read_text("utf-8"))
    path.write_text(json.dumps(reshape(stored)), encoding="utf-8")
    capsys.readouterr()
    assert main([stage, *common, "--measure", "cosine"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    if reshape.__name__ == "reshape":  # a _weight case names the document and the term
        assert "'d1'" in err and repr(min(stored["vectors"]["d1"])) in err


def _corpus_file(name: str, corrupt=_not_utf8):
    """Corrupt one file of a corpus directory; the error must name it."""

    def apply(corpus: Path) -> tuple[str, list[str]]:
        corrupt(corpus / name)
        return str(corpus / name), []

    return apply


def _stopwords_not_utf8(corpus: Path) -> tuple[str, list[str]]:
    path = corpus.parent / "stop.txt"
    path.write_bytes(b"red\n\xff\n")
    return str(path), ["--stopwords", str(path)]


def _jsonl_not_utf8(corpus: Path) -> tuple[str, list[str]]:
    _not_utf8(corpus)
    return str(corpus), []


def _jsonl_line(line: str, key: str | None = None):
    """Append `line` to a JSONL corpus; the error must name its file and line,
    followed by `key` if one is given."""

    def apply(corpus: Path) -> tuple[str, list[str]]:
        count = len(corpus.read_text("utf-8").splitlines())
        with corpus.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return f"{corpus}:{count + 1}" + (f": {key!r}" if key else ""), []

    return apply


def _jsonl_duplicate_id(corpus: Path) -> tuple[str, list[str]]:
    """Append ids 1 and "1", the same id once read; the second line is named."""
    count = len(corpus.read_text("utf-8").splitlines())
    with corpus.open("a", encoding="utf-8") as handle:
        for doc_id in (1, "1"):
            handle.write(json.dumps({"id": doc_id, "text": "a", "label": "x"}) + "\n")
    return f"{corpus}:{count + 2}: duplicate doc id '1'", []


def _labels_empty_label(corpus: Path) -> tuple[str, list[str]]:
    path = corpus / "labels.csv"
    path.write_text(re.sub(r"(?m)^d1,.*$", "d1,", path.read_text("utf-8")), encoding="utf-8")
    return f"{path}: document 'd1' has an empty label", []


def _long_stem(corpus: Path) -> tuple[str, list[str]]:
    """A legal 255-byte file name whose 251-byte stem is too long for a doc id."""
    path = corpus / ("d" * 251 + ".txt")
    path.write_text("red cars race.", encoding="utf-8")
    return str(path), []


def _tree_line(label) -> str:
    tree = {"label": DOC_ROOT_LABEL, "children": [{"label": label, "children": []}]}
    return json.dumps({"id": "t", "text": "a", "label": "x", "tree": tree})


def _xtm_zoo_a(old: bytes, new: bytes):
    return _corpus_file("zoo_a.xtm", lambda p: p.write_bytes(XTM_ZOO.replace(old, new)))


BAD_TREE = {"label": DOC_ROOT_LABEL, "children": [{"label": "t", "children": 5}]}


@pytest.mark.parametrize(
    "mode, corrupt",
    [
        ("text-dir", _corpus_file("d1.txt")),
        ("text-dir", _corpus_file("labels.csv")),
        ("text-dir", _stopwords_not_utf8),
        ("jsonl", _jsonl_not_utf8),
        ("jsonl", _jsonl_line("5")),
        ("jsonl", _jsonl_line("null")),
        ("jsonl", _jsonl_line('"idtextlabel"')),
        ("jsonl", _jsonl_line(json.dumps({"id": "t", "text": "a", "label": "x", "tree": BAD_TREE}))),
        ("jsonl", _jsonl_line(_tree_line(None))),
        ("jsonl", _jsonl_line(_tree_line(7))),
        ("jsonl", _jsonl_line(json.dumps({"id": "t", "text": "a", "label": None}), "label")),
        ("jsonl", _jsonl_line(json.dumps({"id": "t", "text": ["a"], "label": "x"}), "text")),
        ("jsonl", _jsonl_line(json.dumps({"id": None, "text": "a", "label": "x"}), "id")),
        ("jsonl", _jsonl_line(json.dumps({"id": "t", "text": "a", "label": ""}), "label")),
        ("jsonl", _jsonl_duplicate_id),
        ("text-dir", _labels_empty_label),
        ("xtm-dir", _corpus_file("zoo_a.xtm", lambda p: p.write_bytes(XTM_ZOO[:-12]))),
        (
            "xtm-dir",
            _corpus_file("zoo_b.xtm", lambda p: p.write_bytes(XTM_ZOO.replace(b'"dogs"', b'"cats"'))),
        ),
        ("xtm-dir", _xtm_zoo_a(b'href="#dogs"', b'href="#wolves"')),
        ("xtm-dir", _xtm_zoo_a(b"<value>Cats</value>", b"<value>  </value>")),
        ("text-dir", _long_stem),
    ],
    ids=[
        "txt-not-utf8", "labels-not-utf8", "stopwords-not-utf8", "jsonl-not-utf8",
        "jsonl-number", "jsonl-null", "jsonl-string", "jsonl-tree-children",
        "jsonl-tree-label-null", "jsonl-tree-label-number",
        "jsonl-label-null", "jsonl-text-list", "jsonl-id-null", "jsonl-label-empty",
        "jsonl-duplicate-id", "labels-empty-label",
        "xtm-malformed", "xtm-duplicate-topic", "xtm-unknown-role-topic", "xtm-empty-topic-name",
        "text-dir-long-stem",
    ],
)
def test_bad_corpus_input_exits_2_naming_the_file(tmp_path, capsys, mode, corrupt):
    corpus = CORPUS_WRITERS[mode](tmp_path / "corpus")
    named, flags = corrupt(corpus)
    argv = ["ingest", "--corpus", str(corpus), "--mode", mode, "--out-dir", str(tmp_path / "out")]
    assert main([*argv, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_experiment_writes_a_1000_deep_xtm_hierarchy(tmp_path, capsys):
    corpus = tmp_path / "deep"
    corpus.mkdir()
    # Alphabetic names, so that the documents' term vectors are not empty.
    chain = ["t" + "".join(chr(97 + i // 26**p % 26) for p in (2, 1, 0)) for i in range(1000)]
    for doc_id, names in (("deep", chain), ("shallow", chain[:3])):
        doc = TopicMapDoc(
            doc_id=doc_id,
            topics=[Topic(id=name, name=name) for name in names],
            associations=[
                Association(assoc_type="parent-child", parent_role=parent, child_role=child)
                for parent, child in zip(names, names[1:])
            ],
        )
        (corpus / f"{doc_id}.xtm").write_bytes(serialize_xtm(doc))
    (corpus / "labels.csv").write_text("doc_id,label\ndeep,x\nshallow,y\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["experiment", "--corpus", str(corpus), "--mode", "xtm-dir", "--out-dir", str(out)]) == 0
    text = (out / "forests" / "deep.json").read_text("utf-8")
    # A node's label follows its children, so labels run from the leaf up.
    labels = [json.loads(label) for label in re.findall(r'"label": ("(?:[^"\\]|\\.)*")', text)]
    assert labels == chain[::-1] + [DOC_ROOT_LABEL]
    assert text.endswith('], "label": ' + json.dumps(DOC_ROOT_LABEL) + "}\n")
    assert (out / "report.csv").exists()
    # A staged tm-sim matrix reads the forest back, which json.loads cannot.
    capsys.readouterr()
    staged = ["simmatrix", "--corpus", str(corpus), "--mode", "xtm-dir", "--out-dir", str(out)]
    assert main([*staged, "--measure", "tm-sim"]) == 2
    path = out / "forests" / "deep.json"
    assert capsys.readouterr().err == f"error: bad {path}: input is nested too deeply\n"


def test_every_json_artifact_is_one_canonical_line(tmp_path):
    docs = {
        **TEXT_DOCS,
        "stop": ("the and of it. it is the.", "cooking"),
        "é": ("red soup wins.", "racing"),
    }
    corpus = write_text_corpus(tmp_path / "corpus", docs)
    common = ["--corpus", str(corpus), "--mode", "text-dir"]
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    assert main(["experiment", *common, "--out-dir", str(whole)]) == 0
    assert main(["ingest", *common, "--out-dir", str(staged)]) == 0
    for measure in MEASURE_CHOICES:
        for stage in ("simmatrix", "cluster", "evaluate"):
            assert main([stage, *common, "--out-dir", str(staged), "--measure", measure]) == 0
    names = set()
    for out in (whole, staged):
        for path in out.rglob("*.json"):
            text = path.read_text("utf-8")
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", path
            assert text.count("\n") == 1, path
            names.add(path.relative_to(out).as_posix())
    expected = {"manifest.json", "vectors.json", "run_config.json", "forests/é.json"}
    expected |= {f"{kind}_{m}.json" for kind in ("dendrogram", "eval") for m in MEASURE_CHOICES}
    assert expected <= names
    vectors = json.loads((whole / "vectors.json").read_text("utf-8"))
    assert sorted(vectors) == ["df", "index", "n_docs", "vectors"]
    assert vectors["index"] == {term: i for i, term in enumerate(sorted(vectors["df"]))}
    assert vectors["n_docs"] == len(docs) and vectors["vectors"]["stop"] == {}
    dendrogram = json.loads((whole / "dendrogram_cosine.json").read_text("utf-8"))
    assert dendrogram["n_leaves"] == len(docs) and len(dendrogram["merges"]) == len(docs) - 1


def test_vectors_json_write_holds_less_than_three_times_the_file(tmp_path, monkeypatch):
    corpus = write_jsonl(make_planted_corpus(docs_per_cluster=30), tmp_path / "planted.jsonl")
    vectorize, after = textpipe.vectorize, []

    def traced(*args, **kwargs):
        vectors = vectorize(*args, **kwargs)
        after.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return vectors

    # ingest writes vectors.json, then the small manifest, after vectorize returns.
    monkeypatch.setattr(textpipe, "vectorize", traced)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["ingest", "--corpus", str(corpus), "--mode", "jsonl", "--out-dir", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - after[0]
    finally:
        tracemalloc.stop()
    size = (out / "vectors.json").stat().st_size
    assert size > 100_000
    assert peak < 3 * size


def test_vectors_json_matches_json_dumps_with_an_empty_vector(tmp_path):
    records = [
        {"id": "b", "text": "red cars race fast. red wins again.", "label": "x"},
        {"id": 'a "quoted" id', "text": "soup recipe needs onions.", "label": "y"},
        {"id": "stop", "text": "the and of it. it is the.", "label": "y"},
        {"id": "é", "text": "red soup wins.", "label": "x"},
    ]
    corpus_path = tmp_path / "docs.jsonl"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--corpus", str(corpus_path), "--mode", "jsonl", "--out-dir", str(out)]) == 0
    corpus = textpipe.Corpus(docs=[textpipe.CorpusDoc(r["id"], r["text"], r["label"]) for r in records])
    df, vectors = textpipe.vectorize(corpus)
    assert vectors[2].entries == {}
    expected = {
        "n_docs": len(corpus.docs),
        "df": df,
        "index": {term: i for i, term in enumerate(sorted(df))},
        "vectors": {v.doc_id: v.entries for v in vectors},
    }
    text = (out / "vectors.json").read_text("utf-8")
    assert text == json.dumps(expected, sort_keys=True) + "\n"
    assert '"stop": {}' in text
