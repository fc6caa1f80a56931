"""A seeded fuzz test of the whole CLI over all three corpus modes.

Each trial writes a small random corpus (JSONL with pinned trees, a text
directory or an XTM directory), some trials a `--stopwords` file and some a
`--config` file that names the corpus, now and then with a few bytes of one
of these input files mutated, and runs `experiment` with random measures, k,
linkage and `--stem`.  Every run must end in exit 0, 1 or 2 with no
exception leaving `main`, and a failed run must end its stderr in one
`error:` or `usage error:` line after any `warning:` lines; an error that
names the config file is a usage error.  A run that exits 0 must
write the same bytes when it is run again, and the staged chain (`ingest`,
then `simmatrix`, `cluster` and `evaluate` per measure) must write what
`experiment` wrote, `report.csv` and `run_config.json` aside.  Then one
staged artifact is mutated and each stage that reads it is run again: it
must accept it or exit 2 the same way, with an error line that names it.
In half the trials that artifact is `manifest.json` or `vectors.json`,
mutated as JSON: one of its values becomes a value of another JSON type.

The standard library's `random` drives it all, from fixed seeds.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shlex
from pathlib import Path

from oracles import serialize_xtm

from tmclust.cli import MEASURE_CHOICES, main
from tmclust.xtm import DOC_ROOT_LABEL, Association, Topic, TopicMapDoc

# One trial per seed.
SEEDS = range(100)

WORDS = ["amber", "cedar", "comet", "harbor", "maple", "orbit", "river", "stone", "the", "and", "cities", "running"]
CLASSES = ["red", "blue", "green"]
ODD_IDS = ["a,b", 'q"t', "é", " pad", "x y", "doc_id"]
ASSOCIATION_TYPES = ["broader-narrower", "superclass-subclass", "parent-child", "mentions"]


def _doc_ids(rng: random.Random) -> list[str]:
    ids = [rng.choice(ODD_IDS) if rng.random() < 0.2 else f"d{k}" for k in range(rng.randint(2, 8))]
    return list(dict.fromkeys(ids))


def _text(rng: random.Random) -> str:
    sentences = [" ".join(rng.choices(WORDS, k=rng.randint(0, 6))) for _ in range(rng.randint(0, 4))]
    return rng.choice([". ", "! ", "? ", "\n"]).join(sentences) + rng.choice(["", "."])


def _tree(rng: random.Random) -> dict:
    root = {"label": DOC_ROOT_LABEL, "children": []}
    nodes = [root]
    for _ in range(rng.randint(0, 12)):
        child = {"label": rng.choice("abcde"), "children": []}
        rng.choice(nodes)["children"].append(child)
        nodes.append(child)
    return root


def _labels_csv(labels: dict[str, str]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["doc_id", "label"])
    writer.writerows(labels.items())
    return buf.getvalue().encode("utf-8")


def _xtm(rng: random.Random, doc_id: str) -> bytes:
    topics = [Topic(f"t{k}", rng.choice(WORDS)) for k in range(rng.randint(0, 8))]
    associations = [
        Association(rng.choice(ASSOCIATION_TYPES), rng.choice(topics).id, rng.choice(topics).id)
        for _ in range(rng.randint(0, len(topics)))
    ]
    associations = [a for a in associations if a.parent_role != a.child_role]
    return serialize_xtm(TopicMapDoc(doc_id, topics, associations))


def _corpus(rng: random.Random, base: Path) -> tuple[str, Path, dict[Path, bytes]]:
    """A random corpus under `base`: its mode, its path and its files."""
    mode = rng.choice(["jsonl", "text-dir", "xtm-dir"])
    doc_ids = _doc_ids(rng)
    labels = {doc_id: rng.choice(CLASSES) for doc_id in doc_ids}
    if mode == "jsonl":
        lines = []
        for doc_id in doc_ids:
            record = {"id": int(doc_id[1:]) if doc_id[1:].isdigit() and rng.random() < 0.3 else doc_id}
            record.update(text=_text(rng), label=labels[doc_id])
            if rng.random() < 0.7:
                record["tree"] = _tree(rng)
            lines.append(json.dumps(record, ensure_ascii=rng.random() < 0.5))
        path = base / "corpus.jsonl"
        return mode, path, {path: ("\n".join(lines) + "\n").encode("utf-8")}
    files = {base / "labels.csv": _labels_csv(labels)}
    for doc_id in doc_ids:
        if mode == "text-dir":
            files[base / f"{doc_id}.txt"] = _text(rng).encode("utf-8")
        else:
            files[base / f"{doc_id}.xtm"] = _xtm(rng, doc_id)
    return mode, base, files


def _mutate(rng: random.Random, data: bytes) -> bytes:
    at = rng.randrange(len(data) + 1)
    kind = rng.choice(["flip", "delete", "insert", "truncate", "encoding"])
    if kind == "flip" and data:
        at = min(at, len(data) - 1)
        return data[:at] + bytes([rng.randrange(256)]) + data[at + 1 :]
    if kind == "delete":
        return data[:at] + data[at + rng.randint(1, 8) :]
    if kind == "insert":
        return data[:at] + rng.choice([b",", b'"', b"\n", b"\r", b"{", b"]", b"\xff", b"<", b"0"]) + data[at:]
    if kind == "encoding":
        return data.replace(b"encoding='utf-8'", b"encoding='" + rng.choice([b"UTF98", b"latin-1", b"utf-16"]) + b"'")
    return data[:at]


# One value of each JSON type.
JSON_VALUES = [None, True, 7, "s", [1], {"k": 1}]


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _retyped(rng: random.Random, obj):
    """`obj` with one of its values, the whole of it included, replaced by a
    value of another JSON type."""
    slots, pending = [(None, None)], [obj]  # (container, key) of each value
    for value in pending:
        items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
        for key, child in items:
            slots.append((value, key))
            pending.append(child)
    container, key = rng.choice(slots)
    old = obj if container is None else container[key]
    new = rng.choice([v for v in JSON_VALUES if _json_type(v) != _json_type(old)])
    if container is None:
        return new
    container[key] = new
    return obj


def _flags(rng: random.Random, trial: Path) -> dict[str, str | None]:
    measures = rng.sample(MEASURE_CHOICES, rng.randint(1, len(MEASURE_CHOICES)))
    return {
        "measures": ",".join(measures),
        # A corpus holds at most 8 documents, so k = 0 and k = 9 are refused.
        "k": None if rng.random() < 0.5 else str(rng.randint(0, 9)),
        "linkage": rng.choice([None, "average", "complete", "single"]),
        "stem": rng.choice([False, True]),
        "stopwords": str(trial / "stop.txt") if rng.random() < 0.2 else None,
        "config": str(trial / "config.json") if rng.random() < 0.2 else None,
    }


def _run(capsys, argv: list[str], named: Path | None = None) -> int:
    """Run the CLI; check its exit code and the form of its stderr, and that
    a data error names the file `named`, if one is given."""
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # nothing may leave main
        raise AssertionError(f"tmclust {shlex.join(argv)} raised {exc!r}") from exc
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    if code:
        *warnings, last = err.splitlines() or [""]
        assert last.startswith("usage error: " if code == 1 else "error: "), (argv, err)
        assert all(line.startswith("warning: ") for line in warnings), (argv, err)
        assert err.endswith("\n"), (argv, err)
        assert code == 1 or "config.json" not in last, (argv, err)
    if code == 2 and named is not None:
        assert str(named) in last, (argv, err)
    return code


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def _options(flags: dict, stage: str) -> list[str]:
    """The flags of `flags` that `stage` takes."""
    options = []
    if stage in ("ingest", "experiment") and flags["stem"]:
        options.append("--stem")
    if stage in ("ingest", "experiment") and flags["stopwords"]:
        options += ["--stopwords", flags["stopwords"]]
    if stage in ("cluster", "experiment"):
        options += [item for key in ("k", "linkage") if flags[key] for item in (f"--{key}", flags[key])]
    if stage == "experiment":
        options += ["--measures", flags["measures"]]
    return options


def _staged_inputs(out: Path, measures: list[str]) -> list[tuple[Path, str, str]]:
    """Each staged artifact that a later stage reads, that stage and its measure."""
    inputs = [(out / "manifest.json", stage, measures[0]) for stage in ("simmatrix", "cluster", "evaluate")]
    inputs.append((out / "vectors.json", "simmatrix", "cosine"))
    inputs += [(path, "simmatrix", "tm-sim") for path in sorted((out / "forests").glob("*.json"))]
    for measure in measures:
        inputs.append((out / f"matrix_{measure}.csv", "cluster", measure))
        inputs.append((out / f"assignment_{measure}.csv", "evaluate", measure))
    return inputs


def test_random_corpora_run_cleanly_reproducibly_and_as_the_staged_chain(tmp_path, capsys):
    codes = []
    for seed in SEEDS:
        rng = random.Random(seed)
        trial = tmp_path / f"t{seed}"
        mode, corpus, files = _corpus(rng, trial / "corpus")
        flags = _flags(rng, trial)
        common = ["--corpus", str(corpus), "--mode", mode]
        extras = {}
        if flags["stopwords"]:
            words = rng.sample(WORDS, rng.randint(0, 4))
            extras[Path(flags["stopwords"])] = "".join(f"{w}\n" for w in words).encode("utf-8")
        if flags["config"]:
            extras[Path(flags["config"])] = json.dumps({"corpus": str(corpus), "mode": mode}).encode("utf-8")
            common = ["--config", flags["config"]]
        if rng.random() < 0.2:
            path = rng.choice(sorted(files))
            files[path] = _mutate(rng, files[path])
        # A trial has at most one of each, so each is mutated more often than a corpus file.
        for path, data in extras.items():
            files[path] = _mutate(rng, data) if rng.random() < 0.3 else data
        for path, data in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        whole = trial / "whole"
        experiment = ["experiment", *common, "--out-dir", str(whole), *_options(flags, "experiment")]
        code = _run(capsys, experiment)
        codes.append(code)
        if code:
            continue
        written = _artifacts(whole)
        assert _run(capsys, experiment) == 0
        assert _artifacts(whole) == written, seed

        staged = trial / "staged"
        measures = flags["measures"].split(",")
        ingest = ["ingest", *common, "--out-dir", str(staged), *_options(flags, "ingest")]
        assert _run(capsys, ingest) == 0, seed
        for measure in measures:
            for stage in ("simmatrix", "cluster", "evaluate"):
                argv = [stage, *common, "--out-dir", str(staged), "--measure", measure, *_options(flags, stage)]
                assert _run(capsys, argv) == 0, (seed, stage, measure)
        expected = {name: data for name, data in written.items() if name not in ("report.csv", "run_config.json")}
        assert _artifacts(staged) == expected, seed

        # A mutated staged artifact: each stage that reads it accepts it or
        # exits 2 with an error line that names it.
        inputs = _staged_inputs(staged, measures)
        if rng.random() < 0.5:
            path = staged / rng.choice(["manifest.json", "vectors.json"])
            path.write_text(json.dumps(_retyped(rng, json.loads(path.read_text("utf-8")))), encoding="utf-8")
        else:
            path = rng.choice(inputs)[0]
            path.write_bytes(_mutate(rng, path.read_bytes()))
        for read, stage, measure in inputs:
            if read == path:
                argv = [stage, *common, "--out-dir", str(staged), "--measure", measure, *_options(flags, stage)]
                assert _run(capsys, argv, named=path) in (0, 2), (seed, path, stage)
    # The corpora are not all refused: most trials get through.
    assert codes.count(0) > len(codes) // 2
    assert set(codes) == {0, 1, 2}
