"""Command-line pipeline: ingest, simmatrix, cluster, evaluate, experiment.

Every stage writes plain JSON/CSV artifacts to the output directory.  Run
separately, each stage after ingest reads its inputs from those artifacts,
and a missing one names the stage to run first.  `ingest` and `experiment`
start a chain, so each first deletes every artifact of an earlier one and a
later stage never reads another run's artifacts; `experiment` passes each
stage's result to the next in memory, so it writes every artifact once and
reads none back.  Outputs are byte-identical across runs given the same
inputs.  One function writes every artifact and one reads each back.  A
rerun stage rewrites its artifacts in place and cuts each to its new
length; a write that fails part-way removes its file, so no stage leaves a
partial artifact.  Nothing is fsynced.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import reprlib
import sys
import typing
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import cluster as _cluster
from . import evalx, simbase, textpipe, treesim, xtm
from .errors import TmclustError, ValidationError
from .matrix import SimilarityMatrix, csv_fields

MEASURE_CHOICES = (*simbase.MEASURES, treesim.TM_MEASURE)


class UsageError(Exception):
    """Bad flags or config; exits with status 1."""


@dataclass
class ExperimentConfig:
    corpus: str = ""
    mode: str = "text-dir"
    measures: list[str] = field(default_factory=lambda: list(MEASURE_CHOICES))
    linkage: str = "average"
    k: int | None = None
    out_dir: str = "out"
    dataset: str = ""
    stopwords: str | None = None
    stem: bool = False

    def validate(self) -> None:
        if self.mode not in textpipe.MODES:
            raise UsageError(f"mode must be one of {textpipe.MODES}, got {reprlib.repr(self.mode)}")
        if not self.measures:
            raise UsageError("measures must be non-empty")
        for measure in self.measures:
            if measure not in MEASURE_CHOICES:
                raise UsageError(f"unknown measure {reprlib.repr(measure)}")
            if self.measures.count(measure) > 1:
                raise UsageError(f"measures lists {reprlib.repr(measure)} more than once")
        if self.linkage not in _cluster.LINKAGES:
            raise UsageError(f"linkage must be one of {_cluster.LINKAGES}")
        if self.k is not None and self.k < 1:
            raise UsageError("k must be >= 1")


def _fits(value, hint) -> bool:
    """Whether a config file's JSON value has the field type `hint`."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return type(value) is list and all(_fits(v, args[0]) for v in value)
    if args:  # a union such as `int | None`
        return any(_fits(value, arg) for arg in args)
    return type(value) is hint


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            with textpipe.parsing(path, f"config file not found: {path}") as text:
                values = json.loads(text)
                if not isinstance(values, dict):
                    raise ValidationError("must hold a JSON object")
                hints = typing.get_type_hints(ExperimentConfig)
                for key, value in values.items():
                    if key not in hints:
                        raise ValidationError(f"unknown config key {reprlib.repr(key)}")
                    if not _fits(value, hints[key]):  # a known key is short; a value need not be
                        wanted, got = ExperimentConfig.__annotations__[key], reprlib.repr(value)
                        raise ValidationError(f"config key {key!r} must be {wanted}, got {got}")
        except (OSError, ValidationError) as exc:  # a bad config file is a usage error
            raise UsageError(str(exc)) from exc
    for name in (f.name for f in fields(ExperimentConfig)):
        # An unset flag is None, or False for a switch; the file's value stands.
        flag = getattr(args, name, None)
        if flag is None or flag is False:
            continue
        if name == "measures":
            flag = [m.strip() for m in flag.split(",") if m.strip()]
        values[name] = flag
    config = ExperimentConfig(**values)
    if args.command in ("ingest", "experiment") and not config.corpus:
        raise UsageError("a corpus path is required (flag --corpus or config)")
    config.validate()
    return config


def _write(path: Path, text: str | Iterable[str]) -> None:
    """The one artifact write: UTF-8, with line endings as `text` has them.
    Pieces of text are written one at a time, so they need not all be held.

    An existing file is rewritten in place and then cut to the new length if
    it was longer.  Opening it with O_TRUNC instead would make ext4 (with its
    default `auto_da_alloc`) start writeback of the file when it is closed,
    which costs more than the write on a file of a few hundred bytes; so does
    a rename over it.  A fresh file is never cut.  If the write fails part-way,
    the file is removed and the error raised, so no partial artifact is left.
    Nothing is fsynced."""
    # Mode "wb" asks for O_CREAT and O_TRUNC, and O_BINARY where the OS has
    # it (so Windows translates no newline); the opener drops only O_TRUNC.
    handle = open(path, "wb", opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666))
    try:
        with handle:
            for piece in [text] if isinstance(text, str) else text:
                handle.write(piece.encode("utf-8"))
            handle.flush()
            if os.fstat(handle.fileno()).st_size > handle.tell():  # the old file was longer
                handle.truncate()
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _write_json(path: Path, obj: dict) -> None:
    """The one JSON artifact form: one canonical line, written by the C encoder."""
    _write(path, json.dumps(obj, sort_keys=True) + "\n")


def _vectors_json(vectors: list[textpipe.TermVector]) -> Iterator[str]:
    """`json.dumps(obj, sort_keys=True)` plus a newline for the `vectors.json`
    object, in pieces: the C encoder holds every chunk of what it encodes
    until the end, so each vector is encoded on its own.  `index` gives each
    term its place in the sorted union of the vectors' terms."""
    terms = sorted({term for vector in vectors for term in vector.entries})
    yield '{"index": ' + json.dumps({t: i for i, t in enumerate(terms)}, sort_keys=True)
    yield ', "vectors": {'
    for k, vector in enumerate(sorted(vectors, key=lambda v: v.doc_id)):
        entries = json.dumps(vector.entries, sort_keys=True)
        yield (", " if k else "") + json.dumps(vector.doc_id) + ": " + entries
    yield "}}\n"


def _csv_text(rows: list[tuple[str, ...]]) -> str:
    """Rows of text fields as CSV lines, each field written by `csv_fields`."""
    return "".join(",".join(csv_fields(row)) + "\n" for row in rows)


# Every artifact a chain writes, besides forests/<doc_id>.json.
_CHAIN_ARTIFACTS = ("manifest.json", "vectors.json", "run_config.json", "report.csv") + tuple(
    name.format(measure)
    for measure in MEASURE_CHOICES
    for name in ("matrix_{}.csv", "dendrogram_{}.json", "assignment_{}.csv", "eval_{}.json")
)


def _delete_artifacts(out: Path) -> None:
    """Delete every artifact of an earlier chain in `out`, so that a later
    stage reads this chain's artifacts or exits 2 asking for the stage that
    writes them.  Every name is tried; the first failure is raised after."""
    failures = []
    for path in [*(out / name for name in _CHAIN_ARTIFACTS), *(out / "forests").glob("*.json")]:
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            failures.append(exc)
    if failures:
        raise failures[0]


def _load_corpus(config: ExperimentConfig) -> tuple[ExperimentConfig, list, frozenset | None]:
    """The config with its dataset name, which defaults to the corpus stem,
    then the corpus and the stopwords it names.  A name that UTF-8 cannot
    encode is refused before any file is read."""
    name = config.dataset or Path(config.corpus).stem
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, as argv or a file name can hold
        raise ValidationError(f"dataset name {name!r} cannot be written as UTF-8") from None
    config = replace(config, dataset=name)
    docs = textpipe.load_corpus(config.corpus, config.mode)
    stopwords = None if config.stopwords is None else textpipe.load_stopwords(config.stopwords)
    return config, docs, stopwords


def _ingest_stage(
    config: ExperimentConfig, docs: list[textpipe.CorpusDoc], stopwords: frozenset | None
) -> tuple[dict, list, list]:
    """Delete an earlier chain's artifacts, then write the forests, vectors and
    manifest of a loaded corpus; return the manifest, the forests (none unless
    tm-sim is measured) and the vectors, in doc order."""
    out = Path(config.out_dir)
    _delete_artifacts(out)
    (out / "forests").mkdir(parents=True, exist_ok=True)

    forests, doc_counts, vocab = [], [], {}
    for doc in docs:
        forest, counts = textpipe.analyse(doc.doc_id, doc.text, doc.tree, stopwords, config.stem, vocab)
        doc_counts.append(counts)
        _write(out / "forests" / f"{doc.doc_id}.json", xtm.forest_json_text(forest))
        # Only tm-sim reads forests; without it each one is dropped once written.
        if treesim.TM_MEASURE in config.measures:
            forests.append(forest)

    doc_ids = [d.doc_id for d in docs]
    vectors = textpipe.tfidf(doc_ids, doc_counts)
    for doc_id in (v.doc_id for v in vectors if not v.entries):
        print(f"warning: document {doc_id!r} has an empty term vector", file=sys.stderr)
    _write(out / "vectors.json", _vectors_json(vectors))
    manifest = {
        "dataset": config.dataset,
        "doc_ids": doc_ids,
        "labels": {d.doc_id: d.label for d in docs},
    }
    _write_json(out / "manifest.json", manifest)
    return manifest, forests, vectors


def cmd_ingest(config: ExperimentConfig) -> Path:
    """Persist forests, vectors, and the corpus manifest."""
    _ingest_stage(*_load_corpus(config))
    return Path(config.out_dir)


def _stage_input(path: Path, stage: str, prefix: str = "bad "):
    """`textpipe.parsing` of an input that `stage` writes, named `<prefix><path>`."""
    return textpipe.parsing(path, f"missing {path}; run {stage} first", f"{prefix}{path}")


# The manifest keys, each of which a later stage reads, with the type of each.
_MANIFEST_TYPES = {"dataset": str, "doc_ids": list, "labels": dict}


def _read_manifest(out: Path) -> dict:
    with _stage_input(out / "manifest.json", "ingest") as text:
        manifest = json.loads(text)
        if not isinstance(manifest, dict):
            raise ValidationError("not a JSON object")
        for key, kind in _MANIFEST_TYPES.items():
            if not isinstance(manifest.get(key), kind):
                raise ValidationError(f"{key!r} is not a {kind.__name__}")
        for doc_id in manifest["doc_ids"]:  # each names its forest file, as ingest checks
            if not isinstance(doc_id, str):
                raise ValidationError("a doc id is not a str")
            textpipe._check_doc_id(doc_id)
        if sorted(manifest["labels"]) != sorted(manifest["doc_ids"]):  # as ingest writes them
            raise ValidationError("'labels' does not hold one label per doc id")
        if not all(isinstance(label, str) and label for label in manifest["labels"].values()):
            raise ValidationError("a label is not a non-empty str")
    return manifest


def _check_doc_ids(path: Path, doc_ids: list[str], manifest: dict, stage: str) -> None:
    """Refuse a stage input left by a run over other documents than the manifest's."""
    if doc_ids != manifest["doc_ids"]:
        raise ValidationError(f"stale {path}: doc ids differ from manifest.json; run {stage} again")


def _read_forests(out: Path, doc_ids: list[str]) -> list[xtm.TopicForest]:
    forests = []
    for doc_id in doc_ids:
        with _stage_input(out / "forests" / f"{doc_id}.json", "ingest") as text:
            forests.append(xtm.forest_from_json(doc_id, json.loads(text)))
    return forests


def _read_vectors(out: Path, doc_ids: list[str]) -> list[textpipe.TermVector]:
    with _stage_input(out / "vectors.json", "ingest") as text:
        stored = json.loads(text)
        stored = stored.get("vectors") if isinstance(stored, dict) else None
        if not isinstance(stored, dict):
            raise ValidationError("no \"vectors\" object")
        vectors = []
        for doc_id in doc_ids:
            if doc_id not in stored:
                raise ValidationError(f"no vector stored for document {doc_id!r}")
            vector = stored[doc_id]
            if not isinstance(vector, dict):
                raise ValidationError(f"vector of {doc_id!r} is not a JSON object")
            for term, weight in vector.items():
                # An int compares exactly, so one beyond the float range fails; so does NaN.
                if type(weight) not in (int, float) or not 0 < weight <= sys.float_info.max:
                    raise ValidationError(
                        f"vector of {doc_id!r}: weight {reprlib.repr(weight)} of term "
                        f"{reprlib.repr(term)} is not a finite number > 0"
                    )
            vectors.append(textpipe.TermVector(doc_id, {t: float(w) for t, w in vector.items()}))
    return vectors


def cmd_simmatrix(config: ExperimentConfig, measure: str) -> Path:
    """Build and persist one measure's similarity matrix."""
    out = Path(config.out_dir)
    doc_ids = _read_manifest(out)["doc_ids"]
    if measure == treesim.TM_MEASURE:
        matrix = treesim.build_matrix(_read_forests(out, doc_ids))
    else:
        matrix = simbase.build_matrices_base([measure], _read_vectors(out, doc_ids))[measure]
    path = out / f"matrix_{measure}.csv"
    _write(path, matrix.to_csv())
    return path


def _cluster_stage(out: Path, matrix: SimilarityMatrix, linkage: str, k: int) -> list[int]:
    """Cluster one matrix, write the dendrogram and the cut, return the cut's ids."""
    dendrogram = _cluster.hac(matrix, linkage)
    labels = _cluster.cut(dendrogram, k)
    _write_json(
        out / f"dendrogram_{matrix.measure}.json",
        {"merges": dendrogram.merges, "n_leaves": dendrogram.n_leaves},
    )
    rows = zip(matrix.doc_ids, map(str, labels))
    _write(out / f"assignment_{matrix.measure}.csv", _csv_text([("doc_id", "cluster"), *rows]))
    return labels


def cmd_cluster(config: ExperimentConfig, measure: str) -> Path:
    """Cluster one measure's matrix and persist the dendrogram and cut."""
    out = Path(config.out_dir)
    manifest = _read_manifest(out)
    path = out / f"matrix_{measure}.csv"
    with _stage_input(path, "simmatrix", prefix="") as text:
        matrix = SimilarityMatrix.from_csv(text, measure)
    _check_doc_ids(path, matrix.doc_ids, manifest, "simmatrix")
    _cluster_stage(out, matrix, config.linkage, config.k or len(set(manifest["labels"].values())))
    return out / f"assignment_{measure}.csv"


def _evaluate_stage(out: Path, measure: str, manifest: dict, labels: list[int]) -> evalx.EvalReport:
    """Score the cluster ids of the manifest's documents and write the scores."""
    doc_ids = manifest["doc_ids"]
    gold = [manifest["labels"].get(doc_id) for doc_id in doc_ids]
    report = evalx.evaluate(labels, gold, measure, manifest["dataset"], doc_ids=doc_ids)
    _write_json(out / f"eval_{measure}.json", asdict(report))
    return report


def cmd_evaluate(config: ExperimentConfig, measure: str) -> evalx.EvalReport:
    """Score one measure's assignment against the gold labels and print the scores."""
    out = Path(config.out_dir)
    manifest = _read_manifest(out)
    path = out / f"assignment_{measure}.csv"
    with _stage_input(path, "cluster", prefix="bad row in ") as text:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if rows[:1] == [["doc_id", "cluster"]]:  # the header, only as the first row
            del rows[0]
        labels: list[int] = []
        k = 0  # cut numbers clusters in row order, so a new id is always k
        for row in rows:
            if len(row) != 2:
                raise ValidationError(f"{reprlib.repr(row)} has {len(row)} fields, not 2")
            # The form str() gives a non-negative int; \d would match any digit.
            if not re.fullmatch("0|[1-9][0-9]*", row[1]) or int(row[1]) > k:
                raise ValidationError(f"{reprlib.repr(row)} has a cluster id that cluster does not write")
            labels.append(int(row[1]))
            if labels[-1] == k:
                k += 1
        doc_ids = [row[0] for row in rows]
    _check_doc_ids(path, doc_ids, manifest, "cluster")
    report = _evaluate_stage(out, measure, manifest, labels)
    print(
        f"{report.dataset} {report.measure} k={report.k} "
        f"purity={report.purity:.4f} entropy={report.entropy:.4f}"
    )
    return report


def cmd_experiment(config: ExperimentConfig) -> Path:
    """Run every configured measure end to end, passing results in memory."""
    config, docs, stopwords = _load_corpus(config)
    n, k = len(docs), config.k or len({d.label for d in docs})
    if n < 2:  # the checks of hac and cut, made before anything is written
        raise ValidationError("need at least 2 documents to cluster")
    if k > n:
        raise ValidationError(f"k={k} out of range 1..{n}")
    out = Path(config.out_dir)
    manifest, forests, vectors = _ingest_stage(config, docs, stopwords)
    rows = [("dataset", "measure", "linkage", "k", "purity", "entropy")]
    # Every baseline matrix comes from one pass over one term index.
    baselines = [m for m in config.measures if m != treesim.TM_MEASURE]
    matrices = simbase.build_matrices_base(baselines, vectors) if baselines else {}
    for measure in config.measures:
        matrix = matrices.pop(measure) if measure in matrices else treesim.build_matrix(forests)
        _write(out / f"matrix_{measure}.csv", matrix.to_csv())
        labels = _cluster_stage(out, matrix, config.linkage, k)
        report = _evaluate_stage(out, measure, manifest, labels)
        scores = (repr(report.purity), repr(report.entropy))
        rows.append((report.dataset, report.measure, config.linkage, str(k), *scores))
        print(
            f"{report.dataset} {report.measure} linkage={config.linkage} k={k} "
            f"purity={report.purity:.4f} entropy={report.entropy:.4f}"
        )
    _write_json(out / "run_config.json", asdict(config))
    _write(out / "report.csv", _csv_text(rows))
    return out / "report.csv"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1 for usage errors
        raise UsageError(message)


# Each subcommand's help and action; all but ingest and experiment take --measure.
_SUBCOMMANDS = {
    "ingest": ("parse the corpus into forests and vectors", lambda c, a: cmd_ingest(c)),
    "simmatrix": ("build one similarity matrix", lambda c, a: cmd_simmatrix(c, a.measure)),
    "cluster": ("cluster a similarity matrix", lambda c, a: cmd_cluster(c, a.measure)),
    "evaluate": (
        "score an assignment against gold labels", lambda c, a: cmd_evaluate(c, a.measure)
    ),
    "experiment": ("run every measure end to end", lambda c, a: cmd_experiment(c)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later `main` call."""
    parser = _Parser(prog="tmclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", "-c", help="JSON config file (flags override it)")
        command.add_argument("--corpus", help="corpus path")
        command.add_argument("--mode", choices=textpipe.MODES, help="corpus input mode")
        command.add_argument("--out-dir", dest="out_dir", help="artifact output directory")
        command.add_argument("--dataset", help="dataset name used in reports")
        # Every command takes the flags above, so one argument list serves the
        # whole chain; each takes the flags below only if it reads them.
        if name in ("ingest", "experiment"):
            command.add_argument("--stopwords", help="override stopword list file")
            command.add_argument(
                "--stem", action="store_true", help="apply the light suffix stripper"
            )
        if name in ("cluster", "experiment"):
            command.add_argument("--linkage", choices=_cluster.LINKAGES, help="HAC linkage")
            command.add_argument("--k", type=int, help="cluster count (default: gold classes)")
        if name == "experiment":
            command.add_argument("--measures", help="comma-separated measure list")
        elif name != "ingest":
            command.add_argument("--measure", required=True, choices=MEASURE_CHOICES)
        command.set_defaults(func=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        args.func(config, args)
    except (TmclustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
