"""Command-line pipeline: ingest, simmatrix, cluster, evaluate, experiment.

Every stage writes plain JSON/CSV artifacts to the output directory.  Run
separately, each stage after ingest reads its inputs from those artifacts,
and a missing one names the stage to run first.  `ingest` and `experiment`
start a chain, so each first deletes every artifact of an earlier one and a
later stage never reads another run's artifacts; `experiment` passes each
stage's result to the next in memory, so it writes every artifact once and
reads none back.  Outputs are byte-identical across runs given the same
inputs.  One function writes every artifact and one reads each back.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import typing
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields
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
            raise UsageError(f"mode must be one of {textpipe.MODES}, got {self.mode!r}")
        if not self.measures:
            raise UsageError("measures must be non-empty")
        for measure in self.measures:
            if measure not in MEASURE_CHOICES:
                raise UsageError(f"unknown measure {measure!r}")
            if self.measures.count(measure) > 1:
                raise UsageError(f"measures lists {measure!r} more than once")
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
            loaded = json.loads(path.read_bytes().decode("utf-8-sig"))
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise UsageError(f"bad config file {path}: {exc}") from exc
        except RecursionError:
            raise UsageError(f"bad config file {path}: input is nested too deeply") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        hints = typing.get_type_hints(ExperimentConfig)
        for key, value in loaded.items():
            if key not in hints:
                raise UsageError(f"unknown config key {key!r}")
            if not _fits(value, hints[key]):
                wanted = ExperimentConfig.__annotations__[key]
                raise UsageError(f"config key {key!r} must be {wanted}, got {value!r}")
            values[key] = value
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
    config.dataset = config.dataset or Path(config.corpus).stem
    return config


def _write(path: Path, text: str | Iterable[str]) -> None:
    """The one artifact write: UTF-8, with line endings as `text` has them.
    Pieces of text are written one at a time, so they need not all be held."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.writelines([text] if isinstance(text, str) else text)


def _write_json(path: Path, obj: dict) -> None:
    """The one JSON artifact form: one canonical line, written by the C encoder."""
    _write(path, json.dumps(obj, sort_keys=True) + "\n")


def _vectors_json(df: dict, vectors: list[textpipe.TermVector]) -> Iterator[str]:
    """`json.dumps(obj, sort_keys=True)` plus a newline for the `vectors.json`
    object, in pieces: the C encoder holds every chunk of what it encodes
    until the end, so each vector is encoded on its own."""
    yield '{"df": ' + json.dumps(df, sort_keys=True)
    yield ', "index": ' + json.dumps({t: i for i, t in enumerate(df)}, sort_keys=True)
    yield f', "n_docs": {len(vectors)}, "vectors": {{'
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


def _ingest_stage(
    config: ExperimentConfig, corpus: textpipe.Corpus, trees: dict, stopwords: frozenset | None
) -> tuple[dict, list, list]:
    """Delete an earlier chain's artifacts, then write the forests, vectors and
    manifest of a loaded corpus; return the manifest, the forests (none unless
    tm-sim is measured) and the vectors, in doc order."""
    out = Path(config.out_dir)
    _delete_artifacts(out)
    (out / "forests").mkdir(parents=True, exist_ok=True)

    forests = []
    for doc in corpus.docs:
        forest = trees.get(doc.doc_id)
        if forest is None:
            forest = textpipe.build_fallback_forest(doc.doc_id, doc.text, stopwords, config.stem)
        _write(out / "forests" / f"{doc.doc_id}.json", xtm.forest_json_text(forest))
        # Only tm-sim reads forests; without it each one is dropped once written.
        if treesim.TM_MEASURE in config.measures:
            forests.append(forest)

    df, vectors = textpipe.vectorize(corpus, stopwords, config.stem)
    empty = [v.doc_id for v in vectors if v.is_zero]
    for doc_id in empty:
        print(f"warning: document {doc_id!r} has an empty term vector", file=sys.stderr)
    _write(out / "vectors.json", _vectors_json(df, vectors))
    manifest = {
        "dataset": corpus.name,
        "mode": config.mode,
        "doc_ids": [d.doc_id for d in corpus.docs],
        "labels": {d.doc_id: d.label for d in corpus.docs},
        "classes": corpus.classes,
        "n_docs": len(corpus.docs),
        "empty_docs": empty,
    }
    _write_json(out / "manifest.json", manifest)
    return manifest, forests, vectors


def cmd_ingest(config: ExperimentConfig) -> Path:
    """Persist forests, vectors, and the corpus manifest."""
    corpus, trees = textpipe.load_corpus(config.corpus, config.mode, config.dataset)
    stopwords = None if config.stopwords is None else textpipe.load_stopwords(config.stopwords)
    _ingest_stage(config, corpus, trees, stopwords)
    return Path(config.out_dir)


def _read(path: Path, stage: str) -> str:
    """The one artifact read; `stage` is the stage that writes `path`."""
    return textpipe.read_text(path, f"missing {path}; run {stage} first")


def _read_json(path: Path, stage: str):
    try:
        return json.loads(_read(path, stage))
    except ValueError as exc:
        raise ValidationError(f"bad JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"bad {path}: input is nested too deeply") from None


# The manifest keys that a later stage reads, with the type of each.
_MANIFEST_TYPES = {"classes": list, "dataset": str, "doc_ids": list, "labels": dict}


def _read_manifest(out: Path) -> dict:
    path = out / "manifest.json"
    manifest = _read_json(path, "ingest")
    if not isinstance(manifest, dict):
        raise ValidationError(f"bad {path}: not a JSON object")
    for key, kind in _MANIFEST_TYPES.items():
        if not isinstance(manifest.get(key), kind):
            raise ValidationError(f"bad {path}: {key!r} is not a {kind.__name__}")
    if not all(isinstance(doc_id, str) for doc_id in manifest["doc_ids"]):
        raise ValidationError(f"bad {path}: a doc id is not a str")
    return manifest


def _check_doc_ids(path: Path, doc_ids: list[str], manifest: dict, stage: str) -> None:
    """Refuse a stage input left by a run over other documents than the manifest's."""
    if doc_ids != manifest["doc_ids"]:
        raise ValidationError(f"stale {path}: doc ids differ from manifest.json; run {stage} again")


def _read_forests(out: Path, doc_ids: list[str]) -> list[xtm.TopicForest]:
    forests = []
    for doc_id in doc_ids:
        path = out / "forests" / f"{doc_id}.json"
        stored = _read_json(path, "ingest")
        try:
            forests.append(xtm.forest_from_json(doc_id, stored))
        except ValidationError as exc:
            raise ValidationError(f"bad {path}: {exc}") from exc
        except RecursionError:  # json.loads may read deeper than forest_from_json
            raise ValidationError(f"bad {path}: input is nested too deeply") from None
    return forests


def _read_vectors(out: Path, doc_ids: list[str]) -> list[textpipe.TermVector]:
    path = out / "vectors.json"
    stored = _read_json(path, "ingest")
    stored = stored.get("vectors") if isinstance(stored, dict) else None
    if not isinstance(stored, dict):
        raise ValidationError(f"bad {path}: no \"vectors\" object")
    vectors = []
    for doc_id in doc_ids:
        if doc_id not in stored:
            raise ValidationError(f"bad {path}: no vector stored for document {doc_id!r}")
        vector = stored[doc_id]
        if not isinstance(vector, dict):
            raise ValidationError(f"bad {path}: vector of {doc_id!r} is not a JSON object")
        entries = {}
        for term, weight in vector.items():
            try:
                entries[term] = float(weight) if type(weight) in (int, float) else math.nan
            except OverflowError:  # an integer beyond the float range
                entries[term] = math.inf
            if not 0.0 < entries[term] < math.inf:  # NaN fails too
                raise ValidationError(
                    f"bad {path}: vector of {doc_id!r}: weight {weight!r} of term {term!r} "
                    "is not a finite number > 0"
                )
        vectors.append(textpipe.TermVector(doc_id, entries))
    return vectors


def cmd_simmatrix(config: ExperimentConfig, measure: str) -> Path:
    """Build and persist one measure's similarity matrix."""
    out = Path(config.out_dir)
    doc_ids = _read_manifest(out)["doc_ids"]
    if measure == treesim.TM_MEASURE:
        matrix = treesim.build_matrix(_read_forests(out, doc_ids))
    else:
        matrix = simbase.build_matrix_base(measure, _read_vectors(out, doc_ids))
    path = out / f"matrix_{measure}.csv"
    _write(path, matrix.to_csv())
    return path


def _cluster_stage(
    out: Path, matrix: SimilarityMatrix, linkage: str, k: int
) -> _cluster.ClusterAssignment:
    """Cluster one matrix, write the dendrogram and the cut, return the cut."""
    dendrogram = _cluster.hac(matrix, linkage)
    assignment = _cluster.cut(dendrogram, k)
    _write_json(
        out / f"dendrogram_{matrix.measure}.json",
        {"merges": dendrogram.merges, "n_leaves": dendrogram.n_leaves},
    )
    rows = zip(matrix.doc_ids, map(str, assignment.labels))
    _write(out / f"assignment_{matrix.measure}.csv", _csv_text([("doc_id", "cluster"), *rows]))
    return assignment


def cmd_cluster(config: ExperimentConfig, measure: str) -> Path:
    """Cluster one measure's matrix and persist the dendrogram and cut."""
    out = Path(config.out_dir)
    manifest = _read_manifest(out)
    path = out / f"matrix_{measure}.csv"
    text = _read(path, "simmatrix")
    try:
        matrix = SimilarityMatrix.from_csv(text, measure)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    _check_doc_ids(path, matrix.doc_ids, manifest, "simmatrix")
    _cluster_stage(out, matrix, config.linkage, config.k or len(manifest["classes"]))
    return out / f"assignment_{measure}.csv"


def _evaluate_stage(
    out: Path, measure: str, manifest: dict, assignment: _cluster.ClusterAssignment
) -> evalx.EvalReport:
    """Score an assignment of the manifest's documents and write the scores."""
    doc_ids = manifest["doc_ids"]
    gold = [manifest["labels"].get(doc_id) for doc_id in doc_ids]
    report = evalx.evaluate(assignment, gold, measure, manifest["dataset"], doc_ids=doc_ids)
    _write_json(out / f"eval_{measure}.json", report.to_json())
    return report


def cmd_evaluate(config: ExperimentConfig, measure: str) -> evalx.EvalReport:
    """Score one measure's assignment against the gold labels and print the scores."""
    out = Path(config.out_dir)
    manifest = _read_manifest(out)
    path = out / f"assignment_{measure}.csv"
    text = _read(path, "cluster")
    try:
        lines = csv.reader(io.StringIO(text, newline=""))
        rows = [row for row in lines if row and row != ["doc_id", "cluster"]]
        doc_ids = [row[0] for row in rows]
        labels = [int(row[1]) for row in rows]
    except (csv.Error, IndexError, ValueError) as exc:
        raise ValidationError(f"bad row in {path}: {exc}") from exc
    _check_doc_ids(path, doc_ids, manifest, "cluster")
    assignment = _cluster.ClusterAssignment(k=len(set(labels)), labels=labels)
    report = _evaluate_stage(out, measure, manifest, assignment)
    print(
        f"{report.dataset} {report.measure} k={report.k} "
        f"purity={report.purity:.4f} entropy={report.entropy:.4f}"
    )
    return report


def cmd_experiment(config: ExperimentConfig) -> Path:
    """Run every configured measure end to end, passing results in memory."""
    corpus, trees = textpipe.load_corpus(config.corpus, config.mode, config.dataset)
    stopwords = None if config.stopwords is None else textpipe.load_stopwords(config.stopwords)
    n, k = len(corpus.docs), config.k or len(corpus.classes)
    if n < 2:  # the checks of hac and cut, made before anything is written
        raise ValidationError("need at least 2 documents to cluster")
    if k > n:
        raise ValidationError(f"k={k} out of range 1..{n}")
    out = Path(config.out_dir)
    manifest, forests, vectors = _ingest_stage(config, corpus, trees, stopwords)
    rows = [("dataset", "measure", "linkage", "k", "purity", "entropy")]
    # Every baseline matrix comes from one pass over one term index.
    baselines = [m for m in config.measures if m != treesim.TM_MEASURE]
    matrices = simbase.build_matrices_base(baselines, vectors) if baselines else {}
    for measure in config.measures:
        matrix = matrices.pop(measure) if measure in matrices else treesim.build_matrix(forests)
        _write(out / f"matrix_{measure}.csv", matrix.to_csv())
        assignment = _cluster_stage(out, matrix, config.linkage, k)
        report = _evaluate_stage(out, measure, manifest, assignment)
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
