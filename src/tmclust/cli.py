"""Command-line pipeline: ingest, simmatrix, cluster, evaluate, experiment.

Every stage writes plain JSON/CSV artifacts to the output directory.  Run
separately, each stage after ingest reads its inputs from those artifacts;
`experiment` passes each stage's result to the next in memory, so it writes
every artifact once and reads none back.  Outputs are byte-identical across
runs given the same inputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import cluster as _cluster
from . import evalx, simbase, textpipe, treesim, xtm
from .errors import TmclustError, ValidationError

MEASURE_CHOICES = ("euclidean", "cosine", "jaccard", "kld", "tm-sim")
MODE_CHOICES = ("xtm-dir", "text-dir", "jsonl")
REPORT_COLUMNS = ("dataset", "measure", "linkage", "k", "purity", "entropy", "seconds")


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
    seed: int = 0
    dataset: str = ""
    stopwords: str | None = None
    stem: bool = False
    timing: bool = False

    def validate(self) -> None:
        if not self.corpus:
            raise UsageError("a corpus path is required (flag --corpus or config)")
        if self.mode not in MODE_CHOICES:
            raise UsageError(f"mode must be one of {MODE_CHOICES}, got {self.mode!r}")
        if not self.measures:
            raise UsageError("measures must be non-empty")
        for measure in self.measures:
            if measure not in MEASURE_CHOICES:
                raise UsageError(f"unknown measure {measure!r}")
        if self.linkage not in _cluster.LINKAGES:
            raise UsageError(f"linkage must be one of {_cluster.LINKAGES}")
        if self.k is not None and self.k < 1:
            raise UsageError("k must be >= 1")


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad config JSON in {path}: {exc}") from exc
        known = {f.name for f in fields(ExperimentConfig)}
        for key, value in loaded.items():
            if key not in known:
                raise UsageError(f"unknown config key {key!r}")
            values[key] = value
    for name in (
        "corpus", "mode", "linkage", "k", "out_dir", "seed",
        "dataset", "stopwords",
    ):
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if getattr(args, "measures", None) is not None:
        values["measures"] = [m.strip() for m in args.measures.split(",") if m.strip()]
    if getattr(args, "stem", False):
        values["stem"] = True
    if getattr(args, "timing", False):
        values["timing"] = True
    config = ExperimentConfig(**values)
    if not config.dataset:
        config.dataset = Path(config.corpus).stem if config.corpus else ""
    config.validate()
    return config


def _load_corpus(config: ExperimentConfig) -> tuple[textpipe.Corpus, dict[str, xtm.TopicForest]]:
    base = Path(config.corpus)
    if not base.exists():
        raise ValidationError(f"corpus path not found: {base}")
    if config.mode == "jsonl":
        return textpipe.load_jsonl(base, name=config.dataset)
    if config.mode == "text-dir":
        return textpipe.load_text_dir(base, name=config.dataset), {}
    return _load_xtm_dir(base, config.dataset)


def _load_xtm_dir(base: Path, name: str) -> tuple[textpipe.Corpus, dict[str, xtm.TopicForest]]:
    paths = sorted(base.glob("*.xtm"))
    if not paths:
        raise ValidationError(f"no documents found under {base}")
    labels = textpipe.read_labels(base / "labels.csv", [path.stem for path in paths])
    docs = []
    trees: dict[str, xtm.TopicForest] = {}
    for path in paths:
        doc_id = path.stem
        parsed = xtm.parse_xtm(path.read_bytes(), doc_id=doc_id)
        trees[doc_id] = xtm.derive_forest(parsed)
        # Vector text for XTM input: topic names plus occurrence values.
        words = [t.name for t in parsed.topics] + [o.value for o in parsed.occurrences]
        docs.append(
            textpipe.CorpusDoc(doc_id=doc_id, text=" ".join(words), label=labels[doc_id])
        )
    corpus = textpipe.Corpus(docs=docs, name=name)
    corpus.validate()
    return corpus, trees


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _flat_json(obj: dict, inner: str) -> str:
    """`obj`, a dict of scalars, as `json.dumps(..., sort_keys=True, indent=2)`
    formats it where its items start at newline-and-indent `inner`."""
    if not obj:
        return "{}"
    # Without `indent`, json.dumps runs the C encoder.
    text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
    return "{" + inner + text[1:-1] + inner[:-2] + "}"


def _vectors_json(vocab: textpipe.Vocabulary, vectors: list[textpipe.TermVector]) -> str:
    """The vectors.json text, byte for byte what `_write_json` would write."""
    stored = ",\n    ".join(
        json.dumps(v.doc_id) + ": " + _flat_json(v.entries, "\n      ")
        for v in sorted(vectors, key=lambda v: v.doc_id)
    )
    return (
        '{\n  "df": ' + _flat_json(vocab.df, "\n    ")
        + ',\n  "index": ' + _flat_json(vocab.index, "\n    ")
        + ',\n  "n_docs": ' + json.dumps(vocab.n_docs)
        + ',\n  "vectors": {\n    ' + stored + "\n  }\n}\n"
    )


def _ingest_stage(config: ExperimentConfig) -> tuple[Path, dict, list, list]:
    """Write forests, vectors and the manifest; return the out dir, the manifest,
    the forests (none unless tm-sim is measured) and the vectors, in doc order."""
    corpus, trees = _load_corpus(config)
    stopwords = None if config.stopwords is None else textpipe.load_stopwords(config.stopwords)
    out = Path(config.out_dir)
    (out / "forests").mkdir(parents=True, exist_ok=True)

    forests = []
    for doc in corpus.docs:
        forest = trees.get(doc.doc_id)
        if forest is None:
            forest = textpipe.build_fallback_forest(doc.doc_id, doc.text, stopwords, config.stem)
        (out / "forests" / f"{doc.doc_id}.json").write_text(
            xtm.forest_json_text(forest), encoding="utf-8"
        )
        # Only tm-sim reads forests; without it each one is dropped once written.
        if treesim.TM_MEASURE in config.measures:
            forests.append(forest)

    vocab, vectors = textpipe.vectorize(corpus, stopwords, config.stem)
    empty = [v.doc_id for v in vectors if v.is_zero]
    for doc_id in empty:
        print(f"warning: document {doc_id!r} has an empty term vector", file=sys.stderr)
    (out / "vectors.json").write_text(_vectors_json(vocab, vectors), encoding="utf-8")
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
    return out, manifest, forests, vectors


def cmd_ingest(config: ExperimentConfig) -> Path:
    """Persist forests, vectors, and the corpus manifest."""
    return _ingest_stage(config)[0]


def _read_json(path: Path):
    try:
        return json.loads(path.read_text("utf-8"))
    except ValueError as exc:
        raise ValidationError(f"bad JSON in {path}: {exc}") from exc


def _read_manifest(out: Path) -> dict:
    path = out / "manifest.json"
    if not path.exists():
        raise ValidationError(f"no manifest at {path}; run ingest first")
    return _read_json(path)


def _read_forests(out: Path, doc_ids: list[str]) -> list[xtm.TopicForest]:
    forests = []
    for doc_id in doc_ids:
        path = out / "forests" / f"{doc_id}.json"
        if not path.exists():
            raise ValidationError(f"missing forest file {path}")
        forests.append(xtm.forest_from_json(doc_id, _read_json(path)))
    return forests


def _read_vectors(out: Path, doc_ids: list[str]) -> list[textpipe.TermVector]:
    path = out / "vectors.json"
    if not path.exists():
        raise ValidationError(f"no vectors at {path}; run ingest first")
    stored = _read_json(path)["vectors"]
    vectors = []
    for doc_id in doc_ids:
        if doc_id not in stored:
            raise ValidationError(f"no vector stored for document {doc_id!r}")
        entries = {t: float(w) for t, w in stored[doc_id].items()}
        vectors.append(textpipe.TermVector.make(doc_id, entries))
    return vectors


def _matrix_stage(out: Path, measure: str, items: list) -> treesim.SimilarityMatrix:
    """Build one measure's matrix from forests (tm-sim) or vectors and write it."""
    if measure == treesim.TM_MEASURE:
        matrix = treesim.build_matrix(items)
    else:
        matrix = simbase.build_matrix_base(measure, items)
    (out / f"matrix_{measure}.csv").write_text(matrix.to_csv(), encoding="utf-8")
    return matrix


def cmd_simmatrix(config: ExperimentConfig, measure: str) -> Path:
    """Build and persist one measure's similarity matrix."""
    out = Path(config.out_dir)
    doc_ids = _read_manifest(out)["doc_ids"]
    read = _read_forests if measure == treesim.TM_MEASURE else _read_vectors
    _matrix_stage(out, measure, read(out, doc_ids))
    return out / f"matrix_{measure}.csv"


def _resolve_k(config: ExperimentConfig, manifest: dict) -> int:
    return config.k if config.k is not None else len(manifest["classes"])


def _cluster_stage(
    out: Path, matrix: treesim.SimilarityMatrix, linkage: str, k: int
) -> _cluster.ClusterAssignment:
    """Cluster one matrix, write the dendrogram and the cut, return the cut."""
    dendrogram = _cluster.hac(matrix, linkage)
    (out / f"dendrogram_{matrix.measure}.json").write_text(
        dendrogram.to_json_text(), encoding="utf-8"
    )
    assignment = _cluster.cut(dendrogram, k)
    rows = [
        f"{doc_id},{cluster}\n"
        for doc_id, cluster in zip(treesim.csv_fields(matrix.doc_ids), assignment.labels)
    ]
    (out / f"assignment_{matrix.measure}.csv").write_text(
        "doc_id,cluster\n" + "".join(rows), encoding="utf-8", newline=""
    )
    return assignment


def cmd_cluster(config: ExperimentConfig, measure: str) -> Path:
    """Cluster one measure's matrix and persist the dendrogram and cut."""
    out = Path(config.out_dir)
    manifest = _read_manifest(out)
    matrix_path = out / f"matrix_{measure}.csv"
    if not matrix_path.exists():
        raise ValidationError(f"missing matrix {matrix_path}; run simmatrix first")
    try:
        # Decoded without newline translation, which would turn a quoted CR into LF.
        text = matrix_path.read_bytes().decode("utf-8")
        matrix = treesim.SimilarityMatrix.from_csv(text, measure)
    except (UnicodeDecodeError, ValidationError) as exc:
        raise ValidationError(f"{matrix_path}: {exc}") from exc
    _cluster_stage(out, matrix, config.linkage, _resolve_k(config, manifest))
    return out / f"assignment_{measure}.csv"


def _evaluate_stage(
    out: Path, measure: str, manifest: dict, doc_ids: list[str],
    assignment: _cluster.ClusterAssignment,
) -> evalx.EvalReport:
    """Score an assignment of `doc_ids` against the gold labels and write it."""
    gold = [manifest["labels"].get(doc_id) for doc_id in doc_ids]
    report = evalx.evaluate(assignment, gold, measure, manifest["dataset"], doc_ids=doc_ids)
    _write_json(out / f"eval_{measure}.json", report.to_json())
    return report


def cmd_evaluate(config: ExperimentConfig, measure: str) -> evalx.EvalReport:
    """Score one measure's assignment against the gold labels."""
    out = Path(config.out_dir)
    manifest = _read_manifest(out)
    path = out / f"assignment_{measure}.csv"
    if not path.exists():
        raise ValidationError(f"missing assignment {path}; run cluster first")
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            rows = [row for row in csv.reader(handle) if row and row != ["doc_id", "cluster"]]
        doc_ids = [row[0] for row in rows]
        labels = [int(row[1]) for row in rows]
    except (csv.Error, IndexError, ValueError) as exc:
        raise ValidationError(f"bad row in {path}: {exc}") from exc
    assignment = _cluster.ClusterAssignment(k=len(set(labels)), labels=labels)
    return _evaluate_stage(out, measure, manifest, doc_ids, assignment)


def cmd_experiment(config: ExperimentConfig) -> Path:
    """Run every configured measure end to end, passing results in memory."""
    out, manifest, forests, vectors = _ingest_stage(config)
    k = _resolve_k(config, manifest)
    rows = []
    for measure in config.measures:
        started = time.perf_counter()
        items = forests if measure == treesim.TM_MEASURE else vectors
        matrix = _matrix_stage(out, measure, items)
        assignment = _cluster_stage(out, matrix, config.linkage, k)
        report = _evaluate_stage(out, measure, manifest, matrix.doc_ids, assignment)
        rows.append((report, time.perf_counter() - started if config.timing else 0.0))
    _write_json(out / "run_config.json", asdict(config))
    report_path = out / "report.csv"
    with report_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for report, secs in rows:
            writer.writerow([
                report.dataset, report.measure, config.linkage, k,
                repr(report.purity), repr(report.entropy), f"{secs:.3f}",
            ])
            print(
                f"{report.dataset} {report.measure} linkage={config.linkage} k={k} "
                f"purity={report.purity:.4f} entropy={report.entropy:.4f}"
            )
    return report_path


def _print_report(report: evalx.EvalReport) -> None:
    print(
        f"{report.dataset} {report.measure} k={report.k} "
        f"purity={report.purity:.4f} entropy={report.entropy:.4f}"
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1 for usage errors
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", "-c", help="JSON config file (flags override it)")
    parser.add_argument("--corpus", help="corpus path")
    parser.add_argument("--mode", choices=MODE_CHOICES, help="corpus input mode")
    parser.add_argument("--out-dir", dest="out_dir", help="artifact output directory")
    parser.add_argument("--dataset", help="dataset name used in reports")
    parser.add_argument("--stopwords", help="override stopword list file")
    parser.add_argument(
        "--stem", action="store_true", help="apply the light suffix stripper"
    )
    parser.add_argument("--linkage", choices=_cluster.LINKAGES, help="HAC linkage")
    parser.add_argument("--k", type=int, help="cluster count (default: gold classes)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later `main` call."""
    parser = _Parser(prog="tmclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse the corpus into forests and vectors")
    _add_common(p_ingest)
    p_ingest.set_defaults(func=lambda cfg, args: cmd_ingest(cfg))

    p_matrix = sub.add_parser("simmatrix", help="build one similarity matrix")
    _add_common(p_matrix)
    p_matrix.add_argument("--measure", required=True, choices=MEASURE_CHOICES)
    p_matrix.set_defaults(func=lambda cfg, args: cmd_simmatrix(cfg, args.measure))

    p_cluster = sub.add_parser("cluster", help="cluster a similarity matrix")
    _add_common(p_cluster)
    p_cluster.add_argument("--measure", required=True, choices=MEASURE_CHOICES)
    p_cluster.set_defaults(func=lambda cfg, args: cmd_cluster(cfg, args.measure))

    p_eval = sub.add_parser("evaluate", help="score an assignment against gold labels")
    _add_common(p_eval)
    p_eval.add_argument("--measure", required=True, choices=MEASURE_CHOICES)
    p_eval.set_defaults(func=lambda cfg, args: _print_report(cmd_evaluate(cfg, args.measure)))

    p_exp = sub.add_parser("experiment", help="run every measure end to end")
    _add_common(p_exp)
    p_exp.add_argument("--seed", type=int, help="seed echoed into run_config.json")
    p_exp.add_argument("--measures", help="comma-separated measure list")
    p_exp.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock seconds in the report (breaks byte-identical reruns)",
    )
    p_exp.set_defaults(func=lambda cfg, args: cmd_experiment(cfg))

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
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
