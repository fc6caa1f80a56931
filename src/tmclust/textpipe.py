"""Corpus loading, TF-IDF term vectors, and fallback topic forests."""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import TmclustError, ValidationError
from .xtm import (
    DOC_ROOT_LABEL,
    TopicForest,
    TopicNode,
    derive_forest,
    forest_from_json,
    parse_xtm,
)

# Corpus input modes, as `load_corpus` takes them.
MODES = ("xtm-dir", "text-dir", "jsonl")

# The longest id whose forest file name, id plus ".json", fits the 255-byte
# name limit of common file systems.
_MAX_ID_BYTES = 255 - len(".json")

_TOKEN_RE = re.compile(r"[a-z]+")
_SENTENCE_RE = re.compile(r"[.!?]+")


@lru_cache(maxsize=None)
def default_stopwords() -> frozenset[str]:
    text = resources.files("tmclust.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def read_text(path: str | Path, missing: str) -> str:
    """The one text-file read: UTF-8 with no newline translation, which would
    turn a quoted CR into LF, and with a leading byte-order mark dropped.  A
    missing file raises ValidationError(missing); bytes that are not UTF-8
    raise a ValidationError naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except FileNotFoundError:
        raise ValidationError(missing) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a one-word-per-line stopword file."""
    words = read_text(path, f"stopwords file not found: {path}").splitlines()
    return frozenset(w.strip().lower() for w in words if w.strip())


@dataclass(frozen=True)
class CorpusDoc:
    doc_id: str
    text: str
    label: str


@dataclass
class Corpus:
    docs: list[CorpusDoc]
    name: str = ""

    @property
    def classes(self) -> list[str]:
        return sorted({d.label for d in self.docs})


@dataclass
class TermVector:
    doc_id: str
    entries: dict[str, float]

    @property
    def is_zero(self) -> bool:
        return not self.entries


def light_stem(token: str) -> str:
    """Strip a few common English suffixes; deliberately not a full stemmer."""
    if token.endswith("ies") and len(token) >= 5:
        return token[:-3] + "y"
    if token.endswith("ing") and len(token) >= 6:
        return token[:-3]
    if token.endswith("ed") and len(token) >= 5:
        return token[:-2]
    if token.endswith(("ches", "shes", "sses", "xes", "zes")) and len(token) >= 5:
        return token[:-2]
    if token.endswith("s") and not token.endswith("ss") and len(token) >= 4:
        return token[:-1]
    return token


def tokenize(
    text: str, stopwords: frozenset[str] | None = None, stem: bool = False
) -> list[str]:
    """Lower-cased alphabetic tokens, length >= 2, stopwords removed.

    Stemming is off by default; `stem=True` applies `light_stem` to the
    surviving tokens.
    """
    stop = default_stopwords() if stopwords is None else stopwords
    tokens = [
        tok
        for tok in _TOKEN_RE.findall(text.lower())
        if len(tok) >= 2 and tok not in stop
    ]
    if stem:
        tokens = [light_stem(tok) for tok in tokens]
    return tokens


def vectorize(
    corpus: Corpus, stopwords: frozenset[str] | None = None, stem: bool = False
) -> tuple[dict[str, int], list[TermVector]]:
    """Document frequencies (sorted by term) and TF-IDF vectors, one per
    document, with weight(t, d) = tf(t, d) * ln(1 + N / df(t)).

    Documents with no surviving tokens get empty (zero) vectors; callers
    can detect them via `TermVector.is_zero`.
    """
    if not corpus.docs:
        raise ValidationError("cannot vectorize an empty corpus")
    doc_terms = [Counter(tokenize(doc.text, stopwords, stem)) for doc in corpus.docs]
    df: Counter[str] = Counter()
    for counts in doc_terms:
        df.update(counts.keys())
    n_docs = len(corpus.docs)
    idf = {term: math.log(1.0 + n_docs / count) for term, count in df.items()}
    vectors = [
        TermVector(doc.doc_id, {term: tf * idf[term] for term, tf in sorted(counts.items())})
        for doc, counts in zip(corpus.docs, doc_terms)
    ]
    return dict(sorted(df.items())), vectors


def build_fallback_forest(
    doc_id: str, text: str, stopwords: frozenset[str] | None = None, stem: bool = False
) -> TopicForest:
    """Deterministic two-level topic forest for plain text.

    Each sentence contributes one depth-1 topic: the sentence token that is
    most frequent in the whole document (ties to the lexicographically
    smallest).  The sentence's remaining distinct tokens become that topic's
    children; repeated topics merge and their child sets union.
    """
    sentence_tokens = [tokenize(s, stopwords, stem) for s in _SENTENCE_RE.split(text)]
    doc_counts: Counter[str] = Counter()
    for tokens in sentence_tokens:
        doc_counts.update(tokens)

    children_of: dict[str, set[str]] = {}
    for tokens in sentence_tokens:
        if not tokens:
            continue
        distinct = set(tokens)
        topic = min(distinct, key=lambda t: (-doc_counts[t], t))
        children_of.setdefault(topic, set()).update(distinct - {topic})

    root = TopicNode(label=DOC_ROOT_LABEL)
    for topic in sorted(children_of):
        node = TopicNode(label=topic)
        node.children = [TopicNode(label=c) for c in sorted(children_of[topic])]
        root.children.append(node)
    return TopicForest(doc_id=doc_id, root=root)


def read_labels(path: Path, doc_ids: list[str]) -> dict[str, str]:
    """Read labels.csv (doc_id,label rows) for the documents `doc_ids`.

    Only the first row can be the optional header `doc_id,label`; a later
    such row labels a document named `doc_id`.  A document without a label
    is an error.  An id listed twice keeps its last row and an id that names
    no document is ignored; each prints a `warning:` line on stderr.
    """
    text = read_text(path, f"labels file not found: {path}")
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    if rows[:1] == [["doc_id", "label"]]:
        del rows[0]
    labels: dict[str, str] = {}
    for row in rows:
        if len(row) < 2:
            raise ValidationError(f"{path}: bad row {row!r}")
        if row[0] in labels:
            print(
                f"warning: labels.csv lists document {row[0]!r} more than once; "
                "the last row wins",
                file=sys.stderr,
            )
        labels[row[0]] = row[1]
    for doc_id in doc_ids:
        if doc_id not in labels:
            raise ValidationError(f"{path}: no row for document {doc_id!r}")
        if not labels[doc_id]:
            raise ValidationError(f"{path}: document {doc_id!r} has an empty label")
    known = set(doc_ids)
    for doc_id in labels:
        if doc_id not in known:
            print(
                f"warning: labels.csv names {doc_id!r}, which is not a document of the corpus",
                file=sys.stderr,
            )
    return labels


def _check_doc_id(doc_id: str) -> str:
    """Return `doc_id` if it can name its forest file, `forests/<id>.json`."""
    try:
        size = len(doc_id.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, which no file name holds
        size = _MAX_ID_BYTES + 1
    if "/" in doc_id or "\0" in doc_id or size > _MAX_ID_BYTES:
        raise ValidationError(
            f"doc id {doc_id!r} cannot be a file name: it holds '/', NUL or a lone "
            f"surrogate, or is over {_MAX_ID_BYTES} UTF-8 bytes"
        )
    return doc_id


def _jsonl_record(line: str) -> tuple[CorpusDoc, TopicForest | None]:
    """One JSONL corpus line: the document and the forest its "tree" pins."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ValidationError("record is not a JSON object")
    for key, kinds in (("id", (str, int)), ("text", (str,)), ("label", (str,))):
        if key not in record:
            raise ValidationError(f"record missing {key!r}")
        if type(record[key]) not in kinds:  # so true/false is no integer id
            wanted = "a JSON string or integer" if int in kinds else "a JSON string"
            raise ValidationError(f"{key!r} must be {wanted}")
    if not record["label"]:
        raise ValidationError("'label' is empty")
    doc_id = _check_doc_id(str(record["id"]))
    doc = CorpusDoc(doc_id, record["text"], record["label"])
    return doc, forest_from_json(doc_id, record["tree"]) if "tree" in record else None


def load_corpus(
    path: str | Path, mode: str, name: str = ""
) -> tuple[Corpus, dict[str, TopicForest]]:
    """Load a corpus in one of `MODES`, with the forests its input pins.

    `jsonl` is one file with one {"id", "text", "label"} object per line,
    "text" and "label" JSON strings and "id" a string or an integer; an
    optional "tree" field in the JSON tree fixture form pins the document's
    forest.  An id names the document's forest file, so it may hold neither
    '/', NUL nor a lone surrogate, and its UTF-8 form is at most 250 bytes;
    it may not repeat (`1` and "1" are one id), and a label may not be empty.
    `text-dir` and `xtm-dir` are a directory of `*.txt` or `*.xtm` files plus
    labels.csv, read by `read_labels`; a document's id is its file stem, under
    the same rule as a JSONL id, checked before labels.csv is read.  An
    XTM document's forest is derived from its topic map, and its vector text
    is its topic names plus its occurrence values.  Every text file is read
    by `read_text`, and a data error names the file at fault (a JSONL error
    names its line too, and so does a JSONL line nested too deeply to parse).
    `name` defaults to the path's stem.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    base = Path(path)
    missing = f"corpus path not found: {base}"
    if not base.exists():
        raise ValidationError(missing)
    docs: list[CorpusDoc] = []
    trees: dict[str, TopicForest] = {}
    if mode == "jsonl":
        first_line: dict[str, int] = {}
        # newline=None splits lines as a file opened in text mode does.
        lines = io.StringIO(read_text(base, missing), newline=None)
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc, tree = _jsonl_record(line)
            except RecursionError:
                raise ValidationError(f"{base}:{lineno}: input is nested too deeply") from None
            except ValidationError as exc:
                raise ValidationError(f"{base}:{lineno}: {exc}") from exc
            if doc.doc_id in first_line:
                raise ValidationError(
                    f"{base}:{lineno}: duplicate doc id {doc.doc_id!r} "
                    f"(first on line {first_line[doc.doc_id]})"
                )
            first_line[doc.doc_id] = lineno
            docs.append(doc)
            if tree is not None:
                trees[doc.doc_id] = tree
    else:
        paths = sorted(base.glob("*.xtm" if mode == "xtm-dir" else "*.txt"))
        for doc_path in paths:
            try:
                _check_doc_id(doc_path.stem)
            except ValidationError as exc:
                raise ValidationError(f"{doc_path}: {exc}") from exc
        labels = read_labels(base / "labels.csv", [p.stem for p in paths]) if paths else {}
        for doc_path in paths:
            doc_id = doc_path.stem
            if mode == "xtm-dir":
                try:
                    parsed = parse_xtm(doc_path.read_bytes(), doc_id=doc_id)
                except TmclustError as exc:
                    raise ValidationError(f"{doc_path}: {exc}") from exc
                trees[doc_id] = derive_forest(parsed)
                words = [t.name for t in parsed.topics] + [o.value for o in parsed.occurrences]
                text = " ".join(words)
            else:
                text = read_text(doc_path, f"document not found: {doc_path}")
            docs.append(CorpusDoc(doc_id=doc_id, text=text, label=labels[doc_id]))
    if not docs:
        raise ValidationError(f"no documents found in {base}")
    return Corpus(docs=docs, name=name or base.stem), trees
