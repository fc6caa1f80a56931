"""Corpus loading, TF-IDF term vectors, and fallback topic forests."""

from __future__ import annotations

import csv
import io
import json
import math
import re
import reprlib
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import TmclustError, ValidationError
from .xtm import DOC_ROOT_LABEL, TopicForest, derive_forest, forest_from_json, parse_xtm

# Corpus input modes, as `load_corpus` takes them.
MODES = ("xtm-dir", "text-dir", "jsonl")

# The longest id whose forest file name, id plus ".json", fits the 255-byte
# name limit of common file systems.
_MAX_ID_BYTES = 255 - len(".json")

# A word, or a run of '.', '!' and '?', which ends a sentence.  Lowering makes
# and removes none of the three, so lowering first splits as splitting first.
_TOKEN_RE = re.compile(r"[a-z]+|[.!?]+")


@lru_cache(maxsize=None)
def default_stopwords() -> frozenset[str]:
    text = resources.files("tmclust.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


# What a parse raises on a file that is not in the form it reads.
_BAD_INPUT = (
    ValueError, RecursionError, OverflowError, csv.Error, ET.ParseError, LookupError, TmclustError
)


@contextmanager
def parsing(path: str | Path, missing: str, named: str | None = None, *, xml: bool = False):
    """The one read of an input or artifact file, for the `with` block that
    parses it: the block gets the file's text, UTF-8 with a leading
    byte-order mark dropped and no newline translation (which would turn a
    quoted CR into LF), or with `xml` its bytes, as an XML declaration names
    their encoding.

    The one rule for a bad file: a missing file raises
    ValidationError(missing).  Text that is not UTF-8, or a block that raises
    any of `_BAD_INPUT` (a ValueError such as a JSON error, a RecursionError
    from nesting too deep, an OverflowError, a csv.Error such as a field over
    the csv module's limit, an XML ParseError, a LookupError for an unknown
    XML encoding, or the block's own ValidationError), raises one
    ValidationError whose message starts with the path: `<path>: <reason>`,
    or `<path>:<line>: <reason>` if the block set the error's `line`.  The
    caller may name the file otherwise, as `bad <path>`.  The CLI prints the
    message as one `error:` line and exits 2, or 1 for the `--config` file.
    Any other OSError is raised as it is."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise ValidationError(missing) from None
    try:
        yield data if xml else data.decode("utf-8-sig")
    except _BAD_INPUT as exc:
        line = getattr(exc, "line", None)
        where = f"{path}:{line}" if line else named or path
        reason = "input is nested too deeply" if isinstance(exc, RecursionError) else exc
        raise ValidationError(f"{where}: {reason}") from exc


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a one-word-per-line stopword file."""
    with parsing(path, f"stopwords file not found: {path}") as text:
        return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


@dataclass(frozen=True)
class CorpusDoc:
    doc_id: str
    text: str
    label: str
    tree: TopicForest | None = None  # the forest the input pins; None for the fallback


@dataclass
class TermVector:
    doc_id: str
    entries: dict[str, float]


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


def _sentence_tokens(text: str, stopwords: frozenset[str] | None, stem: bool) -> list[list[str]]:
    """The tokens of `text`, one list per sentence: lower-cased, length >= 2,
    stopwords removed.  A token is a run of the letters a-z after
    lower-casing, so `café` gives `caf`.  With `stem`, `light_stem` applies
    to the surviving tokens."""
    stop = default_stopwords() if stopwords is None else stopwords
    sentences: list[list[str]] = [[]]
    for tok in _TOKEN_RE.findall(text.lower()):
        if tok < "a":  # '.', '!' and '?' sort before every letter
            sentences.append([])
        elif len(tok) >= 2 and tok not in stop:
            sentences[-1].append(light_stem(tok) if stem else tok)
    return sentences


def analyse(
    doc_id: str, text: str, tree: TopicForest | None, stopwords: frozenset | None, stem: bool, vocab: dict
) -> tuple[TopicForest, dict[str, int]]:
    """A document's forest and term counts from one tokenization of `text`.
    Each count key is `vocab`'s string for its term, added on first sight, so
    documents share one string per term.

    The forest is `tree` if the input pins one.  Else it is the fallback
    forest, a deterministic two-level forest: each sentence contributes one
    depth-1 topic, the sentence token that is most frequent in the whole
    document (ties to the lexicographically smallest).  The sentence's
    remaining distinct tokens become that topic's children; repeated topics
    merge and their child sets union.
    """
    sentences = _sentence_tokens(text, stopwords, stem)
    tf = Counter(tok for tokens in sentences for tok in tokens)
    counts = {vocab.setdefault(term, term): n for term, n in tf.items()}
    if tree is not None:
        return tree, counts
    rank = {term: i for i, term in enumerate(sorted(counts, key=lambda t: (-counts[t], t)))}
    children_of: dict[str, set[str]] = {}
    for tokens in filter(None, sentences):
        distinct = set(tokens)
        topic = min(distinct, key=rank.__getitem__)
        children_of.setdefault(topic, set()).update(distinct - {topic})
    topics = sorted(children_of)
    labels, parents = [DOC_ROOT_LABEL, *topics], [-1] + [0] * len(topics)
    for k, topic in enumerate(topics, start=1):
        kids = sorted(children_of[topic])
        labels += kids
        parents += [k] * len(kids)
    return TopicForest(doc_id, labels, parents), counts


def tfidf(doc_ids: list[str], doc_counts: list[dict]) -> list[TermVector]:
    """TF-IDF vectors, one per document, each sorted by term, with
    weight(t, d) = tf(t, d) * ln(1 + N / df(t)).

    Documents with no surviving tokens get empty (zero) vectors.
    """
    df: Counter[str] = Counter()
    for counts in doc_counts:
        df.update(counts.keys())
    idf = {term: math.log(1.0 + len(doc_ids) / count) for term, count in df.items()}
    return [
        TermVector(doc_id, {term: tf * idf[term] for term, tf in sorted(counts.items())})
        for doc_id, counts in zip(doc_ids, doc_counts)
    ]


def read_labels(path: Path, doc_ids: list[str]) -> dict[str, str]:
    """Read labels.csv (doc_id,label rows, exactly two fields each) for the
    documents `doc_ids`.

    Only the first row can be the optional header `doc_id,label`; a later
    such row labels a document named `doc_id`.  A document without a label
    is an error.  An id listed twice keeps its last row and an id that names
    no document is ignored; each prints a `warning:` line on stderr.
    """
    with parsing(path, f"labels file not found: {path}") as text:
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
        if rows[:1] == [["doc_id", "label"]]:
            del rows[0]
        labels: dict[str, str] = {}
        for row in rows:
            if len(row) != 2:
                raise ValidationError(f"bad row {reprlib.repr(row)} has {len(row)} fields, not 2")
            if row[0] in labels:
                print(
                    f"warning: labels.csv lists document {reprlib.repr(row[0])} more than once; "
                    "the last row wins",
                    file=sys.stderr,
                )
            labels[row[0]] = row[1]
        for doc_id in doc_ids:
            if doc_id not in labels:
                raise ValidationError(f"no row for document {doc_id!r}")
            if not labels[doc_id]:
                raise ValidationError(f"document {doc_id!r} has an empty label")
        known = set(doc_ids)
        for doc_id in labels:
            if doc_id not in known:
                print(
                    f"warning: labels.csv names {reprlib.repr(doc_id)}, "
                    "which is not a document of the corpus",
                    file=sys.stderr,
                )
    return labels


def _check_doc_id(doc_id: str, where: str = "") -> str:
    """Return `doc_id` if it can name its forest file, `forests/<id>.json`;
    else raise a ValidationError whose message starts with `where`."""
    try:
        size = len(doc_id.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, which no file name holds
        size = _MAX_ID_BYTES + 1
    if "/" in doc_id or "\0" in doc_id or size > _MAX_ID_BYTES:
        raise ValidationError(
            f"{where}doc id {reprlib.repr(doc_id)} cannot be a file name: it holds '/', NUL or a lone "
            f"surrogate, or is over {_MAX_ID_BYTES} UTF-8 bytes"
        )
    return doc_id


def _jsonl_record(line: str) -> CorpusDoc:
    """One JSONL corpus line: the document, with the forest its "tree" pins."""
    record = json.loads(line)
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
    tree = forest_from_json(doc_id, record["tree"]) if "tree" in record else None
    return CorpusDoc(doc_id, record["text"], record["label"], tree)


def load_corpus(path: str | Path, mode: str) -> list[CorpusDoc]:
    """Load a corpus in one of `MODES`: its documents, each with the forest
    its input pins.

    `jsonl` is one file with one {"id", "text", "label"} object per line,
    "text" and "label" JSON strings and "id" a string or an integer; an
    optional "tree" field in the JSON tree fixture form pins the document's
    forest.  An id names the document's forest file, so it may hold neither
    '/', NUL nor a lone surrogate, and its UTF-8 form is at most 250 bytes;
    it may not repeat (`1` and "1" are one id), and a label may not be empty.
    `text-dir` and `xtm-dir` are a directory of `*.txt` or `*.xtm` files plus
    labels.csv, read by `read_labels`; a document's id is its file stem, under
    the same rule as a JSONL id, checked before labels.csv is read.  A
    text document pins no forest.  An XTM document's forest is derived from
    its topic map, and its vector text is its topic names plus its
    occurrence values.  Every file is read by `parsing`, so a data error
    names the file at fault (a JSONL error its line too).
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    base = Path(path)
    missing = f"corpus path not found: {base}"
    if not base.exists():
        raise ValidationError(missing)
    docs: list[CorpusDoc] = []
    if mode == "jsonl":
        first_line: dict[str, int] = {}
        with parsing(base, missing) as text:
            # newline=None splits lines as a file opened in text mode does.
            for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = _jsonl_record(line)
                    if doc.doc_id in first_line:
                        raise ValidationError(
                            f"duplicate doc id {doc.doc_id!r} "
                            f"(first on line {first_line[doc.doc_id]})"
                        )
                except _BAD_INPUT as exc:
                    exc.line = lineno  # so that parsing names the file as path:line
                    raise
                first_line[doc.doc_id] = lineno
                docs.append(doc)
    else:
        paths = sorted(base.glob("*.xtm" if mode == "xtm-dir" else "*.txt"))
        for doc_path in paths:
            _check_doc_id(doc_path.stem, f"{doc_path}: ")
        labels = read_labels(base / "labels.csv", [p.stem for p in paths]) if paths else {}
        for doc_path in paths:
            doc_id, xml, tree = doc_path.stem, mode == "xtm-dir", None
            with parsing(doc_path, f"document not found: {doc_path}", xml=xml) as text:
                if xml:  # `text` holds the bytes of a topic map
                    parsed = parse_xtm(text, doc_id=doc_id)
                    tree = derive_forest(parsed)
                    words = [t.name for t in parsed.topics] + [o.value for o in parsed.occurrences]
                    text = " ".join(words)
            docs.append(CorpusDoc(doc_id, text, labels[doc_id], tree))
    if not docs:
        raise ValidationError(f"no documents found in {base}")
    return docs
