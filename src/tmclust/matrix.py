"""The similarity matrix that every measure builds, and its CSV format."""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError

_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def csv_fields(texts: list[str]) -> list[str]:
    """Each text as one CSV field: quoted, with each quote doubled, when it
    holds a comma, a quote, a CR or an LF; as it is otherwise.

    csv.writer with lineterminator "\\n" leaves a CR unquoted before Python
    3.13, and a reader then splits the row there.  On text without a CR
    this gives what csv.writer writes.
    """
    return [
        '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text
        for text in texts
    ]


@dataclass
class SimilarityMatrix:
    measure: str
    doc_ids: list[str]
    values: np.ndarray

    def validate(self) -> None:
        n = len(self.doc_ids)
        if self.values.shape != (n, n):
            raise ValidationError(
                f"matrix shape {self.values.shape} does not match {n} doc ids"
            )
        # NaN compares false, so it fails here rather than as asymmetry below.
        if not np.all((self.values >= 0.0) & (self.values <= 1.0)):
            raise ValidationError(f"{self.measure} matrix has entries outside [0, 1]")
        if not np.array_equal(self.values, self.values.T):
            raise ValidationError(f"{self.measure} matrix is not symmetric")
        if not np.all(np.diag(self.values) == 1.0):
            raise ValidationError(f"{self.measure} matrix diagonal is not 1")

    def to_csv(self) -> str:
        """One `repr(float(v))` per cell; each entry above the diagonal is
        formatted once and mirrored, so the matrix must be symmetric bit for bit.
        Doc ids are written by `csv_fields`."""
        values = np.asarray(self.values, dtype=float)
        if not np.array_equal(values.view(np.int64), values.T.view(np.int64)):
            raise ValidationError(f"{self.measure} matrix is not symmetric")
        cells: list[list[str]] = []
        for i, row in enumerate(values.tolist()):
            cells.append([above[i] for above in cells] + [repr(v) for v in row[i:]])
        ids = csv_fields(self.doc_ids)
        lines = [",".join(["doc_id"] + ids)]
        lines += [doc_id + "," + ",".join(row) for doc_id, row in zip(ids, cells)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, measure: str) -> "SimilarityMatrix":
        """Parse `to_csv` output.  `text` must keep its line endings as
        written: a quoted doc id may hold a CR.

        The header is read as CSV.  Each row must then be in the form
        `to_csv` writes: row i starts with the header's i-th doc id as
        `csv_fields` writes it and a comma, ends at the next LF, and splits
        at commas into exactly n cells.  Each cell on or above the diagonal
        is converted by `float()` once.  A cell below it takes its mirror's
        value when the two texts are equal and is converted by itself
        otherwise, so `validate` judges symmetry by value.  A CRLF file
        reads too: `float()` strips the CR."""
        header, pos = _record(text, 0)
        if header[:1] != ["doc_id"]:
            raise ValidationError("matrix CSV must start with a doc_id header row")
        doc_ids = header[1:]
        if not doc_ids:
            raise ValidationError("matrix CSV header names no doc ids")
        n, rows = len(doc_ids), []
        for doc_id, field in zip(doc_ids, csv_fields(doc_ids)):
            if not text.startswith(field + ",", pos):
                raise _row_error(text, pos, doc_id)
            start = pos + len(field) + 1
            end = text.find("\n", start)
            if end < 0:
                end = len(text)
            pos = end + 1
            cells = text[start:end].split(",")
            if len(cells) != n:
                raise ValidationError(
                    f"matrix CSV has a ragged or non-numeric row: "
                    f"row {doc_id!r} has {len(cells)} cells, not {n}"
                )
            rows.append(cells)
        if pos < len(text):
            raise ValidationError("matrix CSV has a ragged or non-numeric row: text follows the last row")
        try:
            upper = np.fromiter(
                map(float, chain.from_iterable(row[i:] for i, row in enumerate(rows))),
                float,
                n * (n + 1) // 2,
            )
            values = np.empty((n, n))
            on_or_above = np.triu(np.ones((n, n), dtype=bool))
            values[on_or_above] = upper
            values.T[on_or_above] = upper  # each cell below takes its mirror's value
            for i, (row, mirror) in enumerate(zip(rows, zip(*rows))):
                if tuple(row[:i]) != mirror[:i]:
                    for j in range(i):
                        if row[j] != mirror[j]:
                            values[i, j] = float(row[j])
        except ValueError as exc:
            raise ValidationError(f"matrix CSV has a ragged or non-numeric row: {exc}") from exc
        matrix = cls(measure=measure, doc_ids=doc_ids, values=values)
        matrix.validate()
        return matrix


def _record(text: str, pos: int) -> tuple[list[str], int]:
    """The CSV record that starts at `pos` in `text`, and where the text
    after it starts.  csv.reader takes the lines one at a time, each sliced
    from `text` up to and including its LF, so the rest of the text is
    never copied."""
    ends = [pos]

    def lines():
        while ends[-1] < len(text):
            end = text.find("\n", ends[-1]) + 1 or len(text)  # no LF left: to the end
            ends.append(end)
            yield text[ends[-2]:end]

    try:
        return next(csv.reader(lines()), []), ends[-1]
    except csv.Error as exc:
        raise ValidationError(f"matrix CSV is malformed: {exc}") from exc


def _row_error(text: str, pos: int, doc_id: str) -> ValidationError:
    """Why the text at `pos`, where `doc_id`'s row should start, does not
    start with that row in the form `to_csv` writes."""
    try:
        row, _ = _record(text, pos)
    except ValidationError as exc:
        return exc
    if not row:
        return ValidationError(f"matrix CSV has a ragged or non-numeric row: no row for {doc_id!r}")
    if row[0] != doc_id:
        return ValidationError(f"matrix CSV row {row[0]!r} is where the header has {doc_id!r}")
    return ValidationError(f"matrix CSV row {doc_id!r} is not in the form to_csv writes")
