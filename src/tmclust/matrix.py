"""The similarity matrix that every measure builds, and its CSV format."""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

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
        written: a quoted doc id may hold a CR.  Row i must carry the
        header's i-th doc id."""
        try:
            rows = list(csv.reader(io.StringIO(text)))
        except csv.Error as exc:
            raise ValidationError(f"matrix CSV is malformed: {exc}") from exc
        if not rows or rows[0][:1] != ["doc_id"]:
            raise ValidationError("matrix CSV must start with a doc_id header row")
        doc_ids = rows[0][1:]
        try:
            # One call for every cell; numpy converts a str as float() does.
            values = np.array([row[1:] for row in rows[1:]], dtype=float)
        except ValueError as exc:
            raise ValidationError(f"matrix CSV has a ragged or non-numeric row: {exc}") from exc
        for doc_id, row in zip(doc_ids, rows[1:]):
            row_id = row[0] if row else ""
            if row_id != doc_id:
                raise ValidationError(
                    f"matrix CSV row {row_id!r} is where the header has {doc_id!r}"
                )
        matrix = cls(measure=measure, doc_ids=doc_ids, values=values)
        matrix.validate()
        return matrix
