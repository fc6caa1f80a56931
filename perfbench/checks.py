"""Correctness checks on one repetition's artifacts.

The checks recompute what they can without the program: purity and
entropy from the assignment files and the generated gold labels, a sample
of baseline similarities from the stored term vectors, and, for tm-sim,
the zero pattern and the Dice upper bound implied by each pair's shared
tree labels.  Where a reference was recorded for the workload and seed,
the report and the tm-sim matrix must also match it.  Each function
returns a list of `(operation, message)` failures.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

ENTROPY_TOL = 1e-12
SIM_TOL = 1e-9


def read_assignment(text: str) -> dict[str, int]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r and r != ["doc_id", "cluster"]]
    return {doc_id: int(cluster) for doc_id, cluster in rows}


def purity_entropy(assignment: dict[str, int], labels: dict[str, str]) -> tuple[float, float]:
    """Purity as sum of dominant counts over N; entropy per cluster in
    log base (number of classes), weighted by cluster size."""
    classes = sorted(set(labels.values()))
    table: dict[int, Counter] = {}
    for doc_id, cluster in assignment.items():
        table.setdefault(cluster, Counter())[labels[doc_id]] += 1
    n = len(assignment)
    purity = sum(max(row.values()) for row in table.values()) / n
    entropy = 0.0
    for row in table.values():
        size = sum(row.values())
        h = -sum(c / size * math.log(c / size, len(classes)) for c in row.values())
        entropy += size * h / n
    return purity, entropy


def read_report(text: str) -> dict[str, dict]:
    return {row["measure"]: row for row in csv.DictReader(io.StringIO(text))}


def check_report(
    report_text: str, assignments: dict[str, str], labels: dict[str, str], measures
) -> list[tuple[str, str]]:
    """report.csv against purity/entropy recomputed from the assignments."""
    rows = read_report(report_text)
    k = len(set(labels.values()))
    fails = []
    if list(rows) != list(measures):
        return [("experiment", f"report measures {list(rows)} != {list(measures)}")]
    for measure, row in rows.items():
        fails += _check_scores(
            "experiment", measure, float(row["purity"]), float(row["entropy"]),
            assignments.get(measure), labels, k,
        )
        if int(row["k"]) != k:
            fails.append(("experiment", f"{measure}: report k={row['k']} != {k}"))
    return fails


def check_evals(out: Path, labels: dict[str, str], measures) -> list[tuple[str, str]]:
    """eval_<m>.json from the re-cluster against the assignment on disk."""
    k = len(set(labels.values()))
    fails = []
    for measure in measures:
        path, assign = out / f"eval_{measure}.json", out / f"assignment_{measure}.csv"
        if not path.exists() or not assign.exists():
            fails.append((f"evaluate:{measure}", "missing eval or assignment file"))
            continue
        report = json.loads(path.read_text("utf-8"))
        fails += _check_scores(
            f"evaluate:{measure}", measure, report["purity"], report["entropy"],
            assign.read_text("utf-8"), labels, k,
        )
    return fails


def _check_scores(op, measure, purity, entropy, assignment_text, labels, k):
    if assignment_text is None:
        return [(op, f"{measure}: no assignment file")]
    assignment = read_assignment(assignment_text)
    if set(assignment) != set(labels):
        return [(op, f"{measure}: assignment does not cover the corpus")]
    if sorted(set(assignment.values())) != list(range(k)):
        return [(op, f"{measure}: clusters are not 0..{k - 1}")]
    want_p, want_e = purity_entropy(assignment, labels)
    if purity != want_p or abs(entropy - want_e) > ENTROPY_TOL:
        return [(op, f"{measure}: purity/entropy {purity}/{entropy} != {want_p}/{want_e}")]
    return []


def load_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(path.read_text("utf-8"))))
    return rows[0][1:], np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def _baseline(measure: str, a: dict[str, float], b: dict[str, float]) -> float:
    """The baseline formulas as documented in tmclust.simbase."""
    terms = sorted(set(a) | set(b))
    x = np.array([a.get(t, 0.0) for t in terms])
    y = np.array([b.get(t, 0.0) for t in terms])
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    dot = float(x @ y)
    if measure == "cosine":
        return 0.0 if nx == 0 or ny == 0 else min(1.0, dot / (nx * ny))
    if measure == "euclidean":
        ux = x / nx if nx else x
        uy = y / ny if ny else y
        return 1.0 / (1.0 + float(np.linalg.norm(ux - uy)))
    if measure == "jaccard":
        denom = nx * nx + ny * ny - dot
        return 0.0 if denom == 0 else min(1.0, dot / denom)
    p, q = x / x.sum(), y / y.sum()
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        part = np.where(p > 0, 0.5 * p * np.log2(p / m), 0.0) + np.where(
            q > 0, 0.5 * q * np.log2(q / m), 0.0
        )
    return 1.0 - min(1.0, max(0.0, float(part.sum())))


def check_matrices(
    out: Path, measures, tree_labels: dict[str, list[str]] | None, seed: int, samples: int = 24
) -> list[tuple[str, str]]:
    """Sampled baseline entries and the tm-sim zero pattern and bound."""
    fails = []
    vectors = json.loads((out / "vectors.json").read_text("utf-8"))["vectors"]
    rng = random.Random(seed)
    for measure in measures:
        ids, values = load_matrix(out / f"matrix_{measure}.csv")
        n = len(ids)
        if measure == "tm-sim":
            fails += _check_tm_sim(ids, values, tree_labels)
            continue
        for _ in range(samples):
            i, j = rng.sample(range(n), 2)
            want = _baseline(measure, vectors[ids[i]], vectors[ids[j]])
            if abs(values[i, j] - want) > SIM_TOL:
                cell = f"{measure}[{ids[i]},{ids[j]}]"
                fails.append(("experiment", f"{cell}={values[i, j]} != {want}"))
                break
    return fails


def _check_tm_sim(ids, values, tree_labels) -> list[tuple[str, str]]:
    """A pair sharing a non-root label maps the roots and that label, so its
    score is at least 2/(n1+n2-2); one sharing none scores exactly 0; no
    mapping exceeds the shared label multiset (Dice bound)."""
    bags = [Counter(tree_labels[d]) for d in ids]
    sizes = [1 + sum(b.values()) for b in bags]
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            shared = sum((bags[i] & bags[j]).values())
            denom = sizes[i] + sizes[j] - 2
            sim = values[i, j]
            lo = 2.0 / denom if shared else 0.0
            hi = 2.0 * shared / denom
            if (shared == 0 and sim != 0.0) or not lo - SIM_TOL <= sim <= hi + SIM_TOL:
                return [("experiment", f"tm-sim[{ids[i]},{ids[j]}]={sim} outside [{lo}, {hi}]")]
    return []


def reference_entry(out: Path, measures, report_text: str) -> dict:
    """What is recorded for a workload and seed, and compared later."""
    rows = read_report(report_text)
    entry = {
        "report": {
            m: [rows[m]["linkage"], rows[m]["k"], rows[m]["purity"], rows[m]["entropy"]]
            for m in measures
        },
        "recluster": {},
    }
    for measure in measures:
        report = json.loads((out / f"eval_{measure}.json").read_text("utf-8"))
        entry["recluster"][measure] = [repr(report["purity"]), repr(report["entropy"])]
    if "tm-sim" in measures:
        matrix = (out / "matrix_tm-sim.csv").read_bytes()
        entry["tm_sim_sha256"] = hashlib.sha256(matrix).hexdigest()
    return entry


def check_reference(got: dict, want: dict) -> list[tuple[str, str]]:
    """Purity exactly, entropy within ENTROPY_TOL, the tm-sim matrix by digest."""
    fails = []

    def scores(op, measure, g, w):
        if g[:-1] != w[:-1] or abs(float(g[-1]) - float(w[-1])) > ENTROPY_TOL:
            fails.append((op, f"{measure}: {g} != reference {w}"))

    for measure, w in want["report"].items():
        scores("experiment", measure, got["report"].get(measure, [None]), w)
    for measure, w in want["recluster"].items():
        scores(f"evaluate:{measure}", measure, got["recluster"].get(measure, [None]), w)
    if want.get("tm_sim_sha256") != got.get("tm_sim_sha256"):
        fails.append(("experiment", "matrix_tm-sim.csv differs from the reference digest"))
    return fails
