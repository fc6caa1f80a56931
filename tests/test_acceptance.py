"""End-to-end acceptance criteria.

Each test evaluates one criterion at its stated tolerance and prints a
single PASS/FAIL line (use `pytest -s` to see them on success).
"""

from __future__ import annotations

import csv
import math
import random
import time

import numpy as np
from conftest import evaluate_table, random_forest
from oracles import brute_force_common_subtree, common_subtree_size, mapping_violations

from tmclust.cli import ExperimentConfig, cmd_experiment
from tmclust.cluster import cut, hac
from tmclust.evalx import evaluate
from tmclust.simbase import MEASURES, build_matrices_base
from tmclust.synth import make_planted_corpus, write_jsonl
from tmclust.textpipe import TermVector, analyse, tfidf
from tmclust.treesim import (
    SimilarityMatrix,
    build_matrix,
    max_common_subtree,
)

ORACLE_SEED = 20240601
ORACLE_CASES = 1000


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def _oracle_cases() -> list[tuple]:
    rng = random.Random(ORACLE_SEED)
    return [
        (random_forest(rng, max_nodes=10, alphabet="abcde"),
         random_forest(rng, max_nodes=10, alphabet="abcde"))
        for _ in range(ORACLE_CASES)
    ]


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    for a, b in _oracle_cases():
        if common_subtree_size(a, b) != len(brute_force_common_subtree(a, b)):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    _report(1, "oracle-equivalence", ok, f"{ORACLE_CASES} cases, {elapsed:.1f}s, {mismatches} mismatches")
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_2_mapping_validity():
    invalid = 0
    for a, b in _oracle_cases():
        mapping = max_common_subtree(a, b)
        if mapping_violations(a, b, mapping):
            invalid += 1
    ok = invalid == 0
    _report(2, "mapping-validity", ok, f"{ORACLE_CASES} cases, {invalid} invalid")
    assert invalid == 0


def test_criterion_3_metric_correctness():
    checks = [
        abs(evaluate_table([[3, 1]]).purity - 0.75) <= 1e-9,
        abs(evaluate_table([[2, 0], [1, 1]]).purity - 0.75) <= 1e-9,
        abs(evaluate_table([[2, 2]]).entropy - 1.0) <= 1e-9,
        abs(
            evaluate_table([[3, 1]]).entropy
            - (-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)))
        )
        <= 1e-9,
    ]
    pure = evaluate([0, 0, 1], ["a", "a", "b"], "m", "d")
    exact = pure.purity == 1.0 and pure.entropy == 0.0
    ok = all(checks) and exact
    _report(3, "metric-correctness", ok)
    assert all(checks)
    assert pure.purity == 1.0
    assert pure.entropy == 0.0


def test_criterion_4_block_matrix_recovery():
    blocks, size = 4, 50
    n = blocks * size
    values = np.zeros((n, n))
    for b in range(blocks):
        values[b * size : (b + 1) * size, b * size : (b + 1) * size] = 1.0
    matrix = SimilarityMatrix("block", [f"d{i:03d}" for i in range(n)], values)
    gold = [f"b{i // size}" for i in range(n)]
    started = time.perf_counter()
    purities = {}
    for linkage in ("single", "complete", "average"):
        purities[linkage] = evaluate(cut(hac(matrix, linkage), blocks), gold, "block", "d").purity
    elapsed = time.perf_counter() - started
    ok = all(p == 1.0 for p in purities.values()) and elapsed < 5.0
    _report(4, "block-matrix-recovery", ok, f"N={n}, {elapsed:.2f}s, purities={purities}")
    assert purities == {"single": 1.0, "complete": 1.0, "average": 1.0}
    assert elapsed < 5.0


def test_criterion_5_planted_topic_experiment(tmp_path):
    results = []
    for seed in range(5):
        started = time.perf_counter()
        corpus_path = write_jsonl(
            make_planted_corpus(
                n_clusters=4,
                docs_per_cluster=25,
                node_noise=0.2,
                shared_vocab_frac=0.5,
                seed=seed,
            ),
            tmp_path / f"planted_{seed}.jsonl",
        )
        config = ExperimentConfig(
            corpus=str(corpus_path),
            mode="jsonl",
            out_dir=str(tmp_path / f"out_{seed}"),
            dataset="planted",
        )
        report_path = cmd_experiment(config)
        elapsed = time.perf_counter() - started
        rows = list(csv.reader(report_path.read_text("utf-8").splitlines()))
        by_measure = {row[1]: float(row[4]) for row in rows[1:]}
        results.append((seed, by_measure["tm-sim"], by_measure["cosine"], elapsed))
    ok = all(tm >= 0.9 and tm >= cos and secs < 120.0 for _, tm, cos, secs in results)
    detail = "; ".join(
        f"seed {s}: tm={tm:.3f} cos={cos:.3f} {secs:.1f}s" for s, tm, cos, secs in results
    )
    _report(5, "planted-topic-experiment", ok, detail)
    for seed, tm, cos, secs in results:
        assert tm >= 0.9, f"seed {seed}: tm-sim purity {tm}"
        assert tm >= cos, f"seed {seed}: tm-sim {tm} < cosine {cos}"
        assert secs < 120.0, f"seed {seed}: run took {secs:.1f}s"


def test_criterion_6_measure_sanity(tmp_path):
    docs = make_planted_corpus(n_clusters=3, docs_per_cluster=5, seed=11)
    vocab: dict[str, str] = {}
    counts = [analyse(d.doc_id, d.text, None, None, False, vocab)[1] for d in docs]
    vectors = tfidf([d.doc_id for d in docs], counts)
    matrices = [build_matrix([d.tree for d in docs])]
    matrices += build_matrices_base(list(MEASURES), vectors).values()
    matrix_ok = True
    for matrix in matrices:
        matrix.validate()
        values = matrix.values
        matrix_ok &= bool(np.array_equal(values, values.T))
        matrix_ok &= bool(np.all(np.diag(values) == 1.0))
        matrix_ok &= bool(np.all((values >= 0.0) & (values <= 1.0)))

    rng = random.Random(99)
    worst = 0.0
    for _ in range(100):
        terms = [f"t{i}" for i in range(rng.randint(2, 12))]
        a = TermVector("a", {t: rng.uniform(0.01, 1.0) for t in terms if rng.random() < 0.7} or {terms[0]: 1.0})
        b = TermVector("b", {t: rng.uniform(0.01, 1.0) for t in terms if rng.random() < 0.7} or {terms[-1]: 1.0})
        total_a = sum(a.entries.values())
        total_b = sum(b.entries.values())
        union = sorted(set(a.entries) | set(b.entries))
        p = np.array([a.entries.get(t, 0.0) / total_a for t in union])
        q = np.array([b.entries.get(t, 0.0) / total_b for t in union])
        m = 0.5 * (p + q)
        with np.errstate(divide="ignore", invalid="ignore"):
            kl_pm = np.where(p > 0, p * np.log2(np.divide(p, m, out=np.zeros_like(p), where=m > 0)), 0.0).sum()
            kl_qm = np.where(q > 0, q * np.log2(np.divide(q, m, out=np.zeros_like(q), where=m > 0)), 0.0).sum()
        oracle_jsd = 0.5 * kl_pm + 0.5 * kl_qm
        kld = build_matrices_base(["kld"], [a, b])["kld"].values[0, 1]
        worst = max(worst, abs(kld - (1.0 - oracle_jsd)))
    ok = matrix_ok and worst <= 1e-12
    _report(6, "measure-sanity", ok, f"max kld deviation {worst:.2e}")
    assert matrix_ok
    assert worst <= 1e-12


def test_criterion_7_determinism(tmp_path):
    corpus_path = write_jsonl(
        make_planted_corpus(n_clusters=3, docs_per_cluster=6, seed=42),
        tmp_path / "planted.jsonl",
    )
    reports = []
    for run in ("one", "two"):
        config = ExperimentConfig(
            corpus=str(corpus_path),
            mode="jsonl",
            out_dir=str(tmp_path / run),
            dataset="planted",
        )
        reports.append(cmd_experiment(config).read_bytes())
    ok = reports[0] == reports[1]
    _report(7, "determinism", ok, f"{len(reports[0])} bytes each")
    assert reports[0] == reports[1]
    matrix_a = (tmp_path / "one" / "matrix_tm-sim.csv").read_bytes()
    matrix_b = (tmp_path / "two" / "matrix_tm-sim.csv").read_bytes()
    assert matrix_a == matrix_b
