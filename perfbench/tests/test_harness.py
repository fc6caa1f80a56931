"""Tests for the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpora  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def tree_bytes(base: Path) -> dict[str, bytes]:
    files = sorted(p for p in base.rglob("*") if p.is_file())
    return {str(p.relative_to(base)): p.read_bytes() for p in files}


@pytest.mark.parametrize("workload", list(corpora.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(tmp_path, workload):
    first = corpora.generate(workload, 7, tmp_path / "a", scale=0.2)
    again = corpora.generate(workload, 7, tmp_path / "b", scale=0.2)
    other = corpora.generate(workload, 8, tmp_path / "c", scale=0.2)
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")
    assert first.stats == again.stats and first.labels == again.labels


@pytest.mark.parametrize("workload", list(corpora.WORKLOADS))
def test_corpus_words_are_alphabetic_and_not_stopwords(tmp_path, workload):
    corpora.generate(workload, 3, tmp_path, scale=0.2)
    stopwords = set((ROOT / "src/tmclust/data/stopwords.txt").read_text("utf-8").split())
    for path in tmp_path.rglob("*"):
        if path.suffix not in (".txt", ".jsonl", ".xtm"):
            continue
        text = path.read_text("utf-8")
        if path.suffix == ".jsonl":
            text = " ".join(json.loads(line)["text"] for line in text.splitlines())
        if path.suffix == ".xtm":
            text = " ".join(re.findall(r"<(?:value|resourceData)>([^<]*)<", text))
        words = re.findall(r"[^\s.]+", text)
        assert words and all(w.isalpha() and w.islower() for w in words)
        assert not set(words) & stopwords


def span(sid, parent, name, start, end, tag=None, count=None):
    return [sid, parent, name, start, end, tag, count]


def test_self_time_subtracts_child_spans():
    tree = [
        span(0, -1, "cli.main", 0.0, 10.0),
        span(1, 0, "treesim.build_matrix", 1.0, 4.0),
        span(2, 0, "simbase.build_matrix_base", 5.0, 9.0, tag="cosine"),
        span(3, 2, "simbase.cosine_sim", 6.0, 7.0),
        span(4, 2, "simbase.cosine_sim", 7.5, 8.0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])
    # Nested spans of the same set count once; disjoint ones add up.
    assert spans.inclusive_time(tree, {"simbase.build_matrix_base", "simbase.cosine_sim"}) == 4.0
    assert spans.inclusive_time(tree, {"treesim.build_matrix", "simbase.cosine_sim"}) == 4.5
    m = spans.layer_metrics(tree)
    assert m["simbase.time_s"] == 4.0 and m["simbase.self_s"] == pytest.approx(4.0)
    assert m["cli.self_s"] == pytest.approx(3.0) and m["cli.time_s"] == 10.0
    assert m["simbase.cosine_s"] == 4.0 and m["simbase.euclidean_s"] == 0.0
    assert m["simbase.us_per_pair"] == pytest.approx(2e6)
    assert m["treesim.matrix_s"] == 3.0 and m["treesim.pairs"] == 0


def test_self_time_counts_overlapping_children_once():
    tree = [
        span(0, -1, "cli.main", 0.0, 10.0),
        span(1, 0, "cli.cmd_ingest", 1.0, 5.0),
        span(2, 0, "cli.cmd_ingest", 3.0, 6.0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_scaled_time_cancels_host_speed_and_tick_time():
    ref = run.CALIBRATION_REF_S

    def ticks(duration, spacing):
        return [[spacing * k, duration] for k in range(-5, 35)]

    # 1.5 s of work at the reference speed; 30 ticks of 1 ms ran inside.
    assert run.scaled(0.0, 1.53, ticks(ref, 0.051)) == pytest.approx(1.5)
    # The same work on a host at half speed doubles both times.
    assert run.scaled(0.0, 3.06, ticks(2 * ref, 0.102)) == pytest.approx(1.5)
    with pytest.raises(run.WorkerError):
        run.scaled(10.0, 11.0, ticks(ref, 0.051))


def test_purity_entropy_by_hand():
    labels = {"a": "x", "b": "x", "c": "y", "d": "y"}
    assert checks.purity_entropy({"a": 0, "b": 0, "c": 1, "d": 1}, labels) == (1.0, 0.0)
    purity, entropy = checks.purity_entropy({"a": 0, "b": 1, "c": 0, "d": 1}, labels)
    assert purity == 0.5 and entropy == pytest.approx(1.0)


def test_tm_sim_check_rejects_score_for_pair_without_shared_label():
    ids = ["p", "q", "r"]
    tree_labels = {"p": ["a", "b"], "q": ["a", "c"], "r": ["d"]}
    good = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert checks._check_tm_sim(ids, good, tree_labels) == []
    bad = good.copy()
    bad[0, 2] = bad[2, 0] = 0.25
    assert checks._check_tm_sim(ids, bad, tree_labels)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", list(corpora.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace, "--scale", "0.1"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    want = spec["per_layer" if trace == "1" else "end_to_end"]
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "planted-jsonl", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
