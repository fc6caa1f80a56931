"""tmclust benchmark harness.

    python3 perfbench/run.py --workload planted-jsonl --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a checkout.  For the workload it generates a seeded
corpus (perfbench/corpora.py), then repeats, for `--seconds`: time a few
set-up probes, start a fresh worker interpreter (perfbench/worker.py) with
the checkout's `src` on its path, time `tmclust experiment` over the
workload's measures a few times, then time passes of `cluster --linkage
complete` and `evaluate` for every measure on the artifacts that left.
Each repetition gets an empty output directory and is checked
(perfbench/checks.py); an operation (the experiment, or one measure's
cluster or evaluate) fails on a non-zero exit or a failed check.
With `--trace 1`, every second repetition runs under the span recorder
(perfbench/spans.py) and the per-layer metrics are reported instead of the
end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json, each the median of its samples in the
run.  Timings are scaled to a reference host speed (see scaled()).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import corpora
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"

# Set-up probes run before every repetition, so that they are spread over
# the whole run like the other samples.
SETUP_PROBES = 3
# An untraced worker runs the experiment this many times and then this many
# re-cluster passes, so a run holds many samples of each timing.
EXPERIMENTS = 3
RECLUSTER_PASSES = 15
# Timings are reported in seconds on a host where the worker's calibration
# tick takes this long (see scaled()).
CALIBRATION_REF_S = 0.001
# Ticks this close to a timed call also measure the host's speed during it.
TICK_PAD_S = 0.1
WORKER_TIMEOUT_S = 150
# A run never starts a repetition that would end past this, so it exits
# well inside the 180 s a run may take.
RUN_LIMIT_S = 165


def benchmark_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            names = (ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name"))
            model = next(names, model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class WorkerError(RuntimeError):
    pass


def run_worker(job: dict, cwd: Path) -> dict:
    """Start a fresh interpreter on `job`; returns its result plus setup_s."""
    result_path = cwd / "result.json"
    result_path.unlink(missing_ok=True)
    job = {**job, "result_path": str(result_path)}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=worker_env(),
            cwd=cwd,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text("utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(SRC):
        raise WorkerError(f"worker imported tmclust from {result['module']}, not {SRC}")
    result["spawned"] = spawned
    return result


def scaled(start: float, end: float, ticks: list[list[float]]) -> float:
    """The wall time from `start` to `end` at the reference host speed.

    A shared host can change speed by 1.5x, for a second to minutes at a
    time, because of load outside the benchmark's processes.  `ticks` are
    the worker's calibration ticks, [end, duration] of a fixed kernel run
    every few tens of milliseconds.  The ticks that ran inside the call are
    taken out of its wall time, and the rest is divided by the mean tick
    duration around the call, which follows the host's speed and not the
    program's; CALIBRATION_REF_S turns the ratio back into seconds.
    """
    inside = sum(d for t, d in ticks if start < t <= end)
    near = [d for t, d in ticks if start - TICK_PAD_S < t <= end + TICK_PAD_S]
    if not near:
        raise WorkerError(f"no calibration tick near the call at {start:.3f}")
    return (end - start - inside) * CALIBRATION_REF_S / statistics.fmean(near)


def _file_op(name: str) -> str:
    """The operation that writes an artifact after the experiment."""
    stem = name.rsplit(".", 1)[0]
    prefixes = (("assignment_", "cluster"), ("dendrogram_", "cluster"), ("eval_", "evaluate"))
    for prefix, op in prefixes:
        if stem.startswith(prefix):
            return f"{op}:{stem[len(prefix):]}"
    return "experiment"


def artifact_stats(out: Path, measures) -> dict[str, float]:
    """Corpus statistics as the program's artifacts record them."""
    sizes, depths = [], []
    for path in sorted((out / "forests").glob("*.json")):
        stack = [(json.loads(path.read_text("utf-8")), 0)]
        n = depth = 0
        while stack:
            node, d = stack.pop()
            n, depth = n + 1, max(depth, d)
            stack.extend((c, d + 1) for c in node["children"])
        sizes.append(n)
        depths.append(depth)
    vectors = json.loads((out / "vectors.json").read_text("utf-8"))
    nnz = [len(v) for v in vectors["vectors"].values()]
    stats = {
        "treesim.nodes_mean": statistics.mean(sizes),
        "treesim.nodes_max": max(sizes),
        "treesim.depth_max": max(depths),
        "textpipe.vocab_size": len(vectors["index"]),
        "textpipe.nnz_mean": statistics.mean(nnz),
        "textpipe.empty_docs": sum(1 for n in nnz if n == 0),
        "treesim.zero_pairs_frac": 0.0,
    }
    if "tm-sim" in measures:
        _, values = checks.load_matrix(out / "matrix_tm-sim.csv")
        upper = values[np.triu_indices(len(values), 1)]
        stats["treesim.zero_pairs_frac"] = float(np.mean(upper == 0.0))
    return stats


class Run:
    """One workload, one seed: corpus, repetitions, checks and metrics."""

    def __init__(self, workload: str, seed: int, scale: float, run_dir: Path) -> None:
        self.workload, self.seed, self.scale = workload, seed, scale
        self.run_dir = run_dir
        self.corpus = corpora.generate(workload, seed, run_dir / "corpus", scale)
        self.measures = list(self.corpus.measures)
        # Operations after the experiment, in the order the worker runs them.
        self.stage_ops = [f"{st}:{m}" for m in self.measures for st in ("cluster", "evaluate")]
        self.reps: list[dict] = []
        self.setup_samples: list[float] = []
        self.setup_wall_samples: list[float] = []
        self.attempted = 0
        self.failures: list[tuple[int, str, str]] = []
        self.stats: dict[str, float] = {}
        self.reference_entry: dict | None = None
        self.first: dict | None = None

    def job(self, traced: bool, reload: bool) -> dict:
        common = [
            "--corpus", str(self.corpus.path.relative_to(self.run_dir)),
            "--mode", self.corpus.mode,
            "--out-dir", "out",
            "--dataset", self.workload,
        ]
        recluster = []
        for measure in self.measures:
            recluster.append(["cluster", *common, "--measure", measure, "--linkage", "complete"])
            recluster.append(["evaluate", *common, "--measure", measure])
        return {
            "experiment": ["experiment", *common, "--measures", ",".join(self.measures)],
            "recluster": recluster,
            "measures": self.measures,
            "trace": traced,
            "reload": reload,
            "experiments": 1 if traced else EXPERIMENTS,
            "recluster_passes": 1 if traced else RECLUSTER_PASSES,
            "out_dir": "out",
            "spans_path": "spans.json",
        }

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            self.add_setup(run_worker({"probe": True}, self.run_dir))

    def add_setup(self, res: dict) -> None:
        self.setup_samples.append(scaled(res["spawned"], res["ready"], res["ticks"]))
        self.setup_wall_samples.append(res["ready"] - res["spawned"])

    def repetition(self, traced: bool) -> dict:
        index = len(self.reps)
        out = self.run_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        ops = ["experiment", *self.stage_ops]
        self.attempted += len(ops)
        fails: list[tuple[str, str]] = []
        rep = {"traced": traced}
        try:
            res = run_worker(self.job(traced, reload=self.first is None), self.run_dir)
        except WorkerError as exc:
            fails = [(op, str(exc)) for op in ops]
            res = None
        if res is not None:
            self.add_setup(res)
            for key in ("experiment", "recluster"):
                calls = res[f"{key}_spans"]
                rep[f"{key}_s"] = [scaled(start, end, res["ticks"]) for start, end in calls]
                rep[f"{key}_wall_s"] = [end - start for start, end in calls]
            rep.update(
                peak_rss_mb=res["peak_rss_mb"],
                artifact_mb=sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / 1e6,
                files=len(res["final_files"]),
            )
            fails += self.check(res, out)
            if traced:
                rep["layer"] = spans.layer_metrics(
                    json.loads((self.run_dir / "spans.json").read_text("utf-8"))
                )
        self.failures += [(index, op, msg) for op, msg in fails]
        rep["failed_ops"] = len({op for op, _ in fails})
        self.reps.append(rep)
        return rep

    def check(self, res: dict, out: Path) -> list[tuple[str, str]]:
        fails = []
        fails += [("experiment", f"exit {rc}") for rc in res["experiment_rcs"] if rc != 0]
        stages = self.stage_ops
        fails += [
            (stages[i % len(stages)], f"exit {rc}")
            for i, rc in enumerate(res["recluster_rcs"])
            if rc != 0
        ]
        fails += [
            ("experiment", f"{m}: reload failed: {e}") for m, e in res["reload_errors"].items()
        ]
        if fails:
            return fails
        # Every experiment of the worker must write what its first one wrote.
        runs = res["experiment_files"]
        fails += [
            ("experiment", f"{name} differs between experiments of one worker")
            for files in runs[1:]
            for name in sorted(set(files) | set(runs[0]))
            if files.get(name) != runs[0].get(name)
        ]
        res["experiment_files"] = runs[0]
        if self.first is None:
            report = (out / "report.csv").read_text("utf-8")
            labels = self.corpus.labels
            assignments = res["experiment_assignments"]
            fails += checks.check_report(report, assignments, labels, self.measures)
            fails += checks.check_evals(out, labels, self.measures)
            fails += checks.check_matrices(out, self.measures, self.corpus.tree_labels, self.seed)
            self.reference_entry = checks.reference_entry(out, self.measures, report)
            want = self.reference()
            if want is not None:
                fails += checks.check_reference(self.reference_entry, want)
            self.stats = artifact_stats(out, self.measures)
            self.first = res
        else:
            # Later repetitions must reproduce the checked first one byte for byte.
            owners = (("experiment_files", lambda name: "experiment"), ("final_files", _file_op))
            for key, op_of in owners:
                for name in sorted(set(res[key]) | set(self.first[key])):
                    if res[key].get(name) != self.first[key].get(name):
                        fails.append((op_of(name), f"{name} differs from the first repetition"))
        return fails

    def reference(self) -> dict | None:
        if self.scale != 1.0 or not REFERENCES.exists():
            return None
        return json.loads(REFERENCES.read_text("utf-8")).get(f"{self.workload}/{self.seed}")

    def measure(self, seconds: float, trace: bool) -> None:
        started = time.monotonic()
        run_worker({"probe": True}, self.run_dir)  # warm-up: bytecode caches, page cache
        deadline = started + seconds
        longest = 0.0
        while True:
            t0 = time.monotonic()
            self.probe_setup()
            self.repetition(traced=trace and len(self.reps) % 2 == 1)
            longest = max(longest, time.monotonic() - t0)
            now = time.monotonic()
            need = 2 if trace else 1
            if now + longest > started + RUN_LIMIT_S:
                break
            if len(self.reps) >= need and now + longest > deadline:
                break

    def metrics(self, trace: bool) -> dict[str, float]:
        ok = [r for r in self.reps if "experiment_s" in r]
        plain = [r for r in ok if not r["traced"]]
        traced = [r for r in ok if r["traced"]]
        if not plain or (trace and not traced):
            raise WorkerError("no repetition completed")
        med = lambda rs, key: statistics.median(r[key] for r in rs)  # noqa: E731
        pooled = lambda rs, key: statistics.median(x for r in rs for x in r[key])  # noqa: E731
        if not trace:
            return {
                "experiment_s": pooled(plain, "experiment_s"),
                "recluster_s": pooled(plain, "recluster_s"),
                "setup_s": statistics.median(self.setup_samples),
                "peak_rss_mb": med(plain, "peak_rss_mb"),
                "artifact_mb": med(plain, "artifact_mb"),
            }
        layer = spans.medians([r["layer"] for r in traced])
        layer.update(self.stats)
        layer["cli.files_written"] = med(ok, "files")
        layer["trace_overhead_frac"] = (
            pooled(traced, "experiment_s") / pooled(plain, "experiment_s") - 1
        )
        return layer


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    run_dir = WORK / f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run = Run(workload, seed, scale, run_dir)
        run.measure(seconds, trace)
        values = run.metrics(trace)
        if trace and (run_dir / "spans.json").exists():
            shutil.copyfile(run_dir / "spans.json", WORK / f"{workload}.spans.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    e2e_units, layer_units = benchmark_metrics()
    units = layer_units if trace else e2e_units
    missing = sorted(set(units) - set(values))
    if missing:
        raise WorkerError(f"metrics not measured: {missing}")
    failed = len({(i, op) for i, op, _ in run.failures})
    summary = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "environment": environment(),
        "corpus": {**run.corpus.stats, **run.stats},
        "repetitions": run.reps,
        "setup_samples": run.setup_samples,
        "setup_wall_samples": run.setup_wall_samples,
        "failures": [list(f) for f in run.failures],
        "result": {
            "correct": failed == 0,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {n: {"value": values[n], "unit": unit} for n, unit in units.items()},
        },
        "reference_entry": run.reference_entry,
    }
    (WORK / f"{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8"
    )
    return summary


def record_reference(summary: dict) -> None:
    refs = json.loads(REFERENCES.read_text("utf-8")) if REFERENCES.exists() else {}
    refs[f"{summary['workload']}/{summary['seed']}"] = summary["reference_entry"]
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def print_all(seed: int, seconds: float, scale: float) -> int:
    """Every workload, untraced then traced: one line per metric."""
    bad = 0
    for workload in corpora.WORKLOADS:
        for trace in (False, True):
            summary = run_workload(workload, seed, seconds, trace, scale)
            res = summary["result"]
            bad += res["failed"]
            if not trace:
                print(f"{workload} failed_frac {res['failed'] / res['attempted']:.6g} ratio")
            for name, metric in res["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpora.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size factor (tests)")
    parser.add_argument(
        "--record-reference", action="store_true",
        help="store this run's outputs as the reference for the workload and seed",
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "tmclust" / "cli.py").is_file():
        print(f"error: no tmclust sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            return print_all(args.seed, args.seconds, args.scale)
        trace = bool(args.trace)
        summary = run_workload(args.workload, args.seed, args.seconds, trace, args.scale)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for index, op, msg in summary["failures"]:
        print(f"FAIL rep {index} {op}: {msg}", file=sys.stderr)
    if args.record_reference:
        if summary["failures"] or args.scale != 1.0:
            print("error: not recording a reference from a failed or scaled run", file=sys.stderr)
            return 1
        record_reference(summary)
    print(json.dumps({"environment": summary["environment"], "corpus": summary["corpus"]}))
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
