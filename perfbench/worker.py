"""One benchmark repetition in a fresh interpreter.

The harness starts this script with the checkout's `src` on PYTHONPATH and
a JSON job on stdin.  The set-up clock stops as soon as `tmclust.cli` is
imported.  The worker then times `cli.main` for each of the job's
`experiment` runs, each into an emptied output directory, and for each
pass of re-cluster/re-evaluate calls, optionally under the span recorder,
and writes its result as JSON to the job's `result_path`.  It never passes
`--timing`, so the program's own report stays byte-identical.

From its first line to its end, the worker also runs a calibration tick:
every TICK_INTERVAL_S a timer signal runs a fixed kernel that calls no
tmclust code and records when it ended and how long it took.  The ticks
go to the harness with the start and end of every timed call, and the
harness uses them to cancel the host's speed (see run.scaled).
"""

import signal
import time

TICK_INTERVAL_S = 0.025
# (end, duration) of every calibration tick, on the time.monotonic clock.
TICKS: list[tuple[float, float]] = []


def _tick_kernel() -> int:
    """About a millisecond of interpreter work: a list DP over two ranges."""
    a = range(44)
    prev = [0] * 45
    for x in a:
        cur = [0]
        for j, y in enumerate(a):
            cur.append(max(prev[j + 1], cur[j], prev[j] + (x == y)))
        prev = cur
    return prev[-1]


def _tick(signum=None, frame=None) -> None:
    started = time.monotonic()
    _tick_kernel()
    ended = time.monotonic()
    TICKS.append((ended, ended - started))


signal.signal(signal.SIGALRM, _tick)
signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)

import tmclust.cli as cli  # noqa: E402

READY = time.monotonic()

import hashlib  # noqa: E402  (imported after the set-up clock stops)
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tmclust  # noqa: E402

# A set-up probe ends right after the import; these ticks, run directly,
# give the harness the host's speed just after it.
PROBE_TICKS = 10


def digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space.

    getrusage's ru_maxrss is not used: across exec it keeps the RSS of the
    process that spawned the worker, which can exceed the worker's own.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed(call, spans: list[list[float]]):
    """Run `call()`, append its [start, end] to `spans`, return its value."""
    started = time.monotonic()
    value = call()
    spans.append([started, time.monotonic()])
    return value


def run(job: dict) -> dict:
    result: dict = {"ready": READY, "module": cli.__file__}
    if job.get("probe"):
        for _ in range(PROBE_TICKS):
            _tick()
        return result
    recorder = None
    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    out = Path(job["out_dir"])

    result["experiment_rcs"], result["experiment_spans"], result["experiment_files"] = [], [], []
    for _ in range(job["experiments"]):
        shutil.rmtree(out, ignore_errors=True)
        rc = timed(lambda: cli.main(job["experiment"]), result["experiment_spans"])
        result["experiment_rcs"].append(rc)
        result["experiment_files"].append(digests(out))
    result["experiment_assignments"] = {
        m: (out / f"assignment_{m}.csv").read_text("utf-8")
        for m in job["measures"]
        if (out / f"assignment_{m}.csv").exists()
    }

    result["recluster_rcs"], result["recluster_spans"] = [], []
    for _ in range(job["recluster_passes"]):
        result["recluster_rcs"] += timed(
            lambda: [cli.main(argv) for argv in job["recluster"]], result["recluster_spans"]
        )
    result["peak_rss_mb"] = peak_rss_mb()
    result["final_files"] = digests(out)

    if recorder is not None:
        Path(job["spans_path"]).write_text(json.dumps(recorder.spans), encoding="utf-8")

    result["reload_errors"] = {}
    for measure in job["measures"] if job["reload"] else ():
        path = out / f"matrix_{measure}.csv"
        try:
            tmclust.SimilarityMatrix.from_csv(path.read_text("utf-8"), measure)
        except Exception as exc:  # any failure to reload fails the check
            result["reload_errors"][measure] = f"{type(exc).__name__}: {exc}"
    return result


if __name__ == "__main__":
    job = json.loads(sys.stdin.read())
    result = run(job)
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    result["ticks"] = TICKS
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")
