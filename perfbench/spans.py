"""Span recorder for the traced run, and the arithmetic on its spans.

`Recorder.install` wraps every public function of the tmclust modules
from the outside: the program itself is not edited.  A span is the list
`[span_id, parent_id, name, start, end, tag, count]`; `parent_id` is -1
for a span with no traced caller.  `tag` names the variant a call ran
(the measure of a baseline matrix, the linkage of HAC) and `count` is a
work count read from the result, both None where they do not apply.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

from corpora import BASELINES

LAYERS = ("xtm", "textpipe", "treesim", "simbase", "cluster", "evalx", "cli")

# Spans of these functions are tagged with the named argument.
TAG_ARGS = {"simbase.build_matrix_base": "measure", "cluster.hac": "linkage"}
# Spans of these functions count the work their result holds.
RESULT_COUNTS = {
    "cluster.hac": lambda dendrogram: len(dendrogram.merges),
    "xtm.parse_xtm": lambda doc: len(doc.topics),
}

# Experiment runs average linkage, the re-cluster complete linkage.
LINKAGES_MEASURED = ("average", "complete")

ID, PARENT, NAME, START, END, TAG, COUNT = range(7)


class Recorder:
    """Keeps spans in memory; one recorder per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag_arg = TAG_ARGS.get(name)
        signature = inspect.signature(fn) if tag_arg else None
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tag = bound.arguments[tag_arg]
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, tag, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions of every layer; returns how many.

        Generator functions are left alone: their span would close before
        the caller consumed them.  Names bound by `from x import f` in other
        tmclust modules, and functions held in module-level dicts (such as
        the baseline measure table), are rebound too, so every call site is
        traced.
        """
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tmclust.{layer}")
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "tmclust" or mod_name.startswith("tmclust."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        setattr(module, attr, wrappers[id(obj)])
                    elif isinstance(obj, dict):
                        for key, value in list(obj.items()):
                            if id(value) in wrappers:
                                obj[key] = wrappers[id(value)]
        return len(wrappers)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[list]] = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append(span)
    out = []
    for span in spans:
        covered = 0.0
        reach = span[START]
        for child in sorted(children.get(span[ID], ()), key=lambda s: s[START]):
            lo, hi = max(child[START], reach), min(child[END], span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def inclusive_time(spans: list[list], names) -> float:
    """Length of the union of the intervals of spans named in `names`, so a
    span nested in another of the set is counted once."""
    names = set(names)
    total, reach = 0.0, float("-inf")
    for span in sorted((s for s in spans if s[NAME] in names), key=lambda s: s[START]):
        total += max(0.0, span[END] - max(span[START], reach))
        reach = max(reach, span[END])
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times and counts of one traced repetition."""
    selfs = self_times(spans)
    calls = Counter(span[NAME] for span in spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        prefix = layer + "."
        names = {span[NAME] for span in spans if span[NAME].startswith(prefix)}
        m[f"{layer}.time_s"] = inclusive_time(spans, names)
        m[f"{layer}.self_s"] = sum(
            s for span, s in zip(spans, selfs) if span[NAME].startswith(prefix)
        )
        m[f"{layer}.calls"] = sum(n for name, n in calls.items() if name.startswith(prefix))

    def tagged(name: str, tag: str) -> float:
        return sum(s[END] - s[START] for s in spans if s[NAME] == name and s[TAG] == tag)

    def counted(name: str) -> int:
        return sum(s[COUNT] or 0 for s in spans if s[NAME] == name)

    def self_of(name: str) -> float:
        return sum(s for span, s in zip(spans, selfs) if span[NAME] == name)

    m["treesim.matrix_s"] = inclusive_time(spans, {"treesim.build_matrix"})
    m["treesim.pairs"] = calls["treesim.tm_similarity"]
    m["treesim.us_per_pair"] = _per(m["treesim.matrix_s"] * 1e6, m["treesim.pairs"])
    for measure in BASELINES:
        m[f"simbase.{measure}_s"] = tagged("simbase.build_matrix_base", measure)
    base_pairs = sum(calls[f"simbase.{measure}_sim"] for measure in BASELINES)
    base_s = inclusive_time(spans, {"simbase.build_matrix_base"})
    m["simbase.us_per_pair"] = _per(base_s * 1e6, base_pairs)
    for linkage in LINKAGES_MEASURED:
        m[f"cluster.hac_{linkage}_s"] = tagged("cluster.hac", linkage)
    m["cluster.cut_s"] = inclusive_time(spans, {"cluster.cut"})
    m["cluster.merges"] = counted("cluster.hac")
    for stage in ("ingest", "simmatrix", "cluster", "evaluate"):
        m[f"cli.{stage}_self_s"] = self_of(f"cli.cmd_{stage}")
    m["textpipe.load_s"] = inclusive_time(
        spans, {"textpipe.load_jsonl", "textpipe.load_text_dir", "textpipe.read_labels"}
    )
    m["textpipe.forest_build_s"] = inclusive_time(spans, {"textpipe.build_fallback_forest"})
    m["textpipe.vectorize_s"] = inclusive_time(spans, {"textpipe.vectorize"})
    m["xtm.parse_s"] = inclusive_time(spans, {"xtm.parse_xtm"})
    m["xtm.derive_s"] = inclusive_time(spans, {"xtm.derive_forest"})
    m["xtm.forest_json_s"] = inclusive_time(spans, {"xtm.forest_to_json", "xtm.forest_from_json"})
    m["xtm.topics_parsed"] = counted("xtm.parse_xtm")
    m["evalx.evaluate_s"] = inclusive_time(spans, {"evalx.evaluate"})
    return m


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over repetitions that each report the same keys."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
