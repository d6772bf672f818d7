"""Span recorder installed around the public functions of fsel_ids.

``install()`` wraps each function in ``TRACED`` and rebinds every name
that refers to it: the defining module's attribute, the names other
modules imported, and entries of module-level dicts such as the CLI's
command table. Each call records a span (name, start, end, parent span,
thread, a few counts read from its arguments or result, and the time
spent reading them). Spans stay
in memory; ``layer_metrics`` turns them into per-layer self times, counts
and rates when the run ends. Calls made while ``active`` is false (the
benchmark's own checks) record nothing.

A span's parent is the innermost open span of its own thread. A span
opened in a worker thread with nothing open there (the bench executor's
cells) takes the innermost span open on the main thread as its parent.
Self time is a span's duration minus the union of its children's
intervals, so overlapping children from two threads are not subtracted
twice. A child's interval runs on to the end of the recorder's reading
of its counts, so that reading is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

from fsel_ids import tree as tree_mod

ALGORITHMS = ("tree", "naive_bayes", "knn", "mlp", "linear_svm")


def _score_name(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "?")
    return f"filters.score_features:{method}"


def _fit_name(args, kwargs):
    params = kwargs.get("params", args[1] if len(args) > 1 else None)
    return f"models.fit_model:{params.algorithm}"


def _predict_name(args, kwargs):
    model = kwargs.get("model", args[0] if args else None)
    return f"models.predict_model:{model.algorithm}"


def _query_rows(args, kwargs, result):
    ds = args[1] if len(args) > 1 else kwargs["ds"]
    return ds.row_count


def _relief_info(args, kwargs, result):
    n = args[0].row_count
    sample = kwargs.get("sample_count")
    return n if sample is None else min(sample, n)


def _tree_info(args, kwargs, root):
    return tree_mod.node_count(root), tree_mod.depth(root)


# (module, function, span name or namer, info extractor)
TRACED = (
    ("dataset", "load_csv", "dataset.load_csv", lambda a, k, r: r.row_count),
    ("dataset", "stratified_subsample", "dataset.stratified_subsample", None),
    ("filters", "score_features", _score_name, None),
    ("filters", "relief_weights", "filters.relief_weights", _relief_info),
    ("wrapper", "best_first_search", "wrapper.best_first_search",
     lambda a, k, r: (len(r[1].steps), r[1].expansions)),
    ("tree", "grow", "tree.grow", _tree_info),
    ("tree", "predict", "tree.predict", None),
    ("tree", "prune", "tree.prune", None),
    ("preprocess", "fit_preprocess", "preprocess.fit_preprocess",
     lambda a, k, r: r.output_width),
    ("preprocess", "apply_preprocess", "preprocess.apply_preprocess", None),
    ("models", "fit_model", _fit_name, None),
    ("models", "predict_model", _predict_name, _query_rows),
    ("pipeline", "load_splits", "pipeline.load_splits", None),
    ("pipeline", "select_features", "pipeline.select_features", None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("cli", "cmd_bench", "cli.cmd_bench", None),
)


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list = []
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.active = True  # spans are recorded only while set

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, fn, name, info):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else -1
            with self._lock:
                index = len(spans)
                spans.append(())
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                extra = info(args, kwargs, result) if info and result is not None else None
                spans[index] = (label, start, end, parent, threading.get_ident(), extra,
                                time.perf_counter() - end)

        return traced


def install(recorder: Recorder) -> None:
    """Rebind every reference to each traced function to its wrapper."""
    import fsel_ids.cli  # noqa: F401 -- load every module before rebinding
    import fsel_ids.pipeline  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n == "fsel_ids" or n.startswith("fsel_ids.")]
    for module_name, fn_name, name, info in TRACED:
        original = getattr(sys.modules[f"fsel_ids.{module_name}"], fn_name)
        wrapped = recorder.wrap(original, name, info)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapped


def span_cost(samples: int = 20000) -> float:
    """Seconds of bookkeeping one span adds, measured on a no-op call."""
    def noop(x):
        return x

    wrapped = Recorder().wrap(noop, "noop", None)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for i in range(samples):
            noop(i)
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for i in range(samples):
            wrapped(i)
        best = min(best, (time.perf_counter() - started - plain) / samples)
    return max(best, 0.0)


def _self_times(spans) -> list[float]:
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2] + spans[c][6]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(recorder: Recorder, run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer self times, counts and rates from the recorded spans."""
    spans = recorder.spans
    self_s = _self_times(spans)
    total: dict[str, float] = {}
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, self_s):
        name = span[0]
        total[name] = total.get(name, 0.0) + own
        incl[name] = incl.get(name, 0.0) + span[2] - span[1]
        calls[name] = calls.get(name, 0) + 1

    def extras(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def rate(count, name):
        seconds = incl.get(name, 0.0)
        return count / seconds if seconds > 0 else 0.0

    trees = extras("tree.grow")
    merits = sum(m for m, _ in extras("wrapper.best_first_search"))
    loaded = sum(extras("dataset.load_csv"))
    relief_rows = sum(extras("filters.relief_weights"))
    knn_rows = sum(extras("models.predict_model:knn"))
    bench_cells = [i for i, s in enumerate(spans)
                   if s[0] == "pipeline.run_pipeline" and _has_ancestor(spans, i, "cli.cmd_bench")]
    cell_time = sum(spans[i][2] - spans[i][1] for i in bench_cells)

    m: dict[str, tuple[float, str]] = {
        "tree.grow_s": (total.get("tree.grow", 0.0), "s"),
        "tree.grow_calls": (calls.get("tree.grow", 0), "count"),
        "tree.nodes": (sum(nodes for nodes, _ in trees), "count"),
        "tree.max_depth": (max((depth for _, depth in trees), default=0), "count"),
        "tree.predict_s": (total.get("tree.predict", 0.0), "s"),
        "tree.prune_s": (total.get("tree.prune", 0.0), "s"),
        "wrapper.search_s": (total.get("wrapper.best_first_search", 0.0), "s"),
        "wrapper.merits": (merits, "count"),
        "wrapper.merits_per_s": (rate(merits, "wrapper.best_first_search"), "1/s"),
        "wrapper.expansions": (sum(e for _, e in extras("wrapper.best_first_search")), "count"),
        "dataset.load_csv_s": (total.get("dataset.load_csv", 0.0), "s"),
        "dataset.load_csv_calls": (calls.get("dataset.load_csv", 0), "count"),
        "dataset.rows_loaded_per_s": (rate(loaded, "dataset.load_csv"), "1/s"),
        "dataset.stratified_subsample_s": (total.get("dataset.stratified_subsample", 0.0), "s"),
        "filters.infogain_s": (total.get("filters.score_features:infogain", 0.0), "s"),
        "filters.gainratio_s": (total.get("filters.score_features:gainratio", 0.0), "s"),
        "filters.relief_s": (total.get("filters.score_features:relief", 0.0)
                             + total.get("filters.relief_weights", 0.0), "s"),
        "filters.relief_sampled_rows_per_s": (rate(relief_rows, "filters.relief_weights"), "1/s"),
        "preprocess.fit_s": (total.get("preprocess.fit_preprocess", 0.0), "s"),
        "preprocess.apply_s": (total.get("preprocess.apply_preprocess", 0.0), "s"),
        "preprocess.encoded_width": (max(extras("preprocess.fit_preprocess"), default=0), "count"),
    }
    for algo in ALGORITHMS:
        m[f"models.fit_s.{algo}"] = (total.get(f"models.fit_model:{algo}", 0.0), "s")
        m[f"models.predict_s.{algo}"] = (total.get(f"models.predict_model:{algo}", 0.0), "s")
    m.update({
        "models.knn_queries_per_s": (rate(knn_rows, "models.predict_model:knn"), "1/s"),
        "pipeline.run_pipeline_s": (total.get("pipeline.run_pipeline", 0.0)
                                    + total.get("pipeline.load_splits", 0.0), "s"),
        "pipeline.run_pipeline_calls": (calls.get("pipeline.run_pipeline", 0), "count"),
        "pipeline.select_features_s": (total.get("pipeline.select_features", 0.0), "s"),
        "cli.bench_s": (total.get("cli.cmd_bench", 0.0), "s"),
        "cli.bench_cells": (len(bench_cells), "count"),
        "cli.bench_concurrency": (cell_time / incl["cli.cmd_bench"]
                                  if incl.get("cli.cmd_bench") else 0.0, "ratio"),
        "trace.run_s": (run_s, "s"),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_s": (len(spans) * span_cost() + sum(s[6] for s in spans), "s"),
    })
    return m
