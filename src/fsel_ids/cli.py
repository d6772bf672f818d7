"""Command-line front end: select, train, evaluate, bench.

Each command reads an optional JSON config file plus flag overrides (flags
win), runs the corresponding pipeline stages, writes JSON/Markdown/JSONL
artifacts, and exits nonzero exactly when a stage failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import multiprocessing.connection
import signal
import sys
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

from .dataset import shown
from .metrics import markdown_table, report_to_json
from .models import model_from_json, model_to_json
from .pipeline import (
    FS_METHODS,
    REFERENCE_FS,
    PipelineError,
    RunConfig,
    evaluate_model,
    fit_for_config,
    load_file,
    load_splits,
    run_pipeline,
    subsample_and_select,
)
from .wrapper import subset_names, trace_to_jsonl

SELECTION_FORMAT = "fsel-ids/selection"
BENCH_ONLY_KEYS = ("fs_methods", "algorithms")
# The flags whose settings a saved model fixes, by dest.
SAVED_RUN_FLAGS = {"fs": "--fs", "k": "--k", "algorithm": "--algo", "seed": "--seed",
                   "subsample": "--subsample", "bins": "--bins",
                   "relief_sample": "--relief-sample", "overrides": "--set"}
# The RunConfig fields a saved model's replay reads; the model fixes the rest.
REPLAY_FIELDS = {"train_path", "test_path", "schema_path", "positive_label", "dataset_name"}


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsel-ids",
        description="Feature selection and intrusion detection modeling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        # A flag's dest is the RunConfig field it sets.
        p.add_argument("--train", dest="train_path", help="training CSV path")
        p.add_argument("--test", dest="test_path", help="test CSV path")
        p.add_argument("--schema", dest="schema_path",
                       help="schema file (name,kind lines); default UNSW-NB15")
        p.add_argument("--fs", choices=FS_METHODS + REFERENCE_FS,
                       help="feature selection method, or a bundled reference subset")
        p.add_argument("--k", type=int, help="features to keep for ranker methods")
        p.add_argument("--algo", dest="algorithm", help="classifier tag")
        p.add_argument("--seed", type=int, help="master seed for the whole run")
        p.add_argument("--subsample", type=float, help="training subsample fraction")
        p.add_argument("--bins", type=int, help="bins for entropy-filter discretization")
        p.add_argument("--relief-sample", type=int, metavar="N",
                       help="rows relief samples, at least 1 (default: every row)")
        p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                       type=_parse_override, dest="overrides",
                       help="hyperparameter override, repeatable")
        p.add_argument("--out", default=".", help="output directory")

    p_select = sub.add_parser("select", help="run feature selection and save the subset")
    add_common(p_select)

    p_train = sub.add_parser("train", help="select, preprocess and train a model")
    add_common(p_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a config or a saved model")
    add_common(p_eval)
    p_eval.add_argument("--model", help="saved model JSON (skips training)")

    p_bench = sub.add_parser("bench", help="run an FS-method x algorithm grid")
    add_common(p_bench)
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="most forked children alive at once, one per selection or cell")

    return parser


def _load_config(args, allow_grid: bool = False, replay: bool = False) -> tuple[RunConfig, dict]:
    """Merge config-file fields with flag overrides (flags win) into a checked RunConfig.

    A ``replay`` of a saved model needs no --train, and takes no flag or
    config field that sets what its model fixes.
    """
    doc: dict = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{args.config}: config is not JSON"
                             f" ({type(exc).__name__}: {exc})") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    if replay:
        fixed = [flag for dest, flag in SAVED_RUN_FLAGS.items()
                 if getattr(args, dest) not in (None, [])]
        fixed += [f"config field {name!r}" for name in sorted(doc.keys() & (known - REPLAY_FIELDS))]
        if fixed:
            raise ValueError("evaluate --model takes its settings from the saved model;"
                             f" drop {', '.join(fixed)}")
    grid = {key: doc.pop(key) for key in BENCH_ONLY_KEYS if key in doc}
    if grid and not allow_grid:
        raise ValueError(f"grid fields {sorted(grid)} are only valid for bench")
    for key, value in grid.items():
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"config field {key!r} must be a list of strings, got {shown(value)}")
        twice = [v for i, v in enumerate(value) if v in value[:i]]
        if twice:
            raise ValueError(f"config field {key!r} lists {shown(twice[0])} more than once")
    doc.update((name, value) for name, value in vars(args).items()
               if name in known and value is not None)
    params = doc.get("params") or {}
    if not isinstance(params, dict):
        raise ValueError(f"config field 'params' must be an object, got {shown(params)}")
    doc["params"] = {**params, **dict(args.overrides)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown config fields: {unknown}")
    if not replay and "train_path" not in doc:
        needs = "--train" if args.command in ("select", "train") else "--train and --test"
        raise ValueError(f"a run needs {needs} (or config fields)")
    if type(doc.get("stop_after")) is int and doc["stop_after"] == 0:  # not False or 0.0
        doc["stop_after"] = None
    return RunConfig(**doc), grid


def _write_selection(out: Path, config: RunConfig, feature_names, selected, scores, trace):
    """Write selected.json, and trace.jsonl after a wrapper search.

    ``feature_names`` are the training split's columns, which the trace's
    subsets index; ``selected`` holds the kept names in the method's order.
    """
    doc = {
        "format": SELECTION_FORMAT,
        "version": 1,
        "fs_method": config.fs,
        "selected": list(selected),
    }
    if scores is not None:
        doc["scores"] = [
            {"feature": scores.feature_names[i], "score": float(scores.scores[i])}
            for i in scores.ranked
        ]
    (out / "selected.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    if trace is not None:
        (out / "trace.jsonl").write_text(trace_to_jsonl(trace, feature_names),
                                         encoding="utf-8")


def cmd_select(args) -> int:
    config, _ = _load_config(args)
    if config.fs == "none":
        raise ValueError("select needs an fs method other than 'none'")
    train = load_file(config, config.train_path)
    _, (subset, fs_seconds, scores, trace) = subsample_and_select(train, config)
    names = subset_names(train, subset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_selection(out, config, train.feature_names, names, scores, trace)
    print(f"{config.fs}: selected {len(names)} features in {fs_seconds:.2f}s "
          f"-> {out / 'selected.json'}")
    for name in names:
        print(f"  {name}")
    return 0


def cmd_train(args) -> int:
    config, _ = _load_config(args)
    train, (subset, _, scores, trace) = subsample_and_select(
        load_file(config, config.train_path), config)
    plan, model, train_seconds = fit_for_config(train, subset, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.json").write_text(model_to_json(plan, model), encoding="utf-8")
    _write_selection(out, config, train.feature_names, subset_names(train, subset),
                     scores, trace)
    print(f"trained {config.algorithm} on {len(plan.selected)} features "
          f"(train {train_seconds:.2f}s) -> {out / 'model.json'}")
    return 0


def _write_report(report, out: Path) -> None:
    (out / "report.json").write_text(report_to_json(report), encoding="utf-8")
    (out / "report.md").write_text(markdown_table([report]), encoding="utf-8")


def cmd_evaluate(args) -> int:
    # A saved model reads only --test; --train, if given, names the report.
    config, _ = _load_config(args, replay=args.model is not None)
    if args.model:
        try:
            plan, model = model_from_json(Path(args.model).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"{args.model}: {exc}") from exc
        test = load_file(config, config.test_path)
        report = evaluate_model(plan, model, test, dataset=config.name, fs_method="saved",
                                fs_seconds=0.0, train_seconds=model.train_seconds)
    else:
        report = run_pipeline(config).report
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(report, out)
    print(markdown_table([report]), end="")
    print(f"ACC {report.acc:.2f}  DR {report.dr:.2f}  FAR {report.far:.2f} "
          f"-> {out / 'report.json'}")
    return 0


def _guarded(task, i: int) -> memoryview:
    """The pickled outcome of ``task(i)``: ``(result, None)``, or ``(None, error)``
    if it raised or its result cannot be pickled."""
    try:
        return ForkingPickler.dumps((task(i), None))
    except Exception as exc:  # noqa: BLE001 -- a failure must not kill the batch
        return ForkingPickler.dumps((None, f"{type(exc).__name__}: {exc}"))


def _map(task, count: int, jobs: int) -> list:
    """``(task(i), None)``, or ``(None, error)`` if it raised, for each ``i < count``.

    Each task runs in its own forked child, at most ``jobs`` at once, which
    inherits ``task`` and all it closes over copy-on-write, so only its
    outcome crosses a pipe; one task or ``jobs`` of 1 runs here, and its
    outcome makes the same round trip through pickle. A child that dies
    fails its own task alone, as does a result that cannot be pickled, with
    the pickling error. An interrupt stops the children at once; none
    outlives the call.
    """
    if min(jobs, count) < 2:
        return [ForkingPickler.loads(_guarded(task, i)) for i in range(count)]
    fork = multiprocessing.get_context("fork")
    outcomes, pending = [None] * count, list(range(count))
    running = {}  # the parent's receive end -> (task number, child)

    def run(i, send):
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # on Ctrl-C the parent stops the children
        try:
            outcome = _guarded(task, i)
        except KeyboardInterrupt as exc:  # raised by the task: the parent re-raises it
            outcome = ForkingPickler.dumps(exc)
        send.send_bytes(outcome)

    try:
        while pending or running:
            while pending and len(running) < jobs:
                i = pending.pop(0)
                recv, send = fork.Pipe(duplex=False)
                child = fork.Process(target=run, args=(i, send))
                running[recv] = i, child  # registered before it starts: no interrupt orphans it
                with send:  # the parent's copy closed, the child's death reads as end of file
                    child.start()
            for recv in multiprocessing.connection.wait(list(running)):
                i, child = running[recv]
                try:
                    outcome = recv.recv()
                except (EOFError, OSError):  # the child died before its outcome was sent
                    outcome = None
                recv.close()
                child.join()
                del running[recv]
                code = child.exitcode
                child.close()
                if isinstance(outcome, KeyboardInterrupt):
                    raise outcome
                outcomes[i] = outcome or (None, "ChildProcessError: the task's process " + (
                    f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"))
        return outcomes
    finally:
        for recv, (_, child) in running.items():
            recv.close()
            if child.pid is not None:  # started
                child.terminate()
                child.join()
            child.close()


def cmd_bench(args) -> int:
    """Run the fs-method x algorithm grid on one loaded (train, test) pair.

    Each fs row selects once on its subsample, and its cells share that
    selection. With ``--jobs`` above 1 both phases run through ``_map``, one
    forked child per task, as closures over the splits and selections, so
    only selections and reports cross the pipe. A cell fails alone, even
    when its child dies.
    """
    base, grid = _load_config(args, allow_grid=True)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ValueError("--jobs above 1 needs the 'fork' start method, "
                         "which this platform does not have")
    fs_methods = grid.get("fs_methods") or [base.fs]
    algorithms = grid.get("algorithms") or [base.algorithm]
    rows = [dataclasses.replace(base, fs=fs) for fs in fs_methods]
    cells = [dataclasses.replace(row, algorithm=algo) for row in rows for algo in algorithms]
    # Every cell shares one (train, test) pair; the columns are read-only.
    splits = load_splits(base)[:2]
    selections = _map(lambda i: subsample_and_select(splits[0], rows[i])[1],
                      len(rows), args.jobs)

    def run_cell(i):  # a cell whose row failed to select runs nothing
        selection, row_error = selections[i // len(algorithms)]
        return None if row_error else run_pipeline(cells[i], splits, selection).report

    outcomes = _map(run_cell, len(cells), args.jobs)

    out = Path(args.out)
    reports, failures = [], []
    for i, (config, (report, error)) in enumerate(zip(cells, outcomes)):
        cell_dir = out / f"cell_{config.fs}_{config.algorithm}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        if report is not None:
            _write_report(report, cell_dir)
            reports.append(report)
        else:
            error = error or selections[i // len(algorithms)][1]  # the row's own failure
            (cell_dir / "error.txt").write_text(error + "\n", encoding="utf-8")
            failures.append({"fs": config.fs, "algorithm": config.algorithm,
                             "error": error})

    averages = []
    for fs in fs_methods:
        row = [r for r in reports if r.fs_method == fs]
        if row:
            averages.append({"fs_method": fs, "cells": len(row), **{
                f"mean_{key}": sum(getattr(r, key) for r in row) / len(row)
                for key in ("acc", "dr", "far", "fs_seconds", "blended_train_seconds")}})

    summary = {"reports": len(reports), "failures": failures, "averages": averages}
    (out / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    md_lines = [markdown_table(reports).rstrip("\n"), "",
                "| FS Method | Mean ACC | Mean DR | Mean FAR | Mean FS s | Mean Train+FS s |",
                "|---|---|---|---|---|---|"]
    for row in averages:
        md_lines.append(
            f"| {row['fs_method']} | {row['mean_acc']:.2f} | {row['mean_dr']:.2f} "
            f"| {row['mean_far']:.2f} | {row['mean_fs_seconds']:.2f} "
            f"| {row['mean_blended_train_seconds']:.2f} |"
        )
    (out / "summary.md").write_text("\n".join(md_lines) + "\n", encoding="utf-8")

    print(f"bench: {len(reports)} cells ok, {len(failures)} failed -> {out / 'summary.md'}")
    for failure in failures:
        print(f"  failed {failure['fs']}/{failure['algorithm']}: {failure['error']}",
              file=sys.stderr)
    return 1 if failures else 0


COMMANDS = {
    "select": cmd_select,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
