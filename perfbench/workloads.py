"""The three benchmark workloads.

Each workload has a set-up (``pipeline.load_splits`` on its train and
test CSVs, which every user run pays), an untimed ``prepare`` that
builds the experiment's configuration, a timed ``round`` of the
experiment, and an untimed ``check`` of every round's outputs. The
check's expectations are computed from the inputs only after the rounds,
so that they add nothing to the peak RSS the run reports.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import traceback
from pathlib import Path

import numpy as np

import checks
import gen
from checks import require

from fsel_ids import cli, unsw
from fsel_ids.models import fit_model, params_from_dict, predict_model
from fsel_ids.pipeline import RunConfig, run_pipeline, select_features
from fsel_ids.preprocess import apply_preprocess, fit_preprocess

ENTROPY_FILTERS = ("infogain", "gainratio")


def entropy_oracle(train) -> dict:
    """Information gain and gain ratio of every training column, by the oracle."""
    columns, labels = checks.dataset_columns(train)
    return dict(zip(ENTROPY_FILTERS, checks.oracle_entropy_scores(columns, labels)))


class Workload:
    # Timed set-ups before the first round, between rounds and after the last.
    setup_reps = (8, 4, 8)
    # Whether the host-speed probe runs, and scales the time, in the rounds.
    probe_rounds = True

    def __init__(self, seed: int, train_path: Path, test_path: Path, scratch: Path):
        self.seed = seed
        self.train_path, self.test_path = train_path, test_path
        self.scratch = scratch
        self.base = RunConfig(train_path=str(train_path), test_path=str(test_path), seed=seed)
        self.results: list = []

    def prepare(self, train, test) -> None:
        self.d = len(train.columns)

    def _run(self, config: RunConfig) -> int:
        """One run_pipeline cell; returns 1 if it failed."""
        try:
            self.results.append(run_pipeline(config))
            return 0
        except Exception:  # noqa: BLE001 -- a failed operation is counted, not fatal
            traceback.print_exc()
            return 1

    def check_reports(self) -> None:
        rows, attack = checks.csv_label_counts(self.test_path)
        for r in self.results:
            checks.check_report(checks.report_fields(r.report), rows, attack,
                                f"{r.report.fs_method}/{r.report.algorithm}")


class WrapperTree(Workload):
    """Tree-evaluated best-first wrapper on 990-row subsamples, all 42 inputs.

    The search is fixed at two expansions (stop_after=1 and epsilon=1, so
    only the first expansion counts as an improvement): the 42 one-feature
    subsets, then the 41 extensions of the best. That is 83 merits and 416
    tree grows per search on every seed. A round runs one search on each of
    the seed's three training files, which are drawn independently, so that
    the round's cost averages over three draws; see README for why.
    """

    setup_reps = (6, 0, 6)
    SEARCH = {"subsample": 0.9, "folds": 5, "stop_after": 1, "epsilon": 1.0}

    def prepare(self, train, test):
        super().prepare(train, test)
        self.planted = {train.index_of(name) for name in gen.PLANTED}
        paths = [self.train_path, *gen.extra_train_paths(self.train_path.parent, "wrapper")]
        self.configs = [dataclasses.replace(self.base, train_path=str(path), fs="wrapper",
                                            algorithm="tree", **self.SEARCH) for path in paths]

    def round(self):
        return len(self.configs), sum(self._run(config) for config in self.configs)

    def check(self, train, test):
        self.check_reports()
        for r in self.results:
            checks.check_wrapper_trace(r.trace, self.d, self.SEARCH["stop_after"],
                                       self.SEARCH["epsilon"], self.planted)


class FilterGrid(Workload):
    """``fsel-ids bench --jobs 2``: 3 filters x 4 classifiers on 10k/5k rows."""

    probe_rounds = False  # the probe would share the cores with the bench's threads

    GRID = {"fs_methods": ["infogain", "gainratio", "relief"],
            "algorithms": ["naive_bayes", "knn", "mlp", "linear_svm"],
            "k": 19, "relief_sample": 100}
    KNN_SAMPLE = 25

    def prepare(self, train, test):
        super().prepare(train, test)
        self.config_path = self.scratch / "grid.json"
        self.config_path.write_text(json.dumps({**self.GRID, "seed": self.seed}), encoding="utf-8")
        self.outs: list[Path] = []

    def round(self):
        out = self.scratch / f"bench-{len(self.outs)}"
        self.outs.append(out)
        cli.main(["bench", "--config", str(self.config_path), "--train", str(self.train_path),
                  "--test", str(self.test_path), "--out", str(out), "--jobs", "2"])
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        for failure in summary["failures"]:
            print(f"failed cell {failure['fs']}/{failure['algorithm']}: {failure['error']}",
                  file=sys.stderr)
        cells = len(self.GRID["fs_methods"]) * len(self.GRID["algorithms"])
        return cells, len(summary["failures"])

    def check(self, train, test):
        test_rows, test_attack = checks.csv_label_counts(self.test_path)
        for out in self.outs:
            for report in sorted(out.glob("cell_*/report.json")):
                doc = json.loads(report.read_text(encoding="utf-8"))
                checks.check_report(doc, test_rows, test_attack, report.parent.name)
        # The bench output hides selections and votes: recompute them with the
        # same public layer functions on the same inputs.
        oracle = entropy_oracle(train)
        config = dataclasses.replace(self.base, k=self.GRID["k"],
                                     relief_sample=self.GRID["relief_sample"])
        for fs in ENTROPY_FILTERS:
            subset, _, scores, _ = select_features(train, dataclasses.replace(config, fs=fs))
            checks.check_scores(scores.scores, oracle[fs], fs)
            checks.check_selection(subset, oracle[fs], config.k, fs)
        subset = select_features(train, dataclasses.replace(config, fs="infogain"))[0]
        plan = fit_preprocess(train, sorted(subset))
        train_x = apply_preprocess(plan, train)
        rows = np.sort(np.random.default_rng(self.seed).choice(
            test.row_count, self.KNN_SAMPLE, replace=False))
        queries = apply_preprocess(plan, test.take_rows(rows))
        model = fit_model(train_x, params_from_dict("knn", {}, seed=self.seed))
        checks.check_knn(train_x.as_matrix(), train_x.labels, queries.as_matrix(),
                         predict_model(model, queries), model.params.k, "infogain/knn")


class UnswFull(Workload):
    """run_pipeline cells at the official 175,341 / 82,332-row scale."""

    setup_reps = (2, 1, 1)
    CELLS = (("infogain", "naive_bayes"), ("gainratio", "linear_svm"), ("infogain", "mlp"))
    PARAMS = {"mlp_epochs": 2, "svm_epochs": 2}

    def round(self):
        failed = 0
        for fs, algorithm in self.CELLS:
            failed += self._run(dataclasses.replace(self.base, fs=fs, algorithm=algorithm,
                                                    params=dict(self.PARAMS)))
        return len(self.CELLS), failed

    def check(self, train, test):
        checks.check_split(train, self.train_path, unsw.TRAIN_ROWS, unsw.TRAIN_ATTACK)
        checks.check_split(test, self.test_path, unsw.TEST_ROWS, unsw.TEST_ATTACK)
        width = fit_preprocess(train).output_width
        want = len(gen.NUMERIC) + len(gen.PROTOS) + len(gen.SERVICES) + len(gen.STATES)
        require(width == want, f"encoded width {width}, generator makes {want}")
        self.check_reports()
        oracle = entropy_oracle(train)
        names = train.feature_names
        for r in self.results:
            fs = r.report.fs_method
            checks.check_scores(r.scores.scores, oracle[fs], fs)
            subset = [names.index(name) for name in r.selected_names]
            checks.check_selection(subset, oracle[fs], self.base.k, fs)


WORKLOADS = {"wrapper-tree": WrapperTree, "filter-grid": FilterGrid, "unsw-full": UnswFull}
