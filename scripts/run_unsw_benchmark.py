#!/usr/bin/env python3
"""Benchmark the classifier grid on the UNSW-NB15 hold-out split.

Needs the two official CSVs; point FSEL_IDS_DATA_DIR at the directory
holding them. For every requested feature set this script fits each
requested classifier on the training split and reports ACC/DR/FAR on the
test split, plus timings, as one Markdown table. Each cell goes through
the pipeline's fit and evaluate steps, so its train_seconds covers plan
fitting plus model fitting, as in run_pipeline.

Feature sets are the bundled reference subsets (a fresh wrapper search on
the full data takes hours, so the curated 19-feature lists ship with the
package) plus "full" for all 42 inputs. Fresh filter rankings are cheap;
pass --fresh-filters to recompute infogain/gainratio/relief top-k instead
of using the bundled lists.

Usage:
    FSEL_IDS_DATA_DIR=~/data python scripts/run_unsw_benchmark.py \
        --subsets full wrapper infogain --algos tree forest --subsample 0.1
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from fsel_ids.metrics import markdown_table, report_to_json
from fsel_ids.models import ALGORITHMS, params_from_dict
from fsel_ids.pipeline import (
    RunConfig,
    evaluate_model,
    fit_plan_and_model,
    load_splits,
    select_features,
    subsample_and_select,
)
from fsel_ids.unsw import REFERENCE_SUBSETS, split_paths

SUBSET_CHOICES = ("full",) + tuple(sorted(REFERENCE_SUBSETS))


def resolve_subset(train, name: str, fresh: bool, config: RunConfig):
    """Feature indices plus the seconds spent choosing them."""
    if name == "full":
        return sorted(range(len(train.columns))), 0.0
    if fresh and name != "wrapper":
        subset, fs_seconds, _, _ = select_features(train, dataclasses.replace(config, fs=name))
        return sorted(subset), fs_seconds
    names = REFERENCE_SUBSETS[name]
    return sorted(train.index_of(n) for n in names), 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--subsets", nargs="+", default=["full", "wrapper"],
                        choices=SUBSET_CHOICES, help="feature sets to evaluate")
    parser.add_argument("--algos", nargs="+", default=["tree", "forest"],
                        choices=ALGORITHMS, help="classifiers to fit")
    parser.add_argument("--subsample", type=float, default=1.0,
                        help="stratified training fraction (1.0 = all rows)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=19,
                        help="features kept when --fresh-filters recomputes a ranking")
    parser.add_argument("--fresh-filters", action="store_true",
                        help="recompute filter rankings instead of using bundled lists")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides", help="hyperparameter override, repeatable")
    parser.add_argument("--out", help="directory for per-cell report JSON files")
    args = parser.parse_args(argv)

    overrides = {}
    for item in args.overrides:
        key, _, raw = item.partition("=")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw

    try:
        train_path, test_path = split_paths()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"loading {train_path.name} / {test_path.name} ...", flush=True)
    config = RunConfig(train_path=str(train_path), test_path=str(test_path), k=args.k,
                       seed=args.seed, subsample=args.subsample, dataset_name="unsw-nb15")
    train, test, _ = load_splits(config)
    train, _ = subsample_and_select(train, config)
    if args.subsample < 1.0:
        print(f"subsampled training split to {train.row_count} rows")

    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    reports = []
    for subset_name in args.subsets:
        indices, fs_seconds = resolve_subset(train, subset_name, args.fresh_filters, config)
        for algo in args.algos:
            params = params_from_dict(algo, overrides, seed=args.seed)
            plan, model, train_seconds = fit_plan_and_model(train, indices, params)
            _, report = evaluate_model(plan, model, test, dataset=config.name,
                                       fs_method=subset_name, fs_seconds=fs_seconds,
                                       train_seconds=train_seconds)
            reports.append(report)
            print(f"  {subset_name}/{algo}: ACC {report.acc:.2f} DR {report.dr:.2f} "
                  f"FAR {report.far:.2f} (train {train_seconds:.1f}s)", flush=True)
            if out:
                path = out / f"report_{subset_name}_{algo}.json"
                path.write_text(report_to_json(report), encoding="utf-8")

    print()
    print(markdown_table(reports), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
