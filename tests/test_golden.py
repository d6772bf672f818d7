"""Golden outputs: one demo-data grid, hashed against ``tests/golden.json``.

The grid runs the fs methods none, wrapper, infogain, gainratio and relief
against all six algorithms (``n_trees=5``) through ``bench`` at ``--jobs`` 1
and 2, on demo data made with ``scripts/make_demo_data.py``'s generator
(1,000 train and 500 test rows, seed 0). Each digest is the SHA-256 of a
canonical JSON text:

- ``report/<fs>/<algorithm>``: a cell's ``report.json`` without its timings;
  for MLP and SVM cells this is all that is hashed (confusion counts and
  rates), because their weights come from BLAS calls that may differ
  between numpy builds;
- ``model/<fs>/<algorithm>``: the ``model.json`` document of each tree,
  forest, naive Bayes and kNN cell without ``train_seconds``, so its params,
  plan and payload;
- ``trace/wrapper``: the wrapper search's (subset, merit) pairs.

A change that moves any of these outputs fails here. When the move is
deliberate, regenerate the file and name each moved digest in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fsel_ids import cli
from fsel_ids.models import model_to_json

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
FS_METHODS = ["none", "wrapper", "infogain", "gainratio", "relief"]
ALGORITHMS = ["tree", "forest", "naive_bayes", "knn", "mlp", "linear_svm"]
SAVED = ("tree", "forest", "naive_bayes", "knn")  # models whose payloads are hashed


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _demo_split(root: Path) -> list[str]:
    """Write the demo train/test/schema files and a grid config under
    ``root``; return the ``bench`` arguments that read them."""
    spec = importlib.util.spec_from_file_location(
        "make_demo_data", HERE.parent / "scripts" / "make_demo_data.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    rng = np.random.default_rng(0)
    demo.write_csv(root / "train.csv", demo.sample_rows(rng, 1000))
    demo.write_csv(root / "test.csv", demo.sample_rows(rng, 500))
    (root / "schema.txt").write_text("\n".join(demo.SCHEMA_LINES) + "\n", encoding="utf-8")
    (root / "grid.json").write_text(json.dumps(
        {"fs_methods": FS_METHODS, "algorithms": ALGORITHMS, "k": 4}), encoding="utf-8")
    return ["bench", "--train", str(root / "train.csv"), "--test", str(root / "test.csv"),
            "--schema", str(root / "schema.txt"), "--config", str(root / "grid.json"),
            "--set", "n_trees=5"]


def _report_digests(out: Path) -> dict[str, str]:
    digests = {}
    for fs in FS_METHODS:
        for algo in ALGORITHMS:
            report = json.loads((out / f"cell_{fs}_{algo}" / "report.json").read_text())
            del report["timings"]
            digests[f"report/{fs}/{algo}"] = _digest(report)
    return digests


def grid_digests(root: Path, jobs: int, monkeypatch=None) -> dict[str, str]:
    """The digests of one ``bench`` run at ``jobs``; with ``monkeypatch`` (at
    ``jobs`` 1, where cells run in this process) also the models and trace."""
    results = []
    if monkeypatch is not None:
        run_pipeline = cli.run_pipeline

        def recording(*args, **kwargs):
            results.append(run_pipeline(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_pipeline", recording)
    out = root / f"jobs{jobs}"
    assert cli.main(_demo_split(root) + ["--jobs", str(jobs), "--out", str(out)]) == 0
    digests = _report_digests(out)
    for result in results:
        fs, algo = result.report.fs_method, result.report.algorithm
        if algo in SAVED:
            doc = json.loads(model_to_json(result.plan, result.model))
            del doc["train_seconds"]
            digests[f"model/{fs}/{algo}"] = _digest(doc)
        if result.trace is not None and "trace/wrapper" not in digests:
            digests["trace/wrapper"] = _digest(
                [[list(step.subset), step.merit] for step in result.trace.steps])
    return digests


def test_grid_outputs_match_the_golden_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
    serial = grid_digests(tmp_path, 1, monkeypatch)
    assert serial.keys() == golden.keys()
    moved = sorted(key for key in golden if serial[key] != golden[key])
    assert not moved, f"outputs moved from tests/golden.json: {moved}"
    forked = grid_digests(tmp_path, 2)
    moved = sorted(key for key, value in forked.items() if golden[key] != value)
    assert not moved, f"--jobs 2 outputs moved from tests/golden.json: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        digests = grid_digests(Path(tmp), 1, mp)
    GOLDEN.write_text(json.dumps({"refresh": "PYTHONPATH=src python tests/test_golden.py --write",
                                   "digests": digests}, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(digests)} digests -> {GOLDEN}")
