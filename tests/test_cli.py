import json
import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest

from fsel_ids import cli, models, pipeline, unsw
from fsel_ids.cli import main
from fsel_ids.dataset import Dataset
from fsel_ids.metrics import report_to_json
from fsel_ids.models import MODEL_VERSION, model_from_json
from fsel_ids.pipeline import REFERENCE_FS, RunConfig, run_pipeline
from fsel_ids.preprocess import plan_from_doc

from conftest import write_csv


def common_flags(toy_split, out_dir):
    train, test, schema = toy_split
    return [
        "--train", str(train),
        "--test", str(test),
        "--schema", str(schema),
        "--out", str(out_dir),
    ]


def test_select_writes_ranked_subset(toy_split, tmp_path, capsys):
    out = tmp_path / "sel"
    code = main(["select", "--fs", "infogain", "--k", "2", *common_flags(toy_split, out)])
    assert code == 0
    doc = json.loads((out / "selected.json").read_text())
    assert doc["format"] == "fsel-ids/selection"
    assert doc["fs_method"] == "infogain"
    assert len(doc["selected"]) == 2
    ranked = [row["score"] for row in doc["scores"]]
    assert ranked == sorted(ranked, reverse=True)
    assert doc["selected"][0] == doc["scores"][0]["feature"]
    stdout = capsys.readouterr().out
    for name in doc["selected"]:
        assert name in stdout


def test_select_requires_a_method(toy_split, tmp_path, capsys):
    code = main(["select", *common_flags(toy_split, tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_select_wrapper_writes_parseable_trace(toy_split, tmp_path):
    out = tmp_path / "wsel"
    code = main(["select", "--fs", "wrapper", *common_flags(toy_split, out)])
    assert code == 0
    lines = (out / "trace.jsonl").read_text().strip().split("\n")
    docs = [json.loads(line) for line in lines]
    assert all("merit" in d for d in docs[:-1])
    summary = docs[-1]
    assert summary["stop_reason"] in ("stop_rule", "exhausted")
    assert summary["best_subset"]


def test_stop_after_zero_means_exhaustive(toy_split, tmp_path):
    train, test, schema = toy_split
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train_path": str(train),
        "test_path": str(test),
        "schema_path": str(schema),
        "fs": "wrapper",
        "folds": 3,
        "stop_after": 0,
    }))
    out = tmp_path / "exh"
    code = main(["select", "--config", str(config), "--out", str(out)])
    assert code == 0
    last = json.loads((out / "trace.jsonl").read_text().strip().split("\n")[-1])
    assert last["stop_reason"] == "exhausted"


def test_select_wrapper_rejects_folds_that_would_be_empty(toy_split, tmp_path, capsys):
    # 240 training rows: 400 folds would leave most of them empty.
    train, _, schema = toy_split
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train_path": str(train),
        "schema_path": str(schema),
        "fs": "wrapper",
        "folds": 400,
        "stop_after": 1,
    }))
    out = tmp_path / "empty_folds"
    assert main(["select", "--config", str(config), "--out", str(out)]) == 1
    assert "folds=400 would leave folds empty" in capsys.readouterr().err
    assert not (out / "trace.jsonl").exists()


def test_train_wrapper_writes_the_select_trace(toy_split, tmp_path):
    sel, run = tmp_path / "sel", tmp_path / "run"
    assert main(["select", "--fs", "wrapper", *common_flags(toy_split, sel)]) == 0
    assert main(["train", "--fs", "wrapper", "--algo", "tree",
                 *common_flags(toy_split, run)]) == 0

    def untimed_trace(out):
        docs = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        for doc in docs:
            doc.pop("timestamp", None)
        return docs

    assert untimed_trace(run) == untimed_trace(sel)
    assert (json.loads((run / "selected.json").read_text())
            == json.loads((sel / "selected.json").read_text()))


def test_train_writes_model_plan_and_selection(toy_split, tmp_path):
    out = tmp_path / "run"
    code = main([
        "train", "--fs", "gainratio", "--k", "2", "--algo", "tree",
        "--set", "min_leaf=4", *common_flags(toy_split, out),
    ])
    assert code == 0
    plan, model = model_from_json((out / "model.json").read_text())
    assert model.algorithm == "tree"
    assert model.params.min_leaf == 4
    assert model.feature_names == plan.output_names
    doc = json.loads((out / "model.json").read_text())
    assert list(doc) == ["format", "version", "params", "plan", "train_seconds", "payload"]
    assert doc["version"] == MODEL_VERSION == 4
    assert list(doc["plan"]) == ["selected", "minmax", "onehot"]
    selected = json.loads((out / "selected.json").read_text())
    assert len(selected["selected"]) == 2
    assert sorted(doc["plan"]["selected"]) == sorted(selected["selected"])
    # the plan is a field of model.json, and no other file holds it
    assert sorted(p.name for p in out.iterdir()) == ["model.json", "selected.json"]


def test_evaluate_has_no_plan_flag(toy_split, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "tree", *common_flags(toy_split, run_dir)]) == 0
    with pytest.raises(SystemExit) as info:
        main(["evaluate", "--model", str(run_dir / "model.json"), "--plan",
              str(run_dir / "model.json"), *common_flags(toy_split, tmp_path / "saved")])
    assert info.value.code == 2
    assert "unrecognized arguments: --plan" in capsys.readouterr().err


def test_train_never_scores_the_test_split(toy_split, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("train must not predict")

    monkeypatch.setattr(pipeline, "predict_model", refuse)
    monkeypatch.setattr(models, "predict_model", refuse)
    out = tmp_path / "run"
    assert main(["train", "--fs", "infogain", "--k", "2", "--algo", "tree",
                 *common_flags(toy_split, out)]) == 0
    assert model_from_json((out / "model.json").read_text())[1].algorithm == "tree"
    assert (out / "selected.json").exists()


def test_select_and_train_never_read_the_test_split(toy_split, tmp_path, capsys):
    train, _, schema = toy_split
    bad = tmp_path / "bad_test.csv"
    bad.write_text("not,the,schema\n1,2,3\n", encoding="utf-8")
    flags = ["--train", str(train), "--test", str(bad), "--schema", str(schema),
             "--fs", "infogain", "--k", "2"]
    assert main(["select", *flags, "--out", str(tmp_path / "sel")]) == 0
    assert main(["train", *flags, "--algo", "tree", "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "model.json").exists()
    # the file is bad: a command that scores it fails on its header
    assert main(["evaluate", *flags, "--out", str(tmp_path / "eval")]) == 1
    assert "header does not match" in capsys.readouterr().err

    # without --test at all, select and train still run; evaluate names the flag
    no_test = ["--train", str(train), "--schema", str(schema), "--fs", "infogain", "--k", "2"]
    assert main(["select", *no_test, "--out", str(tmp_path / "sel2")]) == 0
    assert main(["train", *no_test, "--algo", "tree", "--out", str(tmp_path / "run2")]) == 0
    assert (tmp_path / "run2" / "model.json").exists()
    capsys.readouterr()
    assert main(["evaluate", *no_test, "--out", str(tmp_path / "eval2")]) == 1
    assert "needs --test" in capsys.readouterr().err


def test_evaluate_fresh_writes_report(toy_split, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["evaluate", "--algo", "tree", *common_flags(toy_split, out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["acc"] >= 95.0
    md = (out / "report.md").read_text()
    assert md.startswith("| FS Method | Algorithm | ACC | DR | FAR |")
    stdout = capsys.readouterr().out
    assert "| none | tree |" in stdout


def test_evaluate_saved_model_matches_fresh_run(toy_split, tmp_path):
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "tree", *common_flags(toy_split, run_dir)]) == 0

    fresh_dir = tmp_path / "fresh"
    assert main(["evaluate", "--algo", "tree", *common_flags(toy_split, fresh_dir)]) == 0
    fresh = json.loads((fresh_dir / "report.json").read_text())

    saved_dir = tmp_path / "saved"
    code = main([
        "evaluate",
        "--model", str(run_dir / "model.json"),
        *common_flags(toy_split, saved_dir),
    ])
    assert code == 0
    saved = json.loads((saved_dir / "report.json").read_text())
    assert saved["fs_method"] == "saved"
    assert saved["confusion"] == fresh["confusion"]
    assert saved["acc"] == fresh["acc"]


def test_evaluate_saved_model_never_opens_train(toy_split, tmp_path, capsys):
    train, test, schema = toy_split
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "knn", *common_flags(toy_split, run_dir)]) == 0
    saved = ["evaluate", "--model", str(run_dir / "model.json"), "--schema", str(schema)]
    reports = []
    # same stem, so the report's dataset name is the same
    for tag, train_path in (("real", train), ("missing", tmp_path / "gone" / train.name)):
        out = tmp_path / tag
        assert main([*saved, "--train", str(train_path), "--test", str(test),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["dataset"] == "train"
    capsys.readouterr()
    assert main([*saved, "--train", str(train), "--out", str(tmp_path / "no_test")]) == 1
    assert "a run that scores needs --test" in capsys.readouterr().err


def test_evaluate_saved_model_needs_no_train(toy_split, tmp_path):
    train, test, schema = toy_split
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "naive_bayes", *common_flags(toy_split, run_dir)]) == 0
    saved = ["evaluate", "--model", str(run_dir / "model.json"), "--schema", str(schema),
             "--test", str(test)]
    assert main([*saved, "--train", str(train), "--out", str(tmp_path / "with")]) == 0
    assert main([*saved, "--out", str(tmp_path / "without")]) == 0
    with_train, without = (json.loads((tmp_path / tag / "report.json").read_text())
                           for tag in ("with", "without"))
    assert (with_train["dataset"], without["dataset"]) == ("train", "test")
    assert without["confusion"] == with_train["confusion"]


def test_evaluate_rejects_a_tree_split_beyond_the_features(toy_split, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "tree", *common_flags(toy_split, run_dir)]) == 0
    doc = json.loads((run_dir / "model.json").read_text())
    nodes = doc["payload"]["nodes"]
    split = next(i for i, node in enumerate(nodes) if "feature" in node)
    nodes[split]["feature"] = plan_from_doc(doc["plan"]).output_width
    (run_dir / "model.json").write_text(json.dumps(doc))
    code = main([
        "evaluate",
        "--model", str(run_dir / "model.json"),
        *common_flags(toy_split, tmp_path / "saved"),
    ])
    assert code == 1
    assert f"tree node {split} splits on feature" in capsys.readouterr().err


def _drop_counts(model, plan):
    node = next(n for n in model["payload"]["nodes"] if "children" in n)
    del node["counts"]


def _nan_threshold(model, plan):
    assert "threshold" in model["payload"]["nodes"][0]  # the root splits
    model["payload"]["nodes"][0]["threshold"] = float("nan")


def _drop_hidden_unit(model, plan):
    """The last hidden unit goes from w1, b1 and w2; params still say 32."""
    payload = model["payload"]
    for row in payload["w1"]:
        row.pop()
    payload["b1"].pop()
    payload["w2"].pop()


def _set_root(key, value, algorithm="tree"):
    """An edit that sets ``key`` of the root of the tree, or of the forest's first tree."""
    def edit(model, plan):
        payload = model["payload"]
        tree = payload if algorithm == "tree" else payload[0]
        assert key in tree["nodes"][0]  # the root splits when a split's key is set
        tree["nodes"][0][key] = value
    return edit


def _float_child(model, plan):
    children = model["payload"]["nodes"][0]["children"]
    children[0] = float(children[0])


@pytest.mark.parametrize("algorithm, edit, names", [
    ("tree", _drop_counts, "malformed model document (KeyError"),
    *[(algorithm, _set_root("counts", counts, algorithm), "malformed model document"
       f" (DatasetError: tree document: node 0 has counts {counts!r}, not two non-negative"
       " integers")
      for algorithm, counts in (("tree", [-5, 1]), ("tree", [2.7, 1]), ("tree", ["3", 1]),
                                ("tree", [1, 2, 3]), ("forest", [True, 1]),
                                ("forest", [-1, 4]))],
    ("naive_bayes", lambda model, plan: plan["onehot"][0][1].append(plan["onehot"][0][1][0]),
     "malformed model document (DatasetError: column 'proto': category"),
    ("tree", lambda model, plan: model["params"].update(depth=3),
     "malformed model document (TypeError"),
    ("tree", lambda model, plan: plan.pop("selected"),
     "malformed model document (KeyError"),
    ("tree", lambda model, plan: plan.update(minmax=5),
     "malformed model document (TypeError"),
    ("knn", lambda model, plan: model["payload"]["matrix"].pop(), "malformed model document"),
    ("knn", lambda model, plan: model["payload"]["matrix"][0].pop(), "malformed model document"),
    ("knn", lambda model, plan: model["payload"]["labels"].__setitem__(0, 300),
     "malformed model document (ModelError: knn labels must be 0 or 1"),
    ("knn", lambda model, plan: model["payload"]["labels"].__setitem__(0, 2),
     "malformed model document (ModelError: knn labels must be 0 or 1"),
    ("naive_bayes", lambda model, plan: model["payload"]["mean"].pop(),
     "malformed model document (ModelError: mean has shape (4, 2), the model needs (5, 2)"),
    ("naive_bayes", lambda model, plan: model["payload"]["var"][1].__setitem__(0, -1.0),
     "malformed model document (ModelError: var[1, 0] is -1.0, not positive"),
    ("tree", _nan_threshold, "malformed model document (DatasetError: tree document: node 0"
     " has threshold nan"),
    ("mlp", lambda model, plan: model["payload"]["w2"].__setitem__(0, float("inf")),
     "malformed model document (ModelError: w2[0] is inf, not finite"),
    ("linear_svm", lambda model, plan: model["payload"].update(b=float("nan")),
     "malformed model document (ModelError: b is nan, not finite"),
    ("mlp", lambda model, plan: model["payload"]["w1"].pop(),
     "malformed model document (ModelError: w1 has shape (4, 32), the model needs (5, 32)"),
    ("mlp", lambda model, plan: model["payload"].update(b2=[0.0, 5.0]),
     "malformed model document (ModelError: b2 has shape (2,), the model needs (1,)"),
    ("mlp", _drop_hidden_unit,
     "malformed model document (ModelError: w1 has shape (5, 31), the model needs (5, 32)"),
    ("linear_svm", lambda model, plan: model["payload"]["w"].pop(),
     "malformed model document (ModelError: w has shape (4,), the model needs (5,)"),
    ("linear_svm", lambda model, plan: model["payload"].update(objective_trace="abc"),
     "malformed model document (ModelError: objective_trace holds str values, not only"
     " numbers"),
    ("linear_svm", lambda model, plan: model["payload"].update(objective_trace=[float("nan")]),
     "malformed model document (ModelError: objective_trace has shape (1,), the model needs"
     " (21,)"),
    ("linear_svm", lambda model, plan: model["payload"]["objective_trace"].__setitem__(
        3, float("nan")), "malformed model document (ModelError: objective_trace[3] is nan"),
    ("linear_svm", lambda model, plan: model["payload"].update(b=[0.5]),
     "malformed model document (ModelError: b has shape (1,), the model needs ()"),
    *[("tree", _set_root("feature", feature), "malformed model document (DatasetError: tree"
       f" node 0 splits on feature {feature!r}") for feature in (0.5, True)],
    ("tree", _float_child, "malformed model document (DatasetError: tree document: node 0 has"
     " child index 1.0"),
    *[("tree", _set_root("threshold", threshold), "malformed model document (DatasetError:"
       f" tree document: node 0 has threshold {threshold!r}") for threshold in ("0.5", True)],
    *[("naive_bayes", lambda model, plan, seconds=seconds: model.update(train_seconds=seconds),
       f"malformed model document (ModelError: train_seconds is {seconds!r}, not a finite"
       " number >= 0") for seconds in (float("nan"), "7", True, -1)],
    ("knn", lambda model, plan: model["params"].pop("k"),
     "malformed model document (ModelError: params lacks ['k']"),
    ("knn", lambda model, plan: model["payload"]["matrix"][0].__setitem__(0, 10 ** 400),
     "malformed model document (OverflowError"),
    ("naive_bayes", lambda model, plan: plan["onehot"][0].__setitem__(1, [1, 2, 3]),
     "malformed model document (DatasetError: column 'proto': categories [1, 2, 3]"
     " are not all strings"),
    *[("naive_bayes", lambda model, plan, lo=lo: plan["minmax"][0].__setitem__(1, lo),
       f"malformed model document (DatasetError: column 'f1': fitted min {lo!r} and"
       " max") for lo in ("0", True, float("inf"))],
    ("naive_bayes", lambda model, plan: plan["minmax"][0].__setitem__(1, 10 ** 400),
     "malformed model document (OverflowError"),
    ("naive_bayes", lambda model, plan: plan["selected"].__setitem__(0, 0),
     "malformed model document (DatasetError: selected names [0, 'f2', 'proto'] are"
     " not all strings"),
    *[("tree", lambda model, plan, value=value: model.update(plan=value),
       "malformed model document (TypeError") for value in ([1, 2], "plan", None)],
    ("forest", lambda model, plan: model.update(payload=[]),
     "malformed model document (ModelError: forest has 0 trees, params.n_trees is 100"),
    ("forest", lambda model, plan: model["payload"].pop(),
     "malformed model document (ModelError: forest has 99 trees, params.n_trees is 100"),
    *[("knn", lambda model, plan, value=value: model["payload"]["matrix"][0].__setitem__(0, value),
       f"malformed model document (ModelError: matrix holds {kind} values, not only numbers")
      for value, kind in (("0.5", "str"), (True, "bool"), (None, "NoneType"))],
    ("knn", lambda model, plan: model["payload"]["matrix"][0].extend(["0.5", True]),
     "malformed model document (ModelError: matrix holds bool and str values, not only"
     " numbers"),
    ("knn", lambda model, plan: model["payload"]["labels"].__setitem__(0, True),
     "malformed model document (ModelError: labels holds bool values, not only numbers"),
    ("naive_bayes", lambda model, plan: model["payload"]["log_prior"].__setitem__(0, True),
     "malformed model document (ModelError: log_prior holds bool values, not only numbers"),
    ("linear_svm", lambda model, plan: model["payload"].update(b="0.5"),
     "malformed model document (ModelError: b holds str values, not only numbers"),
], ids=["tree-node-without-counts", "tree-counts-negative", "tree-counts-a-float",
        "tree-counts-a-string", "tree-counts-three", "forest-counts-a-bool",
        "forest-counts-negative", "plan-category-twice", "unknown-param",
        "plan-without-selected", "minmax-not-a-list", "knn-matrix-without-a-row",
        "knn-matrix-with-a-short-row", "knn-label-300", "knn-label-2", "nb-stat-dropped", "nb-negative-var", "tree-nan-threshold",
        "mlp-inf-weight", "svm-nan-bias", "mlp-w1-row-dropped", "mlp-b2-two-long",
        "mlp-hidden-unit-dropped", "svm-w-entry-dropped", "svm-trace-a-string",
        "svm-trace-one-nan", "svm-trace-nan-entry", "svm-bias-a-list", "tree-feature-a-float",
        "tree-feature-a-bool", "tree-child-a-float", "tree-threshold-a-string",
        "tree-threshold-a-bool", "train-seconds-nan", "train-seconds-a-string",
        "train-seconds-a-bool", "train-seconds-negative", "params-without-k",
        "knn-matrix-overflow", "plan-categories-numbers", "plan-min-a-string",
        "plan-min-a-bool", "plan-min-infinite", "plan-min-overflow", "plan-name-a-number",
        "plan-a-list", "plan-a-string", "plan-null", "forest-without-trees",
        "forest-tree-dropped", "knn-matrix-a-string", "knn-matrix-a-bool", "knn-matrix-null",
        "knn-matrix-a-string-and-a-bool", "knn-label-a-bool", "nb-log-prior-a-bool",
        "svm-bias-a-string"])
def test_evaluate_rejects_malformed_saved_documents(toy_split, tmp_path, capsys, algorithm, edit,
                                                    names):
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", algorithm, *common_flags(toy_split, run_dir)]) == 0
    model = json.loads((run_dir / "model.json").read_text())
    edit(model, model["plan"])
    (run_dir / "model.json").write_text(json.dumps(model))
    capsys.readouterr()
    code = main([
        "evaluate",
        "--model", str(run_dir / "model.json"),
        *common_flags(toy_split, tmp_path / "saved"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and names in err
    assert not (tmp_path / "saved" / "report.json").exists()


def test_evaluate_rejects_a_model_file_nested_too_deep(toy_split, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("[" * 200_000)
    code = main(["evaluate", "--model", str(model), *common_flags(toy_split, tmp_path / "saved")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {model}: malformed model document (RecursionError: maximum recursion")
    assert err.count("\n") == 1
    assert not (tmp_path / "saved" / "report.json").exists()


@pytest.mark.parametrize("edit, names", [
    (lambda doc: doc["params"].update(seed=list(range(100_000))),
     "hyperparameter 'seed' must be int, got [0, 1, 2, 3, 4, 5, ...]"),
    (lambda doc: doc["payload"][0]["nodes"][0].update(threshold=list(range(100_000))),
     "node 0 has threshold [0, 1, 2, 3, 4, 5, ...]"),
    (lambda doc: doc["plan"]["selected"].__setitem__(0, "x" * 100_000),
     "plan must fit each selected column exactly once: ['f1', 'xxxxxxxx"),
    (lambda doc: doc.update(version="9" * 100_000), "unsupported model version '999"),
    (lambda doc: doc["params"].update({"x" * 100_000: 1}),
     "malformed model document (TypeError: params has unknown fields ['xxxx"),
], ids=["seed-a-long-list", "threshold-a-long-list", "selected-a-long-name",
        "version-a-long-string", "param-a-long-name"])
def test_a_long_value_in_a_rejected_model_is_shown_cut_short(toy_split, tmp_path, capsys, edit,
                                                            names):
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "forest", "--set", "n_trees=2",
                 *common_flags(toy_split, run_dir)]) == 0
    doc = json.loads((run_dir / "model.json").read_text())
    edit(doc)
    (run_dir / "model.json").write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["evaluate", "--model", str(run_dir / "model.json"),
                 *common_flags(toy_split, tmp_path / "saved")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) <= 1024
    assert names in err


def test_a_rejected_command_leaves_no_out_directory(toy_split, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "tree", *common_flags(toy_split, run_dir)]) == 0
    doc = json.loads((run_dir / "model.json").read_text())
    doc["payload"]["nodes"][0]["threshold"] = "0.5"
    (run_dir / "model.json").write_text(json.dumps(doc))
    train, test, schema = toy_split
    bad_test = tmp_path / "bad_test.csv"
    bad_test.write_text(test.read_text().replace("tcp", "tcp,extra", 1))
    one_class = tmp_path / "one_class.csv"
    lines = train.read_text().splitlines()
    one_class.write_text("\n".join([lines[0]] + [ln for ln in lines[1:] if ln.endswith(",1")]))
    missing = str(tmp_path / "missing.csv")
    for command in (["evaluate", "--model", str(run_dir / "model.json"), "--test", str(test)],
                    ["evaluate", "--model", str(run_dir.parent / "missing.json"),
                     "--test", str(test)],
                    ["evaluate", "--train", str(train), "--test", str(bad_test)],
                    ["select", "--fs", "infogain", "--train", missing],
                    ["train", "--algo", "naive_bayes", "--train", str(one_class)],
                    ["bench", "--train", missing, "--test", str(test)]):
        out = tmp_path / "out"
        assert main([*command, "--schema", str(schema), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
    assert main(["evaluate", "--train", str(train), "--test", str(test), "--schema", str(schema),
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("fs", ["infogain", "gainratio", "relief", "wrapper"])
@pytest.mark.parametrize("subsample", [1.0, 0.5])
def test_a_training_file_with_no_rows_is_refused(toy_split, tmp_path, capsys, fs, subsample):
    train, _, schema = toy_split
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(train.read_text().splitlines()[0] + "\n")
    out = tmp_path / "out"
    code = main(["select", "--fs", fs, "--subsample", str(subsample), "--train",
                 str(header_only), "--schema", str(schema), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    if subsample < 1.0:
        assert err == "error: [subsample] cannot subsample an empty dataset\n"
    elif fs == "wrapper":
        assert err == "error: [select] cannot search an empty dataset\n"
    else:
        assert err == "error: [select] cannot score the features of an empty dataset\n"
    assert not out.exists()


def test_evaluate_model_failures_name_the_file_or_the_stage(toy_split, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "tree", *common_flags(toy_split, run_dir)]) == 0
    model = run_dir / "model.json"
    doc = json.loads(model.read_text())
    no_params = tmp_path / "no_params.json"
    no_params.write_text(json.dumps({key: v for key, v in doc.items() if key != "params"}))
    nope = tmp_path / "nope.json"
    nope.write_text(json.dumps(doc).replace('"f1"', '"nope"'))
    _, test, schema = toy_split
    for path, error in ((no_params, f"error: {no_params}: malformed model document"
                                    " (KeyError: 'params')\n"),
                        (nope, "error: [evaluate] no column named 'nope'\n")):
        assert main(["evaluate", "--model", str(path), "--test", str(test), "--schema",
                     str(schema), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == error


@pytest.mark.parametrize("version, message", [
    (1, "unsupported model version 1"),
    (2, "unsupported model version 2"),
    (3, "unsupported model version 3"),
])
def test_evaluate_rejects_an_unsupported_document_version(toy_split, tmp_path, capsys, version,
                                                          message):
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "tree", *common_flags(toy_split, run_dir)]) == 0
    doc = json.loads((run_dir / "model.json").read_text())
    (run_dir / "model.json").write_text(json.dumps({**doc, "version": version}))
    capsys.readouterr()
    code = main(["evaluate", "--model", str(run_dir / "model.json"),
                 *common_flags(toy_split, tmp_path / "saved")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "saved" / "report.json").exists()


@pytest.mark.parametrize("flags, named", [
    (["--fs", "relief"], "--fs"),
    (["--k", "3"], "--k"),
    (["--algo", "knn"], "--algo"),
    (["--seed", "0"], "--seed"),
    (["--subsample", "0.5"], "--subsample"),
    (["--bins", "4"], "--bins"),
    (["--relief-sample", "5"], "--relief-sample"),
    (["--set", "k=3"], "--set"),
    (["--algo", "knn", "--fs", "relief", "--k", "3", "--set", "k=3", "--subsample", "0.5",
      "--bins", "4"], "--fs, --k, --algo, --subsample, --bins, --set"),
])
def test_evaluate_model_rejects_the_flags_it_would_ignore(toy_split, tmp_path, monkeypatch,
                                                         capsys, flags, named):
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "linear_svm", *common_flags(toy_split, run_dir)]) == 0
    reads = []
    load = pipeline.load_csv
    monkeypatch.setattr(pipeline, "load_csv", lambda *a, **kw: reads.append(a) or load(*a, **kw))
    capsys.readouterr()
    out = tmp_path / "saved"
    saved = ["evaluate", "--model", str(run_dir / "model.json"), *common_flags(toy_split, out)]
    assert main([*saved, *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"error: evaluate --model takes its settings from the saved model; drop {named}\n"
    assert reads == [] and not out.exists()



def test_evaluate_model_rejects_the_config_fields_it_would_ignore(toy_split, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--algo", "linear_svm", *common_flags(toy_split, run_dir)]) == 0
    out = tmp_path / "saved"
    saved = ["evaluate", "--model", str(run_dir / "model.json"), *common_flags(toy_split, out)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fs": "relief", "k": 2, "algorithm": "knn", "params": {"k": 3},
                                  "test_path": "elsewhere.csv", "dataset_name": "named"}))
    capsys.readouterr()
    assert main([*saved, "--config", str(config), "--bins", "4"]) == 1
    assert capsys.readouterr().err == (
        "error: evaluate --model takes its settings from the saved model; drop --bins, config"
        " field 'algorithm', config field 'fs', config field 'k', config field 'params'\n")
    assert not out.exists()
    # A config of the fields the replay reads serves it; flags win as elsewhere.
    config.write_text(json.dumps({"test_path": "elsewhere.csv", "dataset_name": "named"}))
    assert main([*saved, "--config", str(config)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert (report["algorithm"], report["dataset"]) == ("linear_svm", "named")


def bench_config(toy_split, tmp_path, fs_methods, algorithms, params=None,
                 name="bench_config.json"):
    train, test, schema = toy_split
    path = tmp_path / name
    path.write_text(json.dumps({
        "train_path": str(train),
        "test_path": str(test),
        "schema_path": str(schema),
        "folds": 3,
        "k": 2,
        "fs_methods": fs_methods,
        "algorithms": algorithms,
        **({"params": params} if params else {}),
    }))
    return path


# A kNN cell whose k exceeds the training rows fails at fit time, in its worker.
FAILING_KNN = {"k": 1_000_000}


@pytest.mark.parametrize("field, value", [
    ("params", 5),
    ("k", "abc"),
    ("subsample", "x"),
    ("algorithms", 3),
    ("fs_methods", "infogain"),
])
def test_bench_rejects_a_wrongly_typed_config_field(toy_split, tmp_path, capsys, field, value):
    config = bench_config(toy_split, tmp_path, ["infogain"], ["naive_bayes"])
    doc = json.loads(config.read_text())
    doc[field] = value
    config.write_text(json.dumps(doc))
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"config field {field!r}" in err
    assert not out.exists()


def test_bench_grid_writes_cells_and_summary(toy_split, tmp_path):
    config = bench_config(toy_split, tmp_path, ["none", "infogain"], ["tree", "naive_bayes"])
    out = tmp_path / "grid"
    code = main(["bench", "--config", str(config), "--jobs", "2", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reports"] == 4
    assert summary["failures"] == []
    assert {row["fs_method"] for row in summary["averages"]} == {"none", "infogain"}
    for fs in ("none", "infogain"):
        for algo in ("tree", "naive_bayes"):
            report = json.loads((out / f"cell_{fs}_{algo}" / "report.json").read_text())
            assert (report["fs_method"], report["algorithm"]) == (fs, algo)
    md = (out / "summary.md").read_text()
    assert "| FS Method | Mean ACC | Mean DR | Mean FAR |" in md


def test_bench_metrics_reproduce_across_runs(toy_split, tmp_path):
    config = bench_config(toy_split, tmp_path, ["infogain"], ["tree"])
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
        outs.append(json.loads((out / "summary.json").read_text()))
    a, b = (o["averages"][0] for o in outs)
    for key in ("mean_acc", "mean_dr", "mean_far"):
        assert a[key] == b[key]


def test_bench_isolates_cell_failures(toy_split, tmp_path, capsys):
    config = bench_config(toy_split, tmp_path, ["none"], ["tree", "knn"], FAILING_KNN)
    out = tmp_path / "mixed"
    code = main(["bench", "--config", str(config), "--out", str(out)])
    assert code == 1
    assert (out / "cell_none_tree" / "report.json").exists()
    assert "exceeds training rows" in (out / "cell_none_knn" / "error.txt").read_text()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reports"] == 1
    assert summary["failures"][0]["algorithm"] == "knn"
    assert "failed none/knn" in capsys.readouterr().err


def test_flags_override_config_file(toy_split, tmp_path):
    train, test, schema = toy_split
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train_path": str(train),
        "test_path": str(test),
        "schema_path": str(schema),
        "fs": "infogain",
        "k": 2,
        "folds": 3,
    }))
    out = tmp_path / "o"
    assert main(["select", "--config", str(config), "--fs", "gainratio",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "selected.json").read_text())
    assert doc["fs_method"] == "gainratio"


def test_unknown_config_field_is_rejected(toy_split, tmp_path, capsys):
    train, test, schema = toy_split
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train_path": str(train), "test_path": str(test),
        "schema_path": str(schema), "max_depth": 5,
    }))
    code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "unknown config fields" in capsys.readouterr().err


def test_an_override_without_equals_is_rejected(toy_split, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["evaluate", "--set", "min_leaf", *common_flags(toy_split, tmp_path / "x")])
    assert info.value.code == 2
    assert "expected key=value, got 'min_leaf'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_a_config_file_that_is_not_an_object_is_rejected(toy_split, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(["fs", "infogain"]))
    code = main(["evaluate", "--config", str(config), *common_flags(toy_split, tmp_path / "x")])
    assert code == 1
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text, error", [
    ("[" * 200_000, "RecursionError: maximum recursion"),
    ('{"fs": ', "JSONDecodeError: Expecting value"),
])
def test_a_config_file_that_is_not_json_is_rejected(toy_split, tmp_path, capsys, text, error):
    config = tmp_path / "config.json"
    config.write_text(text)
    code = main(["evaluate", "--config", str(config), *common_flags(toy_split, tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: config is not JSON ({error}")
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_a_feature_sample_below_one_is_rejected(toy_split, tmp_path, capsys):
    code = main(["evaluate", "--algo", "forest", "--set", "feature_sample=0",
                 *common_flags(toy_split, tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "feature_sample must be >= 1, got 0" in err
    assert not (tmp_path / "x" / "report.json").exists()


def test_grid_fields_rejected_outside_bench(toy_split, tmp_path, capsys):
    config = bench_config(toy_split, tmp_path, ["none"], ["tree"])
    code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "only valid for bench" in capsys.readouterr().err


def test_missing_paths_fail_cleanly(tmp_path, capsys):
    code = main(["evaluate", "--algo", "tree", "--out", str(tmp_path)])
    assert code == 1
    assert "--train and --test" in capsys.readouterr().err


def log_calls(patch, module, name, log, fn=None):
    """Patch ``module.name`` to append the caller's pid to ``log``, then call ``fn``.

    ``fn`` defaults to the original. The file sees calls made in forked
    workers, which a list in this process would miss.
    """
    call = fn or getattr(module, name)

    def logged(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return call(*args, **kwargs)

    patch.setattr(module, name, logged)


def logged_pids(log):
    return [int(line) for line in log.read_text().split()] if log.exists() else []


def test_bench_interrupt_stops_the_grid(toy_split, tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    config = bench_config(toy_split, tmp_path, ["none", "infogain"], ["tree", "naive_bayes"])
    for stage in ("select_features", "fit_model"):
        for jobs in ("1", "2"):
            cells, interrupts = (tmp_path / f"{log}_{stage}_{jobs}.log"
                                 for log in ("cells", "interrupts"))
            out = tmp_path / f"interrupted_{stage}_{jobs}"
            with monkeypatch.context() as patch:
                log_calls(patch, cli, "run_pipeline", cells)
                log_calls(patch, pipeline, stage, interrupts, interrupt)
                with pytest.raises(KeyboardInterrupt):
                    main(["bench", "--config", str(config), "--jobs", jobs, "--out", str(out)])
            assert not (out / "summary.json").exists()
            assert not multiprocessing.active_children()
            # With --jobs 2 the interrupt is raised inside a worker.
            assert logged_pids(interrupts)
            assert all((pid != os.getpid()) == (jobs == "2") for pid in logged_pids(interrupts))
            # An interrupt while the rows select starts no cell; with --jobs 1 an
            # interrupted cell is the last to start.
            started = len(logged_pids(cells))
            assert bool(started) == (stage == "fit_model")
            assert jobs == "2" or started <= 1


def test_bench_loads_each_split_once(toy_split, tmp_path, monkeypatch):
    calls = []
    load_csv = pipeline.load_csv

    def counted(path, *args, **kwargs):
        calls.append(str(path))
        return load_csv(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "load_csv", counted)
    config = bench_config(toy_split, tmp_path, ["none", "infogain", "gainratio"],
                          ["tree", "naive_bayes"])
    assert main(["bench", "--config", str(config), "--jobs", "2",
                 "--out", str(tmp_path / "grid")]) == 0
    train, test, _ = toy_split
    assert calls == [str(train), str(test)]


def test_bench_reference_subset_fails_on_a_schema_without_its_columns(toy_split, tmp_path,
                                                                      monkeypatch):
    selections = []
    select = pipeline.select_features

    def counted(train, config):
        selections.append(config.fs)
        return select(train, config)

    monkeypatch.setattr(pipeline, "select_features", counted)
    config = bench_config(toy_split, tmp_path, ["none", "ref-wrapper"], ["tree", "naive_bayes"])
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 1
    assert selections == ["none", "ref-wrapper"]
    error = (out / "cell_ref-wrapper_tree" / "error.txt").read_text()
    assert "[select] no column named 'service'" in error
    assert (out / "cell_ref-wrapper_naive_bayes" / "error.txt").read_text() == error
    for algo in ("tree", "naive_bayes"):
        assert (out / f"cell_none_{algo}" / "report.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reports"] == 2 and len(summary["failures"]) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_selects_once_per_fs_row(toy_split, tmp_path, monkeypatch, jobs):
    searches = tmp_path / "searches.log"
    log_calls(monkeypatch, pipeline, "best_first_search", searches)
    config = bench_config(toy_split, tmp_path, ["wrapper", "none"], ["tree", "naive_bayes"])
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 0
    assert len(logged_pids(searches)) == 1
    timings = [json.loads((out / f"cell_wrapper_{algo}" / "report.json").read_text())["timings"]
               for algo in ("tree", "naive_bayes")]
    assert timings[0]["fs_seconds"] == timings[1]["fs_seconds"] > 0


def log_spans(patch, module, name, log):
    """Patch ``module.name`` to append the caller's pid and the call's
    monotonic start and end to ``log``, after a 0.2 s pause that makes
    concurrent calls overlap."""
    call = getattr(module, name)

    def logged(*args, **kwargs):
        start = time.monotonic()
        time.sleep(0.2)
        result = call(*args, **kwargs)
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {start} {time.monotonic()}\n")
        return result

    patch.setattr(module, name, logged)


def most_at_once(spans):
    """The most spans that overlap at one moment."""
    edges = sorted([(start, 1) for _, start, _ in spans] + [(end, -1) for _, _, end in spans])
    alive = peak = 0
    for _, step in edges:  # at a tie an end sorts first
        alive += step
        peak = max(peak, alive)
    return peak


def test_bench_starts_no_more_workers_than_tasks(toy_split, tmp_path, monkeypatch):
    for fs_methods, algorithms, jobs in ((["none", "infogain", "gainratio"],
                                          ["tree", "naive_bayes"], "2"),
                                         (["none", "infogain"], ["tree"], "64"),
                                         (["infogain"], ["naive_bayes"], "64")):
        rows, cells = tmp_path / f"rows_{jobs}.log", tmp_path / f"cells_{jobs}.log"
        with monkeypatch.context() as patch:
            log_spans(patch, cli, "subsample_and_select", rows)
            log_spans(patch, cli, "run_pipeline", cells)
            config = bench_config(toy_split, tmp_path, fs_methods, algorithms)
            assert main(["bench", "--config", str(config), "--jobs", jobs,
                         "--out", str(tmp_path / f"grid_{jobs}")]) == 0
        for log, count in ((rows, len(fs_methods)), (cells, len(fs_methods) * len(algorithms))):
            spans = [(int(pid), float(start), float(end))
                     for pid, start, end in map(str.split, log.read_text().splitlines())]
            pids = {pid for pid, _, _ in spans}
            assert len(spans) == count
            if count == 1:  # one task runs in this process: no fork at all
                assert pids == {os.getpid()}
            else:  # one child per task, and no more at once than jobs or tasks
                assert len(pids) == count and os.getpid() not in pids
                assert most_at_once(spans) <= min(int(jobs), count)
        rows.unlink()
        cells.unlink()


@pytest.mark.parametrize("algorithms, code", [(["tree", "naive_bayes"], 0),
                                              (["tree", "knn"], 1)])
def test_bench_leaves_no_worker_running(toy_split, tmp_path, algorithms, code):
    config = bench_config(toy_split, tmp_path, ["none", "infogain"], algorithms,
                          FAILING_KNN if "knn" in algorithms else None)
    assert main(["bench", "--config", str(config), "--jobs", "2",
                 "--out", str(tmp_path / "grid")]) == code
    assert not multiprocessing.active_children()


KILLED = "ChildProcessError: the task's process was killed by signal 9"


def kill_this_child(dying, parent):
    """Mark ``dying``, then SIGKILL this forked child."""
    assert os.getpid() != parent, "the task would kill the test process"
    dying.touch()
    os.kill(os.getpid(), signal.SIGKILL)


def wait_for(dying):
    """Wait until another task marked ``dying``, then a second for its death to land."""
    deadline = time.monotonic() + 60
    while not dying.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(1.0)


def test_map_fails_only_the_task_whose_child_was_killed(tmp_path):
    dying, parent = tmp_path / "dying", os.getpid()

    def task(i):
        if i == 1:
            kill_this_child(dying, parent)
        if i == 0:  # still running in its own child when task 1's child dies
            wait_for(dying)
        return f"task {i}"

    outcomes = cli._map(task, 4, 2)
    assert outcomes == [("task 0", None), (None, KILLED), ("task 2", None), ("task 3", None)]
    assert not multiprocessing.active_children()


def test_map_fails_every_task_when_every_child_dies():
    parent = os.getpid()

    def die(i):
        assert os.getpid() != parent, "the task would kill the test process"
        if i % 2:
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)

    outcomes = cli._map(die, 20, 2)
    assert outcomes == [(None, KILLED),
                        (None, "ChildProcessError: the task's process exited with code 3")] * 10
    assert not multiprocessing.active_children()


def test_map_fails_only_the_task_whose_result_cannot_be_pickled(capfd):
    outcomes = cli._map(lambda i: (lambda: i) if i == 1 else i, 3, 2)
    assert outcomes[0] == (0, None) and outcomes[2] == (2, None)
    result, error = outcomes[1]
    assert result is None and "pickle" in error and ": " in error
    assert not error.startswith("ChildProcessError")
    assert "Traceback" not in capfd.readouterr().err
    assert not multiprocessing.active_children()


def test_map_outcomes_do_not_depend_on_jobs():
    def task(i):
        if i == 2:
            raise ValueError("no")
        return (lambda: i) if i == 1 else [i]

    outcomes = cli._map(task, 4, 1)
    assert outcomes == cli._map(task, 4, 2)
    assert outcomes[0] == ([0], None) and outcomes[2] == (None, "ValueError: no")
    assert outcomes[1][0] is None and "pickle" in outcomes[1][1]
    # In process, as in a child, a result comes back a copy.
    shared = [0]
    assert cli._map(lambda i: shared, 1, 1)[0][0] is not shared


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files in /proc")
def test_map_leaks_nothing():
    parent = os.getpid()

    def task(i):
        if i == 1:
            raise ValueError("no")
        if i == 2:
            assert os.getpid() != parent, "the task would kill the test process"
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    def interrupted(i):
        if i == 1:
            raise KeyboardInterrupt
        time.sleep(60)

    def ctrl_c(i):  # the terminal's Ctrl-C, which the children ignore
        if i == 1:
            time.sleep(0.2)
            os.kill(parent, signal.SIGINT)
        time.sleep(60)

    def open_files():
        return len(os.listdir("/proc/self/fd"))

    before = open_files()
    assert cli._map(task, 4, 2) == [(0, None), (None, "ValueError: no"), (None, KILLED),
                                    (3, None)]
    assert open_files() == before and not multiprocessing.active_children()
    # A runner may start this process with SIGINT ignored; Ctrl-C must raise here.
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        for stopped in (interrupted, ctrl_c):
            started = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                cli._map(stopped, 4, 2)
            assert time.monotonic() - started < 30
            assert open_files() == before and not multiprocessing.active_children()
    finally:
        signal.signal(signal.SIGINT, handler)


def test_bench_with_a_killed_worker_keeps_the_finished_cells(toy_split, tmp_path, monkeypatch):
    dying, parent = tmp_path / "dying", os.getpid()
    run = cli.run_pipeline

    def run_or_die(config, *args):
        if config.algorithm == "naive_bayes":
            kill_this_child(dying, parent)
        wait_for(dying)
        return run(config, *args)

    monkeypatch.setattr(cli, "run_pipeline", run_or_die)
    config = bench_config(toy_split, tmp_path, ["none", "infogain"], ["tree", "naive_bayes"])
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--jobs", "2", "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reports"] == 2
    assert summary["failures"] == [{"fs": fs, "algorithm": "naive_bayes", "error": KILLED}
                                   for fs in ("none", "infogain")]
    for fs in ("none", "infogain"):
        assert (out / f"cell_{fs}_tree" / "report.json").exists()
        assert (out / f"cell_{fs}_naive_bayes" / "error.txt").read_text() == KILLED + "\n"
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_clears_the_task_on_every_path(toy_split, tmp_path, monkeypatch, jobs):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    clean = bench_config(toy_split, tmp_path, ["none", "infogain"], ["tree", "naive_bayes"],
                         name="clean.json")
    assert main(["bench", "--config", str(clean), "--jobs", jobs,
                 "--out", str(tmp_path / "clean")]) == 0
    failed = bench_config(toy_split, tmp_path, ["none"], ["tree", "knn"], FAILING_KNN,
                          name="failed.json")
    assert main(["bench", "--config", str(failed), "--jobs", jobs,
                 "--out", str(tmp_path / "failed")]) == 1
    loaded = []
    load_config = cli._load_config
    monkeypatch.setattr(cli, "_load_config",
                        lambda *a, **kw: loaded.append(load_config(*a, **kw)) or loaded[-1])
    monkeypatch.setattr(pipeline, "fit_model", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["bench", "--config", str(clean), "--jobs", jobs,
              "--out", str(tmp_path / "interrupted")])
    assert not multiprocessing.active_children()
    # The interrupted run is the clean grid, not the failing config's.
    [(base, grid)] = loaded
    assert grid == {"fs_methods": ["none", "infogain"], "algorithms": ["tree", "naive_bayes"]}
    assert base.params == {}


def test_bench_splits_never_cross_the_pipe(toy_split, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a Dataset was pickled")

    monkeypatch.setattr(Dataset, "__reduce__", refuse)
    train_path, _, schema_path = map(str, toy_split)
    train = pipeline.load_file(RunConfig(schema_path=schema_path), train_path)
    with pytest.raises(AssertionError, match="a Dataset was pickled"):
        pickle.dumps(train)
    config = bench_config(toy_split, tmp_path, ["none", "infogain"], ["tree", "naive_bayes"])
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--jobs", "2", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["reports"] == 4


def test_bench_subsampled_reports_do_not_depend_on_jobs(toy_split, tmp_path):
    config = bench_config(toy_split, tmp_path, ["none", "infogain", "relief"],
                          ["tree", "naive_bayes"])
    doc = json.loads(config.read_text())
    config.write_text(json.dumps({**doc, "subsample": 0.5, "seed": 3}))
    outs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["bench", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 0
        outs[jobs] = untimed_reports(out)
    assert len(outs["1"]) == 6
    assert outs["1"] == outs["2"]
    cell = RunConfig(**{k: v for k, v in doc.items() if k not in ("fs_methods", "algorithms")},
                     fs="relief", algorithm="tree", subsample=0.5, seed=3)
    want = json.loads(report_to_json(run_pipeline(cell).report))
    del want["timings"]
    assert outs["2"]["cell_relief_tree"] == want


def test_bench_jobs_needs_fork(toy_split, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    config = bench_config(toy_split, tmp_path, ["none"], ["tree"])
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--jobs", "2", "--out", str(out)]) == 1
    assert "'fork' start method" in capsys.readouterr().err
    assert not out.exists()
    assert main(["bench", "--config", str(config), "--jobs", "1", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["select", "train", "bench"])
def test_relief_sample_flag_overrides_the_config_file(toy_split, tmp_path, monkeypatch, command):
    samples = []
    score = pipeline.score_features

    def recorded(*args, sample_count=None, **kwargs):
        samples.append(sample_count)
        return score(*args, sample_count=sample_count, **kwargs)

    monkeypatch.setattr(pipeline, "score_features", recorded)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"relief_sample": 7}))
    run = [command, "--fs", "relief", "--k", "2", *common_flags(toy_split, tmp_path / "out")]
    assert main(run) == 0
    assert main([*run, "--config", str(config)]) == 0
    assert main([*run, "--config", str(config), "--relief-sample", "3"]) == 0
    assert main([*run, "--relief-sample", "5"]) == 0
    assert samples == [None, 7, 3, 5]


@pytest.mark.parametrize("command", ["select", "train", "bench"])
@pytest.mark.parametrize("value", ["0", "-4"])
def test_relief_sample_must_be_at_least_one(toy_split, tmp_path, capsys, command, value):
    out = tmp_path / "out"
    flags = [command, "--fs", "relief", *common_flags(toy_split, out)]
    assert main([*flags, "--relief-sample", value]) == 1
    assert f"relief_sample must be >= 1, got {value}" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"relief_sample": int(value)}))
    assert main([*flags, "--config", str(config)]) == 1
    assert f"relief_sample must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["fs_methods", "algorithms"])
def test_bench_rejects_a_duplicate_grid_entry(toy_split, tmp_path, capsys, field):
    config = bench_config(toy_split, tmp_path, ["none", "infogain"], ["tree", "naive_bayes"])
    doc = json.loads(config.read_text())
    doc[field] = [*doc[field], doc[field][0]]
    config.write_text(json.dumps(doc))
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{field!r} lists {doc[field][0]!r} more than once" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_rejects_jobs_below_one(toy_split, tmp_path, capsys, jobs):
    config = bench_config(toy_split, tmp_path, ["none"], ["tree"])
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 1
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_rejects_a_misspelled_grid_algorithm_before_loading(toy_split, tmp_path,
                                                                  monkeypatch, capsys, jobs):
    loaded = []
    monkeypatch.setattr(cli, "load_splits", loaded.append)
    config = bench_config(toy_split, tmp_path, ["relief"], ["tre"])
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 1
    assert "error: unknown algorithm 'tre'" in capsys.readouterr().err
    assert loaded == [] and not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_rejects_a_one_bin_grid_before_loading(toy_split, tmp_path, monkeypatch, capsys,
                                                    jobs):
    loaded = []
    monkeypatch.setattr(cli, "load_splits", loaded.append)
    config = bench_config(toy_split, tmp_path, ["infogain", "gainratio"], ["naive_bayes"])
    config.write_text(json.dumps({**json.loads(config.read_text()), "bins": 1}))
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: bins must be >= 2, got 1\n"
    assert loaded == [] and not out.exists()


@pytest.mark.parametrize("command", ["select", "train", "evaluate", "bench"])
@pytest.mark.parametrize("field, value, message", [
    ("bins", 1, "bins must be >= 2, got 1"),
    ("folds", 1, "folds must be >= 2, got 1"),
    ("relief_neighbors", 0, "relief_neighbors must be >= 1, got 0"),
    ("stop_after", -2, "stop_after must be >= 1, got -2"),
    # only an int 0 means an exhaustive search
    ("stop_after", False, "config field 'stop_after' must be int | None, got False"),
    ("stop_after", 0.0, "config field 'stop_after' must be int | None, got 0.0"),
    ("epsilon", -1, "epsilon must be >= 0, got -1"),
])
def test_a_bad_selection_setting_fails_before_any_file_is_read(toy_split, tmp_path, monkeypatch,
                                                               capsys, command, field, value,
                                                               message):
    reads = []
    load = pipeline.load_csv
    monkeypatch.setattr(pipeline, "load_csv", lambda *a, **kw: reads.append(a) or load(*a, **kw))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value}))
    out = tmp_path / "out"
    assert main([command, "--fs", "wrapper", "--config", str(config),
                 *common_flags(toy_split, out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert reads == [] and not out.exists()


@pytest.mark.parametrize("command", [["select"], ["train"], ["evaluate"], ["bench"],
                                     ["bench", "--jobs", "2"]])
@pytest.mark.parametrize("flags, message", [
    (["--algo", "tre"], "unknown algorithm 'tre'"),
    (["--set", "mlp_epoch=2"], "unknown hyperparameters: ['mlp_epoch']"),
    (["--set", "k=2.5"], "hyperparameter 'k' must be int, got 2.5"),
    (["--algo", "tree", "--set", "algorithm=knn"],
     "unknown hyperparameters: ['algorithm']; set the algorithm with --algo"),
    (["--set", "mlp_learning_rate=NaN"], "mlp_learning_rate must be positive and finite, got nan"),
    (["--set", "svm_lambda=NaN"], "svm_lambda must be positive and finite, got nan"),
    (["--set", "svm_learning_rate=Infinity"],
     "svm_learning_rate must be positive and finite, got inf"),
])
def test_a_bad_model_setting_fails_before_any_file_is_read(toy_split, tmp_path, monkeypatch,
                                                           capsys, command, flags, message):
    reads = []
    load = pipeline.load_csv
    monkeypatch.setattr(pipeline, "load_csv", lambda *a, **kw: reads.append(a) or load(*a, **kw))
    out = tmp_path / "out"
    assert main([*command, "--fs", "infogain", *flags, *common_flags(toy_split, out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1
    assert reads == [] and not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--algo", "knn", "--set", 'k="abc"'], "hyperparameter 'k' must be int, got 'abc'"),
    (["--algo", "forest", "--set", "n_trees=2.5"], "hyperparameter 'n_trees' must be int, got 2.5"),
    (["--set", 'prune="no"'], "hyperparameter 'prune' must be bool, got 'no'"),
    (["--set", "prune=1"], "hyperparameter 'prune' must be bool, got 1"),
    (["--set", "min_leaf=true"], "hyperparameter 'min_leaf' must be int, got True"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--set", "seed=-1"], "seed must be >= 0, got -1"),
])
def test_evaluate_rejects_a_wrongly_typed_or_negative_field(toy_split, tmp_path, capsys,
                                                            flags, message):
    assert main(["evaluate", *common_flags(toy_split, tmp_path / "run"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def unsw_rows(rng, n):
    """Rows in the 45-column official layout; one numeric column in three carries signal."""
    rows = []
    for i in range(n):
        attack = i % 3 != 0
        row = []
        for j, (name, kind) in enumerate(unsw.UNSW_SCHEMA.entries):
            if kind == "class":
                row.append("1" if attack else "0")
            elif name == "attack_cat":
                row.append("Generic" if attack else "Normal")
            elif kind == "drop":
                row.append(str(i + 1))
            elif kind == "nominal":
                row.append(str(rng.choice(["tcp", "udp", "-"])))
            else:
                shift = 1.5 if attack and j % 3 == 0 else 0.0
                row.append(f"{rng.normal(shift, 1.0):.5f}")
        rows.append(row)
    return rows


@pytest.fixture
def unsw_grid(tmp_path):
    """A 90/45-row split in the UNSW-NB15 layout and a reference-subset grid config."""
    rng = np.random.default_rng(7)
    header = list(unsw.UNSW_SCHEMA.names)
    train, test = tmp_path / "unsw_train.csv", tmp_path / "unsw_test.csv"
    write_csv(train, header, unsw_rows(rng, 90))
    write_csv(test, header, unsw_rows(rng, 45))
    config = tmp_path / "unsw_grid.json"
    config.write_text(json.dumps({
        "train_path": str(train),
        "test_path": str(test),
        "fs_methods": ["none", "infogain", *REFERENCE_FS],
        "algorithms": ["naive_bayes", "tree"],
    }))
    return RunConfig(train_path=str(train), test_path=str(test)), config


def untimed_reports(out):
    """Every cell's report.json, keyed by cell, without its timings."""
    reports = {}
    for path in sorted(out.glob("cell_*/report.json")):
        doc = json.loads(path.read_text())
        doc.pop("timings")
        reports[path.parent.name] = doc
    return reports


def test_bench_reference_grid_matches_run_pipeline(unsw_grid, tmp_path):
    base, config = unsw_grid
    out = tmp_path / "grid"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
    assert REFERENCE_FS == ("ref-wrapper", "ref-infogain", "ref-gainratio", "ref-relief")
    got = untimed_reports(out)
    for fs in ("none", "infogain", *REFERENCE_FS):
        for algo in ("naive_bayes", "tree"):
            cell = f"cell_{fs}_{algo}"
            want = json.loads(report_to_json(run_pipeline(RunConfig(
                train_path=base.train_path, test_path=base.test_path,
                fs=fs, algorithm=algo)).report))
            del want["timings"]
            assert got[cell] == want
            assert (want["fs_method"], want["algorithm"]) == (fs, algo)
            if fs.startswith("ref-"):
                assert want["selected_count"] == 19
                doc = json.loads((out / cell / "report.json").read_text())
                assert doc["timings"]["fs_seconds"] == 0.0
    assert got["cell_none_tree"]["selected_count"] == 42


def test_bench_reports_do_not_depend_on_jobs(unsw_grid, tmp_path):
    _, config = unsw_grid
    outs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["bench", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 0
        outs[jobs] = untimed_reports(out)
    assert len(outs["1"]) == 12
    assert outs["1"] == outs["2"]
