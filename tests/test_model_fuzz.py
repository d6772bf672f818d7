"""Mutation fuzz of saved ``model.json`` documents.

Each example applies one drawn mutation to a saved model of one family and
runs ``evaluate --model`` on it. The run either succeeds, or fails with
exactly one short ``error:`` line, no traceback and no ``--out`` directory.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fsel_ids.cli import main

from conftest import write_toy_split

ALGORITHMS = ("tree", "forest", "naive_bayes", "knn", "mlp", "linear_svm")
# One value of each JSON type, for a type swap.
TYPED = (None, True, 0, 0.5, "x", [], {})
NUMBERS = (1e308, -1e308, -0.0, 10**400, -(10**400), 5e-324)
LONG = 10**5


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The toy split's paths and each family's ``model.json`` text."""
    root = tmp_path_factory.mktemp("fuzz")
    train, test, schema = write_toy_split(root)
    texts = {}
    for algorithm in ALGORITHMS:
        out = root / algorithm
        assert main(["train", "--algo", algorithm, "--train", str(train),
                     "--schema", str(schema), "--out", str(out)]) == 0
        texts[algorithm] = (out / "model.json").read_text(encoding="utf-8")
    return (test, schema), texts


def _draw_path(data, doc) -> list:
    """A path into ``doc``, drawn one step at a time, each step taken with
    probability 4/5 while there is one; [] is the document."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 4)):
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        path.append(key)
        node = node[key]
    return path


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(data, text: str) -> str:
    """``text`` after one drawn mutation: a type swap, an extreme number or a
    long list at a path, a dropped or duplicated key, or a truncation."""
    kind = data.draw(st.sampled_from(("type", "number", "long", "drop", "duplicate",
                                      "truncate")))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    path = _draw_path(data, doc)
    if kind in ("type", "number", "long"):
        if kind == "type":
            old = type(_at(doc, path))
            value = data.draw(st.sampled_from([v for v in TYPED if type(v) is not old]))
        elif kind == "number":
            value = data.draw(st.sampled_from(NUMBERS))
        else:
            value = [data.draw(st.sampled_from((0, 0.5, "x")))] * LONG
        return json.dumps(_replace(doc, path, value))
    # The deepest object on the path loses a key, or states one twice.
    while not isinstance(_at(doc, path), dict):
        path.pop()
    obj = _at(doc, path)
    if not obj:
        return text
    key = data.draw(st.sampled_from(list(obj)))
    if kind == "drop":
        del obj[key]
        return json.dumps(doc)
    # The second statement wins in Python's parser; the first keeps its place.
    second = data.draw(st.sampled_from(TYPED + NUMBERS[:3]))
    members = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in obj.items()]
    members.append(f"{json.dumps(key)}: {json.dumps(second)}")
    marker = "\x00duplicated\x00"
    encoded = json.dumps(_replace(doc, path, marker))
    return encoded.replace(json.dumps(marker), "{" + ", ".join(members) + "}")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_model_document_fails_in_one_short_line(saved, data):
    (test, schema), texts = saved
    algorithm = data.draw(st.sampled_from(ALGORITHMS))
    text = _mutate(data, texts[algorithm])
    with tempfile.TemporaryDirectory() as scratch:
        model, out = Path(scratch) / "model.json", Path(scratch) / "out"
        model.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["evaluate", "--model", str(model), "--test", str(test),
                         "--schema", str(schema), "--out", str(out)])
        err = err.getvalue()
        if code == 0:
            assert (out / "report.json").exists()
            return
        assert code == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1, err[:2000]
        assert len(err.encode()) <= 1024 and "Traceback" not in err, err[:2000]
        assert str(model) in err or err.startswith("error: [evaluate] "), err
        assert not out.exists()
