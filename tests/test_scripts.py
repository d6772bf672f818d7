import importlib.util
from pathlib import Path

import numpy as np

from fsel_ids import unsw
from fsel_ids.metrics import report_from_json
from fsel_ids.pipeline import RunConfig, run_pipeline

from conftest import write_csv

BENCHMARK_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_unsw_benchmark.py"


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


def test_unsw_benchmark_script_matches_run_pipeline(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(7)
    header = list(unsw.UNSW_SCHEMA.names)
    train, test = tmp_path / unsw.TRAIN_FILE, tmp_path / unsw.TEST_FILE
    write_csv(train, header, unsw_rows(rng, 90))
    write_csv(test, header, unsw_rows(rng, 45))
    monkeypatch.setenv(unsw.DATA_DIR_ENV, str(tmp_path))
    spec = importlib.util.spec_from_file_location("run_unsw_benchmark", BENCHMARK_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    out = tmp_path / "reports"
    code = script.main(["--subsets", "full", "infogain", "--fresh-filters",
                        "--algos", "naive_bayes", "--out", str(out)])
    assert code == 0
    full = report_from_json((out / "report_full_naive_bayes.json").read_text())
    ranked = report_from_json((out / "report_infogain_naive_bayes.json").read_text())
    assert ranked.selected_count == 19 and ranked.fs_seconds > 0.0
    expected = run_pipeline(RunConfig(train_path=str(train), test_path=str(test),
                                      fs="none", algorithm="naive_bayes")).report
    assert full.selected_count == expected.selected_count == 42
    assert full.cm == expected.cm
    assert "| full | naive_bayes |" in capsys.readouterr().out
