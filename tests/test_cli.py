"""Exit codes and report plumbing of the covlab command."""

import json
import math

import pytest

from covlab.cli import main
from covlab.harness import CSV_HEADER


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_emits_csv_and_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, "theory: kg\nexperiment: evolve\n")
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert any(line.startswith("evolve,energy-drift-spectral,") for line in lines)

def test_run_json_format(tmp_path, capsys):
    cfg = write_config(tmp_path, "theory: schrodinger\nexperiment: omega-check\ntimes: 0,1,2\n")
    assert main(["run", "--config", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert doc["config"]["theory"] == "schrodinger"
    run = doc["run"]
    assert run["covlab"] and run["numpy"] and run["python"]
    assert run["wall_s"] >= sum(row["seconds"] for row in doc["rows"]) > 0
    assert run["git_revision"] is None or len(run["git_revision"]) == 40


def test_run_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, "theory: kg\nexperiment: evolve\n")
    assert main(["run", "--config", cfg, "--seed", "7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 7


def test_run_writes_out_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "theory: kg\nexperiment: evolve\n")
    out = tmp_path / "report.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


def test_run_bad_config_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "theory: kg\nexperiment: evolve\nn: 63\n")
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "covlab: error:" in err and "'n'" in err


@pytest.mark.parametrize("seed", ["-1", str(2**130)])
def test_run_out_of_range_seed_exits_two(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, f"theory: kg\nexperiment: evolve\nn: 8\nseed: {seed}\n")
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "covlab: error:" in err and "'seed'" in err


def test_run_missing_config_exits_two(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "covlab: error:" in capsys.readouterr().err


def test_suite_requires_all_flag(capsys):
    assert main(["suite"]) == 2
    assert "--all" in capsys.readouterr().err


def test_ledger_alias_paper(tmp_path, capsys):
    cfg = write_config(tmp_path, "theory: kg\nexperiment: evolve\n")
    assert main(["run", "--config", cfg, "--ledger", "paper", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["sign_ledger"] == "paper-printed"


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_suite_json_is_strict(monkeypatch, capsys):
    # the suite's JSON list goes through the same strict writer as one
    # report: a non-finite value is a string, never a bare NaN/Infinity
    from covlab import cli
    from covlab.harness import ExperimentConfig, Report, ReportRow

    cfg = ExperimentConfig(theory="kg", experiment="action-residual")
    row = ReportRow("action-residual", "el-convergence-ratio-error", math.inf, 0.8, 0.0)
    monkeypatch.setattr(cli, "run_suite", lambda **kw: [Report(config=cfg, rows=(row,))])
    assert main(["suite", "--all", "--format", "json"]) == 1

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    (doc,) = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["rows"][0]["value"] == "inf" and float(doc["rows"][0]["value"]) == math.inf
