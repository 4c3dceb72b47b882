"""Smoke runs of the scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv,first",
    [
        ("convergence_study", ["--theory", "kg", "--levels", "1"], "theory kg: n=64 L=64"),
        ("w_mismatch_report", ["--n", "8", "--count", "2"], "theory kg: n=8"),
    ],
)
def test_script_runs(name, argv, first, capsys):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out.startswith(first)
