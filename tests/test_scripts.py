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


# the study's full output: each residual builds one section per theory,
# at the finest step, and its coarser steps must print what a fresh
# build at each step prints
STUDY_DEFAULT = """\
theory kg: n=64 L=64 T_el=8 T_ddw=0.2
        dt   el-pairing-scaled   order   ddw-residual   order
  1.00e-03           4.512e-09       -      1.998e-08       -
  5.00e-04           1.128e-09    2.00      4.995e-09    2.00
  2.50e-04           2.820e-10    2.00      1.250e-09    2.00

theory schrodinger: n=64 L=12.5664 T_el=6 T_ddw=0.2
        dt   el-pairing-scaled   order   ddw-residual   order
  1.00e-03           1.959e-09       -      4.666e-08       -
  5.00e-04           4.897e-10    2.00      1.167e-08    2.00
  2.50e-04           1.224e-10    2.00      2.918e-09    2.00

"""

STUDY_KG_ONE_LEVEL_SEED_3 = """\
theory kg: n=64 L=64 T_el=8 T_ddw=0.2
        dt   el-pairing-scaled   order   ddw-residual   order
  1.00e-03           1.194e-08       -      2.816e-08       -

"""


@pytest.mark.parametrize(
    "argv,expected",
    [
        ([], STUDY_DEFAULT),
        (["--theory", "kg", "--levels", "1", "--seed", "3"], STUDY_KG_ONE_LEVEL_SEED_3),
    ],
)
def test_convergence_study_output(argv, expected, capsys):
    assert load("convergence_study").main(argv) == 0
    assert capsys.readouterr().out == expected
