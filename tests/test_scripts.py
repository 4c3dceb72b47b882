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
    ],
)
def test_script_runs(name, argv, first, capsys):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out.startswith(first)


# the full table at n=8, two states per theory: each derived W meets the
# oracle to rounding, and the printed KG W's gap is the cross term
W_MISMATCH_N8 = """\
theory kg: n=8 L=6.28319 m=1
     s       derived       printed        oracle  |printed-oracle|  |derived-oracle|    cross term   |(p-o)-cross|
  -1.6    1.0700e+01    2.1555e+01    1.0700e+01         1.085e+01         1.776e-15    1.0854e+01       1.776e-15
  -1.2   -4.2477e+00   -6.9052e+00   -4.2477e+00         2.657e+00         0.000e+00   -2.6575e+00       4.441e-16
worst |derived - oracle| over 2 states: 1.776e-15

theory schrodinger: n=8 L=6.28319
     s       derived       printed        oracle  |printed-oracle|  |derived-oracle|
  -1.6    2.6628e+00   -2.7400e+01    2.6628e+00         3.006e+01         4.441e-16
  -1.2   -7.8612e+00    1.2111e+01   -7.8612e+00         1.997e+01         8.882e-16
worst |derived - oracle| over 2 states: 8.882e-16

"""


def test_w_mismatch_report_output(capsys):
    assert load("w_mismatch_report").main(["--n", "8", "--count", "2"]) == 0
    assert capsys.readouterr().out == W_MISMATCH_N8


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
  1.00e-03           1.959e-09       -      9.333e-08       -
  5.00e-04           4.897e-10    2.00      2.333e-08    2.00
  2.50e-04           1.224e-10    2.00      5.836e-09    2.00

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
