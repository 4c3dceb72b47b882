"""Smoke runs of the scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

from covlab.harness import ExperimentConfig, Report, ReportRow, run_experiment

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TABLE = Path(__file__).resolve().parent / "data" / "settings_matrix.txt"


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
  -1.6    1.0700e+01    2.1555e+01    1.0700e+01         1.085e+01         0.000e+00    1.0854e+01       0.000e+00
  -1.2   -4.2477e+00   -6.9052e+00   -4.2477e+00         2.657e+00         0.000e+00   -2.6575e+00       4.441e-16
worst |derived - oracle| over 2 states: 0.000e+00

theory schrodinger: n=8 L=6.28319
     s       derived       printed        oracle  |printed-oracle|  |derived-oracle|
  -1.6    2.6628e+00   -2.7400e+01    2.6628e+00         3.006e+01         1.332e-15
  -1.2   -7.8612e+00    1.2111e+01   -7.8612e+00         1.997e+01         8.882e-16
worst |derived - oracle| over 2 states: 1.332e-15

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
  1.00e-03           1.959e-09       -      9.332e-08       -
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


def test_criterion11_records_and_diffs(tmp_path, capsys):
    # every config of the set at n=8, one seed: one line per report row,
    # the value and tolerance as repr of the float, no seconds
    script = load("criterion11")
    assert script.main(["--n", "8", "--seeds", "42"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the suite in both ledgers, the suite workload, chart-3d,
    # brackets-wide and the four configs of the 3D darboux-check goldens
    assert len({line.split(",")[0] for line in lines}) == 2 * 12 + 12 + 6 + 2 + 4
    at = next(i for i, line in enumerate(lines) if ",w-loop-integral," in line)
    label, metric, value, tol, ok = lines[at].split(",")
    assert value == repr(float(value)) and ok == "true"
    changed = lines.copy()
    changed[at] = ",".join((label, metric, "0.5", tol, ok))
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("\n".join(lines) + "\n", encoding="utf-8")
    new.write_text("\n".join(changed) + "\n", encoding="utf-8")
    assert script.main(["--diff", str(old), str(old)]) == 0
    assert capsys.readouterr().out == f"0 of {len(lines)} rows moved, 0 verdicts changed\n"
    assert script.main(["--diff", str(old), str(new)]) == 0
    assert capsys.readouterr().out == (
        f"{label} w-loop-integral value: {value} -> 0.5\n"
        f"1 of {len(lines)} rows moved, 0 verdicts changed\n"
    )


def test_criterion11_diff_counts_changed_verdicts(tmp_path, capsys):
    # three rows move: one value at rounding, one verdict flipped with its
    # value, one row only in the new record; an informational row (no
    # verdict) stays
    old = tmp_path / "old.txt"
    old.write_text(
        "a:00:kg/evolve,drift,1e-16,1e-12,true\n"
        "a:01:kg/omega-check,spread,2e-15,1e-10,true\n"
        "a:02:kg/evolve,info,0.5,,\n",
        encoding="utf-8",
    )
    new = tmp_path / "new.txt"
    new.write_text(
        "a:00:kg/evolve,drift,1.5e-16,1e-12,true\n"
        "a:01:kg/omega-check,spread,2e-09,1e-10,false\n"
        "a:02:kg/evolve,info,0.5,,\n"
        "a:03:kg/evolve,extra,0.0,1e-12,true\n",
        encoding="utf-8",
    )
    assert load("criterion11").main(["--diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out == (
        "a:00:kg/evolve drift value: 1e-16 -> 1.5e-16\n"
        "a:01:kg/omega-check spread value: 2e-15 -> 2e-09\n"
        "a:01:kg/omega-check spread pass: true -> false\n"
        f"a:03:kg/evolve extra: only in {new}\n"
        "3 of 4 rows moved, 1 verdicts changed\n"
    )
    # it exits 1 on a changed verdict and 0 when only values move
    moved = tmp_path / "moved.txt"
    moved.write_text(old.read_text(encoding="utf-8").replace("1e-16", "1.5e-16"), encoding="utf-8")
    assert load("criterion11").main(["--diff", str(old), str(moved)]) == 0


def test_pair_timing_runs_one_checkout_against_itself(capsys):
    root = SCRIPTS.parent
    argv = [str(root), str(root), "--workload", "brackets-wide", "--rounds", "2"]
    assert load("pair_timing").main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload brackets-wide, seed 0, 2 rounds"
    assert out[1].startswith("before: median ") and out[2].startswith(" after: median ")
    assert all(" s, CPU median " in line for line in out[1:3])
    assert out[3].startswith("median paired ratio after/before ") and out[3].endswith(" of 2 rounds")


def test_settings_matrix_slice_matches_the_committed_table():
    # the table lists every cell in the script's order; this checks the
    # slice at the defaults, seed 42, but for the 3D action-residual runs
    # (about 3 s each), and the script runs the rest
    script = load("settings_matrix")
    lines = TABLE.read_text(encoding="utf-8").splitlines()
    table = dict(line.split(": ", 1) for line in lines)
    assert list(table) == [label for label, _ in script.cells()]
    got = {
        label: script.verdict(run_experiment(cfg))
        for label, cfg in script.cells(("default",), (42,))
        if not (cfg.dim == 3 and cfg.experiment == "action-residual")
    }
    assert len(got) == 28
    assert got == {label: table[label] for label in got}


def test_settings_matrix_verdict_reads_errors_and_failing_rows():
    # an error cell keeps its type and first line, without the location;
    # a failing row prints the side of its tolerance it should be on
    verdict = load("settings_matrix").verdict
    cfg = ExperimentConfig(theory="kg", experiment="darboux-check")
    error = "ValueError: bad point\nsecond line (at covlab/darboux.py:12)"
    assert verdict(Report(cfg, (), (error,))) == "error ValueError: bad point"
    rows = (
        ReportRow("darboux-check", "theta-pullback-oracle", 2.2272e-10, 2e-10, 0.0),
        ReportRow("darboux-check", "printed-ledger-loop-integral-exceeds", 1e-12, 1e-9, 0.0),
        ReportRow("darboux-check", "kg-printed-w-mismatch", 5.0, None, 0.0),
        ReportRow("darboux-check", "w-loop-integral", 1e-12, 1e-9, 0.0),
    )
    assert verdict(Report(cfg, rows)) == (
        "fail theta-pullback-oracle 2.23e-10 > 2e-10; "
        "printed-ledger-loop-integral-exceeds 1e-12 <= 1e-09"
    )
    assert verdict(Report(cfg, rows[2:])) == "pass"
