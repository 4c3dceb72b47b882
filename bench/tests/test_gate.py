import math

import gate
from covlab.harness import ExperimentConfig, Report, ReportRow

CFG = ExperimentConfig(theory="kg", experiment="evolve")


def row(metric, value, tolerance):
    return ReportRow(experiment="evolve", metric=metric, value=value, tolerance=tolerance, seconds=0.1)


def test_clean_report_passes():
    report = Report(CFG, rows=(row("energy-drift", 1e-13, 1e-12), row("info", 3.0, None)))
    assert not gate.experiment_failed(report)


def test_error_row_fails():
    report = Report(CFG, rows=(), errors=("IndexError: too many indices",))
    assert not report.all_pass
    assert gate.experiment_failed(report)


def test_nan_value_fails_even_where_the_report_passes_it():
    informational = Report(CFG, rows=(row("energy-drift", 1e-13, 1e-12), row("info", math.nan, None)))
    assert informational.all_pass  # the report itself lets this NaN through
    assert gate.experiment_failed(informational)
    gated = Report(CFG, rows=(row("energy-drift", math.inf, 1e-12),))
    assert gate.experiment_failed(gated)


def test_failing_gate_fails():
    report = Report(CFG, rows=(row("energy-drift", 2e-12, 1e-12),))
    assert gate.experiment_failed(report)


def test_worst_gate_ratio_skips_controls_and_informational_rows():
    report = Report(
        CFG,
        rows=(
            row("a", 0.25, 1.0),
            row("b", 3.0, 10.0),
            row("c-exceeds", 50.0, 1.0),
            row("d", 99.0, None),
        ),
    )
    assert gate.worst_gate_ratio([report]) == 0.3
    assert gate.worst_gate_ratio([]) == 0.0


def test_worst_gate_ratio_keeps_nan():
    first = Report(CFG, rows=(row("a", math.nan, 1.0),))
    second = Report(CFG, rows=(row("b", 0.5, 1.0),))
    assert math.isnan(gate.worst_gate_ratio([first, second]))
