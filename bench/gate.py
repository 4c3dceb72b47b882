"""Correctness gate over covlab reports.

The gate reads each value itself with ``math.isfinite`` instead of
trusting ``ReportRow.passed``, because a NaN compares false against its
tolerance and can come out as a pass.
"""

from __future__ import annotations

import math


def experiment_failed(report) -> bool:
    """An experiment fails when its report carries an error, a gated row
    fails, or any row value is non-finite."""
    if report.errors:
        return True
    for row in report.rows:
        if not math.isfinite(row.value) or row.passed is False:
            return True
    return False


def worst_gate_ratio(reports) -> float:
    """Largest value/tolerance over the gated rows that are not
    ``*-exceeds`` negative controls; 0.0 when there are none."""
    worst = 0.0
    for report in reports:
        for row in report.rows:
            if row.tolerance is None or row.metric.endswith("-exceeds"):
                continue
            ratio = row.value / row.tolerance
            if math.isnan(ratio) or ratio > worst:  # a NaN, once taken, sticks
                worst = ratio
    return worst
