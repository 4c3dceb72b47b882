#!/usr/bin/env python3
"""Run every experiment at every advertised setting, one line per cell.

A cell is experiment x theory x shape x seed, each config otherwise at
its defaults.  The shapes are the defaults (1D n=64, 2D n=16, 3D n=16)
and the large ones (1D n=1024, 2D n=64, 3D n=32), where
``action-residual`` is not run; the seeds are 0 and 42.  Each line
reads ``pass``; or ``fail`` with the failing gated rows, each as its
metric, value and tolerance; or ``error`` with the error's type and the
first line of its message, without the source location.

    PYTHONPATH=src python scripts/settings_matrix.py > tests/data/settings_matrix.txt

The committed table is ``tests/data/settings_matrix.txt``; a change
that flips a cell updates it.  The defaults take about 20 s, most of it
the four 3D ``action-residual`` runs.
"""

import argparse
import sys

from covlab.harness import EXPERIMENTS, THEORIES, ExperimentConfig, run_experiment

SHAPES = {
    "default": ((1, 64), (2, 16), (3, 16)),
    "large": ((1, 1024), (2, 64), (3, 32)),
}
SEEDS = (0, 42)


def cells(shapes=tuple(SHAPES), seeds=SEEDS):
    """(label, config) for each cell, in the table's order."""
    for shape in shapes:
        for dim, n in SHAPES[shape]:
            for seed in seeds:
                for experiment in EXPERIMENTS:
                    if shape == "large" and experiment == "action-residual":
                        continue
                    for theory in THEORIES:
                        label = f"{experiment} {theory} {dim}D n={n} seed {seed}"
                        yield label, ExperimentConfig(
                            theory=theory, experiment=experiment, dim=dim, n=n, seed=seed
                        )


def verdict(report) -> str:
    """pass, the failing gated rows, or the error's type and first line."""
    if report.errors:
        return "error " + report.errors[0].rsplit(" (at ", 1)[0].splitlines()[0]
    failing = [
        f"{r.metric} {r.value:.3g} {'<=' if r.metric.endswith('-exceeds') else '>'} "
        f"{r.tolerance:g}"
        for r in report.rows
        if r.passed is False
    ]
    return "fail " + "; ".join(failing) if failing else "pass"


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    for label, cfg in cells():
        print(f"{label}: {verdict(run_experiment(cfg))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
