#!/usr/bin/env python3
"""Record every report value of the criterion-11 set, and diff two records.

Criterion 11 asks that a change keep every report value byte-identical,
apart from the ``seconds`` column, unless the change explains each value
that moves.  This script runs, in one process:

- ``suite_configs`` at each ``--seeds`` seed in both sign ledgers;
- every config of the benchmark's workloads (``bench/workloads.py``,
  read and left as it is) at seed 0;
- 3D n=8 ``darboux-check`` at seed 42, both theories and both ledgers
  (the configs of ``tests/data/darboux3d_n8_*.csv``).

It writes one line per report row, ``label,metric,value,tolerance,pass``
with the value and tolerance as ``repr`` of the float (a report error is
a row of its own), and no ``seconds``.  ``--n`` runs every config at
another n, for a quick run.

    PYTHONPATH=src python scripts/criterion11.py > after.txt
    PYTHONPATH=src python scripts/criterion11.py --diff before.txt after.txt

``--diff A B`` prints each row whose value, tolerance or verdict moved
from record A to record B, old -> new, and the rows only one holds; its
last line counts the rows that moved and the verdicts that changed.  It
exits 1 when a verdict changed, 0 when at most values moved.
"""

import argparse
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
# the seed of the benchmark's workloads
BENCH_SEED = 0


def _workloads():
    spec = importlib.util.spec_from_file_location("covlab_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def labelled_configs(seeds):
    """(label, config) for every config of the set, labels unique."""
    from covlab.harness import LEDGERS, ExperimentConfig, suite_configs

    groups = [
        (f"suite-{seed}-{ledger}", suite_configs(seed=seed, sign_ledger=ledger))
        for seed in seeds
        for ledger in LEDGERS
    ]
    workloads = _workloads()
    groups += [
        (f"{name}-{BENCH_SEED}", workloads.configs(name, BENCH_SEED)) for name in workloads.NAMES
    ]
    groups.append(
        (
            "darboux3d-n8-42",
            [
                ExperimentConfig(
                    theory=theory,
                    experiment="darboux-check",
                    dim=3,
                    n=8,
                    seed=42,
                    sign_ledger=ledger,
                )
                for theory in ("kg", "schrodinger")
                for ledger in LEDGERS
            ],
        )
    )
    for group, configs in groups:
        for i, cfg in enumerate(configs):
            yield f"{group}:{i:02d}:{cfg.theory}/{cfg.experiment}", cfg


def record(seeds, n: int | None):
    """The record's lines, one per report row."""
    from covlab.harness import run_experiment

    for label, cfg in labelled_configs(seeds):
        if n is not None:
            cfg = replace(cfg, n=n)
        report = run_experiment(cfg)
        for row in report.rows:
            tol = "" if row.tolerance is None else repr(float(row.tolerance))
            ok = "" if row.passed is None else str(row.passed).lower()
            yield f"{label},{row.metric},{float(row.value)!r},{tol},{ok}"
        for msg in report.errors:
            yield f"{label},error: {msg.replace(',', ';')},nan,,false"


def _read(path: str) -> dict:
    rows = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        label, metric, *cells = line.split(",")
        rows[label, metric] = cells
    return rows


def diff(old_path: str, new_path: str) -> int:
    """Print each row that moved from old to new, then their count and the
    count of rows on both sides whose verdict changed; return that count."""
    old, new = _read(old_path), _read(new_path)
    keys = list(old) + [key for key in new if key not in old]
    moved = flipped = 0
    for key in keys:
        before, after = old.get(key), new.get(key)
        if before == after:
            continue
        moved += 1
        label, metric = key
        if before is None or after is None:
            print(f"{label} {metric}: only in {old_path if after is None else new_path}")
            continue
        flipped += before[-1] != after[-1]
        for name, a, b in zip(("value", "tolerance", "pass"), before, after):
            if a != b:
                print(f"{label} {metric} {name}: {a} -> {b}")
    print(f"{moved} of {len(keys)} rows moved, {flipped} verdicts changed")
    return flipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[42, 0])
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.diff:
        return 1 if diff(*args.diff) else 0
    for line in record(args.seeds, args.n):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
