"""The benchmark's workloads: lists of covlab ExperimentConfigs built from
the benchmark's seed.

Every config's data seed is the benchmark seed, except where an
experiment's gate fails at some seeds on the commit that defined this
benchmark.  Those experiments run at ``ACCEPTANCE_SEED``, the seed that
``covlab suite --all`` and the tier-1 acceptance tests use, because a
workload that fails on the parent commit would make the fix read as a
slowdown.  The pinned experiments and the defects behind them are listed
in ``PINNED`` and documented in README.md; ``tests/test_known_defects.py``
fails once a defect is fixed, so that the pin can be lifted.
"""

from __future__ import annotations

from dataclasses import replace

from covlab.harness import ExperimentConfig, suite_configs

ACCEPTANCE_SEED = 42

# (workload, experiment) -> why its data seed is pinned
PINNED = {
    ("suite", "action-residual"): (
        "el-pairing-scaled exceeds its 1e-8 tolerance at most seeds other "
        "than 42 (for example seeds 0-4)"
    ),
    ("chart-3d", "darboux-check"): (
        "at 3D n=16 the W-oracle closedness self-check exceeds its absolute "
        "1e-8 tolerance at some seeds (for example seeds 4 and 16)"
    ),
}

THEORIES = ("kg", "schrodinger")


def _chart_3d(seed: int):
    return [
        ExperimentConfig(theory=theory, experiment=experiment, dim=3, n=16, seed=seed)
        for experiment in ("evolve", "omega-check", "darboux-check")
        for theory in THEORIES
    ]


def _brackets_wide(seed: int):
    return [
        ExperimentConfig(theory=theory, experiment="bracket-check", dim=1, n=1024, seed=seed)
        for theory in THEORIES
    ]


_BUILDERS = {
    "suite": suite_configs,
    "chart-3d": _chart_3d,
    "brackets-wide": _brackets_wide,
}

NAMES = tuple(_BUILDERS)


def configs(workload: str, seed: int) -> list:
    """The workload's experiment configs for one benchmark seed."""
    out = []
    for cfg in _BUILDERS[workload](seed):
        if (workload, cfg.experiment) in PINNED:
            cfg = replace(cfg, seed=ACCEPTANCE_SEED)
        out.append(cfg)
    return out
