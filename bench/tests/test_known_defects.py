"""The defects behind the pinned seeds in workloads.PINNED.

Each test asserts the behaviour a fixed program would have and is a
strict xfail today; when one starts to pass, the fix has landed and the
matching pin in workloads.py can be lifted (a benchmark change of its
own, measured against a new baseline).
"""

import pytest

import workloads
from covlab import darboux as dx
from covlab.harness import ExperimentConfig, run_experiment, suite_configs


@pytest.mark.xfail(strict=True, reason="el-pairing-scaled exceeds 1e-8 at seed 0")
def test_suite_action_residual_passes_at_another_seed():
    cfg = next(
        c for c in suite_configs(seed=0) if c.theory == "kg" and c.experiment == "action-residual"
    )
    assert run_experiment(cfg).all_pass


@pytest.mark.xfail(strict=True, raises=dx.WOracleClosednessError, reason="absolute 1e-8 tolerance")
@pytest.mark.parametrize("theory, seed", [("schrodinger", 4), ("kg", 16)])
def test_3d_w_oracle_builds_at_another_seed(theory, seed):
    cfg = ExperimentConfig(theory=theory, experiment="darboux-check", dim=3, n=16, seed=seed)
    dx.WOracle(theory, cfg.kg_config() if theory == "kg" else cfg.lattice, seed=cfg.seed + 4)


def test_pins_use_the_acceptance_seed():
    for workload, experiment in workloads.PINNED:
        for cfg in workloads.configs(workload, seed=7):
            if cfg.experiment == experiment:
                assert cfg.seed == workloads.ACCEPTANCE_SEED
            else:
                assert cfg.seed == 7
