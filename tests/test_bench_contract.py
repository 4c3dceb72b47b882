"""The benchmark's traced entry points exist under the names it keys on.

bench/spans.py wraps the public functions of each layer module and the
methods it lists, and its per-layer metrics look spans up by name: a
renamed entry point, or one aliased to a function another module
defines, makes it raise instead of reading 0.  This runs one small
config of every experiment for both theories under its wrappers.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from covlab import harness
from covlab.harness import EXPERIMENTS, THEORIES, ExperimentConfig

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("covlab_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(spans):
    """Every callable bound in a covlab module, every traced method and
    numpy's fftn/ifftn, by owner and name."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "covlab" or modname.startswith("covlab."):
            for attr, obj in vars(mod).items():
                if callable(obj):
                    out[(modname, attr)] = obj
    for layer, cls_name, meth in spans.METHODS:
        cls = getattr(sys.modules[f"covlab.{layer}"], cls_name)
        out[(cls_name, meth)] = vars(cls)[meth]
    for fname in spans.FFT_FUNCTIONS:
        out[("numpy.fft", fname)] = getattr(np.fft, fname)
    return out


def test_every_keyed_entry_point_records_a_traced_pass(spans):
    configs = [
        ExperimentConfig(theory=theory, experiment=experiment, n=8)
        for experiment in EXPERIMENTS
        for theory in THEORIES
    ]
    before = bindings(spans)
    rec = spans.Recorder()
    with spans.installed(rec):
        assert harness.kg_el_pairing is not before[("covlab.harness", "kg_el_pairing")]
        with rec.traced_pass() as pass_no:
            reports = [harness.run_experiment(cfg) for cfg in configs]
    assert bindings(spans) == before

    assert [r.errors for r in reports] == [()] * len(configs)
    metrics = spans.pass_metrics(rec, pass_no)
    for name in ("kg.el_s", "schrodinger.el_s", "kg.section_slices", "darboux.chart_calls"):
        assert metrics[name] > 0, name
    # each action-residual run builds one section per quantity, at dt / 2:
    # the EL window over _el_steps and the de Donder-Weyl window capped at
    # DDW_WINDOW_STEPS, doubled; the sections at dt are their even slices
    cfg = configs[-1]
    assert cfg.experiment == "action-residual" and cfg.steps > harness.DDW_WINDOW_STEPS
    el = harness._el_steps(cfg, cfg.dt / 2) + 1
    ddw = 2 * harness.DDW_WINDOW_STEPS + 1
    for theory in THEORIES:
        assert metrics[f"{theory}.section_slices"] == el + ddw, theory
