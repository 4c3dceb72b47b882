"""The benchmark's traced entry points exist under the names it keys on.

bench/spans.py wraps the public functions of each layer module and the
methods it lists, and its per-layer metrics look spans up by name: a
renamed entry point, or one aliased to a function another module
defines, makes it raise instead of reading 0.  This runs one small
config of every experiment for both theories under its wrappers, and
the whole-section EL pairing and scale that the streamed action-residual
pass no longer reaches.  A count that reads 0 means the entry point is
no longer on the call path: for instance a theory record that keeps the
function objects it calls, taken at import, instead of calling them by
module-level name.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from covlab import darboux, harness, kg, lattice, schrodinger
from covlab.harness import EXPERIMENTS, THEORIES, ExperimentConfig
from covlab.lattice import Lattice, ScalarField

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


def whole_section_el(theory: str) -> None:
    """The public whole-section EL pairing and cancellation scale, which
    the streamed action-residual pass no longer calls, looked up by name in
    their modules as a caller outside covlab would."""
    module = {"kg": kg, "schrodinger": schrodinger}[theory]
    short = "kg" if theory == "kg" else "schr"
    th = darboux.Theory.of(theory, Lattice(dim=1, n=8, length=2 * np.pi), 1.0)
    fields = [ScalarField(th.lattice, np.cos(k * th.lattice.coordinates()[0])) for k in (1, 2)]
    section = th.section(th.enforce(*fields), 1e-2, 8)
    variation = th.enforce(*fields)
    getattr(module, f"{short}_el_pairing")(section, variation)
    getattr(module, f"{short}_el_cancellation_scale")(section, variation)


def streamed_slices(cfg, steps_at) -> int:
    """Slices the two-level streamed pass of action-residual builds at
    dt / 2: every fine node once, plus a halo of two coarse nodes (4 fine
    ones) on each side of each chunk of STREAM_SLICE_SITES // sites nodes
    (8 halos at least), cut at the ends of the grid."""
    count, halo = steps_at(cfg, cfg.dt / 2) + 1, 4
    rows = max(8 * halo, harness.STREAM_SLICE_SITES // cfg.lattice.site_count)
    assert steps_at(cfg, cfg.dt / 2) == 2 * steps_at(cfg, cfg.dt)
    return sum(
        min(count, g0 + rows + halo) - max(0, g0 - halo) for g0 in range(0, count, rows)
    )


def test_every_keyed_entry_point_records_a_traced_pass(spans, monkeypatch):
    configs = [
        ExperimentConfig(theory=theory, experiment=experiment, n=8)
        for experiment in EXPERIMENTS
        for theory in THEORIES
    ]
    # 500 fine nodes per chunk, so the EL pass has interior chunk boundaries
    monkeypatch.setattr(harness, "STREAM_SLICE_SITES", 500 * 8)
    # Lattice.ksq runs when a mode flow is built: flows an earlier test
    # left in the cache would keep lattice.ksq_builds at 0
    lattice._mode_flow.cache_clear()
    before = bindings(spans)
    rec = spans.Recorder()
    with spans.installed(rec):
        assert darboux.kg_solution_section is not before[("covlab.darboux", "kg_solution_section")]
        with rec.traced_pass() as pass_no:
            reports = [harness.run_experiment(cfg) for cfg in configs]
            for theory in THEORIES:
                whole_section_el(theory)
    assert bindings(spans) == before

    assert [r.errors for r in reports] == [()] * len(configs)
    metrics = spans.pass_metrics(rec, pass_no)
    counted = (
        "kg.el_s",
        "schrodinger.el_s",
        "kg.section_slices",
        "darboux.chart_calls",
        "kg.evolve_calls",
        "schrodinger.evolve_calls",
        "darboux.oracle_value_calls",
        "darboux.oracle_differential_calls",
        "darboux.sampler_calls",
        "brackets.jacobi_calls",
        "brackets.gradient_calls",
        "lattice.ksq_builds",
        "lattice.fft_calls",
    )
    for name in counted:
        assert metrics[name] > 0, name
    # each action-residual run streams one pass per quantity at dt / 2:
    # the EL window over _el_steps and the de Donder-Weyl window capped at
    # DDW_WINDOW_STEPS, doubled; the levels at dt are their even nodes.
    # whole_section_el adds one 9-slice section per theory
    cfg = configs[-1]
    assert cfg.experiment == "action-residual" and cfg.steps > harness.DDW_WINDOW_STEPS
    el = streamed_slices(cfg, harness._el_steps)
    ddw = streamed_slices(cfg, harness._ddw_steps)
    assert (el, ddw) == (2001 + 3 * 8 + 5, 401)
    for theory in THEORIES:
        assert metrics[f"{theory}.section_slices"] == el + ddw + 9, theory


@pytest.mark.parametrize(
    "layer", ["lattice", "kg", "schrodinger", "darboux", "brackets", "harness"]
)
def test_exports_are_the_traced_callables(spans, layer):
    # bench/spans.py wraps every public function a layer module defines,
    # read off the module; __all__ names exactly those and the public
    # classes, so a deleted function cannot leave a stale export behind,
    # and the exports list every entry point the benchmark traces
    assert layer in spans.LAYERS
    mod = importlib.import_module(f"covlab.{layer}")
    defined = {
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and callable(obj)
        and getattr(obj, "__module__", None) == mod.__name__
    }
    assert len(mod.__all__) == len(set(mod.__all__))
    assert set(mod.__all__) == defined


def test_the_oracle_builds_from_a_name_and_the_configs_kg_record_or_lattice():
    # the call shape of bench/tests/test_known_defects.py: a theory name
    # with ExperimentConfig.kg_config() for Klein-Gordon, the lattice for
    # Schrodinger.  The Schrodinger record built there has mass 0, the
    # config's mass 1, so the records are compared by their flow tables
    for theory in THEORIES:
        cfg = ExperimentConfig(theory=theory, experiment="darboux-check", n=16, seed=42)
        source = cfg.kg_config() if theory == "kg" else cfg.lattice
        oracle = darboux.WOracle(theory, source, seed=cfg.seed + 4)
        want = harness._theory(cfg)
        assert (oracle.theory.name, oracle.theory.lattice) == (cfg.theory, cfg.lattice)
        assert np.array_equal(oracle.theory.flow().table, want.flow().table)
