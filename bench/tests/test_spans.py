import functools
from collections import Counter

import numpy as np
import pytest

import spans
from covlab import harness
from covlab.harness import ExperimentConfig

# A synthetic pass: root [0, 10] with children a [1, 4] and b [5, 9];
# a has child c [2, 3]; b has children d [5, 6] and e [7, 8.5].
#               root   a    b    c    d    e
START = np.array([0.0, 1.0, 5.0, 2.0, 5.0, 7.0])
END = np.array([10.0, 4.0, 9.0, 3.0, 6.0, 8.5])
PARENT = np.array([-1, 0, 0, 1, 2, 2])


def test_self_time_is_duration_minus_children():
    own = spans.self_times(START, END, PARENT)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.5, 1.0, 1.0, 1.5])
    assert own.sum() == pytest.approx(END[0] - START[0])


def test_covered_counts_nested_spans_once():
    # a and its descendant c, as if both had the same name
    assert spans.covered(START[[1, 3]], END[[1, 3]]) == pytest.approx(3.0)
    # disjoint siblings add up
    assert spans.covered(START[[3, 4, 5]], END[[3, 4, 5]]) == pytest.approx(3.5)
    assert spans.covered([], []) == 0.0


def test_recorder_builds_the_tree_and_self_times_add_up():
    rec = spans.Recorder()
    with rec.traced_pass():
        outer = rec.open(rec.intern("kg.outer"))
        inner = rec.open(rec.intern("lattice.inner"))
        rec.close(inner)
        rec.close(outer)
    name_id, start, end, parent, pass_id = rec.arrays()
    assert [rec.names[i] for i in name_id] == [spans.ROOT, "kg.outer", "lattice.inner"]
    assert parent.tolist() == [-1, 0, 1]
    assert pass_id.tolist() == [0, 0, 0]
    assert np.all(end >= start)
    assert spans.self_times(start, end, parent).sum() == pytest.approx(end[0] - start[0])


def test_traced_pass_adds_up_and_wrappers_come_off():
    original = (harness.run_experiment, harness.idft, np.fft.fftn)
    cfg = ExperimentConfig(theory="kg", experiment="darboux-check", n=8)
    rec = spans.Recorder()
    with spans.installed(rec):
        assert harness.run_experiment is not original[0]
        with rec.traced_pass() as pass_no:
            report = harness.run_experiment(cfg)
            harness.emit_report(report, None, "csv")
    assert (harness.run_experiment, harness.idft, np.fft.fftn) == original

    assert "lattice.mode_index_table" in rec.ids  # an lru_cache wrapper
    m = spans.pass_metrics(rec, pass_no)
    layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["harness.experiments"] == 1
    assert m["harness.rows"] == len(report.rows)
    assert m["harness.darboux-check_s"] <= m["trace.wall_s"]
    assert m["darboux.oracle_value_calls"] > 0
    assert m["lattice.fft_calls"] > 0
    assert m["lattice.fft_elems"] % cfg.n == 0


def test_traced_method_binds_like_the_original():
    class Thing:
        def plain(self, x):
            return self, x

        @functools.lru_cache
        def cached(self, x):
            return x + 1

        @staticmethod
        def static(x):
            return 2 * x

        @classmethod
        def klass(cls, x):
            return cls, x

    rec = spans.Recorder()
    for name in ("plain", "cached", "static", "klass"):
        setattr(Thing, name, spans._TracedMethod(rec, vars(Thing)[name], f"lattice.{name}"))
    thing = Thing()
    with rec.traced_pass():
        assert thing.plain(1) == (thing, 1)
        assert thing.cached(1) == thing.cached(1) == 2
        assert thing.static(3) == Thing.static(3) == 6
        assert thing.klass(4) == (Thing, 4)
    name_id = rec.arrays()[0]
    assert Counter(rec.names[i] for i in name_id) == {
        spans.ROOT: 1,
        "lattice.plain": 1,
        "lattice.cached": 2,
        "lattice.static": 2,
        "lattice.klass": 1,
    }


def test_missing_method_is_an_error_and_wrappers_come_off(monkeypatch):
    monkeypatch.setattr(spans, "METHODS", spans.METHODS + (("lattice", "Lattice", "gone"),))
    original = harness.run_experiment
    with pytest.raises(TypeError, match="Lattice.gone"):
        with spans.installed(spans.Recorder()):
            pass
    assert harness.run_experiment is original


def test_metrics_of_an_entry_point_that_records_nothing_are_an_error():
    rec = spans.Recorder()
    with rec.traced_pass() as pass_no:
        pass
    with pytest.raises(KeyError, match="no traced entry point"):
        spans.pass_metrics(rec, pass_no)
