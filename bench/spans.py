"""Traced-run recorder: spans at the entry points of covlab's layers.

The wrappers are installed from outside, by rebinding names, so nothing
under ``src/`` knows about them.  A span carries a name, start, end,
parent span and pass id; spans are kept in flat arrays in memory and
written out when the run ends.  A span's name starts with its layer:
``lattice``, ``kg``, ``schrodinger``, ``darboux``, ``brackets`` or
``harness``.  numpy's ``fftn``/``ifftn`` count as lattice work, whoever
calls them.  The ``cli`` layer only parses arguments and joins CSV, and
the benchmark does not go through it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("lattice", "kg", "schrodinger", "darboux", "brackets", "harness")
COMPUTE_LAYERS = LAYERS[:-1]
# experiment kinds timed as harness.<kind>_s; spelled out here because
# the metric names are fixed in BENCHMARK.json
EXPERIMENTS = ("evolve", "omega-check", "darboux-check", "bracket-check", "action-residual")

# methods wrapped on their class, as (layer, class, method)
METHODS = (
    ("lattice", "Lattice", "ksq"),
    ("darboux", "WOracle", "__init__"),
    ("darboux", "WOracle", "value"),
    ("darboux", "WOracle", "differential"),
    ("darboux", "WOracle", "loop_integral"),
    ("brackets", "Observable", "gradient_at"),
)
FFT_FUNCTIONS = ("fftn", "ifftn")
ROOT = "harness.pass"


class Recorder:
    """Spans and counts of a traced run, in memory until ``save``."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.counts = defaultdict(Counter)
        self.pass_no = -1
        self._stack = []

    def intern(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self.pass_no)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount) -> None:
        self.counts[self.pass_no][key] += amount

    @contextlib.contextmanager
    def traced_pass(self):
        """One pass of a workload under the root span; yields its id."""
        self.pass_no += 1
        root = self.open(self.intern(ROOT))
        try:
            yield self.pass_no
        finally:
            self.close(root)

    def arrays(self):
        """(name_id, start, end, parent, pass_id) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.pass_id, dtype=np.int32),
        )

    def save(self, path: str) -> None:
        name_id, start, end, parent, pass_id = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            pass_id=pass_id,
        )


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans on one thread nest, so children of one span do not overlap.
    """
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


def covered(start, end) -> float:
    """Time covered by a set of nested-or-disjoint spans: a span inside
    another of the set is not counted again."""
    start = np.asarray(start)
    end = np.asarray(end)
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s = start[order]
    e = end[order]
    reach = np.maximum.accumulate(np.concatenate(([-np.inf], e[:-1])))
    outer = s >= reach
    return float(np.sum(e[outer] - s[outer]))


# ---------------------------------------------------------------------------
# wrappers


def _wrap(rec: Recorder, fn, name: str, tally=None):
    nid = rec.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if tally is not None:
            tally(args, kwargs, result)
        return result

    return traced


class _TracedMethod:
    """Stands in for a method on its class.  The original is looked up
    through its own descriptor, so a plain function, an ``lru_cache``
    wrapper, a staticmethod and a classmethod all bind as before."""

    def __init__(self, rec: Recorder, raw, name: str):
        self.raw = raw
        self.rec = rec
        self.nid = rec.intern(name)

    def __get__(self, obj, owner=None):
        get = getattr(type(self.raw), "__get__", None)
        target = self.raw if get is None else get(self.raw, obj, owner)
        rec, nid = self.rec, self.nid

        def traced(*args, **kwargs):
            i = rec.open(nid)
            try:
                return target(*args, **kwargs)
            finally:
                rec.close(i)

        return traced


def _wrap_run_experiment(rec: Recorder, fn):
    kinds = {kind: rec.intern(f"harness.run_experiment:{kind}") for kind in EXPERIMENTS}

    @functools.wraps(fn)
    def traced(cfg):
        i = rec.open(kinds[cfg.experiment])
        try:
            report = fn(cfg)
        finally:
            rec.close(i)
        rec.count("harness.rows", len(report.rows))
        return report

    return traced


def _tallies(rec: Recorder):
    # slices from the (state, dt, steps, ...) arguments, whatever a
    # section stores them as
    def slices(layer):
        def tally(args, kwargs, section):
            steps = kwargs["steps"] if "steps" in kwargs else args[2]
            rec.count(f"{layer}.section_slices", steps + 1)

        return tally

    return {
        "kg_solution_section": slices("kg"),
        "schr_solution_section": slices("schrodinger"),
        "emit_report": lambda args, kwargs, text: rec.count(
            "harness.report_bytes", len(text.encode())
        ),
    }


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap every public function of each layer module (any callable
    defined there that is not a class, ``lru_cache`` wrappers included),
    the methods in METHODS and numpy's fftn/ifftn; rebind each wrapped
    function in every covlab module that imported it by name; undo all
    of it on exit.  A METHODS entry that is missing, or is not called
    as a method, is an error: its metrics would read 0."""
    tallies = _tallies(rec)
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"covlab.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr == "run_experiment":
                wrappers[obj] = _wrap_run_experiment(rec, obj)
            else:
                wrappers[obj] = _wrap(rec, obj, f"{layer}.{attr}", tallies.get(attr))

    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    try:
        for modname, mod in list(sys.modules.items()):
            if modname != "covlab" and not modname.startswith("covlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and obj in wrappers:
                    rebind(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"covlab.{layer}"), cls_name)
            if meth not in vars(cls) or not callable(getattr(cls, meth)):
                raise TypeError(f"covlab.{layer}.{cls_name}.{meth} is not a method to trace")
            rebind(cls, meth, _TracedMethod(rec, vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))
        fft_elems = lambda args, kwargs, result: rec.count("lattice.fft_elems", np.size(args[0]))
        for fname in FFT_FUNCTIONS:
            rebind(np.fft, fname, _wrap(rec, getattr(np.fft, fname), f"lattice.{fname}", fft_elems))
        yield rec
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# per-layer metrics of one pass


def pass_metrics(rec: Recorder, pass_no: int) -> dict:
    """The per-layer metrics of one traced pass, by name.

    Times are in seconds, the rest are counts.  ``<layer>.self_s`` over
    all layers adds up to ``trace.wall_s``, the root span's duration.
    A span name that no wrapper records is an error, not a 0: it means
    an entry point was renamed or removed.
    """
    name_id, start, end, parent, pass_id = rec.arrays()
    own = self_times(start, end, parent)
    mask = pass_id == pass_no
    name_id, start, end, own = name_id[mask], start[mask], end[mask], own[mask]
    counts = rec.counts[pass_no]

    def select(match) -> np.ndarray:
        """Mask of the pass's spans whose name satisfies match."""
        return np.isin(name_id, [i for i, name in enumerate(rec.names) if match(name)])

    def in_layer(layer) -> np.ndarray:
        return select(lambda name: name.split(".", 1)[0] == layer)

    def known(*wanted) -> np.ndarray:
        """Mask of the pass's spans named in wanted."""
        missing = [name for name in wanted if name not in rec.ids]
        if missing:
            raise KeyError(f"no traced entry point records {missing}")
        return np.isin(name_id, [rec.ids[name] for name in wanted])

    def calls(*wanted) -> int:
        return int(np.count_nonzero(known(*wanted)))

    def time_in(*wanted) -> float:
        m = known(*wanted)
        return covered(start[m], end[m])

    fft_names = tuple(f"lattice.{f}" for f in FFT_FUNCTIONS)
    out = {}
    for layer in COMPUTE_LAYERS:
        m = in_layer(layer)
        if layer == "lattice":
            # lattice spans only have lattice children, so its inclusive
            # time is its self time; calls exclude the FFTs
            out["lattice.calls"] = int(np.count_nonzero(m & ~known(*fft_names)))
        else:
            out[f"{layer}.calls"] = int(np.count_nonzero(m))
            out[f"{layer}.incl_s"] = covered(start[m], end[m])
        out[f"{layer}.self_s"] = float(np.sum(own[m]))

    out["lattice.fft_calls"] = calls(*fft_names)
    out["lattice.fft_elems"] = int(counts["lattice.fft_elems"])
    out["lattice.fft_s"] = time_in(*fft_names)
    out["lattice.ksq_builds"] = calls("lattice.Lattice.ksq")
    out["lattice.ksq_s"] = time_in("lattice.Lattice.ksq")

    for layer, short in (("kg", "kg"), ("schrodinger", "schr")):
        out[f"{layer}.section_s"] = time_in(f"{layer}.{short}_solution_section")
        out[f"{layer}.section_slices"] = int(counts[f"{layer}.section_slices"])
        evolvers = [n for n in rec.names if n.startswith(f"{layer}.{short}_evolve_")]
        if not evolvers:
            raise KeyError(f"no traced entry point records {layer}.{short}_evolve_*")
        out[f"{layer}.evolve_calls"] = calls(*evolvers)
        out[f"{layer}.el_s"] = time_in(
            f"{layer}.{short}_el_pairing", f"{layer}.{short}_el_cancellation_scale"
        )

    out["darboux.chart_calls"] = calls(
        *(f"darboux.{t}_{d}_darboux" for t in ("kg", "schr") for d in ("to", "from"))
    )
    out["darboux.oracle_value_calls"] = calls("darboux.WOracle.value")
    out["darboux.oracle_differential_calls"] = calls("darboux.WOracle.differential")
    out["darboux.loop_integral_s"] = time_in("darboux.WOracle.loop_integral")
    out["darboux.pullback_s"] = time_in("darboux.theta_pullback_residual")
    out["darboux.sampler_calls"] = calls("darboux.random_hermitian_modes")
    out["darboux.sampler_s"] = time_in("darboux.random_hermitian_modes")

    out["brackets.jacobi_calls"] = calls("brackets.jacobi_bracket")
    out["brackets.jacobi_s"] = time_in("brackets.jacobi_bracket")
    out["brackets.gradient_calls"] = calls("brackets.Observable.gradient_at")

    kinds = tuple(f"harness.run_experiment:{kind}" for kind in EXPERIMENTS)
    out["harness.experiments"] = calls(*kinds)
    out["harness.rows"] = int(counts["harness.rows"])
    out["harness.self_s"] = float(np.sum(own[in_layer("harness")]))
    for kind, span in zip(EXPERIMENTS, kinds):
        out[f"harness.{kind}_s"] = time_in(span)
    out["harness.emit_s"] = time_in("harness.emit_report")
    out["harness.report_bytes"] = int(counts["harness.report_bytes"])

    out["trace.spans"] = int(name_id.size)
    out["trace.wall_s"] = time_in(ROOT)
    return out
