"""Batch experiment runner: config files, seeded data, experiment suites,
and CSV/JSON reports.

Config files are flat ``key: value`` text (one key per line, ``#``
comments allowed); the schema is the field list of ExperimentConfig.
Reports are rows of (experiment, metric, value, tolerance, pass,
seconds); emit_report renders one report, or a suite's list of them,
as CSV or JSON.  Each experiment yields its (metric, value, tolerance)
triples and run_experiment reads the one clock: a row's seconds are
the time since the previous row of the same report, or since the
start, so a report's seconds add up to its wall_s.  Rows whose
tolerance is blank are informational measurements: they carry no
pass verdict and do not affect the exit status.  Metrics named
``*-exceeds`` are negative controls and pass when the value is
strictly greater than the tolerance; everything else passes when
value <= tolerance.

Random data uses the counter-based Philox generator keyed by the seed
(numpy.random.Philox), so streams are reproducible across platforms and
reimplementations: band-limited standard-normal mode coefficients on
|m_j| <= n/4 per axis, reality-symmetrized, constraints enforced.

action-residual streams its ladders (_stream): every level spans one
window of at least 2 intervals of cfg.dt, so one pass builds chunks of
the finest section in turn and adds their per-node densities into every
level, and no whole section is held.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import platform
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from . import brackets as br
from . import darboux as dx
from .kg import kg_evolve_leapfrog, kg_hamiltonian
from .lattice import Lattice, ModeVector, ScalarField, _el_densities, _time_integral, idft, nan_max
from .schrodinger import schr_evolve_stepped, schr_norm_squared, to_wavefunction

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "Report",
    "load_config",
    "dump_config",
    "random_state",
    "el_residuals",
    "ddw_residuals",
    "run_experiment",
    "emit_report",
    "format_float",
    "suite_configs",
    "run_suite",
]

THEORIES = tuple(dx._RECORDS)
EVOLUTIONS = ("spectral", "stepped")
LEDGERS = ("resolved", "paper-printed")
FORMATS = ("csv", "json")


# slices x sites x floats per site (one per scalar, dim per constraint of
# the theory's state) the largest action-residual pass, the dt/2 Euler-
# Lagrange one, may build and transform; it streams, so this bounds work
SECTION_BUDGET_SITE_FLOATS = 2**27

# fine slices x sites a chunk of a streamed action-residual pass owns,
# besides its halo: 512 slices of the suite's 1D n=64 lattice.  In
# alternating passes of its two suite configs (2 cores), 2**14 took 20 %
# longer than 2**15 and 2**16 to 2**17 0-6 % less, with the fewest minor
# faults at 2**15 (4.3k a pass, 6.8k-8.5k else); the live peak grows
# with it
STREAM_SLICE_SITES = 2**15

# steps x sites a stepped evolve run may take.  kg takes 1/dt leapfrog
# steps whatever `steps` says, schrodinger takes `steps` midpoint
# rotations; both step in mode space at about 10 us a step plus 10-20 ns
# a site on 2 cores, so the smallest lattice (n=4, 1D) runs at most about
# 6 minutes at the budget
STEPPED_BUDGET_SITE_STEPS = 2**27

# tolerance per midpoint step of midpoint-norm-drift (relative to the
# norm) and of stepped-vs-composed (relative to the largest coefficient):
# at seeds 0-7 and 42, dims 1-3, n=4-64 and 1-16000 steps the norm drift
# reads at most 1.9 eps a step (at 1 step) and 0.48 eps from 1000 steps on
STEPPED_EPS_PER_STEP = 4 * np.finfo(float).eps

# the de Donder-Weyl residual is a sup over slices, so a long section
# only repeats the same pointwise truncation error; cap its window
DDW_WINDOW_STEPS = 200

# the largest offset a run adds to its config's seed to key a Philox
# stream: bracket-check's seed + 101 + 2 k for k < 20.  Philox keys must
# lie in [0, 2**128)
SEED_OFFSET_MAX = 139

# tolerance of el-pairing-extrapolated.  The scaled EL pairing is c dt^2
# plus rounding, so the Richardson combination (4 r(dt/2) - r(dt)) / 3
# of the signed values cancels the truncation and leaves the rounding
# floor: 2e-17 to 2.4e-15 at seeds 0-3 and 42 for both theories
EL_EXTRAPOLATED_TOL = 1e-13


def _el_steps(cfg, dt: float, cap: float = math.inf) -> int:
    """Time intervals of the action-residual Euler-Lagrange section at dt:
    one window of `steps` (100 if 0, at most cap, 2 at least) intervals
    of cfg.dt, so every level of a ladder spans the same window."""
    window = min(cfg.steps if cfg.steps > 0 else 100, cap)
    return round(max(2, window) * cfg.dt / dt)


@dataclass(frozen=True)
class ExperimentConfig:
    theory: str
    experiment: str
    dim: int = 1
    n: int = 64
    length: float = 2 * math.pi
    mass: float = 1.0
    evolution: str = "spectral"
    dt: float = 1e-3
    steps: int = 1000
    times: tuple = ()
    seed: int = 42
    out: str = ""
    format: str = "csv"
    sign_ledger: str = "resolved"

    def __post_init__(self):
        if self.theory not in THEORIES:
            raise ValueError(f"invalid field 'theory': {self.theory!r}")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"invalid field 'experiment': {self.experiment!r}")
        # numbers are stored as Python int and float, times as a tuple of
        # floats, whatever numpy scalars or sequences were given: the config
        # hashes, and equal configs build equal lattices
        for name in _keys("int"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"invalid field '{name}': {value!r} (integer required)")
            object.__setattr__(self, name, int(value))
        if self.dim not in (1, 2, 3):
            raise ValueError(f"invalid field 'dim': {self.dim}")
        n = self.n
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"invalid field 'n': {n} (power of two >= 4 required)")
        for name in _keys("float"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"invalid field '{name}': {value!r} (real number required)")
            if not math.isfinite(value):
                raise ValueError(f"invalid field '{name}': {value} (finite required)")
            object.__setattr__(self, name, float(value))
        times = self.times.tolist() if isinstance(self.times, np.ndarray) else self.times
        if (
            isinstance(times, (str, bytes))
            or not isinstance(times, Sequence)
            or not all(map(_is_real, times))
        ):
            raise ValueError(
                f"invalid field 'times': {self.times!r} (sequence of real numbers required)"
            )
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"invalid field 'times': {self.times} (finite required)")
        object.__setattr__(self, "times", tuple(float(t) for t in times))
        if self.experiment in ("omega-check", "darboux-check") and len(set(self.times)) == 1:
            raise ValueError(f"invalid field 'times': {self.times} (two distinct required)")
        if self.length <= 0:
            raise ValueError(f"invalid field 'length': {self.length}")
        if self.mass < 0:
            raise ValueError(f"invalid field 'mass': {self.mass}")
        if self.evolution not in EVOLUTIONS:
            raise ValueError(f"invalid field 'evolution': {self.evolution!r}")
        if self.evolution == "stepped" and self.dt <= 0:
            raise ValueError(f"invalid field 'dt': {self.dt} (positive required for stepped)")
        if self.steps < 0:
            raise ValueError(f"invalid field 'steps': {self.steps}")
        if not 0 <= self.seed < 2**128 - SEED_OFFSET_MAX:
            raise ValueError(
                f"invalid field 'seed': {self.seed} (0 <= seed < 2**128 - "
                f"{SEED_OFFSET_MAX} required)"
            )
        if self.experiment == "evolve" and self.evolution == "stepped":
            self._check_stepped_work()
        if self.experiment == "action-residual":
            if self.dt <= 0:
                raise ValueError(
                    f"invalid field 'dt': {self.dt} (positive required for action-residual)"
                )
            self._check_section_size()
        if self.format not in FORMATS:
            raise ValueError(f"invalid field 'format': {self.format!r}")
        if self.sign_ledger not in LEDGERS:
            raise ValueError(f"invalid field 'sign_ledger': {self.sign_ledger!r}")

    def _check_section_size(self):
        """The slices x sites x floats the dt/2 Euler-Lagrange pass of
        action-residual builds must fit SECTION_BUDGET_SITE_FLOATS; the
        floats per site are read off the theory's state declarations."""
        state = dx._RECORDS[self.theory].state
        slices, sites = _el_steps(self, self.dt / 2) + 1, self.n**self.dim
        floats = len(state.SCALARS) + self.dim * len(state.CONSTRAINTS)
        if slices * sites * floats > SECTION_BUDGET_SITE_FLOATS:
            raise ValueError(
                f"invalid fields 'steps', 'n', 'dim': steps={self.steps}, n={self.n}, "
                f"dim={self.dim} need {slices} slices x {sites} sites x {floats} floats in "
                f"action-residual, over the budget of {SECTION_BUDGET_SITE_FLOATS:.3g}"
            )

    def _check_stepped_work(self):
        """A stepped evolve run must fit STEPPED_BUDGET_SITE_STEPS."""
        sites = self.n**self.dim
        field, steps = ("dt", 1.0 / self.dt) if self.theory == "kg" else ("steps", self.steps)
        if steps * sites > STEPPED_BUDGET_SITE_STEPS:
            raise ValueError(
                f"invalid field '{field}': {field}={getattr(self, field)} needs {steps:.3g} "
                f"steps x {sites} sites = {steps * sites:.3g} site-steps in stepped "
                f"evolve, over the budget of {STEPPED_BUDGET_SITE_STEPS:.3g}"
            )

    @property
    def lattice(self) -> Lattice:
        return Lattice(dim=self.dim, n=self.n, length=self.length)


def _is_real(value) -> bool:
    """A real number, numpy's included; not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _theory(cfg: ExperimentConfig) -> dx.Theory:
    """The theory record of the config."""
    return dx.Theory.of(cfg.theory, cfg.lattice, cfg.mass)


def _keys(kind: str) -> list[str]:
    """The config's fields annotated `kind`, in declaration order."""
    return [f.name for f in fields(ExperimentConfig) if f.type == kind]


def load_config(path: str) -> ExperimentConfig:
    """Parse a flat key: value config file; unknown or malformed fields
    are rejected with the field named in the error."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}")
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key: value', got {raw!r}")
        key, _, val = line.partition(":")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key in values:
            raise ValueError(f"invalid field '{key}': given twice ({path}:{lineno})")
        kind = kinds.get(key)
        if kind == "int":
            try:
                values[key] = int(val)
            except ValueError:
                raise ValueError(f"invalid field '{key}': {val!r} is not an integer")
        elif kind == "float":
            try:
                values[key] = float(val)
            except ValueError:
                raise ValueError(f"invalid field '{key}': {val!r} is not a number")
        elif kind == "str":
            values[key] = val
        elif kind == "tuple":
            try:
                values[key] = tuple(float(t) for t in val.split(",") if t.strip())
            except ValueError:
                raise ValueError(f"invalid field 'times': {val!r}")
        else:
            raise ValueError(f"invalid field '{key}': unknown key")
    for required in ("theory", "experiment"):
        if required not in values:
            raise ValueError(f"invalid field '{required}': missing")
    return ExperimentConfig(**values)


def dump_config(cfg: ExperimentConfig) -> str:
    """The flat text form of a config; load_config inverts it, so a string
    holding a '#', a line break or surrounding whitespace is refused."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, str) and ("#" in v or v != v.strip() or len(v.splitlines()) > 1):
            raise ValueError(f"invalid field '{f.name}': {v!r} does not survive a config file")
        if f.name == "times":
            v = ",".join(format_float(t) for t in v)
        elif isinstance(v, float):
            v = format_float(v)
        lines.append(f"{f.name}: {v}")
    return "\n".join(lines) + "\n"


def _seeded_modes(cfg: ExperimentConfig, seed: int, band: int | None = None):
    """The two mode vectors every seeded sample is built from: drawn in
    turn from one Philox stream keyed by seed, standard-normal on
    |m_j| <= band (n/4 by default), reality-symmetrized."""
    lat = cfg.lattice
    band = lat.n // 4 if band is None else band
    rng = np.random.Generator(np.random.Philox(key=seed))
    return tuple(
        ModeVector(lat, dx.random_hermitian_modes(lat, rng, band=band)) for _ in range(2)
    )


def random_state(cfg: ExperimentConfig, seed: int | None = None):
    """Seeded band-limited Gaussian Cauchy data for the configured theory."""
    return _banded_state(cfg, cfg.seed if seed is None else seed)


def _banded_state(cfg: ExperimentConfig, seed: int, band: int | None = None):
    """Seeded data restricted to |m_j| <= band (experiment-specific
    low-frequency data; the default is the standard n/4 band)."""
    return _theory(cfg).enforce(*(idft(m) for m in _seeded_modes(cfg, seed, band)))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    metric: str
    value: float
    tolerance: float | None
    seconds: float

    @property
    def informational(self) -> bool:
        return self.tolerance is None

    @property
    def passed(self) -> bool | None:
        if self.tolerance is None:
            return None
        if not math.isfinite(self.value):
            return False
        if self.metric.endswith("-exceeds"):
            return bool(self.value > self.tolerance)
        return bool(self.value <= self.tolerance)


@dataclass(frozen=True)
class Report:
    """Rows of one experiment; `wall_s` is the wall time of the
    run_experiment call that made it (None for a hand-built report)."""

    config: ExperimentConfig
    rows: tuple
    errors: tuple = ()
    wall_s: float | None = None

    @property
    def all_pass(self) -> bool:
        if self.errors:
            return False
        return all(r.passed is not False for r in self.rows)


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


CSV_HEADER = "experiment,metric,value,tolerance,pass,seconds"


def _csv_rows(report: Report, prefix: str = ""):
    """The report's CSV rows under CSV_HEADER, each led by prefix."""
    for r in report.rows:
        tol = "" if r.tolerance is None else format_float(r.tolerance)
        ok = "" if r.passed is None else ("true" if r.passed else "false")
        yield (
            f"{prefix}{r.experiment},{r.metric},{format_float(r.value)},{tol},{ok},"
            f"{format_float(r.seconds)}"
        )
    for msg in report.errors:
        safe = msg.replace(",", ";").replace("\n", " ")
        yield f"{prefix}{report.config.experiment},error: {safe},nan,,false,0"


def _json_doc(report: Report) -> dict:
    cfg = {f.name: getattr(report.config, f.name) for f in fields(report.config)}
    cfg["times"] = list(cfg["times"])
    return {
        "config": cfg,
        "rows": [
            {
                "experiment": r.experiment,
                "metric": r.metric,
                "value": _json_float(r.value),
                "tolerance": _json_float(r.tolerance),
                "pass": r.passed,
                "seconds": _json_float(r.seconds),
            }
            for r in report.rows
        ],
        "errors": list(report.errors),
        "all_pass": report.all_pass,
        "run": {
            "covlab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "git_revision": _git_revision(),
            "wall_s": _json_float(report.wall_s),
        },
    }


def _json_float(x):
    """x as a JSON value: itself when finite (or None), else its CSV
    spelling as a string ("nan", "inf", "-inf"), since RFC 8259 has no
    non-finite numbers."""
    return x if x is None or math.isfinite(x) else format_float(x)


def _json_text(doc) -> str:
    """Strict JSON: a non-finite float that _json_float missed raises."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


@lru_cache(maxsize=1)
def _git_revision() -> str | None:
    """Commit checked out in the nearest .git above this package, read
    from its files; None outside a checkout or when .git is a file (a
    linked worktree)."""
    here = Path(__file__).resolve().parent
    git = next((d / ".git" for d in here.parents if (d / ".git").exists()), None)
    if git is None or not git.is_dir():
        return None
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        packed = git / "packed-refs"
        lines = packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else ()
    except OSError:
        return None
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def emit_report(report, path: str | None, fmt: str = "csv") -> str:
    """Render a report, or a suite's list of reports (CSV rows led by
    "theory/", JSON as a list), and write it to path when given; returns
    the text."""
    suite = not isinstance(report, Report)
    reports = report if suite else (report,)
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in reports:
            lines.extend(_csv_rows(r, f"{r.config.theory}/" if suite else ""))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        docs = [_json_doc(r) for r in reports]
        text = _json_text(docs if suite else docs[0])
    else:
        raise ValueError(f"invalid field 'format': {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# experiments


def _psi_hat(state) -> np.ndarray:
    """Mode coefficients of the wavefunction phiR + i phiI."""
    return np.fft.fftn(to_wavefunction(state)) / state.lattice.site_count


def _phase_error(th) -> float:
    """The spectral flow by pi of a plane wave against its hand-stated
    value: KG's phi = cos(k1 x), p = 0, k1 = 2 pi / L, to cos(omega pi) phi
    and -omega sin(omega pi) phi, omega = sqrt(k1^2 + mass^2), on both
    fields; Schrodinger's psi = exp(i x) to -i psi, in mode space."""
    lat = th.lattice
    x = lat.coordinates()[0]
    if th.name == "schrodinger":
        plane = th.enforce(ScalarField(lat, np.cos(x)), ScalarField(lat, np.sin(x)))
        target = -1j * _psi_hat(plane)
        return np.max(np.abs(_psi_hat(th.evolve(plane, math.pi)) - target))
    k1 = 2.0 * math.pi / lat.length
    omega, wave = math.sqrt(k1**2 + th.mass**2), np.cos(k1 * x)
    plane = th.enforce(ScalarField(lat, wave), ScalarField(lat, np.zeros_like(wave)))
    want = math.cos(omega * math.pi) * wave, -omega * math.sin(omega * math.pi) * wave
    got = th.slice_fields(th.evolve(plane, math.pi))
    return nan_max(np.max(np.abs(f.values - w)) for f, w in zip(got, want))


def _evolve_rows(cfg: ExperimentConfig):
    """The drift of the conserved quantity (the energy for Klein-Gordon,
    the norm for Schrodinger) over the configured evolution, the
    propagator's phase and Schrodinger's stepper."""
    th = _theory(cfg)
    kg = cfg.theory == "kg"
    conserved = (lambda st: kg_hamiltonian(st, th.mass)) if kg else schr_norm_squared
    spectral = cfg.evolution == "spectral"
    st = _banded_state(cfg, cfg.seed, band=1) if kg and not spectral else random_state(cfg)
    q0 = conserved(st)
    if spectral:
        finals = (th.evolve(st, float(s)) for s in range(1, 11))
        metric, tol = ("energy-drift-spectral" if kg else "norm-drift"), 1e-12
    elif kg:
        finals = (kg_evolve_leapfrog(st, cfg.dt, max(1, round(1.0 / cfg.dt)), th.mass),)
        metric, tol = "energy-drift-leapfrog", 1e-6
    else:
        finals = (schr_evolve_stepped(st, cfg.dt, cfg.steps),)
        metric, tol = "midpoint-norm-drift", STEPPED_EPS_PER_STEP * cfg.steps
    drifts = []
    for final in finals:
        drifts.append(abs(conserved(final) - q0) / abs(q0))
    yield metric, nan_max(drifts), tol
    if spectral:
        yield "propagator-phase-error", _phase_error(th), 1e-12
    elif not kg:
        # the steps against their composition into one rotation,
        # psi-hat exp(-2i steps atan(k^2 dt / 4)) per mode
        angle = 2.0 * cfg.steps * np.arctan(0.25 * cfg.lattice.ksq() * cfg.dt)
        composed = _psi_hat(st) * np.exp(-1j * angle)
        gap = np.max(np.abs(_psi_hat(final) - composed)) / np.max(np.abs(composed))
        yield "stepped-vs-composed", gap, STEPPED_EPS_PER_STEP * cfg.steps


def _omega_rows(cfg: ExperimentConfig):
    th = _theory(cfg)
    times = cfg.times or tuple(float(t) for t in range(11))
    U = _banded_state(cfg, cfg.seed + 1)
    V = _banded_state(cfg, cfg.seed + 2)
    rep = br.omega_slice_report(th, U, V, times)
    yield "slice-spread", rep.max_rel_spread, 1e-10
    yield "slice-spread-frozen-v-exceeds", rep.frozen_v_spread, 1e-10


def _darboux_mode_point(cfg: ExperimentConfig, seed: int, s: float):
    return dx.ModeState(*_seeded_modes(cfg, seed), time=s)


def _darboux_rows(cfg: ExperimentConfig):
    lat = cfg.lattice
    th = _theory(cfg)
    times = cfg.times or tuple(float(t) for t in range(11))

    def chart_coordinates(state):
        return np.concatenate([a.ravel() for a in th.to_darboux(th.mode_state(state)).arrays])

    # one draw and its chart at s = 0, read under both ledgers
    st = random_state(cfg)
    ref = chart_coordinates(st)
    scale = float(np.max(np.abs(ref)))

    def invariance_spread(ledger: str) -> float:
        spreads = []
        for s in times:
            cur = chart_coordinates(th.evolve(st, float(s), ledger))
            spreads.append(float(np.max(np.abs(cur - ref))) / scale)
        return nan_max(spreads)

    spread = invariance_spread(cfg.sign_ledger)
    yield "darboux-invariance-rel-spread", spread, 1e-12
    # where the printed ledger gives the resolved flow (massless KG) its
    # controls have nothing to catch and carry no verdict
    has_printed = th.generator("resolved") != th.generator("paper-printed")
    if cfg.sign_ledger != "paper-printed":
        spread = invariance_spread("paper-printed")
    yield "darboux-invariance-printed-ledger-exceeds", spread, 1e-12 if has_printed else None

    gaps = []
    rng = np.random.Generator(np.random.Philox(key=cfg.seed + 3))
    for _ in range(5):
        s = float(rng.uniform(-10.0, 10.0))
        m = _darboux_mode_point(cfg, int(rng.integers(0, 2**31)), s)
        m2 = th.from_darboux(th.to_darboux(m))
        gaps += [float(np.max(np.abs(a - b))) for a, b in zip(m2.arrays, m.arrays)]
    yield "roundtrip-residual", nan_max(gaps), 1e-13

    triangle = [
        _darboux_mode_point(cfg, cfg.seed + 20 + k, s=s) for k, s in enumerate((0.8, -1.1, 2.4))
    ]
    if cfg.sign_ledger == "paper-printed":
        # the printed form is not closed, so its oracle's value depends on
        # the path; report its circulation instead of the oracle metrics
        loop = abs(dx.WOracle(th, sign_ledger="paper-printed").loop_integral(*triangle))
        yield "printed-ledger-loop-integral-exceeds", loop, 1e-9 if has_printed else None
        return

    oracle = dx.WOracle(th)
    gaps = []
    for k in range(5):
        m = _darboux_mode_point(cfg, cfg.seed + 10 + k, s=0.3 * (k + 1))
        gaps.append(abs(oracle.value(m) - th.w(m)))
    yield "w-oracle-vs-derived", nan_max(gaps), 1e-9
    yield "w-loop-integral", abs(oracle.loop_integral(*triangle)), 1e-9

    reps = [
        dx.theta_pullback_residual(th, _darboux_mode_point(cfg, cfg.seed + 30 + k, s=0.5 * k - 2.0))
        for k in range(10)
    ]
    yield "theta-pullback-oracle", nan_max(r.oracle_residual for r in reps), 2e-10

    gaps = []
    for k in range(10):
        m = _darboux_mode_point(cfg, cfg.seed + 50 + k, s=0.4 * k - 1.6)
        gaps.append(abs(th.w(m, printed=True) - oracle.value(m)))
    if cfg.theory == "kg":
        # measured defect of the printed formula; acceptance criterion 5
        # gates it as the cross-term identity printed - oracle =
        # L^d sum Re(p-hat conj(phi-hat)) sin^2(omega s)
        yield "kg-printed-w-mismatch", nan_max(gaps), None
        coeff = np.zeros(lat.shape, dtype=complex)
        idx = (1,) + (0,) * (lat.dim - 1)
        coeff[idx] = 0.37
        ridx = tuple(-i % lat.n for i in idx)
        coeff[ridx] = 0.37
        zeros = ModeVector(lat, np.zeros(lat.shape, dtype=complex))
        m1 = dx.ModeState(ModeVector(lat, coeff), zeros, time=2.2)
        agree = abs(th.w(m1, printed=True) - oracle.value(m1))
        yield "kg-single-mode-printed-w-agreement", agree, 1e-9
    else:
        yield "schr-printed-w-mismatch", nan_max(gaps), None
    yield "theta-pullback-printed-w", nan_max(r.printed_residual for r in reps), None


def _darboux_point(cfg: ExperimentConfig, seed: int, s: float, W: float):
    return dx.DarbouxState(*_seeded_modes(cfg, seed), W=W, time=s)


def _bracket_rows(cfg: ExperimentConfig):
    th = _theory(cfg)
    point = _darboux_point(cfg, cfg.seed + 60, s=1.3, W=0.5)

    pairs = [
        br.TangentPair(
            _banded_state(cfg, cfg.seed + 100 + 2 * k),
            _banded_state(cfg, cfg.seed + 101 + 2 * k),
            time=0.7,
        )
        for k in range(20)
    ]
    eq = br.bracket_equivalence_check(th, pairs, point)
    yield "bracket-equivalence", eq.max_mismatch, 1e-9

    first_mode = (1,) + (0,) * (cfg.dim - 1)
    lin1 = br.mode_real_part(th, th.slots[0], first_mode)
    lin2 = br.mode_real_part(th, th.slots[1], first_mode)
    quad1 = br.quadratic_power(th, 0)
    quad2 = br.quadratic_cross(th)
    wobs = br.w_coordinate(th)
    wquad = br.product_observable(wobs, quad1)

    # relative to the terms that cancel between the orders, F G_W and G F_W
    # the largest: at most 1.07e-16 over seeds 0-7 and 42, 1D n=64 to 3D n=16
    anti = []
    for F, G in ((lin1, lin2), (quad1, quad2), (wquad, lin2), (wobs, quad2)):
        fg, gf = br.jacobi_bracket(F, G, point), br.jacobi_bracket(G, F, point)
        FGW = F.evaluate(point) * G.w_derivative_at(point)
        GFW = G.evaluate(point) * F.w_derivative_at(point)
        anti.append(abs(fg + gf) / (1.0 + abs(fg) + abs(gf) + abs(FGW) + abs(GFW)))
    yield "bracket-antisymmetry-scaled", nan_max(anti), 1e-12

    def nested(F, G):
        return br.Observable(th, lambda p: br.jacobi_bracket(F, G, p), name="nested")

    defects = []
    for A, B, C in ((lin1, lin2, quad2), (quad1, quad2, wobs), (lin1, wquad, quad1)):
        terms = (
            br.jacobi_bracket(A, nested(B, C), point),
            br.jacobi_bracket(B, nested(C, A), point),
            br.jacobi_bracket(C, nested(A, B), point),
        )
        scale = 1.0 + sum(abs(x) for x in terms)
        defects.append(abs(sum(terms)) / scale)
    yield "jacobi-identity-scaled", nan_max(defects), 1e-8

    f, g, h = wquad, quad2, lin1
    gh = br.product_observable(g, h)
    fgh = br.jacobi_bracket(f, gh, point)
    lhs = (
        fgh
        - br.jacobi_bracket(f, g, point) * h.evaluate(point)
        - g.evaluate(point) * br.jacobi_bracket(f, h, point)
        - g.evaluate(point) * h.evaluate(point) * f.w_derivative_at(point)
    )
    yield "generalized-leibniz-scaled", abs(lhs) / (1.0 + abs(fgh)), 1e-9

    pts = [point, _darboux_point(cfg, cfg.seed + 61, s=0.4, W=-1.0)]
    closure = br.subalgebra_closure_check(quad1, quad2, pts)
    worst = nan_max((*closure.reeb_residuals, closure.flow_spread))
    yield "subalgebra-closure-residual", worst, br.CLOSURE_TOL

    # each test observable's analytic derivatives against one derivative of
    # its values along X_F: at most 5.35e-12 over seeds 0-7 and 42, 1D n=16
    # to 3D n=16, the stencil's rounding.  A fault that keeps the two
    # consistent stays unseen: mode_real_part's 0.5 -> 0.55 (another
    # observable, not an inconsistent one), or the product's W-derivative
    # term x 1.1, which scales quad1's zero W-derivative
    gaps = []
    pairs = [(quad1, quad2), (quad2, quad1), (lin1, lin2), (lin2, lin1)]
    for F, G in pairs + [(quad1, wquad), (quad2, wquad), (quad2, gh)]:
        contracted = br.jacobi_bracket(F, G, point)
        along = br.jacobi_bracket(F, br.Observable(th, G.evaluate, name="values"), point)
        gaps.append(abs(contracted - along) / max(1.0, abs(contracted)))
    yield "restriction-consistency-scaled", nan_max(gaps), 1e-10


def _stream(cfg: ExperimentConfig, levels: int, steps_at, build):
    """Level j < levels of a ladder (dt = cfg.dt / 2**j, steps_at(cfg, dt)
    intervals) chunk by chunk: yields (j, count, first, section, own), the
    level's nodes first, first + 1, ... of its `count`, of which the chunk
    accounts for the rows `own`.  Every level spans one window, so a level
    is the even nodes of the next finer one and one pass over the finest
    grid serves the ladder.  A chunk owns STREAM_SLICE_SITES // sites fine
    nodes, or 8 halos if more, built by build(dt, steps, first=...) with a
    halo of two nodes of the coarsest level on each side."""
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    fine, dts = levels - 1, [cfg.dt / 2**j for j in range(levels)]
    count, halo = steps_at(cfg, dts[fine]) + 1, 2**levels
    # eight halos a chunk at least: the halos add at most a quarter
    rows = max(8 * halo, STREAM_SLICE_SITES // cfg.lattice.site_count)
    for g0 in range(0, count, rows):
        g1 = min(count, g0 + rows)
        h0, h1 = max(0, g0 - halo), min(count, g1 + halo)
        chunk = build(dts[fine], h1 - h0 - 1, first=h0)
        for j in range(fine, -1, -1):
            stride = 2 ** (fine - j)
            # the level's nodes among the chunk's, and those it owns
            first, lo, hi = (-(-g // stride) for g in (h0, g0, g1))
            if lo < hi:
                pick = slice(first * stride - h0, h1 - h0, stride)
                section = chunk if stride == 1 else chunk._sampled(pick, dts[j])
                yield j, steps_at(cfg, dts[j]) + 1, first, section, slice(lo - first, hi - first)


def _ddw_steps(cfg, dt: float) -> int:
    """Time intervals of the action-residual de Donder-Weyl section at dt:
    _el_steps' window capped at DDW_WINDOW_STEPS."""
    return _el_steps(cfg, dt, DDW_WINDOW_STEPS)


def el_residuals(cfg: ExperimentConfig, levels: int = 2) -> list[float]:
    """EL pairing / cancellation scale, sign kept, of action-residual's
    band-1 solution section at dt = cfg.dt / 2**j for j < levels, varied
    along a seeded slice state under the time bump: per-node densities
    streamed chunk by chunk (_stream), one trapezoid per level."""
    th = _theory(cfg)
    variation = _banded_state(cfg, cfg.seed + 7, band=1)
    build = partial(th.section, _banded_state(cfg, cfg.seed, band=1))
    densities = {}
    for j, count, first, section, own in _stream(cfg, levels, _el_steps, build):
        out = densities.setdefault(j, np.empty((2, count)))[:, first + own.start : first + own.stop]
        dens = _el_densities(section.lagrangian, section, variation, first, count)
        out[...] = [d[own] for d in dens]
    lat = cfg.lattice
    return [
        _time_integral(lat, cfg.dt / 2**j, pairing) / _time_integral(lat, cfg.dt / 2**j, scale)
        for j, (pairing, scale) in sorted(densities.items())
    ]


def ddw_residuals(cfg: ExperimentConfig, levels: int = 2) -> list[float]:
    """Sup de Donder-Weyl residual of action-residual's band-2 solution
    section at dt = cfg.dt / 2**j for j < levels, streamed chunk by chunk
    (_stream): the sup over the chunks' interior nodes."""
    th = _theory(cfg)
    build = partial(th.section, _banded_state(cfg, cfg.seed + 8, band=2))
    sups = [[] for _ in range(levels)]
    for j, _, _, section, _ in _stream(cfg, levels, _ddw_steps, build):
        sups[j].append(th.ddw(section))
    return [nan_max(level) for level in sups]


def _action_rows(cfg: ExperimentConfig):
    # each ladder's time goes to its first row, which streams the sections
    s1, s2 = el_residuals(cfg)
    r1, r2 = abs(s1), abs(s2)
    yield "el-pairing-scaled", r1, 1e-8
    ratio = r1 / r2 if r2 > 0 else float("inf")
    yield "el-convergence-ratio-error", abs(ratio - 4.0), 0.8
    yield "el-pairing-extrapolated", abs(4.0 * s2 - s1) / 3.0, EL_EXTRAPOLATED_TOL

    d1v, d2v = ddw_residuals(cfg)
    yield "ddw-residual", d1v, 1e-5
    ratio = d1v / d2v if d2v > 0 else float("inf")
    yield "ddw-convergence-ratio-error", abs(ratio - 4.0), 0.8


_EXPERIMENT_TABLE = {
    "evolve": _evolve_rows,
    "omega-check": _omega_rows,
    "darboux-check": _darboux_rows,
    "bracket-check": _bracket_rows,
    "action-residual": _action_rows,
}
EXPERIMENTS = tuple(_EXPERIMENT_TABLE)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run one experiment suite; failures of the machinery itself are
    captured as report errors (nonzero exit), not crashes."""
    t0 = last = time.perf_counter()
    rows, errors = [], ()
    try:
        for metric, value, tolerance in _EXPERIMENT_TABLE[cfg.experiment](cfg):
            now = time.perf_counter()
            rows.append(ReportRow(cfg.experiment, metric, float(value), tolerance, now - last))
            last = now
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        rows, errors = [], (_describe(exc),)
    return Report(config=cfg, rows=tuple(rows), errors=errors, wall_s=time.perf_counter() - t0)


def _describe(exc: Exception) -> str:
    """'Type: message (at covlab/<module>.py:<line>)', located at the
    innermost frame of the traceback that lies in this package."""
    package = os.path.dirname(os.path.abspath(__file__))
    tb, where = exc.__traceback__, ""
    while tb is not None:
        path = tb.tb_frame.f_code.co_filename
        if os.path.dirname(os.path.abspath(path)) == package:
            where = f"covlab/{os.path.basename(path)}:{tb.tb_lineno}"
        tb = tb.tb_next
    return f"{type(exc).__name__}: {exc} (at {where})"


# ---------------------------------------------------------------------------
# the acceptance matrix


def suite_configs(seed: int = 42, sign_ledger: str = "resolved"):
    """The full acceptance matrix in its fixed reporting order."""
    cells = [(theory, "evolve", {"evolution": e}) for theory in THEORIES for e in EVOLUTIONS]
    cells += [
        (theory, experiment, {})
        for experiment in ("omega-check", "darboux-check", "bracket-check")
        for theory in THEORIES
    ]
    for theory in THEORIES:
        # low-frequency band-1 data and a long window keep the O(dt^2)
        # constant of the EL cancellation small; see the module docstring
        length, steps = (64.0, 8000) if theory == "kg" else (4 * math.pi, 6000)
        action = {"n": 64, "length": length, "mass": 0.15, "dt": 1e-3, "steps": steps}
        cells.append((theory, "action-residual", action))
    return [
        ExperimentConfig(theory=t, experiment=x, seed=seed, sign_ledger=sign_ledger, **kw)
        for t, x, kw in cells
    ]


def run_suite(seed: int = 42, sign_ledger: str = "resolved"):
    """Run the acceptance matrix serially, reports in matrix order."""
    return [run_experiment(cfg) for cfg in suite_configs(seed=seed, sign_ledger=sign_ledger)]
