"""Batch experiment runner: config files, seeded data, experiment suites,
and CSV/JSON reports.

Config files are flat ``key: value`` text (one key per line, ``#``
comments allowed); the schema is the field list of ExperimentConfig.
Reports are rows of (experiment, metric, value, tolerance, pass,
seconds).  Rows whose tolerance is blank are informational
measurements: they carry no pass verdict and do not affect the exit
status.  Metrics named ``*-exceeds`` are negative controls and pass
when the value is strictly greater than the tolerance; everything else
passes when value <= tolerance.

Random data uses the counter-based Philox generator keyed by the seed
(numpy.random.Philox), so streams are reproducible across platforms and
reimplementations: band-limited standard-normal mode coefficients on
|m_j| <= n/4 per axis, reality-symmetrized, constraints enforced.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from . import brackets as br
from . import darboux as dx
from .kg import (
    KGConfig,
    KGVariation,
    kg_constraint_residual,
    kg_el_cancellation_scale,
    kg_el_pairing,
    kg_enforce_constraints,
    kg_evolve_leapfrog,
    kg_evolve_spectral,
    kg_dedonder_weyl_residual,
    kg_hamiltonian,
    kg_random_variation_profile,
    kg_solution_section,
)
from .lattice import Lattice, ModeVector, ScalarField, _even_slices, idft, nan_max, sup_norm
from .schrodinger import (
    SchrVariation,
    schr_constraint_residual,
    schr_dedonder_weyl_residual,
    schr_el_cancellation_scale,
    schr_el_pairing,
    schr_enforce_constraints,
    schr_evolve_spectral,
    schr_evolve_stepped,
    schr_norm_squared,
    schr_random_variation_profile,
    schr_solution_section,
    to_wavefunction,
)

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

THEORIES = ("kg", "schrodinger")
EXPERIMENTS = ("evolve", "omega-check", "darboux-check", "bracket-check", "action-residual")
EVOLUTIONS = ("spectral", "stepped")
LEDGERS = ("resolved", "paper-printed")


# bytes the largest spacetime section of action-residual may take; a
# section holds 8-byte floats on every slice and site: 2 + dim of them
# for kg (phi, p, beta), 2 + 2 dim for schrodinger.  The largest is the
# dt/2 Euler-Lagrange section, the only one built at that size; while
# the dt level is evaluated its even-slice copy, half the size, is held
# beside it
SECTION_BUDGET_BYTES = 2**30

# steps x sites a stepped evolve run may take.  kg takes 1/dt leapfrog
# steps whatever `steps` says, schrodinger takes `steps` midpoint
# rotations; both step in mode space at about 10 us a step plus 10-20 ns
# a site on 2 cores, so the smallest lattice (n=4, 1D) runs at most about
# 6 minutes at the budget
STEPPED_BUDGET_SITE_STEPS = 2**27

# tolerance of stepped-vs-composed per midpoint step, relative to the
# largest mode coefficient: each rotation rounds by a few ulps
STEPPED_EPS_PER_STEP = 4 * np.finfo(float).eps

# the de Donder-Weyl residual is a sup over slices, so a long section
# only repeats the same pointwise truncation error; cap its window
DDW_WINDOW_STEPS = 200

# tolerance of el-pairing-extrapolated.  The scaled EL pairing is c dt^2
# plus rounding, so the Richardson combination (4 r(dt/2) - r(dt)) / 3
# of the signed values cancels the truncation and leaves the rounding
# floor: 2e-17 to 2.4e-15 at seeds 0-3 and 42 for both theories
EL_EXTRAPOLATED_TOL = 1e-13


def _el_steps(cfg, dt: float) -> int:
    """Time intervals of the action-residual Euler-Lagrange section at dt."""
    el_T_steps = cfg.steps if cfg.steps > 0 else 100
    return max(2, round(el_T_steps * cfg.dt / dt))


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
        if self.dim not in (1, 2, 3):
            raise ValueError(f"invalid field 'dim': {self.dim}")
        n = self.n
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"invalid field 'n': {n} (power of two >= 4 required)")
        for name in ("length", "mass", "dt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"invalid field '{name}': {value} (finite required)")
        if not all(math.isfinite(t) for t in self.times):
            raise ValueError(f"invalid field 'times': {self.times} (finite required)")
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
        if self.experiment == "evolve" and self.evolution == "stepped":
            self._check_stepped_work()
        if self.experiment == "action-residual":
            if self.dt <= 0:
                raise ValueError(
                    f"invalid field 'dt': {self.dt} (positive required for action-residual)"
                )
            self._check_section_size()
        if self.format not in ("csv", "json"):
            raise ValueError(f"invalid field 'format': {self.format!r}")
        if self.sign_ledger not in LEDGERS:
            raise ValueError(f"invalid field 'sign_ledger': {self.sign_ledger!r}")

    def _check_section_size(self):
        """The largest section action-residual holds, the one of the
        dt/2 Euler-Lagrange run, must fit SECTION_BUDGET_BYTES."""
        slices = _el_steps(self, self.dt / 2) + 1
        fields = 2 + self.dim if self.theory == "kg" else 2 + 2 * self.dim
        size = 8 * slices * self.n**self.dim * fields
        if size > SECTION_BUDGET_BYTES:
            raise ValueError(
                f"invalid fields 'steps', 'n', 'dim': steps={self.steps}, n={self.n}, "
                f"dim={self.dim} need a {slices}-slice section of {size / 2**30:.2f} GiB "
                f"in action-residual, over the {SECTION_BUDGET_BYTES / 2**30:.0f} GiB budget"
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

    def kg_config(self) -> KGConfig:
        return KGConfig(mass=self.mass, lattice=self.lattice)


_INT_KEYS = {"dim", "n", "steps", "seed"}
_FLOAT_KEYS = {"length", "mass", "dt"}
_STR_KEYS = {"theory", "experiment", "evolution", "out", "format", "sign_ledger"}


def load_config(path: str) -> ExperimentConfig:
    """Parse a flat key: value config file; unknown or malformed fields
    are rejected with the field named in the error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}")
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
        if key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ValueError(f"invalid field '{key}': {val!r} is not an integer")
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError:
                raise ValueError(f"invalid field '{key}': {val!r} is not a number")
        elif key in _STR_KEYS:
            values[key] = val
        elif key == "times":
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
    """The flat text form of a config; load_config inverts it."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
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


def _seeded_fields(cfg: ExperimentConfig, seed: int, band: int | None = None):
    """The two seeded mode vectors as real fields."""
    return tuple(idft(m) for m in _seeded_modes(cfg, seed, band))


def random_state(cfg: ExperimentConfig, seed: int | None = None):
    """Seeded band-limited Gaussian Cauchy data for the configured theory."""
    return _banded_state(cfg, cfg.seed if seed is None else seed)


def _banded_state(cfg: ExperimentConfig, seed: int, band: int | None = None):
    """Seeded data restricted to |m_j| <= band (experiment-specific
    low-frequency data; the default is the standard n/4 band)."""
    enforce = kg_enforce_constraints if cfg.theory == "kg" else schr_enforce_constraints
    return enforce(*_seeded_fields(cfg, seed, band))


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


def _csv_lines(report: Report):
    lines = [CSV_HEADER]
    for r in report.rows:
        tol = "" if r.tolerance is None else format_float(r.tolerance)
        ok = "" if r.passed is None else ("true" if r.passed else "false")
        lines.append(
            f"{r.experiment},{r.metric},{format_float(r.value)},{tol},{ok},"
            f"{format_float(r.seconds)}"
        )
    for msg in report.errors:
        safe = msg.replace(",", ";").replace("\n", " ")
        lines.append(f"{report.config.experiment},error: {safe},nan,,false,0")
    return lines


def _json_doc(report: Report) -> dict:
    cfg = {f.name: getattr(report.config, f.name) for f in fields(report.config)}
    cfg["times"] = list(cfg["times"])
    return {
        "config": cfg,
        "rows": [
            {
                "experiment": r.experiment,
                "metric": r.metric,
                "value": r.value,
                "tolerance": r.tolerance,
                "pass": r.passed,
                "seconds": r.seconds,
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
            "wall_s": report.wall_s,
        },
    }


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


def emit_report(report: Report, path: str | None, fmt: str = "csv") -> str:
    """Render the report; write it to path when given. Returns the text."""
    if fmt == "csv":
        text = "\n".join(_csv_lines(report)) + "\n"
    elif fmt == "json":
        text = json.dumps(_json_doc(report), indent=2) + "\n"
    else:
        raise ValueError(f"invalid field 'format': {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# experiments


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def _row(experiment, metric, value, tolerance, seconds):
    return ReportRow(
        experiment=experiment,
        metric=metric,
        value=float(value),
        tolerance=tolerance,
        seconds=seconds,
    )


def _psi_hat(state) -> np.ndarray:
    """Mode coefficients of the wavefunction phiR + i phiI."""
    return np.fft.fftn(to_wavefunction(state)) / state.lattice.site_count


def _evolve_rows(cfg: ExperimentConfig):
    rows = []
    name = "evolve"
    if cfg.theory == "kg":
        kcfg = cfg.kg_config()
        if cfg.evolution == "spectral":
            with _Timer() as t:
                st = random_state(cfg)
                h0 = kg_hamiltonian(st, kcfg)
                drifts = []
                for s in range(1, 11):
                    final = kg_evolve_spectral(st, float(s), kcfg)
                    drifts.append(abs(kg_hamiltonian(final, kcfg) - h0) / abs(h0))
                drift = nan_max(drifts)
            rows.append(_row(name, "energy-drift-spectral", drift, 1e-12, t.seconds))
            with _Timer() as t:
                res = kg_constraint_residual(final) / max(1.0, sup_norm(final.phi))
            rows.append(_row(name, "constraint-residual-scaled", res, 1e-10, t.seconds))
        else:
            with _Timer() as t:
                st = _banded_state(cfg, cfg.seed, band=1)
                h0 = kg_hamiltonian(st, kcfg)
                steps = max(1, round(1.0 / cfg.dt))
                final = kg_evolve_leapfrog(st, cfg.dt, steps, kcfg)
                drift = abs(kg_hamiltonian(final, kcfg) - h0) / abs(h0)
            rows.append(_row(name, "energy-drift-leapfrog", drift, 1e-6, t.seconds))
            with _Timer() as t:
                res = kg_constraint_residual(final) / max(1.0, sup_norm(final.phi))
            rows.append(_row(name, "constraint-residual-scaled", res, 1e-10, t.seconds))
    else:
        if cfg.evolution == "spectral":
            with _Timer() as t:
                st = random_state(cfg)
                n0 = schr_norm_squared(st)
                drifts = []
                for s in range(1, 11):
                    final = schr_evolve_spectral(st, float(s))
                    drifts.append(abs(schr_norm_squared(final) - n0) / abs(n0))
                drift = nan_max(drifts)
            rows.append(_row(name, "norm-drift", drift, 1e-12, t.seconds))
            with _Timer() as t:
                lat = cfg.lattice
                x = lat.coordinates()[0]
                plane = schr_enforce_constraints(
                    ScalarField(lat, np.cos(x)), ScalarField(lat, np.sin(x))
                )
                evolved = schr_evolve_spectral(plane, math.pi)
                target = -1j * _psi_hat(plane)
                err = float(np.max(np.abs(_psi_hat(evolved) - target)))
            rows.append(_row(name, "propagator-phase-error", err, 1e-12, t.seconds))
            with _Timer() as t:
                res = schr_constraint_residual(final) / max(
                    1.0, sup_norm(final.phiR), sup_norm(final.phiI)
                )
            rows.append(_row(name, "constraint-residual-scaled", res, 1e-10, t.seconds))
        else:
            with _Timer() as t:
                st = random_state(cfg)
                n0 = schr_norm_squared(st)
                final = schr_evolve_stepped(st, cfg.dt, cfg.steps)
                drift = abs(schr_norm_squared(final) - n0) / abs(n0)
            rows.append(_row(name, "midpoint-norm-drift", drift, 1e-13, t.seconds))
            with _Timer() as t:
                # the steps against their composition into one rotation,
                # psi-hat exp(-2i steps atan(k^2 dt / 4)) per mode
                angle = 2.0 * cfg.steps * np.arctan(0.25 * cfg.lattice.ksq() * cfg.dt)
                composed = _psi_hat(st) * np.exp(-1j * angle)
                gap = np.max(np.abs(_psi_hat(final) - composed)) / np.max(np.abs(composed))
            tol = STEPPED_EPS_PER_STEP * cfg.steps
            rows.append(_row(name, "stepped-vs-composed", gap, tol, t.seconds))
            with _Timer() as t:
                res = schr_constraint_residual(final) / max(
                    1.0, sup_norm(final.phiR), sup_norm(final.phiI)
                )
            rows.append(_row(name, "constraint-residual-scaled", res, 1e-10, t.seconds))
    return rows


def _random_variation(cfg: ExperimentConfig, seed: int):
    st = _banded_state(cfg, seed)
    if cfg.theory == "kg":
        return KGVariation(dphi=st.phi, dp=st.p, dbeta=st.beta)
    return SchrVariation(dphiR=st.phiR, dphiI=st.phiI, dbetaR=st.betaR, dbetaI=st.betaI)


def _omega_rows(cfg: ExperimentConfig):
    rows = []
    name = "omega-check"
    kcfg = cfg.kg_config() if cfg.theory == "kg" else None
    times = list(cfg.times) if cfg.times else [float(t) for t in range(11)]
    with _Timer() as t:
        sol = random_state(cfg)
        U = _random_variation(cfg, cfg.seed + 1)
        V = _random_variation(cfg, cfg.seed + 2)
        rep = br.omega_slice_report(cfg.theory, sol, U, V, times, cfg=kcfg)
    rows.append(_row(name, "slice-spread", rep.max_rel_spread, 1e-10, t.seconds))
    with _Timer() as t:
        neg = br.omega_slice_report(cfg.theory, sol, U, V, times, cfg=kcfg, freeze="v")
    rows.append(
        _row(name, "slice-spread-frozen-v-exceeds", neg.max_rel_spread, 1e-10, t.seconds)
    )
    return rows


def _darboux_mode_point(cfg: ExperimentConfig, seed: int, s: float):
    cls = dx.KGModeState if cfg.theory == "kg" else dx.SchrModeState
    return cls(*_seeded_modes(cfg, seed), time=s)


def _darboux_rows(cfg: ExperimentConfig):
    rows = []
    name = "darboux-check"
    lat = cfg.lattice
    kcfg = cfg.kg_config() if cfg.theory == "kg" else None
    times = list(cfg.times) if cfg.times else [float(t) for t in range(11)]

    def invariance_spread(ledger: str) -> float:
        st = random_state(cfg)
        if cfg.theory == "kg":
            base = dx.kg_to_darboux(dx.kg_mode_state(st), kcfg)
            ref = np.concatenate(
                [base.PhiHat.coefficients.ravel(), base.PHat.coefficients.ravel()]
            )
        else:
            base = dx.schr_to_darboux(dx.schr_mode_state(st))
            ref = np.concatenate(
                [base.PhiRHat.coefficients.ravel(), base.PhiIHat.coefficients.ravel()]
            )
        scale = float(np.max(np.abs(ref)))
        spreads = []
        for s in times[1:]:
            if cfg.theory == "kg":
                ev = kg_evolve_spectral(st, float(s), kcfg, mass_sign=ledger)
                d = dx.kg_to_darboux(dx.kg_mode_state(ev), kcfg)
                cur = np.concatenate(
                    [d.PhiHat.coefficients.ravel(), d.PHat.coefficients.ravel()]
                )
            else:
                ev = schr_evolve_spectral(st, float(s), hamiltonian_sign=ledger)
                d = dx.schr_to_darboux(dx.schr_mode_state(ev))
                cur = np.concatenate(
                    [d.PhiRHat.coefficients.ravel(), d.PhiIHat.coefficients.ravel()]
                )
            spreads.append(float(np.max(np.abs(cur - ref))) / scale)
        return nan_max(spreads)

    with _Timer() as t:
        spread = invariance_spread(cfg.sign_ledger)
    rows.append(_row(name, "darboux-invariance-rel-spread", spread, 1e-12, t.seconds))
    with _Timer() as t:
        neg = invariance_spread("paper-printed")
    rows.append(
        _row(name, "darboux-invariance-printed-ledger-exceeds", neg, 1e-12, t.seconds)
    )

    with _Timer() as t:
        gaps = []
        rng = np.random.Generator(np.random.Philox(key=cfg.seed + 3))
        for _ in range(5):
            s = float(rng.uniform(-10.0, 10.0))
            m = _darboux_mode_point(cfg, int(rng.integers(0, 2**31)), s)
            if cfg.theory == "kg":
                m2 = dx.kg_from_darboux(dx.kg_to_darboux(m, kcfg), kcfg)
                pairs = ((m2.phiHat, m.phiHat), (m2.pHat, m.pHat))
            else:
                m2 = dx.schr_from_darboux(dx.schr_to_darboux(m))
                pairs = ((m2.phiRHat, m.phiRHat), (m2.phiIHat, m.phiIHat))
            gaps += [float(np.max(np.abs(a.coefficients - b.coefficients))) for a, b in pairs]
        worst = nan_max(gaps)
    rows.append(_row(name, "roundtrip-residual", worst, 1e-13, t.seconds))

    oracle_cfg = kcfg if cfg.theory == "kg" else lat
    if cfg.sign_ledger == "paper-printed":
        # the oracle refuses to build under the printed conventions; report
        # the measured closedness violation instead of the oracle metrics
        with _Timer() as t:
            probe = dx.WOracle(cfg.theory, oracle_cfg, sign_ledger="paper-printed", check_points=0)
            residual = probe._closedness_sweep(cfg.seed + 4, 3)
        rows.append(
            _row(name, "printed-ledger-closedness-residual-exceeds", residual, 1e-8, t.seconds)
        )
        return rows

    with _Timer() as t:
        oracle = dx.WOracle(cfg.theory, oracle_cfg, seed=cfg.seed + 4)
        gaps = []
        for k in range(5):
            m = _darboux_mode_point(cfg, cfg.seed + 10 + k, s=0.3 * (k + 1))
            if cfg.theory == "kg":
                derived = dx.kg_w_derived(m, kcfg)
            else:
                derived = dx.schr_w_derived(m)
            gaps.append(abs(oracle.value(m) - derived))
        worst = nan_max(gaps)
    rows.append(_row(name, "w-oracle-vs-derived", worst, 1e-9, t.seconds))

    with _Timer() as t:
        p1 = _darboux_mode_point(cfg, cfg.seed + 20, s=0.8)
        p2 = _darboux_mode_point(cfg, cfg.seed + 21, s=-1.1)
        p3 = _darboux_mode_point(cfg, cfg.seed + 22, s=2.4)
        loop = abs(oracle.loop_integral(p1, p2, p3))
    rows.append(_row(name, "w-loop-integral", loop, 1e-9, t.seconds))

    with _Timer() as t:
        reps = [
            dx.theta_pullback_residual(
                cfg.theory,
                _darboux_mode_point(cfg, cfg.seed + 30 + k, s=0.5 * k - 2.0),
                kcfg,
                tangent_count=100,
                seed=cfg.seed + 40 + k,
            )
            for k in range(10)
        ]
        worst_oracle = nan_max(r.oracle_residual for r in reps)
        worst_printed = nan_max(r.printed_residual for r in reps)
    rows.append(_row(name, "theta-pullback-oracle", worst_oracle, 1e-9, t.seconds))

    with _Timer() as t:
        gaps = []
        for k in range(10):
            m = _darboux_mode_point(cfg, cfg.seed + 50 + k, s=0.4 * k - 1.6)
            if cfg.theory == "kg":
                printed = dx.kg_w_printed(m, kcfg)
            else:
                printed = dx.schr_w_printed(dx.schr_to_darboux(m))
            gaps.append(abs(printed - oracle.value(m)))
        worst_w = nan_max(gaps)
    if cfg.theory == "kg":
        # measured defect of the printed formula; acceptance criterion 5
        # gates it as the cross-term identity printed - oracle =
        # L^d sum Re(p-hat conj(phi-hat)) sin^2(omega s)
        rows.append(_row(name, "kg-printed-w-mismatch", worst_w, None, t.seconds))
        with _Timer() as t:
            coeff = np.zeros(lat.shape, dtype=complex)
            idx = (1,) + (0,) * (lat.dim - 1)
            coeff[idx] = 0.37
            ridx = tuple(-i % lat.n for i in idx)
            coeff[ridx] = 0.37
            m1 = dx.KGModeState(
                ModeVector(lat, coeff),
                ModeVector(lat, np.zeros(lat.shape, dtype=complex)),
                time=2.2,
            )
            agree = abs(dx.kg_w_printed(m1, kcfg) - oracle.value(m1))
        rows.append(_row(name, "kg-single-mode-printed-w-agreement", agree, 1e-9, t.seconds))
        rows.append(
            _row(name, "theta-pullback-printed-w", worst_printed, None, t.seconds)
        )
    else:
        rows.append(_row(name, "schr-printed-w-mismatch", worst_w, None, t.seconds))
        rows.append(
            _row(name, "theta-pullback-printed-w", worst_printed, None, t.seconds)
        )
    return rows


def _darboux_point(cfg: ExperimentConfig, seed: int, s: float, W: float):
    cls = dx.KGDarbouxState if cfg.theory == "kg" else dx.SchrDarbouxState
    return cls(*_seeded_modes(cfg, seed), W=W, time=s)


def _bracket_rows(cfg: ExperimentConfig):
    rows = []
    name = "bracket-check"
    lat = cfg.lattice
    kcfg = cfg.kg_config() if cfg.theory == "kg" else None
    point = _darboux_point(cfg, cfg.seed + 60, s=1.3, W=0.5)

    with _Timer() as t:
        pairs = [
            br.TangentPair(
                _random_variation(cfg, cfg.seed + 100 + 2 * k),
                _random_variation(cfg, cfg.seed + 101 + 2 * k),
                time=0.7,
            )
            for k in range(20)
        ]
        eq = br.bracket_equivalence_check(cfg.theory, pairs, point, cfg=kcfg)
    rows.append(_row(name, "bracket-equivalence", eq.max_mismatch, 1e-9, t.seconds))

    slots = ("Phi", "P") if cfg.theory == "kg" else ("PhiR", "PhiI")
    first_mode = (1,) + (0,) * (lat.dim - 1)
    lin1 = br.mode_real_part(cfg.theory, slots[0], first_mode, lat)
    lin2 = br.mode_real_part(cfg.theory, slots[1], first_mode, lat)
    quad1 = br.quadratic_power(cfg.theory, 0)
    quad2 = br.quadratic_cross(cfg.theory)
    wobs = br.w_coordinate(cfg.theory)
    wquad = br.product_observable(wobs, quad1)

    with _Timer() as t:
        anti = nan_max(
            abs(br.jacobi_bracket(F, G, point) + br.jacobi_bracket(G, F, point))
            for F, G in ((lin1, lin2), (quad1, quad2), (wquad, lin2), (wobs, quad2))
        )
    rows.append(_row(name, "bracket-antisymmetry", anti, 1e-12, t.seconds))

    with _Timer() as t:

        def nested(F, G):
            return br.Observable(
                cfg.theory,
                "darboux",
                lambda p: br.jacobi_bracket(F, G, p),
                name="nested",
            )

        defects = []
        triples = (
            (lin1, lin2, quad2),
            (quad1, quad2, wobs),
            (lin1, wquad, quad1),
        )
        for A, B, C in triples:
            terms = (
                br.jacobi_bracket(A, nested(B, C), point),
                br.jacobi_bracket(B, nested(C, A), point),
                br.jacobi_bracket(C, nested(A, B), point),
            )
            scale = 1.0 + sum(abs(x) for x in terms)
            defects.append(abs(sum(terms)) / scale)
        worst = nan_max(defects)
    rows.append(_row(name, "jacobi-identity-scaled", worst, 1e-8, t.seconds))

    with _Timer() as t:
        f, g, h = wquad, quad2, lin1
        gh = br.product_observable(g, h)
        lhs = (
            br.jacobi_bracket(f, gh, point)
            - br.jacobi_bracket(f, g, point) * h.evaluate(point)
            - g.evaluate(point) * br.jacobi_bracket(f, h, point)
            - g.evaluate(point) * h.evaluate(point) * br.reeb_apply(f, point)
        )
        scale = 1.0 + abs(br.jacobi_bracket(f, gh, point))
        leib = abs(lhs) / scale
    rows.append(_row(name, "generalized-leibniz-scaled", leib, 1e-9, t.seconds))

    with _Timer() as t:
        pts = [point, _darboux_point(cfg, cfg.seed + 61, s=0.4, W=-1.0)]
        closure = br.subalgebra_closure_check(quad1, quad2, pts, cfg=kcfg)
        worst = nan_max((*closure.reeb_residuals, closure.flow_spread))
    rows.append(_row(name, "subalgebra-closure-residual", worst, 1e-10, t.seconds))

    with _Timer() as t:
        rc = abs(
            br.jacobi_bracket(quad1, quad2, point)
            - br.poisson_bracket(quad1, quad2, point)
        )
    rows.append(_row(name, "restriction-consistency", rc, 1e-12, t.seconds))
    return rows


def _ladder(cfg: ExperimentConfig, levels: int, steps_at, build, evaluate) -> list:
    """evaluate(section) for the sections of build(dt, steps) at
    dt = cfg.dt / 2**j, j = 0 .. levels - 1, with steps_at(cfg, dt) time
    intervals each, in that order.

    Only the finest section is built: a level with half the intervals
    of the next finer one is that one's even slices, bit for bit the
    section build would give (a clamped step count gets its own build).
    Coarser levels are evaluated first, each dropped before the next
    finer one is evaluated, so the derived stacks an evaluation keeps on
    a finer section never sit beside a coarser section.
    """
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    dts = [cfg.dt / 2**j for j in range(levels)]
    steps = [steps_at(cfg, dt) for dt in dts]
    sections = [build(dts[-1], steps[-1])]
    for j in range(levels - 2, -1, -1):
        nested = steps[j + 1] == 2 * steps[j]
        sections.append(_even_slices(sections[-1]) if nested else build(dts[j], steps[j]))
    values = []
    while sections:
        values.append(evaluate(sections.pop()))
    return values


def _solution_sections(cfg: ExperimentConfig, state):
    """build(dt, steps): the exact solution section through state."""
    if cfg.theory == "kg":
        kcfg = cfg.kg_config()
        return lambda dt, steps: kg_solution_section(state, dt, steps, kcfg)
    return lambda dt, steps: schr_solution_section(state, dt, steps)


def _ddw_steps(cfg, dt: float) -> int:
    """Time intervals of the action-residual de Donder-Weyl section at dt."""
    ddw_T_steps = min(cfg.steps if cfg.steps > 0 else 100, DDW_WINDOW_STEPS)
    return max(2, round(ddw_T_steps * cfg.dt / dt))


def el_residuals(cfg: ExperimentConfig, levels: int = 2) -> list[float]:
    """EL pairing / cancellation scale, sign kept, of action-residual's
    band-1 solution section at dt = cfg.dt / 2**j for j < levels, varied
    along a seeded time-bump profile."""
    d1, d2 = _seeded_fields(cfg, cfg.seed + 7, band=1)
    if cfg.theory == "kg":
        profile, pairing, scale = (
            kg_random_variation_profile, kg_el_pairing, kg_el_cancellation_scale
        )
    else:
        profile, pairing, scale = (
            schr_random_variation_profile, schr_el_pairing, schr_el_cancellation_scale
        )

    def evaluate(section):
        var = profile(section, d1, d2)
        return pairing(section, var) / scale(section, var)

    build = _solution_sections(cfg, _banded_state(cfg, cfg.seed, band=1))
    return _ladder(cfg, levels, _el_steps, build, evaluate)


def ddw_residuals(cfg: ExperimentConfig, levels: int = 2) -> list[float]:
    """Sup de Donder-Weyl residual of action-residual's band-2 solution
    section at dt = cfg.dt / 2**j for j < levels."""
    residual = kg_dedonder_weyl_residual if cfg.theory == "kg" else schr_dedonder_weyl_residual
    build = _solution_sections(cfg, _banded_state(cfg, cfg.seed + 8, band=2))
    return _ladder(cfg, levels, _ddw_steps, build, residual)


def _action_rows(cfg: ExperimentConfig):
    rows = []
    name = "action-residual"
    # each ladder's time goes to its first row, which builds the sections
    with _Timer() as t:
        s1, s2 = el_residuals(cfg)
        r1, r2 = abs(s1), abs(s2)
    rows.append(_row(name, "el-pairing-scaled", r1, 1e-8, t.seconds))
    with _Timer() as t:
        ratio = r1 / r2 if r2 > 0 else float("inf")
    rows.append(_row(name, "el-convergence-ratio-error", abs(ratio - 4.0), 0.8, t.seconds))
    with _Timer() as t:
        extrapolated = abs(4.0 * s2 - s1) / 3.0
    rows.append(
        _row(name, "el-pairing-extrapolated", extrapolated, EL_EXTRAPOLATED_TOL, t.seconds)
    )

    with _Timer() as t:
        d1v, d2v = ddw_residuals(cfg)
    rows.append(_row(name, "ddw-residual", d1v, 1e-5, t.seconds))
    with _Timer() as t:
        ratio = d1v / d2v if d2v > 0 else float("inf")
    rows.append(_row(name, "ddw-convergence-ratio-error", abs(ratio - 4.0), 0.8, t.seconds))
    return rows


_EXPERIMENT_TABLE = {
    "evolve": _evolve_rows,
    "omega-check": _omega_rows,
    "darboux-check": _darboux_rows,
    "bracket-check": _bracket_rows,
    "action-residual": _action_rows,
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run one experiment suite; failures of the machinery itself are
    captured as report errors (nonzero exit), not crashes."""
    t0 = time.perf_counter()
    try:
        rows, errors = tuple(_EXPERIMENT_TABLE[cfg.experiment](cfg)), ()
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        rows, errors = (), (_describe(exc),)
    return Report(config=cfg, rows=rows, errors=errors, wall_s=time.perf_counter() - t0)


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
    out = []
    for theory in THEORIES:
        for evolution in EVOLUTIONS:
            out.append(
                ExperimentConfig(
                    theory=theory,
                    experiment="evolve",
                    evolution=evolution,
                    seed=seed,
                    sign_ledger=sign_ledger,
                )
            )
    for experiment in ("omega-check", "darboux-check", "bracket-check"):
        for theory in THEORIES:
            out.append(
                ExperimentConfig(
                    theory=theory,
                    experiment=experiment,
                    seed=seed,
                    sign_ledger=sign_ledger,
                )
            )
    for theory in THEORIES:
        # low-frequency band-1 data and a long window keep the O(dt^2)
        # constant of the EL cancellation small; see the module docstring
        out.append(
            ExperimentConfig(
                theory=theory,
                experiment="action-residual",
                n=64,
                length=64.0 if theory == "kg" else 4 * math.pi,
                mass=0.15,
                dt=1e-3,
                steps=8000 if theory == "kg" else 6000,
                seed=seed,
                sign_ledger=sign_ledger,
            )
        )
    return out


def run_suite(seed: int = 42, sign_ledger: str = "resolved"):
    """Run the acceptance matrix, possibly on concurrent workers
    (COVLAB_THREADS bounds the count); reports come back in matrix order."""
    configs = suite_configs(seed=seed, sign_ledger=sign_ledger)
    workers = int(os.environ.get("COVLAB_THREADS", "4") or "1")
    workers = max(1, min(workers, len(configs)))
    if workers == 1:
        return [run_experiment(c) for c in configs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_experiment, configs))
