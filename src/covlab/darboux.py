"""Generalized Darboux coordinates on mode space, and the W coordinate.

Both theories are linear flows, a rotation per mode, each stated once
as its theory module's Lagrangian table, whose reading gives the pairing
weight w and the generator of d(a0, a1)/ds = (kappa a1, -lam a0), the
rotation (c, r, q) of lattice._ModeFlow.  One ``Theory`` record per theory,
``Theory.of(name, lattice, mass)``, holds what differs between them;
the chart, the oracle and the pullback check are written once against
it.  A point ``ModeState(a0, a1, time)`` holds (phi-hat, p-hat) for
Klein-Gordon, (phiR-hat, phiI-hat) for Schrodinger.  The chart is the
flow back to s = 0, A0 = c a0 - r a1 and A1 = c a1 + q a0 with the
flow's rotation by s, so that along solutions the coordinates (A0, A1)
of a ``DarbouxState(A0, A1, W, time)`` are constant ("the chart
rectifies the flow") and the leftover motion is carried by the scalar
W.  W itself is treated as a derived function of
(a0, a1, s), not an independent coordinate; that is the only reading
under which the transform is invertible.

W is stated once for both theories: the derived W = (w/2)(<a0, a1> -
<A0, A1>), with the record's pairing weight w, is what the transforms
store and ``Theory.w`` returns, and ``Theory.dw_covector`` is its
gradient, the part in (a0, a1) plus the part in the chart's (A0, A1, s)
pulled back through the chart's Jacobian.  The oracle below validates
it.  The printed hypothesis formulas (``Theory.w(m, printed=True)``) are
kept verbatim, each a per-theory change to that gradient, so the harness
can measure how far they fall from satisfying the pullback identity.
Acceptance criterion 5 pins the printed KG density's gap to the oracle
as exactly one extra momentum cross term;
``scripts/w_mismatch_report.py`` tabulates the measured gaps of both
printed formulas.

The oracle recovers W from its defining property: the difference between
the contact one-form Theta and the transformed canonical one-form must
be exact, Theta - T = dW.  It evaluates that difference form directly
(via the analytic chart Jacobian), as a covector at a point
(_form_covector), checks it is closed, and integrates it along paths of
straight edges from the base point (zero fields, s = 0).  The pullback
check ``theta_pullback_residual`` compares the same covector with the
analytic differential of the derived W, and gates the dual norm of
their gap: the largest mismatch over every tangent of unit length, so
its residual measures how far the chart's W is from the oracle's
potential, to rounding.

The per-mode work runs on a support: the modes where the evaluation's
data are nonzero (a NaN counts), read from the data of each call (a
point, an edge's two end points, a point and a tangent), never assumed
from a sampling band; the pullback's support is its point's closed
under m -> -m.  The form vanishes off the support, so a path edge whose
end points have no nonzero mode is skipped.  The form's per-mode
factors are constant on a class of equal k^2 (32 classes hold the 729
band modes at 3D n=16); the record's flow is restricted to a support
once and keeps the part (lattice._ModeFlow.restricted).  ``WOracle._path``,
behind ``value`` and ``loop_integral``, integrates each straight edge
in closed form, one term per class whatever its length
(_edge_integral): the form's rotation factors are linear in the flow's
rotation at twice the time, whose u^j moments along the edge
(lattice._ModeFlow.moments) are exact.  ``differential``, and the
finite-difference closedness check with it, contracts the covector at
the point with the tangent; the check draws full-lattice
``random_hermitian_modes``.

Conventions: the contact one-form is Theta = w <a1, da0> - Hflow dt
with the pairing weight w and Hflow = (w/2) L^d sum(kappa |a1|^2 + lam
|a0|^2) of the ledger's generator: for Klein-Gordon (w = 1) the
positive slice energy, for Schrodinger (w = 2) +(1/2) integral |grad
psi|^2, the sign whose contact flow is the propagator exp(-i k^2 s / 2)
and the only one for which Theta - T is closed.  The printed ledgers'
tables are kept behind the ``sign_ledger`` flag as documented
negative controls: with them the oracle's closedness precondition
fails.  The chart's s-rates are (-kappa A1, lam A0).

The chart and the slice propagator read one table, so
``darboux-invariance-rel-spread`` and the oracle do not compare two
statements of the flow: a wrong table moves both alike.  The rows with
a hand-stated side catch one (``energy-drift-spectral``, ``norm-drift``,
``propagator-phase-error``, the ``action-residual`` rows), as
tests/test_darboux.py pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kg import (
    KGState,
    _kg_lagrangian,
    kg_dedonder_weyl_residual,
    kg_evolve_spectral,
    kg_solution_section,
)
from .lattice import (
    Lattice,
    ModeVector,
    _mode_flow,
    _table_reading,
    dft,
    idft,
    mode_index_table,
    nan_max,
)
from .schrodinger import (
    SchrState,
    _schr_lagrangian,
    schr_dedonder_weyl_residual,
    schr_evolve_spectral,
    schr_solution_section,
)

__all__ = [
    "Theory",
    "KGTheory",
    "SchrTheory",
    "ModeState",
    "DarbouxState",
    "kg_to_darboux",
    "kg_from_darboux",
    "schr_to_darboux",
    "schr_from_darboux",
    "WOracle",
    "WOracleClosednessError",
    "ThetaPullbackReport",
    "theta_pullback_residual",
    "random_hermitian_modes",
]


# ---------------------------------------------------------------------------
# supports: the oracle's work on the modes its data occupy

# the oracle's fixed numerics: the largest scaled closedness residual the
# construction sweep accepts, and the step of the closedness check's
# fourth-order stencil
CLOSEDNESS_TOL = 1e-8
CLOSEDNESS_EPS = 1e-3


class _Support:
    """The flat mode indices one evaluation works on (every mode by default).

    Per-mode arithmetic runs on compact (..., M) arrays, the columns
    ``index`` of (..., *shape) ones.
    """

    def __init__(self, lattice: Lattice, index: np.ndarray | None = None):
        self.lattice = lattice
        self.index = np.arange(lattice.site_count) if index is None else index

    def take(self, x: np.ndarray) -> np.ndarray:
        """(..., *shape) restricted to the support: (..., M)."""
        lead = x.shape[: x.ndim - self.lattice.dim]
        return x.reshape(lead + (self.lattice.site_count,)).take(self.index, axis=-1)

    def sum(self, x: np.ndarray):
        """Sum of compact per-mode values x (..., M) over the lattice, one
        per leading index, of x scattered into zeros: the array a
        full-lattice evaluation sums, so the sum rounds alike."""
        lat = self.lattice
        return np.sum(_on_lattice(lat, self.index, x), axis=tuple(range(-lat.dim, 0)))


def _on_lattice(lattice: Lattice, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Compact rows (..., M) on the flat mode indices index, scattered
    into zeros of shape (..., *shape)."""
    full = np.zeros(rows.shape[:-1] + (lattice.site_count,), dtype=rows.dtype)
    full[..., index] = rows
    return full.reshape(rows.shape[:-1] + lattice.shape)


# ---------------------------------------------------------------------------
# points: mode states and Darboux states of either theory


class _ModePair:
    """The two coordinate arrays of a point, on one lattice."""

    def __post_init__(self):
        if self.a1.lattice != self.a0.lattice:
            raise ValueError("mode vectors live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.a0.lattice

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.a0.coefficients, self.a1.coefficients


@dataclass(frozen=True)
class ModeState(_ModePair):
    """Mode data (a0, a1) at the time s: (phi-hat, p-hat) for
    Klein-Gordon, (phiR-hat, phiI-hat) for Schrodinger."""

    a0: ModeVector
    a1: ModeVector
    time: float = 0.0


@dataclass(frozen=True)
class DarbouxState(_ModePair):
    """Chart coordinates (A0, A1) and W at the time s."""

    a0: ModeVector
    a1: ModeVector
    W: float
    time: float = 0.0


def random_hermitian_modes(
    lattice: Lattice, rng: np.random.Generator, band: int | None = None
) -> np.ndarray:
    """Standard-normal mode coefficients on |m_j| <= band per axis,
    reality-symmetrized (so self-conjugate modes come out real): 2 N
    normals, the real parts of every mode then the imaginary ones."""
    index, pair = _band_pairs(lattice, band)
    re = rng.standard_normal(lattice.site_count)
    im = rng.standard_normal(lattice.site_count)
    return _on_lattice(lattice, index, _symmetrized(pair, re[index] + 1j * im[index]))


@lru_cache(maxsize=32)
def _band_pairs(lattice: Lattice, band: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the modes m with |m_j| <= band (n/4 for None) on
    every axis, and the position in that list of each conjugate -m (in
    the band too); read-only and cached per (lattice, band)."""
    if band is None:
        band = lattice.n // 4
    if band < 0:
        raise ValueError(f"band must be at least 0, got {band!r}")
    m1 = np.abs(np.fft.fftfreq(lattice.n, 1.0 / lattice.n).astype(int))
    mask = np.ones(lattice.shape, dtype=bool)
    for axis in range(lattice.dim):
        mg = np.moveaxis(np.broadcast_to(m1, lattice.shape), lattice.dim - 1, axis)
        mask &= mg <= band
    index = np.flatnonzero(mask)
    pair = np.searchsorted(index, mode_index_table(lattice)[0][index])
    index.setflags(write=False)
    pair.setflags(write=False)
    return index, pair


def _symmetrized(pair: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Compact rows z (..., M) on modes closed under m -> -m, with each
    mode m set to (z[m] + conj(z[-m])) / 2, -m at the position pair[m]."""
    return 0.5 * (z + np.conj(z.take(pair, axis=-1)))


# ---------------------------------------------------------------------------
# the chart: one rotation, four traced entry points


# A time whose phase nu s overflows gives NaN coordinates and a NaN W,
# quietly, as WOracle.value does: the chart, Theory.w and the pullback
# silence the overflow around their bodies, not _ModeFlow, which evolve reads.


def _to_darboux(m: ModeState, table, state) -> DarbouxState:
    """(A0, A1), the mode flow of a table for a state class by -s, back
    to s = 0, and the derived W = (w/2)(<a0, a1> - <A0, A1>) for its w."""
    a0, a1 = m.arrays
    lat = m.lattice
    weight, generator = _table_reading(table, state)
    with np.errstate(over="ignore", invalid="ignore"):
        A0, A1 = _mode_flow(lat, generator).propagate(a0, a1, -m.time)
        pairing = np.real(a0 * np.conj(a1) - A0 * np.conj(A1))
        W = 0.5 * weight * lat.volume * float(np.sum(pairing))
    return DarbouxState(ModeVector(lat, A0), ModeVector(lat, A1), W=W, time=m.time)


def _from_darboux(d: DarbouxState, table, state) -> ModeState:
    """The flow by s; W is discarded (it is a function of the rest)."""
    flow = _mode_flow(d.lattice, _table_reading(table, state)[1])
    with np.errstate(over="ignore", invalid="ignore"):
        a0, a1 = flow.propagate(*d.arrays, d.time)
    return ModeState(ModeVector(d.lattice, a0), ModeVector(d.lattice, a1), time=d.time)


def kg_to_darboux(m: ModeState, mass: float) -> DarbouxState:
    """Phi-hat = cos phi-hat - (sin/omega) p-hat, P-hat = cos p-hat
    + omega sin phi-hat; the massless zero mode uses the shear limit
    Phi0 = phi0 - s p0, P0 = p0.  W is the derived one."""
    return _to_darboux(m, _kg_lagrangian(mass, "resolved"), KGState)


def kg_from_darboux(d: DarbouxState, mass: float) -> ModeState:
    return _from_darboux(d, _kg_lagrangian(mass, "resolved"), KGState)


def schr_to_darboux(m: ModeState) -> DarbouxState:
    """The rotation by k^2 s / 2; W is the derived one."""
    return _to_darboux(m, _schr_lagrangian("resolved"), SchrState)


def schr_from_darboux(d: DarbouxState) -> ModeState:
    return _from_darboux(d, _schr_lagrangian("resolved"), SchrState)


# ---------------------------------------------------------------------------
# the theory record


class Theory:
    """What differs between the two theories, for one lattice and mass.

    Each subclass sets ``name``, the config's theory; ``state``, the
    slice state class, whose ``SCALARS`` are the record's ``fields``
    behind (a0, a1) (a variation, being a slice state too, carries them
    under the same names); and ``slots``, the names of the chart
    coordinates.  Each gives ``table(ledger)``, its theory module's
    Lagrangian table, whose reading gives ``weight``, the pairing weight
    w (1 for KG, 2 for Schrodinger) of Theta, Omega, the bivector and the
    smeared observables, and ``generator(ledger)``; and its printed W
    hypothesis (``printed_w``, ``printed_gradient``).  The chart, its
    s-rates, Hflow and the top frequency are read off ``flow(ledger)``,
    and the derived W and the differential of either W are written once
    here (``w``, ``dw_covector``).  The methods that reach kg.py, schrodinger.py or
    the four chart functions call them by module-level name at call
    time; constraint enforcement is the shared body of lattice.py.
    """

    def __init__(self, lattice: Lattice, mass: float = 0.0):
        if mass < 0:
            raise ValueError(f"mass must be nonnegative, got {mass}")
        self.lattice = lattice
        self.mass = mass
        self.weight = _table_reading(self.table("resolved"), self.state)[0]

    @staticmethod
    @lru_cache(maxsize=32)
    def of(name: str, lattice: Lattice, mass: float = 0.0) -> Theory:
        """The record of the named theory: one per (name, lattice, mass),
        shared by every caller, so nothing changes a record once built."""
        if name not in _RECORDS:
            raise ValueError(f"unknown theory {name!r}")
        return _RECORDS[name](lattice, mass)

    fields = property(lambda self: self.state.SCALARS)

    def generator(self, ledger: str):
        """The ledger's mode-flow generator, read off its table."""
        return _table_reading(self.table(ledger), self.state)[1]

    def flow(self, ledger: str = "resolved"):
        """The lattice._ModeFlow of the ledger's generator."""
        return _mode_flow(self.lattice, self.generator(ledger))

    def check_lattice(self, point) -> None:
        """Refuse a point, or a slice state, that lives on another lattice."""
        if point.lattice != self.lattice:
            raise ValueError(
                f"the {self.name} record is on {self.lattice}, the point on {point.lattice}"
            )

    # the slice layer's shared body (lattice._Slice)
    def enforce(self, a0, a1, time: float = 0.0):
        return self.state._enforced(a0, a1, time)

    def w(self, m: ModeState, printed: bool = False) -> float:
        """W at m: the derived (w/2)(<a0, a1> - <A0, A1>), the one the
        chart stores, or the subclass's printed hypothesis."""
        self.check_lattice(m)
        with np.errstate(over="ignore", invalid="ignore"):
            d = _to_darboux(m, self.table("resolved"), self.state)
            return self.printed_w(m, d) if printed else d.W

    def dw_covector(self, m: ModeState, printed: bool, sup: _Support):
        """The differential at m of W, derived or printed, as the covector
        (h0, h1, hs), h0 and h1 compact on sup: dW(d0, d1, ds) = L^d Re
        sum(h0 conj d0 + h1 conj d1) + hs ds.  W's gradient has a direct
        part (g0, g1, gs) in the point's coordinates, (w/2)(a1, a0, 0) for
        the derived W, and a chart part (G0, G1, Gs) in (A0, A1, s),
        -(w/2)(A1, A0, 0), pulled back here through dA0 = c d0 - r d1 -
        kappa A1 ds and dA1 = q d0 + c d1 + lam A0 ds.
        """
        self.check_lattice(m)
        flow = self.flow().restricted(sup.index)
        kappa, lam, nu = flow.on()
        c, r, q = flow.rotation(m.time)
        a0, a1 = (sup.take(x) for x in m.arrays)
        A0, A1 = c * a0 - r * a1, c * a1 + q * a0
        half = 0.5 * self.weight
        direct = half * a1, half * a0, 0.0
        chart = -half * A1, -half * A0, 0.0
        if printed:
            direct, chart = self.printed_gradient(nu, m.time, a0, a1, A0, A1, direct, chart)
        (g0, g1, gs), (G0, G1, Gs) = direct, chart
        rates = np.real(G0 * np.conj(-kappa * A1) + G1 * np.conj(lam * A0))
        hs = m.lattice.volume * sup.sum(gs + Gs + rates)
        return g0 + c * G0 + q * G1, g1 - r * G0 + c * G1, hs

    def slice_fields(self, state) -> tuple:
        """The fields of a slice state (or variation) behind (a0, a1)."""
        return tuple(getattr(state, f) for f in self.fields)

    def mode_state(self, state) -> ModeState:
        return ModeState(*(dft(f) for f in self.slice_fields(state)), time=state.time)

    def slice_state(self, m: ModeState):
        return self.enforce(idft(m.a0), idft(m.a1), time=m.time)


class KGTheory(Theory):
    name, state, slots = "kg", KGState, ("Phi", "P")

    def table(self, ledger: str):
        return _kg_lagrangian(self.mass, ledger)

    def to_darboux(self, m: ModeState) -> DarbouxState:
        self.check_lattice(m)
        return kg_to_darboux(m, self.mass)
    def from_darboux(self, d: DarbouxState) -> ModeState:
        self.check_lattice(d)
        return kg_from_darboux(d, self.mass)

    def printed_w(self, m: ModeState, d: DarbouxState) -> float:
        """The printed hypothesis: the derived W plus the cross term
        L^d sum Re(p conj(phi)) sin^2(omega s), omega the flow's nu."""
        phi, p = m.arrays
        _, _, omega = self.flow().on()
        cross = np.real(p * np.conj(phi)) * np.sin(omega * m.time) ** 2
        return d.W + m.lattice.volume * float(np.sum(cross))

    def printed_gradient(self, om, s, a0, a1, A0, A1, direct, chart):
        """The gradients of the printed W: the derived ones, with the
        cross term's added to the direct part (om: the flow's nu)."""
        sg, cs = np.sin(om * s), np.cos(om * s)
        g0, g1, gs = direct
        direct = (
            g0 + sg**2 * a1,
            g1 + sg**2 * a0,
            gs + np.real(a1 * np.conj(a0)) * 2.0 * sg * cs * om,
        )
        return direct, chart

    # the slice-level entry points of kg.py
    def evolve(self, state, s: float, ledger: str = "resolved"):
        self.check_lattice(state)
        return kg_evolve_spectral(state, s, self.mass, ledger)
    def section(self, state, dt: float, steps: int, first: int = 0):
        self.check_lattice(state)
        return kg_solution_section(state, dt, steps, self.mass, first)
    def ddw(self, section) -> float:
        return kg_dedonder_weyl_residual(section)


class SchrTheory(Theory):
    name, state, slots = "schrodinger", SchrState, ("PhiR", "PhiI")

    def table(self, ledger: str):
        return _schr_lagrangian(ledger)

    def to_darboux(self, m: ModeState) -> DarbouxState:
        self.check_lattice(m)
        return schr_to_darboux(m)
    def from_darboux(self, d: DarbouxState) -> ModeState:
        self.check_lattice(d)
        return schr_from_darboux(d)

    def printed_w(self, m: ModeState, d: DarbouxState) -> float:
        """The printed hypothesis, stated in the chart's coordinates."""
        _, _, nu = self.flow().on()
        ksq = 2.0 * nu
        s = d.time
        A, B = d.arrays
        per_mode = 0.5 * np.sin(ksq * s) * (np.abs(A) ** 2 - np.abs(B) ** 2) + 2.0 * np.real(
            A * np.conj(B)
        ) * np.sin(0.5 * ksq * s)
        return d.lattice.volume * float(np.sum(per_mode))

    def printed_gradient(self, nu, s, a0, a1, A, B, direct, chart):
        """The gradients of the printed W, all in the chart's coordinates:
        no direct part (k^2 = 2 nu, nu the flow's)."""
        ksq = 2.0 * nu
        sin_full, sin_half = np.sin(ksq * s), np.sin(0.5 * ksq * s)
        chart = (
            sin_full * A + 2.0 * sin_half * B,
            -sin_full * B + 2.0 * sin_half * A,
            0.5 * ksq * np.cos(ksq * s) * (np.abs(A) ** 2 - np.abs(B) ** 2)
            + np.real(A * np.conj(B)) * ksq * np.cos(0.5 * ksq * s),
        )
        return (0.0, 0.0, 0.0), chart

    # the slice-level entry points of schrodinger.py
    def evolve(self, state, s: float, ledger: str = "resolved"):
        self.check_lattice(state)
        return schr_evolve_spectral(state, s, ledger)
    def section(self, state, dt: float, steps: int, first: int = 0):
        self.check_lattice(state)
        return schr_solution_section(state, dt, steps, first)
    def ddw(self, section) -> float:
        return schr_dedonder_weyl_residual(section)


_RECORDS = {cls.name: cls for cls in (KGTheory, SchrTheory)}


# ---------------------------------------------------------------------------
# one-forms: Theta, the transformed canonical form, and their difference,
# as a covector at a point and along a path edge from per-class Gram sums.
# Points and tangents come as compact fields on a support.


def _top_frequency(flow) -> float:
    """The difference form's top frequency in s on a flow's modes: 2 max
    nu of its table."""
    return 2.0 * float(np.max(flow.table[0], initial=0.0))


def _hflow(theory: Theory, sup: _Support, a0, a1, sign_ledger: str):
    """Hflow = (w/2) L^d sum(kappa |a1|^2 + lam |a0|^2) of the ledger's
    generator at the points (a0, a1), compact on sup."""
    kappa, lam, _ = theory.flow(sign_ledger).restricted(sup.index).on()
    energy = sup.sum(kappa * np.abs(a1) ** 2 + lam * np.abs(a0) ** 2)
    return 0.5 * theory.weight * sup.lattice.volume * energy


def _form_covector(theory: Theory, sup: _Support, a0, a1, s, sign_ledger: str):
    """The difference form at the point (a0, a1, s), compact on sup, as
    the covector (f0, f1, fs) of form(d0, d1, ds) = L^d Re sum(f0 conj d0
    + f1 conj d1) + fs ds, for tangents compact on sup too.

    Both theories share one contraction: Theta = w <a1, d0> - Hflow ds
    and canonical = w <M, c d0 - r d1 - kappa M ds>, with the record's
    pairing weight w, its flow's rotation (c, r, q) and kappa, and the
    chart's second coordinate M = A1 = c a1 + q a0, so the covector is
    (w (a1 - c M), w r M, w L^d sum kappa |M|^2 - Hflow)."""
    weight, flow = theory.weight, theory.flow().restricted(sup.index)
    c, r, q = flow.rotation(s)
    kappa, _, _ = flow.on()
    moment = c * a1 + q * a0
    rate = weight * sup.lattice.volume * np.sum(kappa * np.abs(moment) ** 2)
    fs = rate - _hflow(theory, sup, a0, a1, sign_ledger)
    return weight * (a1 - c * moment), weight * r * moment, fs


def _edge_integral(theory: Theory, flow, a0, a1, d0, d1, sa, sb, sign_ledger: str) -> float:
    """The difference form's exact integral along the edge (a0 + u d0, a1 +
    u d1, sa + u (sb - sa)), u in [0, 1], with a0 ... d1 compact on the
    modes of flow, the record's flow restricted to them (README, "W
    oracle"): per class, each pairing (x1d0 = Re sum x1 conj d0, ...) is a
    quadratic in u of Gram sums, against the u^j moments of the rotation
    (C, R, Q) at twice the time.  The ledger's Hflow (kappa_l, lam_l) meets
    the form's constant part per class, so under the resolved ledger the
    two cancel exactly."""
    weight, (_, kappa, lam, _, _), count = theory.weight, flow.table, len(flow.modes)
    kappa_l, lam_l, _ = theory.flow(sign_ledger).restricted(flow.modes).on()
    v = np.stack((a0, a1, d0, d1))
    i, j = np.triu_indices(4)
    g = np.empty((4, 4, count))
    pairs = np.real(v[i] * np.conj(v[j]))
    g[i, j] = g[j, i] = [np.bincount(flow.classes, x, count) for x in pairs]
    # the coefficients of 1, u and u^2 of the pairings x_i d_j and x_i x_j
    (x0d0, x0d1), (x1d0, x1d1) = np.stack((g[:2, 2:], g[2:, 2:], np.zeros_like(g[2:, 2:])), 2)
    (x0x0, _), (x1x0, x1x1) = np.stack((g[:2, :2], g[:2, 2:] + g[2:, :2], g[2:, 2:]), 2)
    C, R, Q = flow.moments(2.0 * sa, 2.0 * sb)
    unit = 1.0 / np.arange(1.0, 4.0)[:, np.newaxis]  # int_0^1 u^j du
    on = lambda pairing, factor: np.sum(pairing * factor, axis=0)
    ds = sb - sa
    fields = on(x1d0 + x0d1, unit - C) - on(x0d0, Q) + on(x1d1, R)
    rate = (kappa - kappa_l) * on(x1x1, unit) + (lam - lam_l) * on(x0x0, unit)
    rate += kappa * on(x1x1, C) + 2.0 * kappa * on(x1x0, Q) - lam * on(x0x0, C)
    return 0.5 * weight * theory.lattice.volume * float(np.sum(fields + ds * rate))


# ---------------------------------------------------------------------------
# the oracle


class WOracleClosednessError(RuntimeError):
    """The closedness sweep's largest scaled residual of the difference
    form Theta - canonical exceeded CLOSEDNESS_TOL.  The printed ledgers'
    forms are not closed; under the resolved ledger the finite-difference
    residual's rounding crosses the absolute tolerance at a few 3D seeds
    too.  The message names the residual, the tolerance, the theory, the
    ledger and the sweep's Philox key."""


@dataclass(frozen=True)
class ThetaPullbackReport:
    theory: str
    oracle_residual: float
    printed_residual: float


class WOracle:
    """Independent W: the exact primitive of the difference form.

    ``differential(point, tangent)`` evaluates Theta - canonical at the
    point (never touching any W formula); ``value(point)`` integrates it
    along the path (zero fields, s = 0) -> (zero fields, s) -> point, and
    ``loop_integral`` around a triangle, each with ``_path``.
    Construction checks closedness of the difference form at
    seeded random points and refuses to build an oracle for a
    non-closed form.  ``theory`` is a Theory record, or a theory name with
    a record of that theory (ValueError if of another) or a Lattice as ``cfg``.
    """

    def __init__(
        self,
        theory: Theory | str,
        cfg=None,
        sign_ledger: str = "resolved",
        seed: int = 1337,
        check_points: int = 4,
    ):
        if not isinstance(theory, Theory):
            if isinstance(cfg, Theory) and cfg.name != theory:
                raise ValueError(f"a {theory!r} oracle cannot be built from a {cfg.name!r} record")
            theory = Theory.of(theory, getattr(cfg, "lattice", cfg), getattr(cfg, "mass", 0.0))
        if sign_ledger not in ("resolved", "paper-printed"):
            raise ValueError(f"unknown sign_ledger {sign_ledger!r}")
        if check_points < 0:
            raise ValueError(f"check_points must be at least 0, got {check_points!r}")
        self.theory = theory
        self.sign_ledger = sign_ledger
        self.lattice = theory.lattice
        # one plus the form's top oscillation frequency in s
        self._top = 1.0 + _top_frequency(theory.flow())
        # the ds scale of the closedness check's tangents and the pullback
        # norm's unit of ds: the reciprocal of one plus the form's top
        # oscillation frequency in s
        self._s_scale = 1.0 / self._top
        if check_points > 0:
            worst = self._closedness_sweep(seed, check_points)
            if not worst <= CLOSEDNESS_TOL:
                raise WOracleClosednessError(
                    f"closedness sweep residual {worst:.3e} exceeds {CLOSEDNESS_TOL:.1e} "
                    f"(theory={theory.name}, sign_ledger={sign_ledger}, Philox key={seed}, "
                    f"{check_points} points)"
                )

    # -- evaluation ------------------------------------------------------

    def _support(self, fields, times) -> _Support:
        """The modes where some of the fields (single or stacked) is
        nonzero, a NaN included; every mode when a time times the top
        frequency is not finite, since the chart's factors are then NaN
        where the fields vanish too."""
        with np.errstate(over="ignore"):
            if not all(np.all(np.isfinite(np.multiply(t, self._top))) for t in times):
                return _Support(self.lattice)
        n = self.lattice.site_count
        hit = np.zeros(n, dtype=bool)
        for a in fields:
            hit |= np.logical_or.reduce(np.reshape(a, (-1, n)), axis=0)
        return _Support(self.lattice, np.flatnonzero(hit))

    def _point(self, a0, a1, time: float) -> ModeState:
        return ModeState(ModeVector(self.lattice, a0), ModeVector(self.lattice, a1), time=time)

    def differential(self, point: ModeState, tangent) -> float:
        """(Theta - canonical) contracted with the tangent (d0, d1, ds):
        the covector (f0, f1, fs) of _form_covector at the point, L^d Re
        sum(f0 conj d0 + f1 conj d1) + fs ds over the support."""
        self.theory.check_lattice(point)
        a0, a1 = point.arrays
        d0, d1, ds = tangent
        sup = self._support((a0, a1, d0, d1), (point.time, ds))
        take = sup.take
        f0, f1, fs = _form_covector(
            self.theory, sup, take(a0), take(a1), point.time, self.sign_ledger
        )
        pairing = np.sum(np.real(f0 * np.conj(take(d0)) + f1 * np.conj(take(d1))))
        return float(self.lattice.volume * pairing + fs * ds)

    def _path(self, vertices) -> float:
        """Line integral of the difference form along the straight edges
        between consecutive vertices (a0, a1, s): one _edge_integral per
        edge, on its end points' support; an edge with no nonzero mode is
        skipped.  A time at which 4 top s is not finite (top: one plus the
        form's top frequency) gives NaN: the edges' end phases overflow."""
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(np.multiply([s for *_, s in vertices], 4.0 * self._top))):
                return float("nan")
        total = 0.0
        for (a0, a1, sa), (b0, b1, sb) in zip(vertices, vertices[1:]):
            if not any(np.any(x) for x in (a0, a1, b0, b1)):
                continue
            sup = self._support((a0, a1, b0, b1), ())
            flow = self.theory.flow().restricted(sup.index)
            a0, a1 = sup.take(a0), sup.take(a1)
            d0, d1 = sup.take(b0) - a0, sup.take(b1) - a1
            total += _edge_integral(self.theory, flow, a0, a1, d0, d1, sa, sb, self.sign_ledger)
        return total

    def value(self, point: ModeState) -> float:
        """Line integral of the difference form along the path
        (0 fields, s = 0) -> (0 fields, s) -> point."""
        self.theory.check_lattice(point)
        (a0, a1), s = point.arrays, point.time
        zeros = np.zeros_like(a0)
        return self._path([(zeros, zeros, 0.0), (zeros, zeros, s), (a0, a1, s)])

    # -- checks ----------------------------------------------------------

    def closedness_residual(self, point, tx, ty) -> float:
        """Finite-difference antisymmetrized derivative d(Theta - T)(X, Y).

        The difference form is linear in the field coordinates, so the
        finite difference is exact there; only the s direction carries
        truncation error.  A fourth-order stencil keeps that error near
        the roundoff floor provided tangent ds components are scaled to
        the form's oscillation frequency (see _s_scale).
        """
        (a0, a1), s = point.arrays, point.time
        eps = CLOSEDNESS_EPS

        def deriv(ta, tb):
            d0, d1, ds = ta
            f = lambda e: self.differential(self._point(a0 + e * d0, a1 + e * d1, s + e * ds), tb)
            return (-f(2 * eps) + 8 * f(eps) - 8 * f(-eps) + f(-2 * eps)) / (12 * eps)

        return abs(deriv(tx, ty) - deriv(ty, tx))

    def _closedness_sweep(self, seed: int, count: int) -> float:
        rng = np.random.Generator(np.random.Philox(key=seed))
        lat = self.lattice
        modes = lambda: (random_hermitian_modes(lat, rng), random_hermitian_modes(lat, rng))
        residuals = []
        for _ in range(count):
            # a point and two (d0, d1, ds) tangents, drawn in that order
            s0 = float(rng.uniform(-2.0, 2.0))
            point = self._point(*modes(), s0)
            tx, ty = ((*modes(), float(rng.standard_normal()) * self._s_scale) for _ in range(2))
            scale = 1.0 + max(float(np.max(np.abs(a))) for a in point.arrays) ** 2
            residuals.append(self.closedness_residual(point, tx, ty) / scale)
        return nan_max(residuals)

    def loop_integral(self, p1: ModeState, p2: ModeState, p3: ModeState) -> float:
        """Circulation of the difference form around the triangle, the
        path p1 -> p2 -> p3 -> p1; closedness makes it vanish.  A point on
        another lattice raises ValueError."""
        for p in (p1, p2, p3):
            self.theory.check_lattice(p)
        return self._path([(*p.arrays, p.time) for p in (p1, p2, p3, p1)])


# ---------------------------------------------------------------------------
# the pullback identity


def theta_pullback_residual(theory: Theory, point: ModeState) -> ThetaPullbackReport:
    """Check Theta = canonical + dW at one point, on every tangent.

    Theta - canonical comes from the contact form and the chart Jacobian
    (the oracle's difference form, as the covector of _form_covector);
    dW is the analytic differential (``Theory.dw_covector``).  Runs
    twice: with the chart's derived W, whose gap is ``oracle_residual``
    (a gate: the derived W must be the oracle's potential), and with the
    printed W hypothesis, whose gap is ``printed_residual``.  The printed
    Schrodinger W is known not to satisfy the identity; its residual is
    a measurement, not a failure.

    A residual is the dual norm of the gap covector (e0, e1, es): the
    largest |Theta - canonical - dW|(X) over the tangents X whose normals
    have unit length.  A tangent's normals are the real then the
    imaginary parts of d0 and of d1, each field reality-symmetrized
    (_symmetrized), then ds in units of the oracle's _s_scale.
    Symmetrization is self-adjoint under the real pairing, so the norm is
    sqrt(L^2d sum(|sym e0|^2 + |sym e1|^2) + (es _s_scale)^2), summed on
    the point's support closed under m -> -m: the gap vanishes off it.
    A NaN in the point gives NaN residuals.
    """
    theory.check_lattice(point)
    oracle = WOracle(theory, check_points=0)
    conj = mode_index_table(point.lattice)[0]
    # the point and its reflection a[-m]: the support closed under m -> -m
    reflected = (x.reshape(-1)[conj] for x in point.arrays)
    sup = oracle._support((*point.arrays, *reflected), (point.time,))
    pair = np.searchsorted(sup.index, conj[sup.index])
    a0, a1 = (sup.take(x) for x in point.arrays)

    def gap_norm(printed):
        h0, h1, hs = theory.dw_covector(point, printed, sup)
        e = _symmetrized(pair, np.stack((f0 - h0, f1 - h1)))
        fields = point.lattice.volume * np.linalg.norm(e)
        return float(np.hypot(fields, (fs - hs) * oracle._s_scale))

    with np.errstate(over="ignore", invalid="ignore"):
        f0, f1, fs = _form_covector(theory, sup, a0, a1, point.time, oracle.sign_ledger)
        return ThetaPullbackReport(theory.name, gap_norm(False), gap_norm(True))
