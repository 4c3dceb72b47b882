"""Generalized Darboux coordinates on mode space, and the W coordinate.

Both theories are linear flows, a rotation per mode.  One ``Theory``
record per theory, ``Theory.of(name, lattice, mass)``, holds what
differs between them; the chart, the oracle and the pullback check are
written once against it.  A point ``ModeState(a0, a1, time)`` holds
(phi-hat, p-hat) for Klein-Gordon, (phiR-hat, phiI-hat) for
Schrodinger.  The chart applies the inverse-flow rotation (c, r, q) per
mode, A0 = c a0 - r a1 and A1 = c a1 + q a0, so that along solutions
the coordinates (A0, A1) of a ``DarbouxState(A0, A1, W, time)`` are
constant ("the chart rectifies the flow") and the leftover motion is
carried by the scalar W.  W itself is treated as a derived function of
(a0, a1, s), not an independent coordinate; that is the only reading
under which the transform is invertible.

W is stated once for both theories: the derived W = (w/2)(<a0, a1> -
<A0, A1>), with the record's pairing weight w, is what the transforms
store and ``Theory.w`` returns, and ``Theory.dw`` is its gradient, the
part in (a0, a1) plus the part in the chart's (A0, A1, s) pulled back
through the chart's Jacobian.  The oracle below validates it.  The
printed hypothesis formulas (``Theory.w(m, printed=True)``) are kept
verbatim, each a per-theory change to that gradient, so the harness can
measure how far they fall from satisfying the pullback identity.
Acceptance criterion 5 pins the printed KG density's gap to the oracle
as exactly one extra momentum cross term;
``scripts/w_mismatch_report.py`` tabulates the measured gaps of both
printed formulas.

The oracle recovers W from its defining property: the difference between
the contact one-form Theta and the transformed canonical one-form must
be exact, Theta - T = dW.  It evaluates that difference form directly
(via the analytic chart Jacobian), checks it is closed, and integrates
it from the base point (zero fields, s = 0) along straight segments.
The pullback check ``theta_pullback_residual`` compares the same form
with the analytic differential of the derived W over sampled tangents,
so its gated residual measures how far the chart's W is from the
oracle's potential, to rounding.

The per-mode work runs on a support: the modes where the evaluation's
data are nonzero (a NaN counts), read from the data of each call (a
point, an edge's two end points, a point and a tangent), never assumed
from a sampling band; the pullback's support is its point's united with
the band its tangent draws write.  Points and tangents are compact
arrays on the support.  The form is evaluated on blocks: stacks of
points (the quadrature nodes of ``WOracle.value`` and
``WOracle.loop_integral``) or of tangents (the pullback sweep), of at
most BLOCK_COEFFS compact mode coefficients per stacked array.  Each
block entry is bit-identical to evaluating it alone, and the
quadratures accumulate in node order, so no sum depends on the block
size.  Each mode sum writes its compact values into a zeroed
full-lattice buffer the support keeps and sums that, so every value is
the one a full-lattice evaluation gives.  The pullback's tangents are
drawn straight onto the band: one draw of 4 M + 1 normals per tangent
of a block, none for the N - M modes off it.  The closedness check draws its points and tangents
as sequential full-lattice ``random_hermitian_modes`` draws instead.

Conventions: the contact one-form is Theta = w <a1, da0> - Hflow dt
with the pairing weight w and the flow Hamiltonian of the resolved
ledger.  For Klein-Gordon, w = 1 and Hflow = (1/2) L^d sum (|p-hat|^2 +
omega^2 |phi-hat|^2), the positive slice energy.  For Schrodinger,
w = 2 and Hflow = +(1/2) integral |grad psi|^2; this positive sign is
the one whose contact flow is the propagator exp(-i k^2 s / 2), and the
only one for which Theta - T is closed.  The printed (negative) sign is
kept behind the ``sign_ledger`` flag as a documented negative control:
with it the oracle's closedness precondition fails.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kg import (
    KGConfig,
    KGState,
    kg_dedonder_weyl_residual,
    kg_evolve_spectral,
    kg_solution_section,
)
from .lattice import Lattice, ModeVector, dft, idft, mode_index_table, nan_max
from .schrodinger import (
    SchrState,
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
# blocks and supports: the oracle's form evaluated on stacks of points or
# tangents, on the modes their data occupy

# compact mode coefficients per stacked (block, M) array on a support of
# M modes, 64 KB of complex numbers: it bounds the memory a block's compact
# temporaries take, whatever the lattice (each mode sum writes a block into
# the support's (block, N) full-lattice buffer, kept across its sums), and
# a block's tangent draw, 4 M + 1 normals a tangent, to 4 BLOCK_COEFFS
# plus one per tangent.  On the n/4 band a block holds 124 nodes or
# tangents at 1D n=64 and 5 at 3D n=16
BLOCK_COEFFS = 4096


# Gauss panels one edge of WOracle.loop_integral may take.  An edge needs
# about 2 om_max |ds| of them, a few hundred for the harness's times at
# 1D n=64; the budget stops a huge finite time from asking for a number of
# panels no run could finish
LOOP_PANEL_BUDGET = 2**16


# the oracle's fixed numerics: the Gauss-Legendre nodes per segment of
# WOracle.value and per panel of WOracle.loop_integral; the largest scaled
# closedness residual the construction sweep accepts; and the step of the
# closedness check's fourth-order stencil
GAUSS_ORDER = 8
CLOSEDNESS_TOL = 1e-8
CLOSEDNESS_EPS = 1e-3


def _block_size(sup: _Support) -> int:
    return max(1, BLOCK_COEFFS // len(sup.index))


class _Support:
    """The flat mode indices one evaluation works on (every mode by default).

    Per-mode arithmetic runs on compact (..., M) arrays, the columns
    ``index`` of (..., *shape) ones.  Sums go through ``_mode_sum``, on
    full-lattice buffers the support keeps: one zeroed (rows, N) array
    per dtype, with the flat positions of the support's modes in it, row
    by row, grown when a sum needs more rows than it has.
    """

    def __init__(self, lattice: Lattice, index: np.ndarray | None = None):
        self.lattice = lattice
        self.index = np.arange(lattice.site_count) if index is None else index
        self._buffers = {}

    def take(self, x: np.ndarray) -> np.ndarray:
        """(..., *shape) restricted to the support: (..., M)."""
        lead = x.shape[: x.ndim - self.lattice.dim]
        return x.reshape(lead + (self.lattice.site_count,)).take(self.index, axis=-1)

    def sum(self, x: np.ndarray):
        return _mode_sum(self, x)

    def buffer(self, dtype, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """The flat zeroed buffer of dtype, at least rows * N long, and the
        flat positions of the support's modes in it, row after row."""
        n = self.lattice.site_count
        kept = self._buffers.get(dtype)
        if kept is None or len(kept[0]) < rows * n:
            at = (np.arange(rows)[:, np.newaxis] * n + self.index).ravel()
            kept = self._buffers[dtype] = np.zeros(rows * n, dtype=dtype), at
        return kept

    def place(self, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Compact rows (..., K) on the flat mode indices index, all of
        them in the support, as compact (..., M) rows on the support: the
        rows themselves when index is the support's own (K = M), else
        scattered into zeros."""
        if len(index) == len(self.index):
            return rows
        return _scatter(rows, np.searchsorted(self.index, index), len(self.index))


def _scatter(rows: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """rows (..., K) written at the positions at of zeros (..., size)."""
    out = np.zeros(rows.shape[:-1] + (size,), dtype=rows.dtype)
    out[..., at] = rows
    return out


def _on_lattice(lattice: Lattice, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Compact rows (..., M) on the flat mode indices index, scattered
    into zeros of shape (..., *shape)."""
    full = _scatter(rows, index, lattice.site_count)
    return full.reshape(rows.shape[:-1] + lattice.shape)


def _mode_sum(sup: _Support, x: np.ndarray):
    """Sum of compact per-mode values x (..., M) on the support over the
    whole lattice, one value per leading block index.  x's B rows are
    written at their modes' positions in the support's buffer of x's
    dtype, whose C-contiguous prefix of B rows np.sum reduces over the
    mode axes.  Off the support the buffer holds exact zeros, the values
    a full-lattice evaluation multiplies there, so this is the array it
    would sum, and the sum rounds alike.  The rows summed are written
    first, so nothing (a NaN, say) carries over from an earlier sum."""
    lead, lat = x.shape[:-1], sup.lattice
    rows = math.prod(lead)
    buf, at = sup.buffer(x.dtype, rows)
    buf[at[: rows * len(sup.index)]] = x.reshape(-1)
    full = buf[: rows * lat.site_count].reshape(lead + lat.shape)
    return np.sum(full, axis=tuple(range(-lat.dim, 0)))


def _col(x):
    """A per-block scalar of shape (B,) with a unit mode axis appended, so
    it broadcasts against compact (B, M) arrays; a plain scalar passes
    through."""
    return x if np.ndim(x) == 0 else np.reshape(x, np.shape(x) + (1,))


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
    """Compact rows z (..., M) on a band of _band_pairs, with each mode m
    set to (z[m] + conj(z[-m])) / 2, -m at the position pair[m]."""
    return 0.5 * (z + np.conj(z.take(pair, axis=-1)))


def _tangent_block(lattice: Lattice, rng: np.random.Generator, count: int, s_scale: float):
    """count tangents as compact rows on the n/4 band: (index, d0, d1,
    ds), with d0 and d1 of shape (count, M) on the M flat mode indices
    index and ds of shape (count,).  One (count, 4 M + 1) draw of normals
    holds them: per row, the real then the imaginary parts of d0 and of
    d1, each reality-symmetrized, then ds / s_scale."""
    index, pair = _band_pairs(lattice, None)
    m = len(index)
    raw = rng.standard_normal((count, 4 * m + 1))
    d0 = _symmetrized(pair, raw[:, :m] + 1j * raw[:, m : 2 * m])
    d1 = _symmetrized(pair, raw[:, 2 * m : 3 * m] + 1j * raw[:, 3 * m : 4 * m])
    return index, d0, d1, raw[:, 4 * m] * s_scale


# ---------------------------------------------------------------------------
# the chart: one rotation, four traced entry points


def _kg_rotation(om: np.ndarray, s):
    """(cos(omega s), sin(omega s)/omega, omega sin(omega s)) with the
    omega -> 0 limits (1, s, 0), for the frequencies om (on the lattice
    or a support); s is a time or a (B,) block of times."""
    s = _col(s)
    zero = om == 0.0
    om_safe = np.where(zero, 1.0, om)
    phase = om * s
    sn = np.sin(phase)
    return np.cos(phase), np.where(zero, s, sn / om_safe), om * sn


def _schr_rotation(ksq: np.ndarray, s):
    """(cos, sin, sin) of the angle k^2 s / 2, for the k^2 on the lattice
    or a support; s is a time or a (B,) block of times."""
    theta = 0.5 * ksq * _col(s)
    sg = np.sin(theta)
    return np.cos(theta), sg, sg


def _to_darboux(m: ModeState, rotation, weight: float) -> DarbouxState:
    """A0 = c a0 - r a1, A1 = c a1 + q a0 for the rotation (c, r, q), and
    the derived W = (w/2)(<a0, a1> - <A0, A1>) for the pairing weight w."""
    c, r, q = rotation
    a0, a1 = m.arrays
    A0, A1 = c * a0 - r * a1, c * a1 + q * a0
    lat = m.lattice
    W = 0.5 * weight * lat.volume * float(np.sum(np.real(a0 * np.conj(a1) - A0 * np.conj(A1))))
    return DarbouxState(ModeVector(lat, A0), ModeVector(lat, A1), W=W, time=m.time)


def _from_darboux(d: DarbouxState, rotation) -> ModeState:
    """The inverse rotation; W is discarded (it is a function of the rest)."""
    c, r, q = rotation
    A0, A1 = d.arrays
    lat = d.lattice
    return ModeState(
        ModeVector(lat, c * A0 + r * A1), ModeVector(lat, c * A1 - q * A0), time=d.time
    )


def kg_to_darboux(m: ModeState, cfg: KGConfig) -> DarbouxState:
    """Phi-hat = cos phi-hat - (sin/omega) p-hat, P-hat = cos p-hat
    + omega sin phi-hat; the massless zero mode uses the shear limit
    Phi0 = phi0 - s p0, P0 = p0.  W is the derived one."""
    return _to_darboux(m, _kg_rotation(cfg.omega(), m.time), KGTheory.weight)


def kg_from_darboux(d: DarbouxState, cfg: KGConfig) -> ModeState:
    return _from_darboux(d, _kg_rotation(cfg.omega(), d.time))


def schr_to_darboux(m: ModeState) -> DarbouxState:
    """The rotation by k^2 s / 2; W is the derived one."""
    return _to_darboux(m, _schr_rotation(m.lattice.ksq(), m.time), SchrTheory.weight)


def schr_from_darboux(d: DarbouxState) -> ModeState:
    return _from_darboux(d, _schr_rotation(d.lattice.ksq(), d.time))


# ---------------------------------------------------------------------------
# the theory record


class Theory:
    """What differs between the two theories, for one lattice and mass.

    Each subclass sets ``name``, the config's theory; ``weight``, the
    pairing weight w (1 for Klein-Gordon, 2 for Schrodinger) of Theta,
    Omega, the bivector and the smeared observables; ``state``, the slice
    state class, whose ``SCALARS`` are the record's ``fields`` behind
    (a0, a1) (a variation, being a slice state too, carries them under
    the same names); and ``slots``, the names of the chart coordinates.
    ``freq`` is the per-mode array the rotation reads (omega; k^2).  Each
    subclass gives the s-rates of the chart's coordinates (``rate``,
    ``rate1``) and its printed W hypothesis (``printed_w``,
    ``printed_gradient``); the derived W and the differential of either
    are written once here (``w``, ``dw``).  The methods that reach kg.py, schrodinger.py or the four chart functions
    call them by module-level name at call time; constraint enforcement
    and the variation profile are the shared bodies of lattice.py.
    """

    def __init__(self, lattice: Lattice, mass: float = 0.0):
        self.lattice = lattice
        self.mass = mass

    @staticmethod
    @lru_cache(maxsize=32)
    def of(name: str, lattice: Lattice, mass: float = 0.0) -> Theory:
        """The record of the named theory: one per (name, lattice, mass),
        shared by every caller, so nothing changes a record once built."""
        if name not in _RECORDS:
            raise ValueError(f"unknown theory {name!r}")
        return _RECORDS[name](lattice, mass)

    fields = property(lambda self: self.state.SCALARS)

    def check_lattice(self, point) -> None:
        """Refuse a point (or mode state) that lives on another lattice."""
        if point.lattice != self.lattice:
            raise ValueError(
                f"the {self.name} record is on {self.lattice}, the point on {point.lattice}"
            )

    # the slice layer's shared bodies (lattice._Slice, lattice._Section)
    def enforce(self, a0, a1, time: float = 0.0):
        return self.state._enforced(a0, a1, time)
    def profile(self, section, variation, first: int = 0, count: int | None = None):
        return section._bumped(variation, first, count)

    def w(self, m: ModeState, printed: bool = False) -> float:
        """W at m: the derived (w/2)(<a0, a1> - <A0, A1>), the one the
        chart stores, or the subclass's printed hypothesis."""
        self.check_lattice(m)
        d = _to_darboux(m, self.rotation(self.freq, m.time), self.weight)
        return self.printed_w(m, d) if printed else d.W

    def dw(self, m: ModeState, printed: bool = False, support: _Support | None = None):
        """The differential at m of W, derived or printed, as a function
        of tangents (d0, d1, ds), single or stacked, compact on the
        support (every mode by default), which must hold every mode where
        m or a tangent is nonzero.

        W's gradient has a direct part (g0, g1, gs) in the point's
        coordinates, (w/2)(conj a1, conj a0, 0) for the derived W, and a
        chart part (G0, G1, Gs) in (A0, A1, s), -(w/2)(conj A1, conj A0,
        0), pulled back here through dA0 = c d0 - r d1 + rate ds and
        dA1 = q d0 + c d1 + rate1 ds.  It depends on m alone, so it is
        computed once, and a tangent costs
        L^d (Re sum(g0 d0 + g1 d1) + sum(gs) ds).
        """
        self.check_lattice(m)
        sup = _Support(m.lattice) if support is None else support
        f = sup.take(self.freq)
        a0, a1 = (sup.take(x) for x in m.arrays)
        s = m.time
        c, r, q = self.rotation(f, s)
        A0, A1 = c * a0 - r * a1, c * a1 + q * a0
        half = 0.5 * self.weight
        direct = half * np.conj(a1), half * np.conj(a0), 0.0
        chart = -half * np.conj(A1), -half * np.conj(A0), 0.0
        if printed:
            direct, chart = self.printed_gradient(f, s, a0, a1, A0, A1, direct, chart)
        (g0, g1, gs), (G0, G1, Gs) = direct, chart
        g0 = g0 + c * G0 + q * G1
        g1 = g1 - r * G0 + c * G1
        rates = G0 * self.rate(f, c, q, a0, a1) + G1 * self.rate1(f, c, q, a0, a1)
        gs = sup.sum(gs + Gs + np.real(rates))
        vol = m.lattice.volume

        def dw(d0, d1, ds):
            return vol * (sup.sum(np.real(g0 * d0 + g1 * d1)) + gs * ds)

        return dw

    def slice_fields(self, state) -> tuple:
        """The fields of a slice state (or variation) behind (a0, a1)."""
        return tuple(getattr(state, f) for f in self.fields)

    def mode_state(self, state) -> ModeState:
        return ModeState(*(dft(f) for f in self.slice_fields(state)), time=state.time)

    def slice_state(self, m: ModeState):
        return self.enforce(idft(m.a0), idft(m.a1), time=m.time)


class KGTheory(Theory):
    name, weight, state, slots = "kg", 1.0, KGState, ("Phi", "P")

    def __init__(self, lattice: Lattice, mass: float = 0.0):
        super().__init__(lattice, mass)
        self.cfg = KGConfig(mass=mass, lattice=lattice)
        self.freq = self.cfg.omega()

    rotation = staticmethod(_kg_rotation)

    def rate(self, om, c, q, a0, a1):
        """d/ds of the chart's A0, from its rotation (c, r, q)."""
        return -q * a0 - c * a1

    def rate1(self, om, c, q, a0, a1):
        """d/ds of the chart's A1."""
        return om**2 * c * a0 - q * a1

    def hflow(self, sup: _Support, om, a0, a1, sign_ledger: str):
        om2 = om**2
        if sign_ledger == "paper-printed":
            om2 = om2 - 2.0 * self.mass**2  # k^2 - m^2: the printed mass sign
        return 0.5 * sup.lattice.volume * sup.sum(np.abs(a1) ** 2 + om2 * np.abs(a0) ** 2)

    def frequencies(self) -> tuple[float, float]:
        """The difference form's top oscillation frequency in s, 2 omega
        for the rotation quadratics, and the top omega."""
        om_max = float(np.max(self.freq))
        return 2.0 * om_max, om_max

    def to_darboux(self, m: ModeState) -> DarbouxState:
        self.check_lattice(m)
        return kg_to_darboux(m, self.cfg)
    def from_darboux(self, d: DarbouxState) -> ModeState:
        self.check_lattice(d)
        return kg_from_darboux(d, self.cfg)

    def printed_w(self, m: ModeState, d: DarbouxState) -> float:
        """The printed hypothesis: the derived W plus the cross term
        L^d sum Re(p conj(phi)) sin^2(omega s)."""
        phi, p = m.arrays
        cross = np.real(p * np.conj(phi)) * np.sin(self.freq * m.time) ** 2
        return d.W + m.lattice.volume * float(np.sum(cross))

    def printed_gradient(self, om, s, a0, a1, A0, A1, direct, chart):
        """The gradients of the printed W: the derived ones, with the
        cross term's added to the direct part."""
        sg, cs = np.sin(om * s), np.cos(om * s)
        g0, g1, gs = direct
        direct = (
            g0 + sg**2 * np.conj(a1),
            g1 + sg**2 * np.conj(a0),
            gs + np.real(a1 * np.conj(a0)) * 2.0 * sg * cs * om,
        )
        return direct, chart

    # the slice-level entry points of kg.py
    def evolve(self, state, s: float, ledger: str = "resolved"):
        return kg_evolve_spectral(state, s, self.cfg, mass_sign=ledger)
    def section(self, state, dt: float, steps: int, first: int = 0):
        return kg_solution_section(state, dt, steps, self.cfg, first)
    def ddw(self, section) -> float:
        return kg_dedonder_weyl_residual(section)


class SchrTheory(Theory):
    name, weight, state, slots = "schrodinger", 2.0, SchrState, ("PhiR", "PhiI")

    def __init__(self, lattice: Lattice, mass: float = 0.0):
        super().__init__(lattice, mass)
        self.freq = lattice.ksq()

    rotation = staticmethod(_schr_rotation)

    def rate(self, ksq, c, q, a0, a1):
        """d/ds of the chart's A0, from its rotation (c, r, q)."""
        return 0.5 * ksq * (-q * a0 - c * a1)

    def rate1(self, ksq, c, q, a0, a1):
        """d/ds of the chart's A1."""
        return 0.5 * ksq * (c * a0 - q * a1)

    def hflow(self, sup: _Support, ksq, a0, a1, sign_ledger: str):
        val = 0.5 * sup.lattice.volume * sup.sum(ksq * (np.abs(a0) ** 2 + np.abs(a1) ** 2))
        return -val if sign_ledger == "paper-printed" else val

    def frequencies(self) -> tuple[float, float]:
        """The difference form's top oscillation frequency in s, k^2, and
        the top |k| (sqrt is monotone and correctly rounded, so it is the
        square root of the top k^2 exactly)."""
        top = float(np.max(self.freq))
        return top, float(np.sqrt(top))

    def to_darboux(self, m: ModeState) -> DarbouxState:
        self.check_lattice(m)
        return schr_to_darboux(m)
    def from_darboux(self, d: DarbouxState) -> ModeState:
        self.check_lattice(d)
        return schr_from_darboux(d)

    def printed_w(self, m: ModeState, d: DarbouxState) -> float:
        """The printed hypothesis, stated in the chart's coordinates."""
        ksq = d.lattice.ksq()
        s = d.time
        A, B = d.arrays
        per_mode = 0.5 * np.sin(ksq * s) * (np.abs(A) ** 2 - np.abs(B) ** 2) + 2.0 * np.real(
            A * np.conj(B)
        ) * np.sin(0.5 * ksq * s)
        return d.lattice.volume * float(np.sum(per_mode))

    def printed_gradient(self, ksq, s, a0, a1, A, B, direct, chart):
        """The gradients of the printed W, all in the chart's coordinates:
        no direct part."""
        sin_full, sin_half = np.sin(ksq * s), np.sin(0.5 * ksq * s)
        conj_A, conj_B = np.conj(A), np.conj(B)
        chart = (
            sin_full * conj_A + 2.0 * sin_half * conj_B,
            -sin_full * conj_B + 2.0 * sin_half * conj_A,
            0.5 * ksq * np.cos(ksq * s) * (np.abs(A) ** 2 - np.abs(B) ** 2)
            + np.real(A * conj_B) * ksq * np.cos(0.5 * ksq * s),
        )
        return (0.0, 0.0, 0.0), chart

    # the slice-level entry points of schrodinger.py
    def evolve(self, state, s: float, ledger: str = "resolved"):
        return schr_evolve_spectral(state, s, hamiltonian_sign=ledger)
    def section(self, state, dt: float, steps: int, first: int = 0):
        return schr_solution_section(state, dt, steps, first)
    def ddw(self, section) -> float:
        return schr_dedonder_weyl_residual(section)


_RECORDS = {cls.name: cls for cls in (KGTheory, SchrTheory)}


# ---------------------------------------------------------------------------
# one-forms: Theta, the transformed canonical form, and their difference
#
# Points (a0, a1, s) and tangents (d0, d1, ds) may be stacked: fields
# (B, ...) with times (B,); every sum runs over the mode axis only, so a
# stack gives one value per block index, each bit-identical to evaluating
# that index alone.  Points and tangents come as compact fields on a
# support.


def _pairing(sup: _Support, x: np.ndarray, dy: np.ndarray):
    """<x, dy> = L^d Re sum_k x[k] conj(dy[k]), the real Parseval pairing
    of compact fields."""
    return sup.lattice.volume * np.real(sup.sum(x * np.conj(dy)))


def _difference_form(theory: Theory, sup: _Support, a0, a1, s, sign_ledger: str):
    """Theta - canonical at the points (a0, a1, s) as a function of the
    tangents (d0, d1, ds), both compact on sup, which must hold every
    mode where a point or a tangent is nonzero.

    Both theories share one contraction: Theta = w <a1, d0> - Hflow ds
    and canonical = w <A1, c d0 - r d1 + v ds>, with the record's
    pairing weight w, its rotation (c, r, q), the chart's second
    coordinate A1 = c a1 + q a0 and v the s-rate of its first.  The
    factors that depend on the points alone are computed here, once.
    """
    weight = theory.weight
    f = sup.take(theory.freq)
    c, r, q = theory.rotation(f, s)
    moment = c * a1 + q * a0
    rate = theory.rate(f, c, q, a0, a1)
    hflow = theory.hflow(sup, f, a0, a1, sign_ledger)

    def form(d0, d1, ds):
        theta = weight * _pairing(sup, a1, d0) - hflow * ds
        return theta - weight * _pairing(sup, moment, c * d0 - r * d1 + rate * _col(ds))

    return form


# ---------------------------------------------------------------------------
# the oracle


class WOracleClosednessError(RuntimeError):
    """The difference form Theta - canonical failed the closedness check,
    signalling a sign-ledger violation upstream."""


@dataclass(frozen=True)
class ThetaPullbackReport:
    theory: str
    oracle_residual: float
    printed_residual: float


class WOracle:
    """Independent W: the exact primitive of the difference form.

    ``differential(point, tangent)`` evaluates Theta - canonical at the
    point (never touching any W formula); ``value(point)`` integrates it
    from the base point (zero fields, s = 0) along two straight
    segments.  Construction checks closedness of the difference form at
    seeded random points and refuses to build an oracle for a
    non-closed form.  ``theory`` is a Theory record, or a theory name
    with the KGConfig or Lattice to build one from as ``cfg``.
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
            theory = Theory.of(theory, getattr(cfg, "lattice", cfg), getattr(cfg, "mass", 0.0))
        if sign_ledger not in ("resolved", "paper-printed"):
            raise ValueError(f"unknown sign_ledger {sign_ledger!r}")
        if check_points < 0:
            raise ValueError(f"check_points must be at least 0, got {check_points!r}")
        self.theory = theory
        self.sign_ledger = sign_ledger
        self.lattice = theory.lattice
        # one plus the form's top oscillation frequency in s
        top, self._om_max = theory.frequencies()
        self._top = 1.0 + top
        # the ds scale of sampled tangents: the reciprocal of one plus the
        # form's top oscillation frequency in s
        self._s_scale = 1.0 / self._top
        if check_points > 0:
            worst = self._closedness_sweep(seed, check_points)
            if not worst <= CLOSEDNESS_TOL:
                raise WOracleClosednessError(
                    f"difference form is not closed (residual {worst:.3e} > "
                    f"{CLOSEDNESS_TOL:.1e}); the sign ledger upstream is inconsistent "
                    f"(theory={theory.name}, sign_ledger={sign_ledger})"
                )

    # -- evaluation ------------------------------------------------------

    def _support(self, fields, times, index=None) -> _Support:
        """The modes where some of the fields (single or stacked) is
        nonzero, a NaN included, and the flat mode indices index; every
        mode when a time times the top frequency is not finite, since the
        chart's factors are then NaN where the fields vanish too."""
        if not all(np.all(np.isfinite(np.multiply(t, self._top))) for t in times):
            return _Support(self.lattice)
        n = self.lattice.site_count
        hit = np.zeros(n, dtype=bool)
        if index is not None:
            hit[index] = True
        for a in fields:
            hit |= np.logical_or.reduce(np.reshape(a, (-1, n)), axis=0)
        return _Support(self.lattice, np.flatnonzero(hit))

    def _form(self, sup: _Support, a0, a1, s):
        """The difference form at points (a0, a1, s), compact on sup,
        single or stacked."""
        return _difference_form(self.theory, sup, a0, a1, s, self.sign_ledger)

    def _point(self, a0, a1, time: float) -> ModeState:
        return ModeState(ModeVector(self.lattice, a0), ModeVector(self.lattice, a1), time=time)

    def _blocks(self, sup: _Support, u: np.ndarray, evaluate):
        """evaluate(u_block) over the nodes u in blocks of _block_size on
        sup, yielding one value per node, in order."""
        size = _block_size(sup)
        for i in range(0, len(u), size):
            yield from evaluate(u[i : i + size])

    def differential(self, point: ModeState, tangent) -> float:
        """(Theta - canonical) contracted with the tangent (d0, d1, ds)."""
        self.theory.check_lattice(point)
        a0, a1 = point.arrays
        d0, d1, ds = tangent
        sup = self._support((a0, a1, d0, d1), (point.time, ds))
        form = self._form(sup, sup.take(a0), sup.take(a1), point.time)
        return float(form(sup.take(d0), sup.take(d1), ds))

    def value(self, point: ModeState) -> float:
        """Line integral of the difference form from (0 fields, s = 0).

        Segment one raises s at zero fields (the integrand vanishes there
        but is integrated honestly); segment two is radial in the fields
        at the target time.  Quadrature nodes are evaluated in blocks, on
        the point's support.
        """
        self.theory.check_lattice(point)
        nodes, weights = np.polynomial.legendre.leggauss(GAUSS_ORDER)
        u = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        (a0, a1), s_target = point.arrays, point.time
        sup = self._support((a0, a1), (s_target,))
        c0, c1 = sup.take(a0), sup.take(a1)
        cz = np.zeros_like(c0)
        rise = self._blocks(
            sup, u, lambda ub: self._form(sup, cz, cz, ub * s_target)(cz, cz, 1.0)
        )
        radial = self._blocks(
            sup,
            u,
            lambda ub: self._form(sup, _col(ub) * c0, _col(ub) * c1, s_target)(c0, c1, 0.0),
        )
        total = 0.0
        for wi, v in zip(w, rise):
            total += wi * s_target * v
        for wi, v in zip(w, radial):
            total += wi * v
        return total

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
        """Circulation of the difference form around the triangle
        p1 -> p2 -> p3 -> p1 (straight segments); closedness makes it
        vanish.  Panel count grows with the oscillation scale along each
        edge so the quadrature error stays below the assertion floor.
        Each edge's quadrature nodes are evaluated in blocks, on the
        support of its two end points.

        A time that is not finite gives NaN, as it does for ``value``; an
        edge that would need more than LOOP_PANEL_BUDGET panels raises
        ValueError, as does a point on another lattice.
        """
        for p in (p1, p2, p3):
            self.theory.check_lattice(p)
        nodes, weights = np.polynomial.legendre.leggauss(GAUSS_ORDER)
        om_max = self._om_max
        if not all(np.isfinite(p.time) for p in (p1, p2, p3)):
            return float("nan")
        total = 0.0
        for a, b in ((p1, p2), (p2, p3), (p3, p1)):
            (a0, a1), sa = a.arrays, a.time
            (b0, b1), sb = b.arrays, b.time
            need = np.ceil(2.0 * om_max * abs(sb - sa)) + 1
            if need > LOOP_PANEL_BUDGET:
                raise ValueError(
                    f"loop_integral edge from s={float(sa)!r} to s={float(sb)!r} needs "
                    f"{need:.3g} panels, over the budget of {LOOP_PANEL_BUDGET}"
                )
            panels = max(4, int(need))
            sup = self._support((a0, a1, b0, b1), (sa, sb, sb - sa))
            a0, a1, b0, b1 = (sup.take(x) for x in (a0, a1, b0, b1))
            tangent = (b0 - a0, b1 - a1, sb - sa)
            j = np.arange(panels)[:, np.newaxis]
            lo, hi = j / panels, (j + 1) / panels
            u = (0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)).ravel()
            w = (0.5 * (hi - lo) * weights).ravel()

            def on_edge(ub):
                left, right = _col(1 - ub), _col(ub)
                form = self._form(
                    sup, left * a0 + right * b0, left * a1 + right * b1, (1 - ub) * sa + ub * sb
                )
                return form(*tangent)

            for wi, v in zip(w, self._blocks(sup, u, on_edge)):
                total += wi * v
        return total


# ---------------------------------------------------------------------------
# the pullback identity


def theta_pullback_residual(
    theory: Theory,
    point: ModeState,
    tangent_count: int = 100,
    seed: int = 2024,
) -> ThetaPullbackReport:
    """Check Theta = canonical + dW at one point over sampled tangents.

    Theta - canonical comes from the contact form and the chart Jacobian
    (the oracle's difference form); dW is the analytic differential
    ``Theory.dw``.  Runs twice: with the chart's derived W, whose sup
    mismatch is ``oracle_residual`` (a gate: the derived W must be the
    oracle's potential), and with the printed W hypothesis, whose sup
    mismatch is ``printed_residual``.  The printed Schrodinger W is known
    not to satisfy the identity; its residual is a measurement, not a
    failure.  tangent_count must be an integer, at least 1.  Everything
    runs on one support, the point's united with the band the tangents
    are drawn on.  The tangents come in blocks of _block_size on it, each
    block one draw of only the band's normals (_tangent_block).  Tangent
    k takes the k-th run of 4 M + 1 normals of the seed's stream, so the
    residuals do not depend on the block size.
    """
    count = tangent_count
    if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 1:
        raise ValueError(f"tangent_count must be an integer at least 1, got {tangent_count!r}")
    theory.check_lattice(point)
    lat = point.lattice
    rng = np.random.Generator(np.random.Philox(key=seed))
    oracle = WOracle(theory, check_points=0)
    (a0, a1), s = point.arrays, point.time
    sup = oracle._support((a0, a1), (s,), _band_pairs(lat, None)[0])
    form = oracle._form(sup, sup.take(a0), sup.take(a1), s)
    dw_derived = theory.dw(point, False, sup)
    dw_printed = theory.dw(point, True, sup)
    size = _block_size(sup)
    derived_gaps = []
    printed_gaps = []
    for start in range(0, count, size):
        index, d0, d1, ds = _tangent_block(lat, rng, min(size, count - start), oracle._s_scale)
        t = sup.place(index, d0), sup.place(index, d1), ds
        gap = form(*t)
        # np.max keeps a NaN, so each block's worst does
        derived_gaps.append(np.max(np.abs(gap - dw_derived(*t))))
        printed_gaps.append(np.max(np.abs(gap - dw_printed(*t))))
    return ThetaPullbackReport(
        theory=theory.name,
        oracle_residual=nan_max(derived_gaps),
        printed_residual=nan_max(printed_gaps),
    )
