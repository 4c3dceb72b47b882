"""Generalized Darboux coordinates on mode space, and the W coordinate.

For each theory the chart applies the inverse-flow rotation per mode, so
that along solutions the new coordinates (Phi-hat, P-hat) are constant
("the chart rectifies the flow") and the leftover motion is carried by
the scalar W.  W itself is treated as a derived function of
(phi-hat, p-hat, s), not an independent coordinate; that is the only
reading under which the transform is invertible.

Two W expressions are carried side by side:

* the derived closed form (default, used by the transforms), validated
  against the line-integral oracle below;
* the printed hypothesis formulas (``kg_w_printed``, ``schr_w_printed``),
  kept verbatim so the harness can measure how far they fall from
  satisfying the pullback identity.  Acceptance criterion 5 pins the
  printed KG density's gap to the oracle as exactly one extra momentum
  cross term; ``scripts/w_mismatch_report.py`` tabulates the measured
  gaps of both printed formulas.

The oracle recovers W from its defining property: the difference between
the contact one-form Theta and the transformed canonical one-form must
be exact, Theta - T = dW.  It evaluates that difference form directly
(via the analytic chart Jacobian), checks it is closed, and integrates
it from the base point (zero fields, s = 0) along straight segments.
The pullback check ``theta_pullback_residual`` compares the same form
with the analytic differential of the derived W over sampled tangents,
so its gated residual measures how far the chart's W is from the
oracle's potential, to rounding.

The form is evaluated on blocks: stacks of points (the quadrature nodes
of ``WOracle.value`` and ``WOracle.loop_integral``) or of tangents (the
pullback sweep), of at most BLOCK_COEFFS full-lattice mode coefficients
per stacked array.  Each block entry is bit-identical to evaluating it
alone, and the quadratures accumulate in node order, so no sum depends
on the block size.  The per-mode work runs on a support: the modes
where the evaluation's data are nonzero (a NaN counts), read from the
data of each call (a point, an edge's two end points, a point and a
tangent block), never assumed from a sampling band.  Each mode sum
scatters its compact values into zeros on the full lattice and sums
that, so every value is the one a full-lattice evaluation gives.

Conventions: the contact one-form is Theta = <p, dphi> - Hflow dt with
the flow Hamiltonian of the resolved ledger.  For Klein-Gordon,
Hflow = (1/2) L^d sum (|p-hat|^2 + omega^2 |phi-hat|^2), the positive
slice energy.  For Schrodinger, Theta = 2<phiI, dphiR> - Hflow dt with
Hflow = +(1/2) integral |grad psi|^2; this positive sign is the one
whose contact flow is the propagator exp(-i k^2 s / 2), and the only
one for which Theta - T is closed.  The printed (negative) sign is kept
behind the ``sign_ledger`` flag as a documented negative control: with
it the oracle's closedness precondition fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kg import KGConfig, KGState, kg_enforce_constraints
from .lattice import Lattice, ModeVector, dft, idft, mode_index_table, nan_max
from .schrodinger import SchrState, schr_enforce_constraints

__all__ = [
    "KGModeState",
    "KGDarbouxState",
    "SchrModeState",
    "SchrDarbouxState",
    "KGModeTangent",
    "SchrModeTangent",
    "kg_mode_state",
    "kg_slice_state",
    "schr_mode_state",
    "schr_slice_state",
    "kg_to_darboux",
    "kg_from_darboux",
    "schr_to_darboux",
    "schr_from_darboux",
    "kg_w_derived",
    "kg_w_printed",
    "schr_w_derived",
    "schr_w_printed",
    "WOracle",
    "WOracleClosednessError",
    "w_oracle",
    "ThetaPullbackReport",
    "theta_pullback_residual",
    "random_hermitian_modes",
]


# ---------------------------------------------------------------------------
# blocks and supports: the oracle's form evaluated on stacks of points or
# tangents, on the modes their data occupy

# full-lattice mode coefficients per stacked (block, *shape) array, 64 KB
# of complex numbers: it bounds the memory a block's temporaries take,
# whatever the lattice; 64 tangents or nodes at 1D n=64, one at 3D n=16
BLOCK_COEFFS = 4096


# Gauss panels one edge of WOracle.loop_integral may take.  An edge needs
# about 2 om_max |ds| of them, a few hundred for the harness's times at
# 1D n=64; the budget stops a huge finite time from asking for a number of
# panels no run could finish
LOOP_PANEL_BUDGET = 2**16


def _block_size(lattice: Lattice) -> int:
    return max(1, BLOCK_COEFFS // lattice.site_count)


def _mode_axes(lattice: Lattice) -> tuple[int, ...]:
    return tuple(range(-lattice.dim, 0))


class _Support:
    """The flat mode indices one evaluation works on (every mode by default).

    Per-mode arithmetic runs on compact (..., M) arrays, the columns
    ``index`` of (..., *shape) ones.  Sums go through ``_mode_sum``.
    """

    def __init__(self, lattice: Lattice, index: np.ndarray | None = None):
        self.lattice = lattice
        self.index = np.arange(lattice.site_count) if index is None else index

    def take(self, x: np.ndarray) -> np.ndarray:
        """(..., *shape) restricted to the support: (..., M)."""
        lead = x.shape[: x.ndim - self.lattice.dim]
        return x.reshape(lead + (self.lattice.site_count,)).take(self.index, axis=-1)

    def sum(self, x: np.ndarray):
        return _mode_sum(self.lattice, self.index, x)


def _mode_sum(lattice: Lattice, index: np.ndarray, x: np.ndarray):
    """Sum of compact per-mode values x (..., M) over the whole lattice,
    one value per leading block index.  x is scattered into zeros of
    shape (..., *shape), which np.sum reduces over the mode axes: off the
    support a full-lattice evaluation multiplies exact zeros, so this is
    the array it would sum, and the sum rounds alike."""
    lead = x.shape[:-1]
    full = np.zeros(lead + (lattice.site_count,), dtype=x.dtype)
    full[..., index] = x
    return np.sum(full.reshape(lead + lattice.shape), axis=_mode_axes(lattice))


def _col(x):
    """A per-block scalar of shape (B,) with a unit mode axis appended, so
    it broadcasts against compact (B, M) arrays; a plain scalar passes
    through."""
    return x if np.ndim(x) == 0 else np.reshape(x, np.shape(x) + (1,))


# ---------------------------------------------------------------------------
# mode-space state containers


@dataclass(frozen=True)
class KGModeState:
    phiHat: ModeVector
    pHat: ModeVector
    time: float = 0.0

    def __post_init__(self):
        if self.pHat.lattice != self.phiHat.lattice:
            raise ValueError("mode vectors live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.phiHat.lattice


@dataclass(frozen=True)
class KGDarbouxState:
    PhiHat: ModeVector
    PHat: ModeVector
    W: float
    time: float = 0.0

    def __post_init__(self):
        if self.PHat.lattice != self.PhiHat.lattice:
            raise ValueError("mode vectors live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.PhiHat.lattice


@dataclass(frozen=True)
class SchrModeState:
    phiRHat: ModeVector
    phiIHat: ModeVector
    time: float = 0.0

    def __post_init__(self):
        if self.phiIHat.lattice != self.phiRHat.lattice:
            raise ValueError("mode vectors live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.phiRHat.lattice


@dataclass(frozen=True)
class SchrDarbouxState:
    PhiRHat: ModeVector
    PhiIHat: ModeVector
    W: float
    time: float = 0.0

    def __post_init__(self):
        if self.PhiIHat.lattice != self.PhiRHat.lattice:
            raise ValueError("mode vectors live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.PhiRHat.lattice


@dataclass(frozen=True)
class KGModeTangent:
    """Tangent vector (dphi-hat, dp-hat, ds) at a KG mode point."""

    dphi: np.ndarray
    dp: np.ndarray
    ds: float = 0.0


@dataclass(frozen=True)
class SchrModeTangent:
    dphiR: np.ndarray
    dphiI: np.ndarray
    ds: float = 0.0


def kg_mode_state(state: KGState) -> KGModeState:
    return KGModeState(dft(state.phi), dft(state.p), time=state.time)


def kg_slice_state(m: KGModeState) -> KGState:
    return kg_enforce_constraints(idft(m.phiHat), idft(m.pHat), time=m.time)


def schr_mode_state(state: SchrState) -> SchrModeState:
    return SchrModeState(dft(state.phiR), dft(state.phiI), time=state.time)


def schr_slice_state(m: SchrModeState) -> SchrState:
    return schr_enforce_constraints(
        idft(m.phiRHat), idft(m.phiIHat), time=m.time
    )


def random_hermitian_modes(
    lattice: Lattice, rng: np.random.Generator, band: int | None = None
) -> np.ndarray:
    """Standard-normal mode coefficients on |m_j| <= band per axis,
    reality-symmetrized (so self-conjugate modes come out real)."""
    re = rng.standard_normal(lattice.site_count)
    im = rng.standard_normal(lattice.site_count)
    return _hermitian_band(lattice, band, re, im)


@lru_cache(maxsize=32)
def _band_pairs(lattice: Lattice, band: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the modes m with |m_j| <= band on every axis, and
    the position in that list of each conjugate -m (in the band too);
    read-only and cached per (lattice, band)."""
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


def _hermitian_band(lattice: Lattice, band: int | None, re: np.ndarray, im: np.ndarray):
    """Mode arrays z = re + i im, given flat as (..., N), cut to
    |m_j| <= band (n/4 by default) and reality-symmetrized: each band mode
    m gets (z[m] + conj(z[-m])) / 2, every other mode 0.  Returns
    (..., *lattice.shape)."""
    if band is None:
        band = lattice.n // 4
    index, pair = _band_pairs(lattice, band)
    z = re.take(index, axis=-1) + 1j * im.take(index, axis=-1)
    out = np.zeros(re.shape, dtype=z.dtype)
    out[..., index] = 0.5 * (z + np.conj(z.take(pair, axis=-1)))
    return out.reshape(re.shape[:-1] + lattice.shape)


def _tangent_block(lattice: Lattice, rng: np.random.Generator, count: int, s_scale: float):
    """count tangents as stacked (d0, d1, ds), shapes (count, *shape) and
    (count,).  One draw of count rows of 4 N + 1 normals is the same
    stream as count sequential (random_hermitian_modes,
    random_hermitian_modes, standard_normal()) triples."""
    n = lattice.site_count
    raw = rng.standard_normal((count, 4 * n + 1))
    re0, im0, re1, im1 = (raw[:, j * n : (j + 1) * n] for j in range(4))
    d0 = _hermitian_band(lattice, None, re0, im0)
    d1 = _hermitian_band(lattice, None, re1, im1)
    return d0, d1, raw[:, 4 * n] * s_scale


# ---------------------------------------------------------------------------
# the chart


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


def kg_to_darboux(m: KGModeState, cfg: KGConfig) -> KGDarbouxState:
    """Phi-hat = cos phi-hat - (sin/omega) p-hat, P-hat = cos p-hat
    + omega sin phi-hat; the massless zero mode uses the shear limit
    Phi0 = phi0 - s p0, P0 = p0.  W from the derived closed form."""
    c, sinc, om_sin = _kg_rotation(cfg.omega(), m.time)
    phi = m.phiHat.coefficients
    p = m.pHat.coefficients
    Phi = c * phi - sinc * p
    P = c * p + om_sin * phi
    lat = m.lattice
    return KGDarbouxState(
        PhiHat=ModeVector(lat, Phi),
        PHat=ModeVector(lat, P),
        W=kg_w_derived(m, cfg),
        time=m.time,
    )


def kg_from_darboux(d: KGDarbouxState, cfg: KGConfig) -> KGModeState:
    """Inverse rotation; W is discarded (it is a function of the rest)."""
    c, sinc, om_sin = _kg_rotation(cfg.omega(), d.time)
    Phi = d.PhiHat.coefficients
    P = d.PHat.coefficients
    phi = c * Phi + sinc * P
    p = c * P - om_sin * Phi
    lat = d.lattice
    return KGModeState(
        phiHat=ModeVector(lat, phi), pHat=ModeVector(lat, p), time=d.time
    )


def schr_to_darboux(m: SchrModeState, frame=None) -> SchrDarbouxState:
    if frame is not None:
        frame.require_rest_frame()
    theta = 0.5 * m.lattice.ksq() * m.time
    c, sg = np.cos(theta), np.sin(theta)
    a = m.phiRHat.coefficients
    b = m.phiIHat.coefficients
    A = c * a - sg * b
    B = c * b + sg * a
    lat = m.lattice
    return SchrDarbouxState(
        PhiRHat=ModeVector(lat, A),
        PhiIHat=ModeVector(lat, B),
        W=schr_w_derived(m),
        time=m.time,
    )


def schr_from_darboux(d: SchrDarbouxState, frame=None) -> SchrModeState:
    if frame is not None:
        frame.require_rest_frame()
    theta = 0.5 * d.lattice.ksq() * d.time
    c, sg = np.cos(theta), np.sin(theta)
    A = d.PhiRHat.coefficients
    B = d.PhiIHat.coefficients
    a = c * A + sg * B
    b = c * B - sg * A
    lat = d.lattice
    return SchrModeState(
        phiRHat=ModeVector(lat, a), phiIHat=ModeVector(lat, b), time=d.time
    )


# ---------------------------------------------------------------------------
# W: derived closed forms and printed hypotheses


def _measure(lat: Lattice) -> float:
    """Dual-lattice measure: L^dim per mode (Parseval convention)."""
    return lat.volume


def _kg_w_terms(om: np.ndarray, s: float, phi: np.ndarray, p: np.ndarray):
    """Per-mode pieces of the KG W closed forms at the time s, for the
    frequencies om and fields on the lattice or a support: cos(omega s),
    sin(omega s), sin cos / (2 omega) (s/2 at omega = 0),
    |p|^2 - omega^2 |phi|^2 and Re(p conj(phi))."""
    zero = om == 0.0
    om_safe = np.where(zero, 1.0, om)
    c = np.cos(om * s)
    sg = np.sin(om * s)
    half_sc_over_om = np.where(zero, 0.5 * s, 0.5 * sg * c / om_safe)
    quad = np.abs(p) ** 2 - om**2 * np.abs(phi) ** 2
    cross = np.real(p * np.conj(phi))
    return c, sg, half_sc_over_om, quad, cross


def _kg_w(m: KGModeState, cfg: KGConfig, cross_coeff: float) -> float:
    _, sg, half_sc_over_om, quad, cross = _kg_w_terms(
        cfg.omega(), m.time, m.phiHat.coefficients, m.pHat.coefficients
    )
    per_mode = quad * half_sc_over_om + cross_coeff * cross * sg**2
    return _measure(m.lattice) * float(np.sum(per_mode))


def kg_w_derived(m: KGModeState, cfg: KGConfig) -> float:
    """Per-mode closed form of the line-integral W.

    Equal to (1/2)(<p, phi> - <P-hat, Phi-hat>) with the real Parseval
    pairing; the omega -> 0 mode contributes (s/2)|p0|^2.
    """
    return _kg_w(m, cfg, 1.0)


def kg_w_printed(m: KGModeState, cfg: KGConfig) -> float:
    """The printed W hypothesis: same quadratic term, doubled cross term."""
    return _kg_w(m, cfg, 2.0)


def _kg_w_differential(
    m: KGModeState, cfg: KGConfig, cross_coeff: float, support: _Support | None = None
):
    """The differential at m of the KG W closed form with the given cross
    coefficient (1 derived, 2 printed), as a function of tangents
    (dphi, dp, ds), single or stacked.  Its per-mode work runs on the
    support (every mode by default), which must hold every mode where m
    or a tangent is nonzero.  The factors that depend on m alone are
    computed here, once."""
    sup = _Support(m.lattice) if support is None else support
    om = sup.take(cfg.omega())
    phi = sup.take(m.phiHat.coefficients)
    p = sup.take(m.pHat.coefficients)
    c, sg, half_sc_over_om, quad, cross = _kg_w_terms(om, m.time, phi, p)
    conj_phi, conj_p = np.conj(phi), np.conj(p)
    two_om2 = om**2 * 2.0
    sg2 = sg**2
    # s-derivatives: d(sin cos / (2 omega)) = (cos^2 - sin^2)/2 ds;
    # d(sin^2) = 2 sin cos omega ds
    quad_rate = quad * 0.5 * (c**2 - sg**2)
    cross_rate = cross_coeff * cross * 2.0 * sg * c * om

    def dw(dphi, dp, ds):
        dphi, dp = sup.take(dphi), sup.take(dp)
        d_quad = 2.0 * np.real(conj_p * dp) - two_om2 * np.real(conj_phi * dphi)
        d_cross = np.real(dp * conj_phi) + np.real(p * np.conj(dphi))
        ds = _col(ds)
        d_per = (
            d_quad * half_sc_over_om
            + quad_rate * ds
            + cross_coeff * d_cross * sg2
            + cross_rate * ds
        )
        return _measure(m.lattice) * sup.sum(d_per)

    return dw


def schr_w_derived(m: SchrModeState) -> float:
    """Closed-form W = <phiR, phiI> - <PhiR, PhiI> (real Parseval pairing)."""
    ksq = m.lattice.ksq()
    s = m.time
    theta = 0.5 * ksq * s
    c, sg = np.cos(theta), np.sin(theta)
    a = m.phiRHat.coefficients
    b = m.phiIHat.coefficients
    per_mode = sg**2 * 2.0 * np.real(a * np.conj(b)) - sg * c * (
        np.abs(a) ** 2 - np.abs(b) ** 2
    )
    return _measure(m.lattice) * float(np.sum(per_mode))


def schr_w_printed(d: SchrDarbouxState) -> float:
    """The printed W hypothesis, stated in the capital coordinates."""
    ksq = d.lattice.ksq()
    s = d.time
    A = d.PhiRHat.coefficients
    B = d.PhiIHat.coefficients
    per_mode = 0.5 * np.sin(ksq * s) * (np.abs(A) ** 2 - np.abs(B) ** 2) + 2.0 * np.real(
        A * np.conj(B)
    ) * np.sin(0.5 * ksq * s)
    return _measure(d.lattice) * float(np.sum(per_mode))


def _schr_chart(ksq: np.ndarray, a, b, s):
    """cos and sin of the chart angle k^2 s / 2, the capital coordinate
    PhiI-hat = cos b + sin a and the s-rate 0.5 k^2 (-sin a - cos b) of
    PhiR-hat, at points (a, b, s), single or stacked, for the k^2 and
    fields on the lattice or a support."""
    theta = 0.5 * ksq * _col(s)
    c, sg = np.cos(theta), np.sin(theta)
    return c, sg, c * b + sg * a, 0.5 * ksq * (-sg * a - c * b)


def _schr_w_derived_differential(m: SchrModeState, support: _Support | None = None):
    """The differential at m of schr_w_derived, as a function of tangents
    (dphiR, dphiI, ds), single or stacked, with its per-mode work on the
    support as in _kg_w_differential: with r = 2 Re(a conj b) and
    q = |a|^2 - |b|^2 per mode, d(sin^2 r - sin cos q) = k^2 sin cos r ds
    + sin^2 dr - (k^2/2)(cos^2 - sin^2) q ds - sin cos dq."""
    sup = _Support(m.lattice) if support is None else support
    ksq = sup.take(m.lattice.ksq())
    theta = 0.5 * ksq * m.time
    c, sg = np.cos(theta), np.sin(theta)
    a = sup.take(m.phiRHat.coefficients)
    b = sup.take(m.phiIHat.coefficients)
    conj_a, conj_b = np.conj(a), np.conj(b)
    sg2, sc = sg**2, sg * c
    rate = ksq * sc * 2.0 * np.real(a * conj_b) - 0.5 * ksq * (c**2 - sg2) * (
        np.abs(a) ** 2 - np.abs(b) ** 2
    )

    def dw(da, db, ds):
        da, db = sup.take(da), sup.take(db)
        dr = 2.0 * np.real(da * conj_b + a * np.conj(db))
        dq = 2.0 * np.real(conj_a * da) - 2.0 * np.real(conj_b * db)
        d_per = rate * _col(ds) + sg2 * dr - sc * dq
        return _measure(m.lattice) * sup.sum(d_per)

    return dw


def _schr_w_printed_differential(m: SchrModeState, support: _Support | None = None):
    """The differential at m of the printed W, chain-ruled through the
    chart, as a function of tangents (dphiR, dphiI, ds), single or
    stacked, with its per-mode work on the support as in
    _kg_w_differential.  The factors that depend on m alone are computed
    here, once."""
    sup = _Support(m.lattice) if support is None else support
    ksq = sup.take(m.lattice.ksq())
    s = m.time
    a = sup.take(m.phiRHat.coefficients)
    b = sup.take(m.phiIHat.coefficients)
    c, sg, B, rate_A = _schr_chart(ksq, a, b, s)
    A = c * a - sg * b
    rate_B = 0.5 * ksq * (-sg * b + c * a)
    conj_A, conj_B = np.conj(A), np.conj(B)
    cos_rate = 0.5 * ksq * np.cos(ksq * s)
    quad = np.abs(A) ** 2 - np.abs(B) ** 2
    half_sin = 0.5 * np.sin(ksq * s)
    cross_rate = 2.0 * np.real(A * conj_B) * 0.5 * ksq * c

    def dw(da, db, ds):
        da, db = sup.take(da), sup.take(db)
        ds = _col(ds)
        dA = c * da - sg * db + rate_A * ds
        dB = c * db + sg * da + rate_B * ds
        d_per = (
            cos_rate * ds * quad
            + half_sin * (2.0 * np.real(conj_A * dA) - 2.0 * np.real(conj_B * dB))
            + 2.0 * np.real(dA * conj_B + A * np.conj(dB)) * sg
            + cross_rate * ds
        )
        return _measure(m.lattice) * sup.sum(d_per)

    return dw


# ---------------------------------------------------------------------------
# one-forms: Theta, the transformed canonical form, and their difference
#
# Points (a0, a1, s) are (phi-hat, p-hat, s) for Klein-Gordon and
# (phiR-hat, phiI-hat, s) for Schrodinger, tangents (d0, d1, ds) alike.
# Either may be stacked: fields (B, ...) with times (B,); every sum runs
# over the mode axis only, so a stack gives one value per block index,
# each bit-identical to evaluating that index alone.  Points come as
# compact fields on a support, tangents in the lattice layout.


def _pairing(sup: _Support, x: np.ndarray, dy: np.ndarray):
    """<x, dy> = L^d Re sum_k x[k] conj(dy[k]), the real Parseval pairing
    of compact fields."""
    return _measure(sup.lattice) * np.real(sup.sum(x * np.conj(dy)))


def _kg_hflow(cfg: KGConfig, sup: _Support, om, phi, p, sign_ledger: str):
    om2 = om**2
    if sign_ledger == "paper-printed":
        om2 = om2 - 2.0 * cfg.mass**2  # k^2 - m^2: the printed mass sign
    return 0.5 * _measure(sup.lattice) * sup.sum(np.abs(p) ** 2 + om2 * np.abs(phi) ** 2)


def _schr_hflow(sup: _Support, ksq, a, b, sign_ledger: str):
    val = 0.5 * _measure(sup.lattice) * sup.sum(ksq * (np.abs(a) ** 2 + np.abs(b) ** 2))
    return -val if sign_ledger == "paper-printed" else val


def _difference_form(theory: str, cfg, sup: _Support, a0, a1, s, sign_ledger: str):
    """Theta - canonical at the points (a0, a1, s), compact on sup, as a
    function of the tangents (d0, d1, ds); sup must hold every mode
    where a point or a tangent is nonzero.

    Both theories share one contraction: Theta = w <a1, d0> - Hflow ds
    and canonical = w <M, c d0 - r d1 + v ds>, with pairing weight w
    (1 for KG, 2 for Schrodinger), M the chart's second coordinate
    (P-hat; PhiI-hat), c and r the chart's cos and sin/omega (sin for
    Schrodinger) and v the s-rate of its first coordinate.  The factors
    that depend on the points alone are computed here, once.
    """
    if theory == "kg":
        weight = 1.0
        om = sup.take(cfg.omega())
        c, r, om_sin = _kg_rotation(om, s)
        moment = c * a1 + om_sin * a0
        rate = -om_sin * a0 - c * a1
        hflow = _kg_hflow(cfg, sup, om, a0, a1, sign_ledger)
    else:
        weight = 2.0
        ksq = sup.take(cfg.ksq())
        c, r, moment, rate = _schr_chart(ksq, a0, a1, s)
        hflow = _schr_hflow(sup, ksq, a0, a1, sign_ledger)

    def form(d0, d1, ds):
        d0, d1 = sup.take(d0), sup.take(d1)
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
    non-closed form.
    """

    def __init__(
        self,
        theory: str,
        cfg,
        sign_ledger: str = "resolved",
        seed: int = 1337,
        check_points: int = 4,
        tol: float = 1e-8,
    ):
        if theory not in ("kg", "schrodinger"):
            raise ValueError(f"unknown theory {theory!r}")
        if sign_ledger not in ("resolved", "paper-printed"):
            raise ValueError(f"unknown sign_ledger {sign_ledger!r}")
        self.theory = theory
        self.cfg = cfg
        self.sign_ledger = sign_ledger
        self.lattice = cfg.lattice if theory == "kg" else cfg
        # one plus the form's top oscillation frequency in s (2 omega for
        # the rotation quadratics; k^2 for Schrodinger)
        if theory == "kg":
            self._top = 1.0 + 2.0 * float(np.max(cfg.omega()))
        else:
            self._top = 1.0 + float(np.max(self.lattice.ksq()))
        if check_points > 0:
            worst = self._closedness_sweep(seed, check_points)
            if not worst <= tol:
                raise WOracleClosednessError(
                    f"difference form is not closed (residual {worst:.3e} > "
                    f"{tol:.1e}); the sign ledger upstream is inconsistent "
                    f"(theory={theory}, sign_ledger={sign_ledger})"
                )

    # -- evaluation ------------------------------------------------------

    def _support(self, fields, times) -> _Support:
        """The modes where some of the fields (single or stacked) is
        nonzero, a NaN included; every mode when a time times the top
        frequency is not finite, since the chart's factors are then NaN
        where the fields vanish too."""
        if not all(np.all(np.isfinite(np.multiply(t, self._top))) for t in times):
            return _Support(self.lattice)
        n = self.lattice.site_count
        hit = np.zeros(n, dtype=bool)
        for a in fields:
            hit |= np.logical_or.reduce(np.reshape(a, (-1, n)), axis=0)
        return _Support(self.lattice, np.flatnonzero(hit))

    def _form(self, sup: _Support, a0, a1, s):
        """The difference form at points (a0, a1, s), compact on sup,
        single or stacked."""
        return _difference_form(self.theory, self.cfg, sup, a0, a1, s, self.sign_ledger)

    def _point(self, a0, a1, time: float):
        state = KGModeState if self.theory == "kg" else SchrModeState
        return state(ModeVector(self.lattice, a0), ModeVector(self.lattice, a1), time=time)

    def _blocks(self, u: np.ndarray, evaluate):
        """evaluate(u_block) over the nodes u in blocks of _block_size,
        yielding one value per node, in order."""
        size = _block_size(self.lattice)
        for i in range(0, len(u), size):
            yield from evaluate(u[i : i + size])

    def differential(self, point, tangent) -> float:
        """(Theta - canonical) contracted with the tangent."""
        a0, a1, s = _coords(point)
        d0, d1, ds = _tangent_coords(tangent)
        sup = self._support((a0, a1, d0, d1), (s, ds))
        return float(self._form(sup, sup.take(a0), sup.take(a1), s)(d0, d1, ds))

    def value(self, point, order: int = 8) -> float:
        """Line integral of the difference form from (0 fields, s = 0).

        Segment one raises s at zero fields (the integrand vanishes there
        but is integrated honestly); segment two is radial in the fields
        at the target time.  Quadrature nodes are evaluated in blocks, on
        the point's support.
        """
        nodes, weights = np.polynomial.legendre.leggauss(order)
        u = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        a0, a1, s_target = _coords(point)
        sup = self._support((a0, a1), (s_target,))
        zeros = np.zeros_like(a0)
        c0, c1 = sup.take(a0), sup.take(a1)
        cz = np.zeros_like(c0)
        rise = self._blocks(
            u, lambda ub: self._form(sup, cz, cz, ub * s_target)(zeros, zeros, 1.0)
        )
        radial = self._blocks(
            u,
            lambda ub: self._form(sup, _col(ub) * c0, _col(ub) * c1, s_target)(a0, a1, 0.0),
        )
        total = 0.0
        for wi, v in zip(w, rise):
            total += wi * s_target * v
        for wi, v in zip(w, radial):
            total += wi * v
        return total

    # -- checks ----------------------------------------------------------

    def _displace(self, point, tangent, eps: float):
        a0, a1, s = _coords(point)
        d0, d1, ds = _tangent_coords(tangent)
        return self._point(a0 + eps * d0, a1 + eps * d1, s + eps * ds)

    def closedness_residual(self, point, tx, ty, eps: float = 1e-3) -> float:
        """Finite-difference antisymmetrized derivative d(Theta - T)(X, Y).

        The difference form is linear in the field coordinates, so the
        finite difference is exact there; only the s direction carries
        truncation error.  A fourth-order stencil keeps that error near
        the roundoff floor provided tangent ds components are scaled to
        the form's oscillation frequency (see _s_scale).
        """

        def deriv(ta, tb):
            f = lambda e: self.differential(self._displace(point, ta, e), tb)
            return (-f(2 * eps) + 8 * f(eps) - 8 * f(-eps) + f(-2 * eps)) / (12 * eps)

        return abs(deriv(tx, ty) - deriv(ty, tx))

    def _s_scale(self) -> float:
        """Reciprocal of one plus the form's top oscillation frequency in s."""
        return 1.0 / self._top

    def _random_point_and_tangents(self, rng):
        """A point and two (d0, d1, ds) tangents, drawn in that order."""
        lat = self.lattice
        s0 = float(rng.uniform(-2.0, 2.0))
        point = self._point(
            random_hermitian_modes(lat, rng), random_hermitian_modes(lat, rng), s0
        )
        tx, ty = zip(*_tangent_block(lat, rng, 2, self._s_scale()))
        return point, tx, ty

    def _closedness_sweep(self, seed: int, count: int) -> float:
        rng = np.random.Generator(np.random.Philox(key=seed))
        residuals = []
        for _ in range(count):
            point, tx, ty = self._random_point_and_tangents(rng)
            scale = 1.0 + self._point_scale(point) ** 2
            residuals.append(self.closedness_residual(point, tx, ty) / scale)
        return nan_max(residuals)

    def _point_scale(self, point) -> float:
        return max(float(np.max(np.abs(a))) for a in _coords(point)[:2])

    def loop_integral(self, p1, p2, p3, order: int = 8) -> float:
        """Circulation of the difference form around the triangle
        p1 -> p2 -> p3 -> p1 (straight segments); closedness makes it
        vanish.  Panel count grows with the oscillation scale along each
        edge so the quadrature error stays below the assertion floor.
        Each edge's quadrature nodes are evaluated in blocks, on the
        support of its two end points.

        A time that is not finite gives NaN, as it does for ``value``; an
        edge that would need more than LOOP_PANEL_BUDGET panels raises
        ValueError.
        """
        nodes, weights = np.polynomial.legendre.leggauss(order)
        om_max = float(np.max(np.sqrt(self.lattice.ksq())))
        if self.theory == "kg":
            om_max = float(np.max(self.cfg.omega()))
        if not all(np.isfinite(_coords(p)[2]) for p in (p1, p2, p3)):
            return float("nan")
        total = 0.0
        for a, b in ((p1, p2), (p2, p3), (p3, p1)):
            a0, a1, sa = _coords(a)
            b0, b1, sb = _coords(b)
            need = np.ceil(2.0 * om_max * abs(sb - sa)) + 1
            if need > LOOP_PANEL_BUDGET:
                raise ValueError(
                    f"loop_integral edge from s={float(sa)!r} to s={float(sb)!r} needs "
                    f"{need:.3g} panels, over the budget of {LOOP_PANEL_BUDGET}"
                )
            panels = max(4, int(need))
            tangent = (b0 - a0, b1 - a1, sb - sa)
            sup = self._support((a0, a1, b0, b1), (sa, sb, sb - sa))
            a0, a1, b0, b1 = (sup.take(x) for x in (a0, a1, b0, b1))
            u, w = [], []
            for j in range(panels):
                lo = j / panels
                hi = (j + 1) / panels
                u.append(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
                w.append(0.5 * (hi - lo) * weights)

            def on_edge(ub):
                left, right = _col(1 - ub), _col(ub)
                form = self._form(
                    sup, left * a0 + right * b0, left * a1 + right * b1, (1 - ub) * sa + ub * sb
                )
                return form(*tangent)

            for wi, v in zip(np.concatenate(w), self._blocks(np.concatenate(u), on_edge)):
                total += wi * v
        return total


def _coords(point):
    """(a0, a1, s) of a KG or Schrodinger mode point."""
    if isinstance(point, KGModeState):
        return point.phiHat.coefficients, point.pHat.coefficients, point.time
    return point.phiRHat.coefficients, point.phiIHat.coefficients, point.time


def _tangent_coords(tangent):
    """(d0, d1, ds) of a KG or Schrodinger mode tangent; a (d0, d1, ds)
    triple passes through."""
    if isinstance(tangent, KGModeTangent):
        return tangent.dphi, tangent.dp, tangent.ds
    if isinstance(tangent, SchrModeTangent):
        return tangent.dphiR, tangent.dphiI, tangent.ds
    return tangent


def w_oracle(theory: str, cfg, sign_ledger: str = "resolved", **kwargs) -> WOracle:
    """Build the line-integral W oracle; see :class:`WOracle`."""
    return WOracle(theory, cfg, sign_ledger=sign_ledger, **kwargs)


# ---------------------------------------------------------------------------
# the pullback identity


def theta_pullback_residual(
    theory: str,
    point,
    cfg=None,
    tangent_count: int = 100,
    seed: int = 2024,
) -> ThetaPullbackReport:
    """Check Theta = canonical + dW at one point over sampled tangents.

    Theta - canonical comes from the contact form and the chart Jacobian
    (the oracle's difference form); dW is the analytic differential of a
    W closed form.  Runs twice: with the chart's derived W, whose sup
    mismatch is ``oracle_residual`` (a gate: the derived W must be the
    oracle's potential), and with the printed W hypothesis, whose sup
    mismatch is ``printed_residual``.  The printed Schrodinger W is known
    not to satisfy the identity; its residual is a measurement, not a
    failure.  Tangents are drawn and evaluated in blocks, each on the
    support of the point and the block.
    """
    lat = point.lattice
    rng = np.random.Generator(np.random.Philox(key=seed))
    oracle = WOracle(theory, cfg if theory == "kg" else lat, check_points=0)
    s_scale = oracle._s_scale()
    a0, a1, s = _coords(point)
    size = _block_size(lat)
    sup = None
    derived_gaps = []
    printed_gaps = []
    for start in range(0, tangent_count, size):
        t = _tangent_block(lat, rng, min(size, tangent_count - start), s_scale)
        block = oracle._support((a0, a1, t[0], t[1]), (s, t[2]))
        if sup is None or not np.array_equal(block.index, sup.index):
            # the factors that depend on the point alone, on this support
            sup = block
            form = oracle._form(sup, sup.take(a0), sup.take(a1), s)
            if theory == "kg":
                dw_derived = _kg_w_differential(point, cfg, 1.0, sup)
                dw_printed = _kg_w_differential(point, cfg, 2.0, sup)
            else:
                dw_derived = _schr_w_derived_differential(point, sup)
                dw_printed = _schr_w_printed_differential(point, sup)
        gap = form(*t)
        # np.max keeps a NaN, so each block's worst does
        derived_gaps.append(np.max(np.abs(gap - dw_derived(*t))))
        printed_gaps.append(np.max(np.abs(gap - dw_printed(*t))))
    return ThetaPullbackReport(
        theory=theory,
        oracle_residual=nan_max(derived_gaps),
        printed_residual=nan_max(printed_gaps),
    )
