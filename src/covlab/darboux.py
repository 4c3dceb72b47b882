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

import numpy as np

from .kg import KGConfig, KGState, kg_enforce_constraints
from .lattice import Lattice, ModeVector, ScalarField, dft, idft, nan_max
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
    if band is None:
        band = lattice.n // 4
    arr = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
    m1 = np.fft.fftfreq(lattice.n, 1.0 / lattice.n).astype(int)
    mask = np.ones(lattice.shape, dtype=bool)
    for axis in range(lattice.dim):
        mg = np.moveaxis(np.broadcast_to(m1, lattice.shape), lattice.dim - 1, axis)
        mask &= np.abs(mg) <= band
    arr = np.where(mask, arr, 0.0)
    reflected = np.conj(arr)
    for axis in range(lattice.dim):
        reflected = np.roll(np.flip(reflected, axis=axis), 1, axis=axis)
    return 0.5 * (arr + reflected)


# ---------------------------------------------------------------------------
# the chart


def _kg_rotation(cfg: KGConfig, s: float):
    """(cos(omega s), sin(omega s)/omega, omega sin(omega s)) with the
    omega -> 0 limits (1, s, 0)."""
    om = cfg.omega()
    zero = om == 0.0
    om_safe = np.where(zero, 1.0, om)
    c = np.cos(om * s)
    sinc = np.where(zero, s, np.sin(om * s) / om_safe)
    om_sin = om * np.sin(om * s)
    return c, sinc, om_sin


def kg_to_darboux(m: KGModeState, cfg: KGConfig) -> KGDarbouxState:
    """Phi-hat = cos phi-hat - (sin/omega) p-hat, P-hat = cos p-hat
    + omega sin phi-hat; the massless zero mode uses the shear limit
    Phi0 = phi0 - s p0, P0 = p0.  W from the derived closed form."""
    c, sinc, om_sin = _kg_rotation(cfg, m.time)
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
    c, sinc, om_sin = _kg_rotation(cfg, d.time)
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


def _kg_w_terms(m: KGModeState, cfg: KGConfig):
    """Per-mode pieces of the KG W closed forms at the state's time s:
    omega, cos(omega s), sin(omega s), sin cos / (2 omega) (s/2 at
    omega = 0), |p|^2 - omega^2 |phi|^2 and Re(p conj(phi))."""
    om = cfg.omega()
    s = m.time
    phi = m.phiHat.coefficients
    p = m.pHat.coefficients
    zero = om == 0.0
    om_safe = np.where(zero, 1.0, om)
    c = np.cos(om * s)
    sg = np.sin(om * s)
    half_sc_over_om = np.where(zero, 0.5 * s, 0.5 * sg * c / om_safe)
    quad = np.abs(p) ** 2 - om**2 * np.abs(phi) ** 2
    cross = np.real(p * np.conj(phi))
    return om, c, sg, half_sc_over_om, quad, cross


def _kg_w(m: KGModeState, cfg: KGConfig, cross_coeff: float) -> float:
    _, _, sg, half_sc_over_om, quad, cross = _kg_w_terms(m, cfg)
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


def _kg_w_printed_differential(m: KGModeState, cfg: KGConfig, t: KGModeTangent) -> float:
    om, c, sg, half_sc_over_om, quad, cross = _kg_w_terms(m, cfg)
    phi = m.phiHat.coefficients
    p = m.pHat.coefficients
    d_quad = 2.0 * np.real(np.conj(p) * t.dp) - om**2 * 2.0 * np.real(
        np.conj(phi) * t.dphi
    )
    d_cross = np.real(t.dp * np.conj(phi)) + np.real(p * np.conj(t.dphi))
    # s-derivatives: d(sin cos / (2 omega)) = (cos^2 - sin^2)/2 ds;
    # d(sin^2) = 2 sin cos omega ds
    d_per = (
        d_quad * half_sc_over_om
        + quad * 0.5 * (c**2 - sg**2) * t.ds
        + 2.0 * d_cross * sg**2
        + 2.0 * cross * 2.0 * sg * c * om * t.ds
    )
    return _measure(m.lattice) * float(np.sum(d_per))


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


def _schr_w_printed_differential(m: SchrModeState, t: SchrModeTangent) -> float:
    """Differential of the printed W, chain-ruled through the chart."""
    ksq = m.lattice.ksq()
    s = m.time
    theta = 0.5 * ksq * s
    c, sg = np.cos(theta), np.sin(theta)
    a = m.phiRHat.coefficients
    b = m.phiIHat.coefficients
    A = c * a - sg * b
    B = c * b + sg * a
    dA = c * t.dphiR - sg * t.dphiI + 0.5 * ksq * (-sg * a - c * b) * t.ds
    dB = c * t.dphiI + sg * t.dphiR + 0.5 * ksq * (-sg * b + c * a) * t.ds
    d_per = (
        0.5 * ksq * np.cos(ksq * s) * t.ds * (np.abs(A) ** 2 - np.abs(B) ** 2)
        + 0.5 * np.sin(ksq * s) * (2.0 * np.real(np.conj(A) * dA) - 2.0 * np.real(np.conj(B) * dB))
        + 2.0 * np.real(dA * np.conj(B) + A * np.conj(dB)) * sg
        + 2.0 * np.real(A * np.conj(B)) * 0.5 * ksq * c * t.ds
    )
    return _measure(m.lattice) * float(np.sum(d_per))


# ---------------------------------------------------------------------------
# one-forms: Theta, the transformed canonical form, and their difference


def _pairing(lat: Lattice, x: np.ndarray, dy: np.ndarray) -> float:
    """<x, dy> = L^d Re sum_k x[k] conj(dy[k]), the real Parseval pairing."""
    return _measure(lat) * float(np.real(np.sum(x * np.conj(dy))))


def _kg_hflow(m: KGModeState, cfg: KGConfig, sign_ledger: str) -> float:
    om2 = cfg.omega() ** 2
    if sign_ledger == "paper-printed":
        om2 = om2 - 2.0 * cfg.mass**2  # k^2 - m^2: the printed mass sign
    phi = m.phiHat.coefficients
    p = m.pHat.coefficients
    return 0.5 * _measure(m.lattice) * float(
        np.sum(np.abs(p) ** 2 + om2 * np.abs(phi) ** 2)
    )


def _kg_theta(m: KGModeState, cfg: KGConfig, t: KGModeTangent, sign_ledger: str) -> float:
    return _pairing(m.lattice, m.pHat.coefficients, t.dphi) - _kg_hflow(
        m, cfg, sign_ledger
    ) * t.ds


def _kg_canonical(m: KGModeState, cfg: KGConfig, t: KGModeTangent) -> float:
    """<P-hat, d Phi-hat> with the analytic chart Jacobian."""
    c, sinc, om_sin = _kg_rotation(cfg, m.time)
    phi = m.phiHat.coefficients
    p = m.pHat.coefficients
    P = c * p + om_sin * phi
    dPhi = c * t.dphi - sinc * t.dp + (-om_sin * phi - c * p) * t.ds
    return _pairing(m.lattice, P, dPhi)


def _schr_hflow(m: SchrModeState, sign_ledger: str) -> float:
    ksq = m.lattice.ksq()
    a = m.phiRHat.coefficients
    b = m.phiIHat.coefficients
    val = 0.5 * _measure(m.lattice) * float(
        np.sum(ksq * (np.abs(a) ** 2 + np.abs(b) ** 2))
    )
    return -val if sign_ledger == "paper-printed" else val


def _schr_theta(m: SchrModeState, t: SchrModeTangent, sign_ledger: str) -> float:
    return 2.0 * _pairing(
        m.lattice, m.phiIHat.coefficients, t.dphiR
    ) - _schr_hflow(m, sign_ledger) * t.ds


def _schr_canonical(m: SchrModeState, t: SchrModeTangent) -> float:
    ksq = m.lattice.ksq()
    theta = 0.5 * ksq * m.time
    c, sg = np.cos(theta), np.sin(theta)
    a = m.phiRHat.coefficients
    b = m.phiIHat.coefficients
    B = c * b + sg * a
    dA = c * t.dphiR - sg * t.dphiI + 0.5 * ksq * (-sg * a - c * b) * t.ds
    return 2.0 * _pairing(m.lattice, B, dA)


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
        if check_points > 0:
            worst = self._closedness_sweep(seed, check_points)
            if not worst <= tol:
                raise WOracleClosednessError(
                    f"difference form is not closed (residual {worst:.3e} > "
                    f"{tol:.1e}); the sign ledger upstream is inconsistent "
                    f"(theory={theory}, sign_ledger={sign_ledger})"
                )

    # -- evaluation ------------------------------------------------------

    def differential(self, point, tangent) -> float:
        """(Theta - canonical) contracted with the tangent."""
        if self.theory == "kg":
            return _kg_theta(point, self.cfg, tangent, self.sign_ledger) - _kg_canonical(
                point, self.cfg, tangent
            )
        return _schr_theta(point, tangent, self.sign_ledger) - _schr_canonical(
            point, tangent
        )

    def value(self, point, order: int = 8) -> float:
        """Line integral of the difference form from (0 fields, s = 0).

        Segment one raises s at zero fields (the integrand vanishes there
        but is integrated honestly); segment two is radial in the fields
        at the target time.
        """
        nodes, weights = np.polynomial.legendre.leggauss(order)
        u = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        s_target = point.time
        total = 0.0
        if self.theory == "kg":
            phi = point.phiHat.coefficients
            p = point.pHat.coefficients
            zeros = np.zeros_like(phi)
            lat = point.lattice
            for ui, wi in zip(u, w):
                mid = KGModeState(
                    ModeVector(lat, zeros), ModeVector(lat, zeros), time=ui * s_target
                )
                total += wi * s_target * self.differential(
                    mid, KGModeTangent(zeros, zeros, 1.0)
                )
            for ui, wi in zip(u, w):
                mid = KGModeState(
                    ModeVector(lat, ui * phi), ModeVector(lat, ui * p), time=s_target
                )
                total += wi * self.differential(mid, KGModeTangent(phi, p, 0.0))
            return total
        a = point.phiRHat.coefficients
        b = point.phiIHat.coefficients
        zeros = np.zeros_like(a)
        lat = point.lattice
        for ui, wi in zip(u, w):
            mid = SchrModeState(
                ModeVector(lat, zeros), ModeVector(lat, zeros), time=ui * s_target
            )
            total += wi * s_target * self.differential(
                mid, SchrModeTangent(zeros, zeros, 1.0)
            )
        for ui, wi in zip(u, w):
            mid = SchrModeState(
                ModeVector(lat, ui * a), ModeVector(lat, ui * b), time=s_target
            )
            total += wi * self.differential(mid, SchrModeTangent(a, b, 0.0))
        return total

    # -- checks ----------------------------------------------------------

    def _displace(self, point, tangent, eps: float):
        if self.theory == "kg":
            lat = point.lattice
            return KGModeState(
                ModeVector(lat, point.phiHat.coefficients + eps * tangent.dphi),
                ModeVector(lat, point.pHat.coefficients + eps * tangent.dp),
                time=point.time + eps * tangent.ds,
            )
        lat = point.lattice
        return SchrModeState(
            ModeVector(lat, point.phiRHat.coefficients + eps * tangent.dphiR),
            ModeVector(lat, point.phiIHat.coefficients + eps * tangent.dphiI),
            time=point.time + eps * tangent.ds,
        )

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
        """Reciprocal of the form's top oscillation frequency in s
        (2 omega for the rotation quadratics; k^2 for Schrodinger)."""
        if self.theory == "kg":
            return 1.0 / (1.0 + 2.0 * float(np.max(self.cfg.omega())))
        return 1.0 / (1.0 + float(np.max(self.lattice.ksq())))

    def _random_point_and_tangents(self, rng):
        lat = self.lattice
        s_scale = self._s_scale()

        def tangent():
            if self.theory == "kg":
                return KGModeTangent(
                    random_hermitian_modes(lat, rng),
                    random_hermitian_modes(lat, rng),
                    float(rng.standard_normal()) * s_scale,
                )
            return SchrModeTangent(
                random_hermitian_modes(lat, rng),
                random_hermitian_modes(lat, rng),
                float(rng.standard_normal()) * s_scale,
            )

        s0 = float(rng.uniform(-2.0, 2.0))
        if self.theory == "kg":
            point = KGModeState(
                ModeVector(lat, random_hermitian_modes(lat, rng)),
                ModeVector(lat, random_hermitian_modes(lat, rng)),
                time=s0,
            )
        else:
            point = SchrModeState(
                ModeVector(lat, random_hermitian_modes(lat, rng)),
                ModeVector(lat, random_hermitian_modes(lat, rng)),
                time=s0,
            )
        return point, tangent(), tangent()

    def _closedness_sweep(self, seed: int, count: int) -> float:
        rng = np.random.Generator(np.random.Philox(key=seed))
        residuals = []
        for _ in range(count):
            point, tx, ty = self._random_point_and_tangents(rng)
            scale = 1.0 + self._point_scale(point) ** 2
            residuals.append(self.closedness_residual(point, tx, ty) / scale)
        return nan_max(residuals)

    def _point_scale(self, point) -> float:
        if self.theory == "kg":
            arrs = (point.phiHat.coefficients, point.pHat.coefficients)
        else:
            arrs = (point.phiRHat.coefficients, point.phiIHat.coefficients)
        return max(float(np.max(np.abs(a))) for a in arrs)

    def loop_integral(self, p1, p2, p3, order: int = 8) -> float:
        """Circulation of the difference form around the triangle
        p1 -> p2 -> p3 -> p1 (straight segments); closedness makes it
        vanish.  Panel count grows with the oscillation scale along each
        edge so the quadrature error stays below the assertion floor.
        """
        nodes, weights = np.polynomial.legendre.leggauss(order)
        om_max = float(np.max(np.sqrt(self.lattice.ksq())))
        if self.theory == "kg":
            om_max = float(np.max(self.cfg.omega()))
        total = 0.0
        for a, b in ((p1, p2), (p2, p3), (p3, p1)):
            tangent = self._segment_tangent(a, b)
            ds_span = abs(b.time - a.time)
            panels = max(4, int(np.ceil(2.0 * om_max * ds_span)) + 1)
            for j in range(panels):
                lo = j / panels
                hi = (j + 1) / panels
                u = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
                w = 0.5 * (hi - lo) * weights
                for ui, wi in zip(u, w):
                    total += wi * self.differential(
                        self._interpolate(a, b, ui), tangent
                    )
        return total

    def _segment_tangent(self, a, b):
        if self.theory == "kg":
            return KGModeTangent(
                b.phiHat.coefficients - a.phiHat.coefficients,
                b.pHat.coefficients - a.pHat.coefficients,
                b.time - a.time,
            )
        return SchrModeTangent(
            b.phiRHat.coefficients - a.phiRHat.coefficients,
            b.phiIHat.coefficients - a.phiIHat.coefficients,
            b.time - a.time,
        )

    def _interpolate(self, a, b, u: float):
        lat = self.lattice
        if self.theory == "kg":
            return KGModeState(
                ModeVector(
                    lat,
                    (1 - u) * a.phiHat.coefficients + u * b.phiHat.coefficients,
                ),
                ModeVector(lat, (1 - u) * a.pHat.coefficients + u * b.pHat.coefficients),
                time=(1 - u) * a.time + u * b.time,
            )
        return SchrModeState(
            ModeVector(
                lat, (1 - u) * a.phiRHat.coefficients + u * b.phiRHat.coefficients
            ),
            ModeVector(
                lat, (1 - u) * a.phiIHat.coefficients + u * b.phiIHat.coefficients
            ),
            time=(1 - u) * a.time + u * b.time,
        )


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

    Runs twice: with dW supplied by the oracle's difference form, and
    with the analytic differential of the printed W hypothesis; returns
    the sup mismatch of each.  The printed Schrodinger W is known not to
    satisfy the identity; its residual is a measurement, not a failure.
    """
    lat = point.lattice
    rng = np.random.Generator(np.random.Philox(key=seed))
    oracle = WOracle(theory, cfg if theory == "kg" else lat, check_points=0)
    s_scale = oracle._s_scale()
    oracle_gaps = []
    printed_gaps = []
    for _ in range(tangent_count):
        if theory == "kg":
            t = KGModeTangent(
                random_hermitian_modes(lat, rng),
                random_hermitian_modes(lat, rng),
                float(rng.standard_normal()) * s_scale,
            )
            theta = _kg_theta(point, cfg, t, "resolved")
            canon = _kg_canonical(point, cfg, t)
            dw_printed = _kg_w_printed_differential(point, cfg, t)
        else:
            t = SchrModeTangent(
                random_hermitian_modes(lat, rng),
                random_hermitian_modes(lat, rng),
                float(rng.standard_normal()) * s_scale,
            )
            theta = _schr_theta(point, t, "resolved")
            canon = _schr_canonical(point, t)
            dw_printed = _schr_w_printed_differential(point, t)
        dw_oracle = oracle.differential(point, t)
        oracle_gaps.append(abs(theta - canon - dw_oracle))
        printed_gaps.append(abs(theta - canon - dw_printed))
    return ThetaPullbackReport(
        theory=theory,
        oracle_residual=nan_max(oracle_gaps),
        printed_residual=nan_max(printed_gaps),
    )
