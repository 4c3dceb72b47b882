"""Brackets on the space of solutions: the two-form Omega, the bivector,
the Jacobi bracket, and the induced Poisson bracket.

Observables live on the Darboux chart: a point is a KGDarbouxState or
SchrDarbouxState, whose coordinates are the rectified modes plus the
scalar W.  Functional derivatives are carried as "g-arrays": a gradient
g assigns to each mode k a complex number such that

    dF(delta) = sum_k g[k] delta[k]

for hermitian perturbations delta of the coefficient array.  For a real
observable the g-array is itself hermitian, so the sum is real.  On the
independent half-lattice this is the usual Wirtinger pair; carrying the
redundant conjugate half keeps the bookkeeping to plain array sums.

The bivector implemented here is

    Lambda(dF, dG) = (1/vol) sum_k [gP_F conj(gPhi_G) - gPhi_F conj(gP_G)]
                     + F_W sum_k P[k] gP_G[k] - G_W sum_k P[k] gP_F[k]

(KG; vol = L^dim is the dual-lattice measure per mode), and the
Schrodinger analogue with (PhiR, PhiI) in place of (Phi, P), measure
2*vol, and PhiI in the correction terms.  This is the unique orientation
of the printed bivector that satisfies the Jacobi identity; with the
printed orientation the cyclic sum fails at O(1).  A consequence is
that the canonical pair constant {Re Phi(k0), Re P(k0)} comes out
negative here.  See the repository notes for the derivation.

The Jacobi bracket is [F, G] = Lambda(dF, dG) + F * dG/dW - G * dF/dW,
a first-order differential operator in each slot: it obeys the
generalized Leibniz rule [f, gh] = [f, g] h + g [f, h] + g h dF/dW(f).
On W-independent observables it restricts to the Poisson bracket of the
two-form Omega, and the smeared linear observables realize that
identification exactly.

Equivalently [F, G] = dG(X_F) - G * dF/dW with the contact Hamiltonian
vector field X_F = Lambda#(dF) + F R (R = d/dW, the Reeb field).  When
G has no analytic gradient (a nested bracket, say), dG(X_F) is one
directional derivative of G along X_F: a fixed number of evaluations
of G instead of a finite-difference gradient over every mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .darboux import (
    KGDarbouxState,
    KGModeState,
    SchrDarbouxState,
    SchrModeState,
    kg_from_darboux,
    kg_mode_state,
    kg_slice_state,
    kg_to_darboux,
    schr_from_darboux,
    schr_mode_state,
    schr_slice_state,
    schr_to_darboux,
)
from .kg import KGConfig, KGVariation, kg_enforce_constraints, kg_evolve_spectral
from .lattice import Lattice, ModeVector, dft, inner, mode_index_table, nan_max
from .schrodinger import SchrVariation, schr_enforce_constraints, schr_evolve_spectral

__all__ = [
    "Observable",
    "TangentPair",
    "omega_kg",
    "omega_schr",
    "omega_schr_expansion_check",
    "SliceReport",
    "omega_slice_report",
    "reeb_apply",
    "lambda_pairing",
    "hamiltonian_vector_field",
    "jacobi_bracket",
    "poisson_bracket",
    "ClosureReport",
    "subalgebra_closure_check",
    "EquivalenceReport",
    "bracket_equivalence_check",
    "smeared_observable",
    "product_observable",
    "mode_real_part",
    "w_coordinate",
    "quadratic_power",
    "quadratic_cross",
    "fd_richardson_check",
]


# ---------------------------------------------------------------------------
# observables


def _arrays_of(point):
    if isinstance(point, KGDarbouxState):
        return point.PhiHat.coefficients, point.PHat.coefficients
    if isinstance(point, SchrDarbouxState):
        return point.PhiRHat.coefficients, point.PhiIHat.coefficients
    raise TypeError(f"not a Darboux point: {type(point).__name__}")


def _with_coordinates(point, a0, a1, W=None):
    lat = point.lattice
    w = point.W if W is None else W
    if isinstance(point, KGDarbouxState):
        return KGDarbouxState(
            ModeVector(lat, a0), ModeVector(lat, a1), W=w, time=point.time
        )
    return SchrDarbouxState(
        ModeVector(lat, a0), ModeVector(lat, a1), W=w, time=point.time
    )


def _point_scale(point) -> float:
    a0, a1 = _arrays_of(point)
    return max(1.0, float(np.max(np.abs(a0))), float(np.max(np.abs(a1))))


@dataclass(frozen=True)
class Observable:
    """A real-valued functional of a Darboux point.

    ``gradient``, when given, returns the pair of hermitian g-arrays
    (one per coordinate array of the point); ``w_derivative`` returns
    dF/dW.  Missing callbacks fall back to central finite differences
    with relative step ``fd_step``.  Supplying ``check_point`` runs a
    sampled analytic-vs-finite-difference cross-check at construction.
    """

    theory: str
    representation: str
    evaluate: Callable
    gradient: Optional[Callable] = None
    w_derivative: Optional[Callable] = None
    fd_step: float = 1e-6
    check_point: object = None
    name: str = ""

    def __post_init__(self):
        if self.theory not in ("kg", "schrodinger"):
            raise ValueError(f"unknown theory {self.theory!r}")
        if self.representation not in ("position", "mode", "darboux"):
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.check_point is not None:
            self._construction_crosscheck(self.check_point)

    # -- derivatives ---------------------------------------------------

    def gradient_at(self, point):
        if self.gradient is not None:
            g0, g1 = self.gradient(point)
            return np.asarray(g0, dtype=complex), np.asarray(g1, dtype=complex)
        return self._fd_gradient(point)

    def w_derivative_at(self, point) -> float:
        if self.w_derivative is not None:
            return float(self.w_derivative(point))
        h = self.fd_step * max(1.0, abs(point.W))
        up = _with_coordinates(point, *_arrays_of(point), W=point.W + h)
        dn = _with_coordinates(point, *_arrays_of(point), W=point.W - h)
        return (self.evaluate(up) - self.evaluate(dn)) / (2 * h)

    def _fd_gradient(self, point):
        a0, a1 = _arrays_of(point)
        h = self.fd_step * _point_scale(point)
        conj_map, self_conj, rep = mode_index_table(point.lattice)
        out = []
        for slot, base in ((0, a0), (1, a1)):
            g = np.zeros(base.size, dtype=complex)

            def probe(idx, unit):
                d0 = a0.copy().ravel()
                d1 = a1.copy().ravel()
                tgt = d0 if slot == 0 else d1
                plus = tgt.copy()
                for j, v in unit:
                    plus[j] += h * v
                minus = tgt.copy()
                for j, v in unit:
                    minus[j] -= h * v
                shape = base.shape
                if slot == 0:
                    pp = _with_coordinates(point, plus.reshape(shape), a1)
                    mm = _with_coordinates(point, minus.reshape(shape), a1)
                else:
                    pp = _with_coordinates(point, a0, plus.reshape(shape))
                    mm = _with_coordinates(point, a0, minus.reshape(shape))
                return (self.evaluate(pp) - self.evaluate(mm)) / (2 * h)

            for idx in np.nonzero(rep)[0]:
                if self_conj[idx]:
                    g[idx] = probe(idx, [(idx, 1.0)])
                else:
                    jdx = conj_map[idx]
                    fa = probe(idx, [(idx, 1.0), (jdx, 1.0)])
                    fb = probe(idx, [(idx, 1.0j), (jdx, -1.0j)])
                    g[idx] = 0.5 * (fa - 1.0j * fb)
                    g[jdx] = np.conj(g[idx])
            out.append(g.reshape(base.shape))
        return out[0], out[1]

    def _construction_crosscheck(self, point, tol=1e-6, sample=6, seed=99):
        if self.gradient is not None:
            ana = self.gradient_at(point)
            fd = self._fd_gradient(point)
            rng = np.random.Generator(np.random.Philox(key=seed))
            conj_map, self_conj, rep = mode_index_table(point.lattice)
            reps = np.nonzero(rep)[0]
            picks = rng.choice(reps, size=min(sample, reps.size), replace=False)
            for slot in (0, 1):
                a = np.asarray(ana[slot]).ravel()
                f = fd[slot].ravel()
                for idx in picks:
                    scale = max(1.0, abs(a[idx]), abs(f[idx]))
                    if abs(a[idx] - f[idx]) > tol * scale:
                        raise ValueError(
                            f"analytic and finite-difference gradients disagree "
                            f"(slot {slot}, flat mode {idx}): "
                            f"{a[idx]} vs {f[idx]}"
                        )
        if self.w_derivative is not None:
            ana_w = float(self.w_derivative(point))
            h = self.fd_step * max(1.0, abs(point.W))
            up = _with_coordinates(point, *_arrays_of(point), W=point.W + h)
            dn = _with_coordinates(point, *_arrays_of(point), W=point.W - h)
            fd_w = (self.evaluate(up) - self.evaluate(dn)) / (2 * h)
            if abs(ana_w - fd_w) > 1e-6 * max(1.0, abs(ana_w), abs(fd_w)):
                raise ValueError(
                    f"analytic and finite-difference W-derivatives disagree: "
                    f"{ana_w} vs {fd_w}"
                )


def fd_richardson_check(obs: Observable, point, coords: int = 20, seed: int = 17) -> float:
    """Confirm the finite-difference machinery is in its convergent regime:
    compare steps h and h/2 at random coordinates, return the worst
    Richardson discrepancy (should be orders below the h-step error)."""
    import dataclasses

    half = dataclasses.replace(obs, fd_step=obs.fd_step / 2, check_point=None)
    g_h = obs._fd_gradient(point)
    g_h2 = half._fd_gradient(point)
    rng = np.random.Generator(np.random.Philox(key=seed))
    _, _, rep = mode_index_table(point.lattice)
    reps = np.nonzero(rep)[0]
    picks = rng.choice(reps, size=min(coords, reps.size), replace=False)
    gaps = []
    for slot in (0, 1):
        a = g_h[slot].ravel()
        b = g_h2[slot].ravel()
        gaps += [abs(a[idx] - b[idx]) / max(1.0, abs(b[idx])) for idx in picks]
    return nan_max(gaps)


@dataclass(frozen=True)
class TangentPair:
    """Two variations attached to solutions at a common time."""

    U: object
    V: object
    time: float = 0.0

    def __post_init__(self):
        lat_u = self.U.dphi.lattice if hasattr(self.U, "dphi") else self.U.dphiR.lattice
        lat_v = self.V.dphi.lattice if hasattr(self.V, "dphi") else self.V.dphiR.lattice
        if lat_u != lat_v:
            raise ValueError("tangent pair lattices differ")


# ---------------------------------------------------------------------------
# the two-form on solutions


def omega_kg(U: KGVariation, V: KGVariation, lattice: Lattice) -> float:
    """Omega(U, V) = integral (dp_U dphi_V - dphi_U dp_V) over the slice."""
    if U.dphi.lattice != lattice or V.dphi.lattice != lattice:
        raise ValueError("variation lattice does not match")
    return inner(U.dp, V.dphi) - inner(U.dphi, V.dp)


def omega_schr(U: SchrVariation, V: SchrVariation, lattice: Lattice) -> float:
    """Omega(U, V) = 2 integral (dphiI_U dphiR_V - dphiR_U dphiI_V)."""
    if U.dphiR.lattice != lattice or V.dphiR.lattice != lattice:
        raise ValueError("variation lattice does not match")
    return 2.0 * (inner(U.dphiI, V.dphiR) - inner(U.dphiR, V.dphiI))


def omega_schr_expansion_check(U: SchrVariation, V: SchrVariation, lattice: Lattice) -> float:
    """Direct per-site evaluation of the contraction i_V i_U dtheta on the
    constrained sub-bundle coordinates, against the closed form.

    dtheta restricted to the slice is 2 sum_x h^d dphiI(x) wedge dphiR(x);
    contracting two variations gives the site sum below.  Returns the
    absolute difference from omega_schr.
    """
    h_cell = lattice.volume / lattice.site_count
    direct = 2.0 * h_cell * float(
        np.sum(
            U.dphiI.values * V.dphiR.values - U.dphiR.values * V.dphiI.values
        )
    )
    return abs(direct - omega_schr(U, V, lattice))


@dataclass(frozen=True)
class SliceReport:
    times: tuple
    values: tuple
    max_rel_spread: float


def omega_slice_report(
    theory: str,
    solution,
    U0,
    V0,
    times: Sequence[float],
    cfg: KGConfig | None = None,
    freeze: str | None = None,
) -> SliceReport:
    """Evaluate Omega on each listed slice, evolving the solution and both
    variations there by the exact flow (variations of a linear theory
    evolve like states).

    ``freeze`` ("u" or "v") deliberately leaves one variation at its
    initial data, the documented negative control: the resulting spread
    is O(1) instead of conservation-limited.
    """
    values = []
    for t in times:
        span = t - solution.time
        if theory == "kg":
            u = _kg_evolved_variation(U0, span, cfg) if freeze != "u" else U0
            v = _kg_evolved_variation(V0, span, cfg) if freeze != "v" else V0
            values.append(omega_kg(u, v, u.dphi.lattice))
        else:
            u = _schr_evolved_variation(U0, span) if freeze != "u" else U0
            v = _schr_evolved_variation(V0, span) if freeze != "v" else V0
            values.append(omega_schr(u, v, u.dphiR.lattice))
    arr = np.array(values)
    denom = float(np.max(np.abs(arr)))
    spread = float(arr.max() - arr.min()) / denom if denom > 0 else 0.0
    return SliceReport(
        times=tuple(float(t) for t in times),
        values=tuple(float(v) for v in values),
        max_rel_spread=spread,
    )


def _kg_evolved_variation(U: KGVariation, span: float, cfg: KGConfig) -> KGVariation:
    state = kg_enforce_constraints(U.dphi, U.dp)
    out = kg_evolve_spectral(state, span, cfg)
    return KGVariation(dphi=out.phi, dp=out.p, dbeta=out.beta)


def _schr_evolved_variation(U: SchrVariation, span: float) -> SchrVariation:
    state = schr_enforce_constraints(U.dphiR, U.dphiI)
    out = schr_evolve_spectral(state, span)
    return SchrVariation(
        dphiR=out.phiR, dphiI=out.phiI, dbetaR=out.betaR, dbetaI=out.betaI
    )


# ---------------------------------------------------------------------------
# Reeb field, bivector, brackets


def reeb_apply(F: Observable, point) -> float:
    """The Reeb field is d/dW in the Darboux chart."""
    if F.representation != "darboux":
        raise ValueError("reeb_apply needs a Darboux-representation observable")
    return F.w_derivative_at(point)


def _check_pair(F: Observable, G: Observable):
    if F.representation != "darboux" or G.representation != "darboux":
        raise ValueError("bivector needs Darboux-representation observables")
    if F.theory != G.theory:
        raise ValueError("observables belong to different theories")


def _bivector_weights(point):
    """(measure, momentum) of the bivector: 1/vol and P-hat for KG,
    1/(2 vol) and PhiI-hat for Schrodinger."""
    vol = point.lattice.volume
    if isinstance(point, KGDarbouxState):
        return 1.0 / vol, point.PHat.coefficients
    return 1.0 / (2.0 * vol), point.PhiIHat.coefficients


def _lambda_terms(F: Observable, G: Observable, point):
    _check_pair(F, G)
    g0_F, g1_F = F.gradient_at(point)
    g0_G, g1_G = G.gradient_at(point)
    FW = F.w_derivative_at(point)
    GW = G.w_derivative_at(point)
    measure, momentum = _bivector_weights(point)
    pair = measure * np.sum(g1_F * np.conj(g0_G) - g0_F * np.conj(g1_G))
    corr = FW * np.sum(momentum * g1_G) - GW * np.sum(momentum * g1_F)
    return float(np.real(pair)), float(np.real(corr)), FW, GW


def lambda_pairing(F: Observable, G: Observable, point) -> float:
    """The bivector contraction Lambda(dF, dG) at the point."""
    pair, corr, _, _ = _lambda_terms(F, G, point)
    return pair + corr


def hamiltonian_vector_field(F: Observable, point):
    """X_F = Lambda#(dF) + F R at the point, as the chart tangent
    (d0, d1, dW): hermitian arrays for the two coordinate arrays and a
    scalar for W.  Contracting any dG with it gives Lambda(dF, dG) + F G_W.

    KG: d0 = conj(g1_F)/vol, d1 = -conj(g0_F)/vol + F_W P-hat,
    dW = F - Re sum P-hat g1_F; Schrodinger has 1/(2 vol) and PhiI-hat.
    """
    if F.representation != "darboux":
        raise ValueError("hamiltonian_vector_field needs a Darboux-representation observable")
    g0, g1 = F.gradient_at(point)
    measure, momentum = _bivector_weights(point)
    d0 = measure * np.conj(g1)
    d1 = -measure * np.conj(g0) + F.w_derivative_at(point) * momentum
    dW = F.evaluate(point) - float(np.real(np.sum(momentum * g1)))
    return d0, d1, dW


def _directional_derivative(G: Observable, point, tangent) -> float:
    """dG(tangent) by the five-point central stencil.

    The stencil is exact up to rounding on observables of degree <= 4
    along the line, which covers every bracket of the test families, so
    the step only sets the rounding error: 1e-1 of the point's size over
    the tangent's largest component.  At 3D n=32 the Jacobi-identity
    defect is about ten times lower than with 1e-2."""
    d0, d1, dW = tangent
    size = max(float(np.max(np.abs(d0))), float(np.max(np.abs(d1))), abs(dW))
    if size == 0.0:
        return 0.0
    h = 1e-1 * max(_point_scale(point), abs(point.W)) / size
    a0, a1 = _arrays_of(point)

    def at(t):
        return G.evaluate(_with_coordinates(point, a0 + t * d0, a1 + t * d1, W=point.W + t * dW))

    return (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12.0 * h)


def jacobi_bracket(F: Observable, G: Observable, point) -> float:
    """[F, G] = Lambda(dF, dG) + F reeb(G) - G reeb(F) = dG(X_F) - G reeb(F).

    With an analytic gradient of G the bivector is contracted directly;
    otherwise dG(X_F) is one directional derivative of G along X_F.
    """
    if G.gradient is not None:
        pair, corr, FW, GW = _lambda_terms(F, G, point)
        return pair + corr + F.evaluate(point) * GW - G.evaluate(point) * FW
    _check_pair(F, G)
    X_F = hamiltonian_vector_field(F, point)
    return _directional_derivative(G, point, X_F) - G.evaluate(point) * F.w_derivative_at(point)


def poisson_bracket(F: Observable, G: Observable, point, reeb_tol: float = 1e-10) -> float:
    """The bracket of the W-independent subalgebra.

    Precondition: both observables have vanishing Reeb derivative at the
    point; violation signals the observable is not in the invariant
    subalgebra.  The returned value is cross-checked against the full
    Jacobi bracket, which must agree to 1e-12 here.
    """
    pair, corr, FW, GW = _lambda_terms(F, G, point)
    if abs(FW) > reeb_tol or abs(GW) > reeb_tol:
        raise ValueError(
            f"poisson_bracket precondition failed: Reeb derivatives "
            f"({FW:.3e}, {GW:.3e}) exceed {reeb_tol:.1e}; "
            "observable not in the W-independent subalgebra"
        )
    value = pair
    full = pair + corr + F.evaluate(point) * GW - G.evaluate(point) * FW
    if abs(value - full) > 1e-12 * max(1.0, abs(value)):
        raise RuntimeError(
            f"poisson and Jacobi brackets disagree on the subalgebra: "
            f"{value} vs {full}"
        )
    return value


# ---------------------------------------------------------------------------
# structure checks


@dataclass(frozen=True)
class ClosureReport:
    reeb_residuals: tuple
    flow_values: tuple
    flow_times: tuple
    flow_spread: float
    passed: bool


def subalgebra_closure_check(
    F: Observable,
    G: Observable,
    points: Sequence,
    cfg: KGConfig | None = None,
    times: Sequence[float] = (0.0, 0.7, 1.9, 3.3),
    tol: float = 1e-10,
) -> ClosureReport:
    """Verify the W-independent observables close under the bracket.

    At each sample point: the bracket's own Reeb derivative vanishes
    (finite-differenced in W).  Along the flow through the first point:
    the bracket value is s-independent.
    """
    for pt in points:
        if abs(reeb_apply(F, pt)) > tol or abs(reeb_apply(G, pt)) > tol:
            raise ValueError("closure check requires W-independent observables")

    def bracket_value(pt):
        return jacobi_bracket(F, G, pt)

    reeb_residuals = []
    for pt in points:
        h = 1e-6 * max(1.0, abs(pt.W))
        up = _with_coordinates(pt, *_arrays_of(pt), W=pt.W + h)
        dn = _with_coordinates(pt, *_arrays_of(pt), W=pt.W - h)
        reeb_residuals.append(abs((bracket_value(up) - bracket_value(dn)) / (2 * h)))

    base = points[0]
    flow_values = []
    if isinstance(base, KGDarbouxState):
        state0 = kg_slice_state(kg_from_darboux(base, cfg))
        for t in times:
            st = kg_evolve_spectral(state0, t - state0.time, cfg)
            flow_values.append(bracket_value(kg_to_darboux(kg_mode_state(st), cfg)))
    else:
        state0 = schr_slice_state(schr_from_darboux(base))
        for t in times:
            st = schr_evolve_spectral(state0, t - state0.time)
            flow_values.append(bracket_value(schr_to_darboux(schr_mode_state(st))))
    arr = np.array(flow_values)
    scale = max(1.0, float(np.max(np.abs(arr))))
    spread = float(arr.max() - arr.min()) / scale
    passed = spread <= tol and all(r <= tol for r in reeb_residuals)
    return ClosureReport(
        reeb_residuals=tuple(reeb_residuals),
        flow_values=tuple(float(v) for v in flow_values),
        flow_times=tuple(float(t) for t in times),
        flow_spread=spread,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# smeared observables and the bracket / two-form identification


def _kg_chart_push(U: KGVariation, time: float, cfg: KGConfig):
    """Mode transform of a variation followed by the Darboux rotation at
    the given time (variations ride the same chart as states)."""
    m = KGModeState(dft(U.dphi), dft(U.dp), time=time)
    d = kg_to_darboux(m, cfg)
    return d.PhiHat.coefficients, d.PHat.coefficients


def _schr_chart_push(U: SchrVariation, time: float):
    m = SchrModeState(dft(U.dphiR), dft(U.dphiI), time=time)
    d = schr_to_darboux(m)
    return d.PhiRHat.coefficients, d.PhiIHat.coefficients


def smeared_observable(
    theory: str,
    U,
    time: float = 0.0,
    cfg: KGConfig | None = None,
    check_point=None,
) -> Observable:
    """The linear observable F_U = Omega(U, .) in the Darboux chart.

    KG: F_U(state) = integral (dp_U phi - dphi_U p); the per-mode
    rotation is symplectic, so the same pairing against the pushed
    variation evaluates it on Darboux points.  W-independent.
    """
    if theory == "kg":
        dPhi, dP = _kg_chart_push(U, time, cfg)
        vol = U.dphi.lattice.volume

        def evaluate(pt: KGDarbouxState) -> float:
            return vol * float(
                np.real(
                    np.sum(
                        dP * np.conj(pt.PhiHat.coefficients)
                        - dPhi * np.conj(pt.PHat.coefficients)
                    )
                )
            )

        def gradient(pt):
            return vol * np.conj(dP), -vol * np.conj(dPhi)

    else:
        dR, dI = _schr_chart_push(U, time)
        vol = U.dphiR.lattice.volume

        def evaluate(pt: SchrDarbouxState) -> float:
            return 2.0 * vol * float(
                np.real(
                    np.sum(
                        dI * np.conj(pt.PhiRHat.coefficients)
                        - dR * np.conj(pt.PhiIHat.coefficients)
                    )
                )
            )

        def gradient(pt):
            return 2.0 * vol * np.conj(dI), -2.0 * vol * np.conj(dR)

    return Observable(
        theory=theory,
        representation="darboux",
        evaluate=evaluate,
        gradient=gradient,
        w_derivative=lambda pt: 0.0,
        check_point=check_point,
        name="smeared",
    )


@dataclass(frozen=True)
class EquivalenceReport:
    mismatches: tuple
    max_mismatch: float


def bracket_equivalence_check(
    theory: str,
    pairs: Sequence[TangentPair],
    point,
    cfg: KGConfig | None = None,
) -> EquivalenceReport:
    """{F_U, G_V} computed through the Darboux chart against Omega(U, V)."""
    mismatches = []
    for pair in pairs:
        F = smeared_observable(theory, pair.U, time=pair.time, cfg=cfg)
        G = smeared_observable(theory, pair.V, time=pair.time, cfg=cfg)
        lhs = poisson_bracket(F, G, point)
        if theory == "kg":
            rhs = omega_kg(pair.U, pair.V, pair.U.dphi.lattice)
        else:
            rhs = omega_schr(pair.U, pair.V, pair.U.dphiR.lattice)
        mismatches.append(abs(lhs - rhs))
    return EquivalenceReport(
        mismatches=tuple(mismatches), max_mismatch=nan_max(mismatches)
    )


# ---------------------------------------------------------------------------
# observable factories (the linear and quadratic test families)


def mode_real_part(theory: str, slot: str, multi_index, lattice: Lattice) -> Observable:
    """Re of one mode coefficient of the chosen coordinate array.

    ``slot``: "Phi" or "P" (KG), "PhiR" or "PhiI" (Schrodinger).
    """
    slots = {"Phi": 0, "P": 1, "PhiR": 0, "PhiI": 1}
    if slot not in slots:
        raise ValueError(f"unknown slot {slot!r}")
    which = slots[slot]
    idx = tuple(int(m) % lattice.n for m in np.atleast_1d(multi_index))
    flat = int(np.ravel_multi_index(idx, lattice.shape))
    conj_map, self_conj, _ = mode_index_table(lattice)
    jdx = int(conj_map[flat])

    def evaluate(pt) -> float:
        arr = _arrays_of(pt)[which]
        return float(np.real(arr.ravel()[flat]))

    def gradient(pt):
        arr0, arr1 = _arrays_of(pt)
        g = np.zeros(arr0.size, dtype=complex)
        if self_conj[flat]:
            g[flat] = 1.0
        else:
            g[flat] = 0.5
            g[jdx] = 0.5
        g = g.reshape(arr0.shape)
        zero = np.zeros_like(g)
        return (g, zero) if which == 0 else (zero, g)

    return Observable(
        theory=theory,
        representation="darboux",
        evaluate=evaluate,
        gradient=gradient,
        w_derivative=lambda pt: 0.0,
        name=f"Re {slot}({idx})",
    )


def w_coordinate(theory: str) -> Observable:
    def gradient(pt):
        a0, _ = _arrays_of(pt)
        z = np.zeros_like(a0)
        return z, z

    return Observable(
        theory=theory,
        representation="darboux",
        evaluate=lambda pt: float(pt.W),
        gradient=gradient,
        w_derivative=lambda pt: 1.0,
        name="W",
    )


def quadratic_power(theory: str, which: int = 0) -> Observable:
    """integral |coordinate|^2 over the dual lattice (vol per mode)."""

    def evaluate(pt) -> float:
        arr = _arrays_of(pt)[which]
        return pt.lattice.volume * float(np.sum(np.abs(arr) ** 2))

    def gradient(pt):
        a0, a1 = _arrays_of(pt)
        vol = pt.lattice.volume
        g = 2.0 * vol * np.conj((a0, a1)[which])
        zero = np.zeros_like(g)
        return (g, zero) if which == 0 else (zero, g)

    return Observable(
        theory=theory,
        representation="darboux",
        evaluate=evaluate,
        gradient=gradient,
        w_derivative=lambda pt: 0.0,
        name=f"|slot{which}|^2",
    )


def quadratic_cross(theory: str) -> Observable:
    """integral Re(first conj(second)) over the dual lattice."""

    def evaluate(pt) -> float:
        a0, a1 = _arrays_of(pt)
        return pt.lattice.volume * float(np.real(np.sum(a0 * np.conj(a1))))

    def gradient(pt):
        a0, a1 = _arrays_of(pt)
        vol = pt.lattice.volume
        return vol * np.conj(a1), vol * np.conj(a0)

    return Observable(
        theory=theory,
        representation="darboux",
        evaluate=evaluate,
        gradient=gradient,
        w_derivative=lambda pt: 0.0,
        name="Re<slot0, slot1>",
    )


def product_observable(F: Observable, G: Observable) -> Observable:
    """Pointwise product, with product-rule derivatives when both factors
    carry analytic ones."""
    if F.theory != G.theory or F.representation != G.representation:
        raise ValueError("product factors live on different spaces")

    def evaluate(pt):
        return F.evaluate(pt) * G.evaluate(pt)

    gradient = None
    if F.gradient is not None and G.gradient is not None:

        def gradient(pt):
            f = F.evaluate(pt)
            g = G.evaluate(pt)
            gf0, gf1 = F.gradient_at(pt)
            gg0, gg1 = G.gradient_at(pt)
            return f * gg0 + g * gf0, f * gg1 + g * gf1

    w_derivative = None
    if F.w_derivative is not None and G.w_derivative is not None:

        def w_derivative(pt):
            return F.evaluate(pt) * G.w_derivative_at(pt) + G.evaluate(
                pt
            ) * F.w_derivative_at(pt)

    return Observable(
        theory=F.theory,
        representation=F.representation,
        evaluate=evaluate,
        gradient=gradient,
        w_derivative=w_derivative,
        name=f"({F.name})*({G.name})",
    )
