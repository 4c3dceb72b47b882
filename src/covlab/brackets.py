"""Brackets on the space of solutions: the two-form Omega, the bivector,
the Jacobi bracket, and the induced Poisson bracket.

Observables live on the Darboux chart of one theory record (see
darboux.Theory): a point is a DarbouxState, whose coordinates are the
rectified modes (A0, A1) plus the scalar W.  Functional derivatives are
carried as "g-arrays": a gradient g assigns to each mode k a complex
number such that

    dF(delta) = sum_k g[k] delta[k]

for hermitian perturbations delta of the coefficient array.  For a real
observable the g-array is itself hermitian, so the sum is real.  On the
independent half-lattice this is the usual Wirtinger pair; carrying the
redundant conjugate half keeps the bookkeeping to plain array sums.

The bivector implemented here is

    Lambda(dF, dG) = (1/(w vol)) sum_k [g1_F conj(g0_G) - g0_F conj(g1_G)]
                     + F_W sum_k A1[k] g1_G[k] - G_W sum_k A1[k] g1_F[k]

with the record's pairing weight w and vol = L^dim the dual-lattice
measure per mode: (A0, A1) = (Phi, P) and w = 1 for KG, (PhiR, PhiI)
and w = 2 for Schrodinger.  This is the unique orientation
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
vector field X_F = Lambda#(dF) + F R (R = d/dW, the Reeb field).  An
observable's derivatives are analytic or absent.  The first slot F must
carry both; a G without both (a nested bracket, say) is evaluated
along X_F, and dG(X_F) is one directional derivative: a fixed number of
evaluations of G at any lattice size.  The finite-difference gradients
that the tests compare the analytic ones against live with the tests,
in tests/bracket_references.py.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .darboux import DarbouxState, ModeState, Theory
from .lattice import ModeVector, dft, inner, mode_index_table, nan_max

__all__ = [
    "Observable",
    "TangentPair",
    "omega",
    "SliceReport",
    "omega_slice_report",
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
]


# ---------------------------------------------------------------------------
# observables


def _point_scale(point: DarbouxState) -> float:
    a0, a1 = point.arrays
    return max(1.0, float(np.max(np.abs(a0))), float(np.max(np.abs(a1))))


def _w_slope(evaluate, point: DarbouxState, step: float) -> float:
    """d evaluate / dW at the point, by a central difference of relative
    step `step`."""
    h = step * max(1.0, abs(point.W))
    up, dn = replace(point, W=point.W + h), replace(point, W=point.W - h)
    return (evaluate(up) - evaluate(dn)) / (2 * h)


def _checked(theory: Theory, evaluate):
    """evaluate refusing a point on another lattice than the record's."""

    def checked(pt) -> float:
        theory.check_lattice(pt)
        return evaluate(pt)

    return checked


@dataclass(frozen=True)
class Observable:
    """A real-valued functional of a Darboux point of the theory record.

    ``gradient`` returns the pair of hermitian g-arrays (one per
    coordinate array of the point); ``w_derivative`` returns dF/dW.  Each
    derivative is analytic or absent: without its callback,
    ``gradient_at`` or ``w_derivative_at`` raises TypeError.  An
    observable without both (a nested bracket, say) can only be the
    second slot of a bracket, which takes one directional derivative of
    it.  The factories below give observables whose ``evaluate`` refuses
    a point on another lattice than the record's.
    """

    theory: Theory
    evaluate: Callable
    gradient: Optional[Callable] = None
    w_derivative: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.theory, Theory):
            raise TypeError(f"theory must be a Theory record, got {self.theory!r}")

    def gradient_at(self, point):
        if self.gradient is None:
            raise TypeError(f"observable {self.name!r} has no analytic gradient")
        g0, g1 = self.gradient(point)
        return np.asarray(g0, dtype=complex), np.asarray(g1, dtype=complex)

    def w_derivative_at(self, point) -> float:
        if self.w_derivative is None:
            raise TypeError(f"observable {self.name!r} has no analytic W-derivative")
        return float(self.w_derivative(point))


@dataclass(frozen=True)
class TangentPair:
    """Two variations attached to solutions at a common time.

    A variation of a solution of a linear theory is itself a solution, so
    U and V are slice states; ``time`` is the chart time at which their
    smeared observables are built, not the states' own ``time``, which
    nothing here reads.
    """

    U: object
    V: object
    time: float = 0.0

    def __post_init__(self):
        if self.U.lattice != self.V.lattice:
            raise ValueError("tangent pair lattices differ")


# ---------------------------------------------------------------------------
# the two-form on solutions


def omega(theory: Theory, U, V) -> float:
    """Omega(U, V) = w integral (d1_U d0_V - d0_U d1_V) over the slice,
    with the pairing weight w and (d0, d1) the fields of the variations,
    which are slice states: (phi, p) for Klein-Gordon, 2 (phiR, phiI) for
    Schrodinger.  A state's own ``time`` is not read."""
    (u0, u1), (v0, v1) = theory.slice_fields(U), theory.slice_fields(V)
    if u0.lattice != theory.lattice or v0.lattice != theory.lattice:
        raise ValueError("variation lattice does not match")
    return theory.weight * (inner(u1, v0) - inner(u0, v1))


@dataclass(frozen=True)
class SliceReport:
    times: tuple
    values: tuple
    max_rel_spread: float


def omega_slice_report(
    theory: Theory,
    solution,
    U0,
    V0,
    times: Sequence[float],
    freeze: str | None = None,
) -> SliceReport:
    """Evaluate Omega on each listed slice, evolving both variations,
    slice states like the solution, there by the exact flow.

    ``freeze`` ("u" or "v") deliberately leaves one variation at its
    initial data, the documented negative control: the resulting spread
    is O(1) instead of conservation-limited.  The spread is 0 only when
    every value is exactly 0; a NaN value gives a NaN spread.  Any other
    ``freeze`` raises ValueError.
    """
    if freeze not in (None, "u", "v"):
        raise ValueError(f"freeze must be None, 'u' or 'v', got {freeze!r}")
    values = []
    for t in times:
        span = t - solution.time
        u = theory.evolve(U0, span) if freeze != "u" else U0
        v = theory.evolve(V0, span) if freeze != "v" else V0
        values.append(omega(theory, u, v))
    arr = np.array(values)
    denom = float(np.max(np.abs(arr)))
    spread = 0.0 if denom == 0.0 else float(arr.max() - arr.min()) / denom
    return SliceReport(
        times=tuple(float(t) for t in times),
        values=tuple(float(v) for v in values),
        max_rel_spread=spread,
    )


# ---------------------------------------------------------------------------
# Reeb field, bivector, brackets


def _check_pair(F: Observable, G: Observable):
    """Both observables live on one record: the same object, or records
    of one theory with the same lattice and frequencies (so Schrodinger
    records that differ only in the mass, which they do not read, pair)."""
    a, b = F.theory, G.theory
    if a is b:
        return
    if a.name != b.name:
        raise ValueError("observables belong to different theories")
    if a.lattice != b.lattice or not np.array_equal(a.freq, b.freq):
        raise ValueError(
            f"observables belong to different {a.name} records: {a.lattice} with "
            f"mass {a.mass} and {b.lattice} with mass {b.mass}"
        )


def _bivector_weights(theory: Theory, point: DarbouxState):
    """(measure, momentum) of the bivector: 1/(w vol) with the pairing
    weight w, and the chart's second coordinate (P-hat; PhiI-hat).  The
    Reeb field is d/dW in the chart, an observable's w_derivative_at."""
    return 1.0 / (theory.weight * point.lattice.volume), point.a1.coefficients


def _lambda_terms(F: Observable, G: Observable, point):
    _check_pair(F, G)
    F.theory.check_lattice(point)
    g0_F, g1_F = F.gradient_at(point)
    g0_G, g1_G = G.gradient_at(point)
    FW = F.w_derivative_at(point)
    GW = G.w_derivative_at(point)
    measure, momentum = _bivector_weights(F.theory, point)
    pair = measure * np.sum(g1_F * np.conj(g0_G) - g0_F * np.conj(g1_G))
    corr = FW * np.sum(momentum * g1_G) - GW * np.sum(momentum * g1_F)
    return float(np.real(pair)), float(np.real(corr)), FW, GW


def hamiltonian_vector_field(F: Observable, point):
    """X_F = Lambda#(dF) + F R at the point, as the chart tangent
    (d0, d1, dW): hermitian arrays for the two coordinate arrays and a
    scalar for W.  Contracting any dG with it gives Lambda(dF, dG) + F G_W.

    d0 = conj(g1_F)/(w vol), d1 = -conj(g0_F)/(w vol) + F_W A1,
    dW = F - Re sum A1 g1_F, with A1 = P-hat (KG) or PhiI-hat.  F must
    carry analytic derivatives.
    """
    F.theory.check_lattice(point)
    g0, g1 = F.gradient_at(point)
    measure, momentum = _bivector_weights(F.theory, point)
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
    defect is about ten times lower than with 1e-2.  A NaN in the tangent
    gives NaN, not the 0 of a zero tangent."""
    d0, d1, dW = tangent
    size = nan_max((float(np.max(np.abs(d0))), float(np.max(np.abs(d1))), abs(dW)))
    if size == 0.0:
        return 0.0
    h = 1e-1 * max(_point_scale(point), abs(point.W)) / size
    (a0, a1), lat = point.arrays, point.lattice

    def at(t):
        moved = (ModeVector(lat, a0 + t * d0), ModeVector(lat, a1 + t * d1))
        return G.evaluate(DarbouxState(*moved, W=point.W + t * dW, time=point.time))

    return (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12.0 * h)


def jacobi_bracket(F: Observable, G: Observable, point) -> float:
    """[F, G] = Lambda(dF, dG) + F G_W - G F_W = dG(X_F) - G F_W.

    F must carry analytic derivatives.  When G carries both, the
    bivector is contracted directly; otherwise dG(X_F) is one
    directional derivative of G along X_F.
    """
    if G.gradient is not None and G.w_derivative is not None:
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
    full = pair + corr + F.evaluate(point) * GW - G.evaluate(point) * FW
    if abs(pair - full) > 1e-12 * max(1.0, abs(pair)):
        raise RuntimeError(
            f"poisson and Jacobi brackets disagree on the subalgebra: "
            f"{pair} vs {full}"
        )
    return pair


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
    times: Sequence[float] = (0.0, 0.7, 1.9, 3.3),
    tol: float = 1e-10,
) -> ClosureReport:
    """Verify the W-independent observables close under the bracket.

    At each sample point: the bracket's own Reeb derivative vanishes
    (finite-differenced in W).  Along the flow through the first point:
    the bracket value is s-independent.
    """
    for pt in points:
        if abs(F.w_derivative_at(pt)) > tol or abs(G.w_derivative_at(pt)) > tol:
            raise ValueError("closure check requires W-independent observables")

    def bracket_value(pt):
        return jacobi_bracket(F, G, pt)

    reeb_residuals = [abs(_w_slope(bracket_value, pt, 1e-6)) for pt in points]
    th = F.theory
    state0 = th.slice_state(th.from_darboux(points[0]))
    flow_values = []
    for t in times:
        st = th.evolve(state0, t - state0.time)
        flow_values.append(bracket_value(th.to_darboux(th.mode_state(st))))
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


def smeared_observable(
    theory: Theory,
    U,
    time: float = 0.0,
) -> Observable:
    """The linear observable F_U = Omega(U, .) in the Darboux chart.

    F_U(state) = w integral (d1_U a0 - d0_U a1) with the pairing weight
    w; the per-mode rotation is symplectic, so the same pairing against
    the variation U, a slice state, pushed through the chart at the given
    time (not U's own) evaluates it on Darboux points.  W-independent.
    """
    m = ModeState(*(dft(f) for f in theory.slice_fields(U)), time=time)
    d0, d1 = theory.to_darboux(m).arrays
    measure = theory.weight * U.lattice.volume

    def evaluate(pt: DarbouxState) -> float:
        A0, A1 = pt.arrays
        return measure * float(np.real(np.sum(d1 * np.conj(A0) - d0 * np.conj(A1))))

    def gradient(pt):
        return measure * np.conj(d1), -measure * np.conj(d0)

    return Observable(
        theory=theory,
        evaluate=_checked(theory, evaluate),
        gradient=gradient,
        w_derivative=lambda pt: 0.0,
        name="smeared",
    )


@dataclass(frozen=True)
class EquivalenceReport:
    mismatches: tuple
    max_mismatch: float


def bracket_equivalence_check(
    theory: Theory,
    pairs: Sequence[TangentPair],
    point: DarbouxState,
) -> EquivalenceReport:
    """{F_U, G_V} computed through the Darboux chart against Omega(U, V)."""
    mismatches = []
    for pair in pairs:
        F = smeared_observable(theory, pair.U, time=pair.time)
        G = smeared_observable(theory, pair.V, time=pair.time)
        lhs = poisson_bracket(F, G, point)
        mismatches.append(abs(lhs - omega(theory, pair.U, pair.V)))
    return EquivalenceReport(
        mismatches=tuple(mismatches), max_mismatch=nan_max(mismatches)
    )


# ---------------------------------------------------------------------------
# observable factories (the linear and quadratic test families)


def mode_real_part(theory: Theory, slot: str, multi_index) -> Observable:
    """Re of one mode coefficient of the chosen coordinate array.

    ``slot``: one of the record's slots, "Phi" or "P" (KG), "PhiR" or
    "PhiI" (Schrodinger).
    """
    if slot not in theory.slots:
        raise ValueError(f"unknown slot {slot!r}")
    which = theory.slots.index(slot)
    lattice = theory.lattice
    idx = tuple(int(m) % lattice.n for m in np.atleast_1d(multi_index))
    flat = int(np.ravel_multi_index(idx, lattice.shape))
    conj_map, self_conj, _ = mode_index_table(lattice)
    # the g-arrays do not depend on the point: half a unit on k and -k, a
    # whole one on a self-conjugate mode
    g = np.zeros((2, lattice.site_count), dtype=complex)
    g[which, [flat, conj_map[flat]]] = 1.0 if self_conj[flat] else 0.5
    g = g.reshape((2,) + lattice.shape)
    g.setflags(write=False)

    def evaluate(pt) -> float:
        return float(np.real(pt.arrays[which].ravel()[flat]))

    return Observable(
        theory=theory,
        evaluate=_checked(theory, evaluate),
        gradient=lambda pt: (g[0], g[1]),
        w_derivative=lambda pt: 0.0,
        name=f"Re {slot}({idx})",
    )


def w_coordinate(theory: Theory) -> Observable:
    def gradient(pt):
        z = np.zeros_like(pt.a0.coefficients)
        return z, z

    return Observable(
        theory=theory,
        evaluate=_checked(theory, lambda pt: float(pt.W)),
        gradient=gradient,
        w_derivative=lambda pt: 1.0,
        name="W",
    )


def quadratic_power(theory: Theory, which: int = 0) -> Observable:
    """integral |coordinate|^2 over the dual lattice (vol per mode)."""

    def evaluate(pt) -> float:
        return pt.lattice.volume * float(np.sum(np.abs(pt.arrays[which]) ** 2))

    def gradient(pt):
        g = 2.0 * pt.lattice.volume * np.conj(pt.arrays[which])
        zero = np.zeros_like(g)
        return (g, zero) if which == 0 else (zero, g)

    return Observable(
        theory=theory,
        evaluate=_checked(theory, evaluate),
        gradient=gradient,
        w_derivative=lambda pt: 0.0,
        name=f"|slot{which}|^2",
    )


def quadratic_cross(theory: Theory) -> Observable:
    """integral Re(first conj(second)) over the dual lattice."""

    def evaluate(pt) -> float:
        a0, a1 = pt.arrays
        return pt.lattice.volume * float(np.real(np.sum(a0 * np.conj(a1))))

    def gradient(pt):
        a0, a1 = pt.arrays
        vol = pt.lattice.volume
        return vol * np.conj(a1), vol * np.conj(a0)

    return Observable(
        theory=theory,
        evaluate=_checked(theory, evaluate),
        gradient=gradient,
        w_derivative=lambda pt: 0.0,
        name="Re<slot0, slot1>",
    )


def product_observable(F: Observable, G: Observable) -> Observable:
    """Pointwise product, with product-rule derivatives when both factors
    carry analytic ones."""
    _check_pair(F, G)

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
        evaluate=_checked(F.theory, evaluate),
        gradient=gradient,
        w_derivative=w_derivative,
        name=f"({F.name})*({G.name})",
    )
