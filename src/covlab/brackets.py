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

The Jacobi bracket is [F, G] = dG(X_F) - G * dF/dW, where X_F =
Lambda#(dF) + F R is the contact Hamiltonian vector field (R = d/dW,
the Reeb field) of the bivector

    Lambda(dF, dG) = (1/(w vol)) sum_k [g1_F conj(g0_G) - g0_F conj(g1_G)]
                     + F_W sum_k A1[k] g1_G[k] - G_W sum_k A1[k] g1_F[k]

with the record's pairing weight w and vol = L^dim the dual-lattice
measure per mode: (A0, A1) = (Phi, P) and w = 1 for KG, (PhiR, PhiI)
and w = 2 for Schrodinger.  This is the unique orientation
of the printed bivector that satisfies the Jacobi identity; with the
printed orientation the cyclic sum fails at O(1).  A consequence is
that the canonical pair constant {Re Phi(k0), Re P(k0)} comes out
negative here.  See the repository notes for the derivation.

So [F, G] = Lambda(dF, dG) + F * dG/dW - G * dF/dW, a first-order
differential operator in each slot: it obeys the generalized Leibniz
rule [f, gh] = [f, g] h + g [f, h] + g h dF/dW(f).  On W-independent
observables it restricts to the Poisson bracket of the two-form Omega,
and the smeared linear observables realize that identification
exactly.  ``poisson_bracket`` is that restriction: the Jacobi bracket
behind one check that both Reeb derivatives vanish.

``hamiltonian_vector_field`` is the one statement of Lambda: no bracket
contracts it, so [F, G] + [G, F] is not 0 by construction.  An
observable's derivatives are analytic or absent.  The first slot F must
carry both; a G with both is contracted with X_F, and a G without both
(a nested bracket, say) is evaluated along X_F: dG(X_F) is then one
directional derivative, a fixed number of evaluations of G at any
lattice size; along R it is the closure check's Reeb residual.  The
finite-difference references that the tests compare against live in
tests/bracket_references.py.  Every observable refuses a point on
another lattice than its record's, so no bracket checks one.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Observable:
    """A real-valued functional of a Darboux point of the theory record.

    ``gradient`` returns the pair of hermitian g-arrays (one per
    coordinate array of the point); ``w_derivative`` returns dF/dW.  Each
    derivative is analytic or absent: without its callback,
    ``gradient_at`` or ``w_derivative_at`` raises TypeError.  An
    observable without both (a nested bracket, say) can only be the
    second slot of a bracket, which takes one directional derivative of
    it.  ``evaluate`` (wrapped at construction), ``gradient_at`` and
    ``w_derivative_at`` refuse a point on another lattice than the record's.
    """

    theory: Theory
    evaluate: Callable
    gradient: Optional[Callable] = None
    w_derivative: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.theory, Theory):
            raise TypeError(f"theory must be a Theory record, got {self.theory!r}")
        evaluate, check = self.evaluate, self.theory.check_lattice
        # a copy's evaluate, or another observable's on this lattice, is checked
        if getattr(evaluate, "checked_lattice", None) == self.theory.lattice:
            return

        def checked(point) -> float:
            check(point)
            return evaluate(point)

        checked.checked_lattice = self.theory.lattice
        object.__setattr__(self, "evaluate", checked)

    def gradient_at(self, point):
        self.theory.check_lattice(point)
        if self.gradient is None:
            raise TypeError(f"observable {self.name!r} has no analytic gradient")
        g0, g1 = self.gradient(point)
        return np.asarray(g0, dtype=complex), np.asarray(g1, dtype=complex)

    def w_derivative_at(self, point) -> float:
        self.theory.check_lattice(point)
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

    ``freeze="v"`` deliberately leaves V at its initial data, the
    documented negative control: the resulting spread is O(1) instead of
    conservation-limited.  The spread is 0 only when every value is
    exactly 0; a NaN value gives a NaN spread.  Any other ``freeze``
    raises ValueError.
    """
    if freeze not in (None, "v"):
        raise ValueError(f"freeze must be None or 'v', got {freeze!r}")
    values = []
    for t in times:
        span = t - solution.time
        u = theory.evolve(U0, span)
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
    of one theory with the same lattice and mode flow (so Schrodinger
    records that differ only in the mass, which they do not read,
    pair)."""
    a, b = F.theory, G.theory
    if a is b:
        return
    if a.name != b.name:
        raise ValueError("observables belong to different theories")
    if a.lattice != b.lattice or not np.array_equal(a.flow().table, b.flow().table):
        raise ValueError(
            f"observables belong to different {a.name} records: {a.lattice} with "
            f"mass {a.mass} and {b.lattice} with mass {b.mass}"
        )


def _field(F: Observable, point):
    """(X_F, F_W) at the point: hamiltonian_vector_field's tangent, and
    the Reeb derivative it reads, which the bracket reads again."""
    g0, g1 = F.gradient_at(point)
    FW = F.w_derivative_at(point)
    measure, A1 = 1.0 / (F.theory.weight * point.lattice.volume), point.a1.coefficients
    d0 = measure * np.conj(g1)
    d1 = -measure * np.conj(g0) + FW * A1
    dW = F.evaluate(point) - float(np.real(np.sum(A1 * g1)))
    return (d0, d1, dW), FW


def hamiltonian_vector_field(F: Observable, point):
    """X_F = Lambda#(dF) + F R at the point, as the chart tangent
    (d0, d1, dW): hermitian arrays for the two coordinate arrays and a
    scalar for W.  dG(X_F) = Lambda(dF, dG) + F G_W for any G.

    d0 = conj(g1_F)/(w vol), d1 = -conj(g0_F)/(w vol) + F_W A1,
    dW = F - Re sum A1 g1_F, with A1 = P-hat (KG) or PhiI-hat: every
    bracket reads the bivector here.  F must carry analytic derivatives.
    """
    return _field(F, point)[0]


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
    """[F, G] = dG(X_F) - G F_W, with X_F from hamiltonian_vector_field.

    F must carry analytic derivatives.  When G carries both, dG(X_F) is
    Re sum (g0_G d0 + g1_G d1) + G_W dW; otherwise it is one directional
    derivative of G along X_F.
    """
    _check_pair(F, G)
    X_F, FW = _field(F, point)
    if G.gradient is None or G.w_derivative is None:
        dG = _directional_derivative(G, point, X_F)
    else:
        (g0, g1), (d0, d1, dW) = G.gradient_at(point), X_F
        dG = float(np.real(np.sum(g0 * d0 + g1 * d1))) + G.w_derivative_at(point) * dW
    return dG - G.evaluate(point) * FW


# the largest |dF/dW| of an observable of the W-independent subalgebra
REEB_TOL = 1e-10


def poisson_bracket(F: Observable, G: Observable, point) -> float:
    """The bracket of the W-independent subalgebra: the Jacobi bracket
    behind one Reeb check, ValueError if |F_W| or |G_W| exceeds REEB_TOL
    at the point.  Both slots must carry analytic derivatives (TypeError
    otherwise), so G's are always contracted with X_F."""
    FW, GW = F.w_derivative_at(point), G.w_derivative_at(point)
    if abs(FW) > REEB_TOL or abs(GW) > REEB_TOL:
        raise ValueError(
            f"poisson_bracket precondition failed: Reeb derivatives "
            f"({FW:.3e}, {GW:.3e}) exceed {REEB_TOL:.1e}; "
            "observable not in the W-independent subalgebra"
        )
    if G.gradient is None:
        raise TypeError(f"observable {G.name!r} has no analytic gradient")
    return jacobi_bracket(F, G, point)


# ---------------------------------------------------------------------------
# structure checks


@dataclass(frozen=True)
class ClosureReport:
    reeb_residuals: tuple
    flow_values: tuple
    flow_times: tuple
    flow_spread: float
    passed: bool


# the chart times of subalgebra_closure_check's flow and its tolerance
CLOSURE_TIMES = (0.0, 0.7, 1.9, 3.3)
CLOSURE_TOL = 1e-10


def subalgebra_closure_check(F: Observable, G: Observable, points: Sequence) -> ClosureReport:
    """Verify the W-independent observables close under the bracket.

    The bracket is poisson_bracket, so F and G must be in the subalgebra
    at every point it is taken.  At each sample point: the bracket's own
    Reeb derivative, its directional derivative along R = (0, 0, 1),
    vanishes.  Along the flow through the first point, at CLOSURE_TIMES:
    the bracket value is s-independent.
    """
    bracket = Observable(F.theory, lambda pt: poisson_bracket(F, G, pt), name="bracket")
    reeb_residuals = [abs(_directional_derivative(bracket, pt, (0.0, 0.0, 1.0))) for pt in points]
    th = F.theory
    state0 = th.slice_state(th.from_darboux(points[0]))
    flow_values = []
    for t in CLOSURE_TIMES:
        st = th.evolve(state0, t - state0.time)
        flow_values.append(bracket.evaluate(th.to_darboux(th.mode_state(st))))
    arr = np.array(flow_values)
    scale = max(1.0, float(np.max(np.abs(arr))))
    spread = float(arr.max() - arr.min()) / scale
    passed = spread <= CLOSURE_TOL and all(r <= CLOSURE_TOL for r in reeb_residuals)
    return ClosureReport(
        reeb_residuals=tuple(reeb_residuals),
        flow_values=tuple(float(v) for v in flow_values),
        flow_times=CLOSURE_TIMES,
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
    time (not U's own) gives its g-arrays (w vol conj d1, -w vol conj d0).
    """
    m = ModeState(*(dft(f) for f in theory.slice_fields(U)), time=time)
    d0, d1 = theory.to_darboux(m).arrays
    measure = theory.weight * U.lattice.volume
    return _linear(theory, measure * np.conj(d1), -measure * np.conj(d0), "smeared")


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


def _linear(theory: Theory, g0, g1, name: str) -> Observable:
    """Re sum(g0 A0 + g1 A1), W-independent, with the fixed g-arrays as its
    read-only gradient."""
    g = np.array((g0, g1), dtype=complex)
    g.setflags(write=False)

    def evaluate(pt) -> float:
        A0, A1 = pt.arrays
        return float(np.sum(g[0] * A0).real + np.sum(g[1] * A1).real)

    return Observable(theory, evaluate, lambda pt: (g[0], g[1]), lambda pt: 0.0, name)


def _quadratic(theory: Theory, pair, name: str) -> Observable:
    """The quadratic form vol Re sum A_i conj(A_j) on the pair (i, j) of
    chart coordinates, W-independent, a real sum of |A_i|^2 if i == j; its
    gradient is vol conj(A_j) on slot i plus vol conj(A_i) on slot j."""
    i, j = pair

    def evaluate(pt) -> float:
        a, b = pt.arrays[i], pt.arrays[j]
        total = np.sum(np.abs(a) ** 2) if i == j else np.real(np.sum(a * np.conj(b)))
        return pt.lattice.volume * float(total)

    def gradient(pt):
        A, vol = pt.arrays, pt.lattice.volume
        g = [np.zeros(a.shape, dtype=complex) for a in A]
        g[i] = vol * np.conj(A[j])
        g[j] += vol * np.conj(A[i])
        return tuple(g)

    return Observable(theory, evaluate, gradient, lambda pt: 0.0, name)


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
    # half a unit on k and -k, a whole one on a self-conjugate mode
    g = np.zeros((2, lattice.site_count), dtype=complex)
    g[which, [flat, conj_map[flat]]] = 1.0 if self_conj[flat] else 0.5
    return _linear(theory, *g.reshape((2,) + lattice.shape), f"Re {slot}({idx})")


def w_coordinate(theory: Theory) -> Observable:
    def gradient(pt):
        z = np.zeros_like(pt.a0.coefficients)
        return z, z

    return Observable(
        theory=theory,
        evaluate=lambda pt: float(pt.W),
        gradient=gradient,
        w_derivative=lambda pt: 1.0,
        name="W",
    )


def quadratic_power(theory: Theory, which: int = 0) -> Observable:
    """integral |coordinate|^2 over the dual lattice (vol per mode)."""
    return _quadratic(theory, (which, which), f"|slot{which}|^2")


def quadratic_cross(theory: Theory) -> Observable:
    """integral Re(first conj(second)) over the dual lattice."""
    return _quadratic(theory, (0, 1), "Re<slot0, slot1>")


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
        evaluate=evaluate,
        gradient=gradient,
        w_derivative=w_derivative,
        name=f"({F.name})*({G.name})",
    )
