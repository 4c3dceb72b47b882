"""Finite-difference and closed-form references for the bracket tests.

covlab's observables carry analytic derivatives or none, and no product
path differentiates numerically.  These functions compute the same
quantities independently, from an observable's ``evaluate`` alone or
from the documented formulas, so the tests can compare the analytic
ones against them:

* ``fd_gradient``: the g-arrays by central differences, one conjugate
  pair of modes at a time;
* ``fd_w_slope``: dF/dW by a central difference;
* ``construction_crosscheck``: sampled analytic-vs-finite-difference
  agreement of both derivatives;
* ``fd_richardson_check``: the finite differences at steps h and h/2;
* ``lambda_pairing``: the bivector contraction Lambda(dF, dG);
* ``omega_schr_expansion_check``: the Schrodinger two-form summed site
  by site.
"""

from dataclasses import replace

import numpy as np

from covlab.brackets import Observable, _point_scale, omega
from covlab.darboux import DarbouxState, Theory
from covlab.lattice import Lattice, ModeVector, mode_index_table, nan_max


def fd_w_slope(evaluate, point: DarbouxState, step: float) -> float:
    """d evaluate / dW at the point, by a central difference of relative
    step `step`."""
    h = step * max(1.0, abs(point.W))
    up, dn = replace(point, W=point.W + h), replace(point, W=point.W - h)
    return (evaluate(up) - evaluate(dn)) / (2 * h)


def fd_gradient(obs: Observable, point: DarbouxState, step: float = 1e-6):
    """The pair of g-arrays of the observable at the point, by central
    differences of relative step `step` along each conjugate pair of
    modes (the real and the imaginary direction) and each self-conjugate
    mode: O(N) evaluations of the observable."""
    h = step * _point_scale(point)
    conj_map, self_conj, rep = mode_index_table(point.lattice)
    out = []
    for slot, base in zip(("a0", "a1"), point.arrays):
        g = np.zeros(base.size, dtype=complex)

        def probe(idx, unit):
            plus, minus = base.ravel().copy(), base.ravel().copy()
            for j, v in unit:
                plus[j] += h * v
                minus[j] -= h * v
            pp, mm = (
                replace(point, **{slot: ModeVector(point.lattice, x.reshape(base.shape))})
                for x in (plus, minus)
            )
            return (obs.evaluate(pp) - obs.evaluate(mm)) / (2 * h)

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


def construction_crosscheck(
    obs: Observable, point: DarbouxState, step: float = 1e-6, tol=1e-6, sample=6, seed=99
) -> None:
    """Raise ValueError unless each analytic derivative the observable
    carries agrees with its finite difference at the point: the gradient
    at `sample` seeded representative modes, to `tol` relative to
    max(1, |value|), and the W-derivative to 1e-6."""
    if obs.gradient is not None:
        ana = obs.gradient_at(point)
        fd = fd_gradient(obs, point, step)
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
    if obs.w_derivative is not None:
        ana_w = float(obs.w_derivative(point))
        fd_w = fd_w_slope(obs.evaluate, point, step)
        if abs(ana_w - fd_w) > 1e-6 * max(1.0, abs(ana_w), abs(fd_w)):
            raise ValueError(
                f"analytic and finite-difference W-derivatives disagree: "
                f"{ana_w} vs {fd_w}"
            )


def fd_richardson_check(
    obs: Observable, point: DarbouxState, step: float = 1e-6, coords: int = 20, seed: int = 17
) -> float:
    """Confirm the finite-difference gradient is in its convergent regime:
    compare steps h and h/2 at random coordinates, return the worst
    Richardson discrepancy (should be orders below the h-step error)."""
    g_h = fd_gradient(obs, point, step)
    g_h2 = fd_gradient(obs, point, step / 2)
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


def lambda_pairing(F: Observable, G: Observable, point: DarbouxState) -> float:
    """The bivector contraction Lambda(dF, dG) at the point, written out
    from the formula in the covlab.brackets docstring:

        (1/(w vol)) sum_k [g1_F conj(g0_G) - g0_F conj(g1_G)]
        + F_W sum_k A1[k] g1_G[k] - G_W sum_k A1[k] g1_F[k]
    """
    g0_F, g1_F = F.gradient_at(point)
    g0_G, g1_G = G.gradient_at(point)
    FW, GW = F.w_derivative_at(point), G.w_derivative_at(point)
    A1 = point.a1.coefficients
    measure = 1.0 / (F.theory.weight * point.lattice.volume)
    pair = measure * np.sum(g1_F * np.conj(g0_G) - g0_F * np.conj(g1_G))
    corr = FW * np.sum(A1 * g1_G) - GW * np.sum(A1 * g1_F)
    return float(np.real(pair)) + float(np.real(corr))


def omega_schr_expansion_check(U, V, lattice: Lattice) -> float:
    """Direct per-site evaluation of the contraction i_V i_U dtheta on the
    constrained sub-bundle coordinates, against the closed form.

    dtheta restricted to the slice is 2 sum_x h^d dphiI(x) wedge dphiR(x);
    contracting two variations gives the site sum below.  Returns the
    absolute difference from omega.
    """
    h_cell = lattice.volume / lattice.site_count
    direct = 2.0 * h_cell * float(
        np.sum(U.phiI.values * V.phiR.values - U.phiR.values * V.phiI.values)
    )
    return abs(direct - omega(Theory.of("schrodinger", lattice), U, V))
