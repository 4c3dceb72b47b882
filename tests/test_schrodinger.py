"""Free Schroedinger dynamics: unitarity, propagator phase, action."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from section_references import bumped, hermitize

from covlab.darboux import Theory
from covlab.lattice import (
    Lattice,
    ModeVector,
    ScalarField,
    VectorField,
    idft,
    inner,
    stack_gradient,
    sup_norm,
)
from covlab.schrodinger import (
    SchrSpacetimeSection,
    schr_dedonder_weyl_residual,
    schr_el_cancellation_scale,
    schr_el_pairing,
    schr_evolve_spectral,
    schr_evolve_stepped,
    schr_norm_squared,
    schr_solution_section,
    to_wavefunction,
)

LAT = Lattice(dim=1, n=64, length=2 * np.pi)


def enforce(phiR, phiI):
    """The slice state of the fields (phiR, phiI), through the theory
    record: a variation, which the EL pairing takes under its time bump,
    too."""
    return Theory.of("schrodinger", phiR.lattice).enforce(phiR, phiI)


def seeded(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def random_state(seed, lat=LAT, band=None):
    band = band if band is not None else lat.n // 4
    rng = seeded(seed)

    def field():
        coeff = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
        m = np.fft.fftfreq(lat.n, d=1.0 / lat.n)
        coeff[np.max(np.abs(m[np.indices(lat.shape)]), axis=0) > band] = 0.0
        return idft(ModeVector(lat, hermitize(coeff)))

    return enforce(field(), field())


class TestUnitarity:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        s=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved_spectral(self, seed, s):
        st0 = random_state(seed)
        n0 = schr_norm_squared(st0)
        n1 = schr_norm_squared(schr_evolve_spectral(st0, s))
        assert abs(n1 - n0) <= 1e-12 * max(n0, 1.0)

    def test_norm_preserved_midpoint(self):
        st0 = random_state(7)
        n0 = schr_norm_squared(st0)
        out = schr_evolve_stepped(st0, 1e-3, 1000)
        assert abs(schr_norm_squared(out) - n0) <= 1e-13 * max(n0, 1.0)

    def test_propagator_phase_k1(self):
        # exp(-i k^2 s / 2) at k = 1, s = pi is exactly -i
        x = LAT.coordinates()[0]
        st0 = enforce(
            ScalarField(LAT, np.cos(x)), ScalarField(LAT, np.sin(x))
        )
        out = schr_evolve_spectral(st0, np.pi)
        psi_out = to_wavefunction(out)
        expect = -1j * to_wavefunction(st0)
        assert np.max(np.abs(psi_out - expect)) < 1e-12

    def test_printed_hamiltonian_sign_reverses_propagator(self):
        x = LAT.coordinates()[0]
        st0 = enforce(
            ScalarField(LAT, np.cos(x)), ScalarField(LAT, np.sin(x))
        )
        out = schr_evolve_spectral(st0, np.pi, ledger="paper-printed")
        expect = +1j * to_wavefunction(st0)
        assert np.max(np.abs(to_wavefunction(out) - expect)) < 1e-12

    def test_stepped_converges_to_spectral(self):
        st0 = random_state(9)
        exact = schr_evolve_spectral(st0, 1.0)
        errs = []
        for steps in (500, 1000):
            out = schr_evolve_stepped(st0, 1.0 / steps, steps)
            errs.append(sup_norm(out.phiR.values - exact.phiR.values))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_zero_steps_identity(self):
        st0 = random_state(3)
        out = schr_evolve_stepped(st0, 1e-3, 0)
        assert out is st0


class TestConstraints:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_constraints_preserved(self, seed):
        st0 = random_state(seed)
        out = schr_evolve_spectral(st0, 1.9)
        scale = max(sup_norm(out.phiR), sup_norm(out.phiI), 1e-30)
        assert out.constraint_residual() <= 1e-10 * scale

    @pytest.mark.parametrize("part", ["betaR", "betaI"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_nan_on_any_part_and_axis_gives_nan(self, part, axis):
        # a fold with the builtin max from 0.0 dropped every NaN
        lat = Lattice(dim=2, n=8, length=2 * np.pi)
        st0 = random_state(6, lat=lat)
        comps = [c.values.copy() for c in getattr(st0, part).components]
        comps[axis][3, 5] = np.nan
        bad = replace(st0, **{part: VectorField(lat, tuple(ScalarField(lat, c) for c in comps))})
        assert np.isnan(bad.constraint_residual())


class TestWavefunctionBridge:
    def test_unit_wavefunction(self):
        st0 = enforce(
            ScalarField(LAT, np.ones(LAT.shape)), ScalarField(LAT, np.zeros(LAT.shape))
        )
        assert np.array_equal(to_wavefunction(st0), np.ones(LAT.shape, dtype=complex))

    def test_bijection(self):
        st0 = random_state(6)
        psi = to_wavefunction(st0)
        back = enforce(ScalarField(LAT, psi.real), ScalarField(LAT, psi.imag))
        assert sup_norm(back.phiR.values - st0.phiR.values) == 0.0
        assert sup_norm(back.phiI.values - st0.phiI.values) == 0.0

    def test_norm_matches_wavefunction(self):
        st0 = random_state(8)
        psi = to_wavefunction(st0)
        h = LAT.spacing**LAT.dim
        assert schr_norm_squared(st0) == pytest.approx(
            h * float(np.sum(np.abs(psi) ** 2)), rel=1e-13
        )


class TestSectionResiduals:
    def test_dedonder_weyl_residual_small(self):
        st0 = random_state(4, band=2)
        section = schr_solution_section(st0, 1e-3, 80)
        assert schr_dedonder_weyl_residual(section) <= 1e-5

    def test_corrupted_beta_detected(self):
        st0 = random_state(4, band=2)
        section = schr_solution_section(st0, 1e-3, 10)
        betaR = section.betaR.copy()
        betaR[len(betaR) // 2] += 1.0
        worse = replace(section, betaR=betaR)
        assert schr_dedonder_weyl_residual(worse) >= 0.9


class TestAction:
    def test_zero_section_zero_pairing(self):
        zero = enforce(
            ScalarField(LAT, np.zeros(LAT.shape)), ScalarField(LAT, np.zeros(LAT.shape))
        )
        section = schr_solution_section(zero, 1e-2, 5)
        var = random_state(11, band=1)
        assert schr_el_pairing(section, var) == 0.0
        assert schr_el_cancellation_scale(section, var) == 0.0

    def test_temporal_term_antisymmetric_under_swap(self):
        # the reference action the difference quotient below reads: with
        # the momenta zeroed it reduces to its temporal term integral
        # (phiI d_t phiR - phiR d_t phiI); swapping the real and imaginary
        # parts flips its sign, and a static section gives zero
        base = random_state(11)
        sec = schr_solution_section(base, 0.01, 5)
        zero = np.zeros_like(sec.betaR)
        sec = replace(sec, betaR=zero, betaI=zero)
        swapped = replace(sec, phiR=sec.phiI, phiI=sec.phiR)
        assert ref_action(swapped) == pytest.approx(-ref_action(sec), rel=1e-12)

        still = lambda phi: np.broadcast_to(phi.values, sec.phiR.shape)
        static = replace(sec, phiR=still(base.phiR), phiI=still(base.phiI))
        # the one-sided difference stencils leave 3*f rounding residue
        norm = inner(base.phiR, base.phiR) + inner(base.phiI, base.phiI)
        assert abs(ref_action(static)) <= 1e-13 * norm

    def test_pairing_equals_difference_quotient(self):
        st0 = random_state(9, band=1)
        section = schr_solution_section(st0, 1e-2, 30)
        d1 = random_state(12, band=1).phiR
        d2 = random_state(13, band=1).phiI
        var = enforce(d1, d2)
        pairing = schr_el_pairing(section, var)
        v = bumped(section, var)

        def shifted(eps):
            return replace(
                section, **{n: getattr(section, n) + eps * getattr(v, n) for n in _FIELDS}
            )

        eps = 0.61
        quotient = (ref_action(shifted(eps)) - ref_action(shifted(-eps))) / (2 * eps)
        assert abs(pairing - quotient) <= 1e-9 * max(abs(pairing), 1.0)

    def test_pairing_is_linear_in_the_variation(self):
        # off shell, so that the pairing does not cancel: the kernel reads
        # the variation as a slice state under a fixed bump, and the
        # pairing is linear in that state
        section = schr_solution_section(random_state(9, band=1), 1e-2, 30)
        section = replace(section, phiI=section.phiI + 0.3 * section.phiR)
        u = enforce(random_state(11, band=1).phiR, random_state(12, band=1).phiI)
        w = enforce(random_state(13, band=1).phiR, random_state(14, band=1).phiI)
        a, b = 0.7, -2.3
        both = enforce(
            ScalarField(LAT, a * u.phiR.values + b * w.phiR.values),
            ScalarField(LAT, a * u.phiI.values + b * w.phiI.values),
        )
        scale = abs(a) * schr_el_cancellation_scale(section, u) + abs(
            b
        ) * schr_el_cancellation_scale(section, w)
        expect = a * schr_el_pairing(section, u) + b * schr_el_pairing(section, w)
        assert abs(expect) > 1e-3 * scale
        assert abs(schr_el_pairing(section, both) - expect) <= 1e-13 * scale

    def test_cancellation_scale_positive(self):
        st0 = random_state(9, band=1)
        section = schr_solution_section(st0, 1e-2, 20)
        var = enforce(st0.phiR, st0.phiI)
        assert schr_el_cancellation_scale(section, var) > 0.0


# The real-space Lagrangian and cancellation scale as they were written
# before the bilinear table, kept verbatim as independent references for
# the kernels of lattice.py; they read the variation's stacks written out
# by section_references.bumped.


_FIELDS = ("phiR", "phiI", "betaR", "betaI")


def _stacks(section: SchrSpacetimeSection):
    return tuple(getattr(section, n) for n in _FIELDS)


def _schr_lagrangian(section, aR, aI, bR, bI) -> np.ndarray:
    """Slice integral of phiI d_t phiR - phiR d_t phiI + P^j_a d_j phi^a - H
    per time node, with covariant H = -1/2 (|P_R|^2 + |P_I|^2)."""
    lat = section.lattice
    h_d = lat.spacing**lat.dim
    dR_dt = np.gradient(aR, section.dt, axis=0, edge_order=2)
    dI_dt = np.gradient(aI, section.dt, axis=0, edge_order=2)
    temporal = aI * dR_dt - aR * dI_dt
    gradR = stack_gradient(lat, aR)
    gradI = stack_gradient(lat, aI)
    spatial = np.einsum("ta...,ta...->t...", bR, gradR)
    spatial += np.einsum("ta...,ta...->t...", bI, gradI)
    beta_sq = np.einsum("ta...,ta...->t...", bR, bR)
    beta_sq += np.einsum("ta...,ta...->t...", bI, bI)
    ham = -0.5 * beta_sq
    dens = temporal + spatial - ham
    return h_d * dens.reshape(len(aR), -1).sum(axis=1)


def ref_action(section):
    lag = _schr_lagrangian(section, *_stacks(section))
    return float(np.trapezoid(lag, dx=section.dt))


def ref_pairing(section, variation):
    stacks, dstacks = _stacks(section), _stacks(variation)

    def action_at(eps):
        lag = _schr_lagrangian(section, *(a + eps * d for a, d in zip(stacks, dstacks)))
        return float(np.trapezoid(lag, dx=section.dt))

    return 0.5 * (action_at(1.0) - action_at(-1.0))


def ref_scale(section, variation):
    lat = section.lattice
    h_d = lat.spacing**lat.dim
    aR, aI, bR, bI = _stacks(section)
    dR, dI, dbR, dbI = _stacks(variation)
    dR_dt = np.gradient(aR, section.dt, axis=0, edge_order=2)
    dI_dt = np.gradient(aI, section.dt, axis=0, edge_order=2)
    ddR_dt = np.gradient(dR, section.dt, axis=0, edge_order=2)
    ddI_dt = np.gradient(dI, section.dt, axis=0, edge_order=2)
    gradR = stack_gradient(lat, aR)
    gradI = stack_gradient(lat, aI)
    dgradR = stack_gradient(lat, dR)
    dgradI = stack_gradient(lat, dI)
    total = (
        np.abs(aI * ddR_dt)
        + np.abs(dI * dR_dt)
        + np.abs(aR * ddI_dt)
        + np.abs(dR * dI_dt)
        + np.einsum("ta...,ta...->t...", np.abs(bR), np.abs(dgradR))
        + np.einsum("ta...,ta...->t...", np.abs(dbR), np.abs(gradR))
        + np.einsum("ta...,ta...->t...", np.abs(bI), np.abs(dgradI))
        + np.einsum("ta...,ta...->t...", np.abs(dbI), np.abs(gradI))
        + np.einsum("ta...,ta...->t...", np.abs(bR), np.abs(dbR))
        + np.einsum("ta...,ta...->t...", np.abs(bI), np.abs(dbI))
    )
    dens = h_d * total.reshape(len(aR), -1).sum(axis=1)
    return float(np.trapezoid(dens, dx=section.dt))


class TestLagrangianTable:
    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 8), (3, 8)])
    @pytest.mark.parametrize("solution", [True, False])
    def test_matches_real_space_reference(self, dim, n, solution):
        lat = Lattice(dim=dim, n=n, length=2 * np.pi)
        section = schr_solution_section(random_state(31, lat=lat), 1e-2, 24)
        if not solution:
            # off shell: the pairing no longer cancels
            section = replace(section, phiI=section.phiI + 0.3 * section.phiR)
        var = enforce(random_state(32, lat=lat).phiR, random_state(33, lat=lat).phiI)
        stacks = bumped(section, var)
        scale = schr_el_cancellation_scale(section, var)
        assert scale == pytest.approx(ref_scale(section, stacks), rel=1e-12)
        assert abs(schr_el_pairing(section, var) - ref_pairing(section, stacks)) <= 1e-13 * scale
        if not solution:
            assert abs(ref_pairing(section, stacks)) > 1e-3 * scale


def reference_schr_rotate(a, b, theta, steps: int = 1):
    """The mode rotation with its cosine and sine taken on the full angle
    grid: the reference for the flow's per-class rotation."""
    c, sg = np.cos(theta), np.sin(theta)
    for _ in range(steps):
        a, b = a * c + b * sg, b * c - a * sg
    return a, b


def same_bits(got, want):
    return (
        got.shape == want.shape
        and np.array_equal(got, want)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


@pytest.mark.parametrize("sign", ["resolved", "paper-printed"])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8), (3, 8)])
def test_flow_rotation_matches_the_full_angle_grid(dim, n, sign):
    # the printed ledger's flow is the resolved one run backwards: the
    # angle k^2 (-s) / 2
    from covlab.lattice import _ModeFlow

    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    flow = _ModeFlow(lat, Theory.of("schrodinger", lat).generator(sign))
    rng = seeded(dim)
    a, b = (
        hermitize(rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape))
        for _ in range(2)
    )
    index = np.arange(0, lat.site_count, 3)
    grid = np.array([0.0, -0.0, 1e-3, -0.37, 2.5, 40.0]).reshape((-1,) + (1,) * dim)
    for s in (0.0, -0.0, 0.83, 1e-3 * np.arange(7).reshape((-1,) + (1,) * dim), grid):
        theta = 0.5 * lat.ksq() * (s if sign == "resolved" else -s)
        want = np.cos(theta), np.sin(theta), np.sin(theta)
        for got, ref in zip(flow.rotation(s), want):
            assert same_bits(got, ref)
            assert got.flags.c_contiguous
        # compact on a support, one row per time of a (B, 1) block
        block = np.ravel(s)
        rows = len(block)
        for got, ref in zip(flow.restricted(index).rotation(block[:, np.newaxis]), want):
            full = np.broadcast_to(ref, (rows,) + lat.shape).reshape(rows, -1)
            assert same_bits(got, full[:, index])
            assert got.flags.c_contiguous
        for got, ref in zip(flow.propagate(a, b, s), reference_schr_rotate(a, b, theta)):
            assert got.shape == ref.shape and np.array_equal(got, ref)
            assert got.flags.c_contiguous
