"""Free Schroedinger dynamics: unitarity, propagator phase, action."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlab.lattice import (
    Lattice,
    ModeVector,
    ScalarField,
    hermitize,
    idft,
    inner,
    stack_gradient,
    sup_norm,
)
from covlab.schrodinger import (
    FrameSpec,
    SchrSpacetimeSection,
    SchrState,
    from_wavefunction,
    schr_action,
    schr_constraint_residual,
    schr_dedonder_weyl_residual,
    schr_el_cancellation_scale,
    schr_el_pairing,
    schr_enforce_constraints,
    schr_evolve_spectral,
    schr_evolve_stepped,
    schr_hamiltonian,
    schr_norm_squared,
    schr_random_variation_profile,
    schr_solution_section,
    to_wavefunction,
)

LAT = Lattice(dim=1, n=64, length=2 * np.pi)


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

    return schr_enforce_constraints(field(), field())


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
        st0 = schr_enforce_constraints(
            ScalarField(LAT, np.cos(x)), ScalarField(LAT, np.sin(x))
        )
        out = schr_evolve_spectral(st0, np.pi)
        psi_out = to_wavefunction(out)
        expect = -1j * to_wavefunction(st0)
        assert np.max(np.abs(psi_out - expect)) < 1e-12

    def test_printed_hamiltonian_sign_reverses_propagator(self):
        x = LAT.coordinates()[0]
        st0 = schr_enforce_constraints(
            ScalarField(LAT, np.cos(x)), ScalarField(LAT, np.sin(x))
        )
        out = schr_evolve_spectral(st0, np.pi, hamiltonian_sign="paper-printed")
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


class TestConstraintsAndFrames:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_constraints_preserved(self, seed):
        st0 = random_state(seed)
        out = schr_evolve_spectral(st0, 1.9)
        scale = max(sup_norm(out.phiR), sup_norm(out.phiI), 1e-30)
        assert schr_constraint_residual(out) <= 1e-10 * scale

    def test_moving_frame_rejected(self):
        st0 = random_state(4)
        moving = SchrState(
            phiR=st0.phiR,
            phiI=st0.phiI,
            betaR=st0.betaR,
            betaI=st0.betaI,
            time=0.0,
            frame=FrameSpec(v=(0.5,)),
        )
        with pytest.raises(ValueError):
            schr_evolve_spectral(moving, 1.0)

    def test_hamiltonian_printed_sign_nonpositive(self):
        st0 = random_state(5)
        assert schr_hamiltonian(st0) <= 0.0


class TestWavefunctionBridge:
    def test_unit_wavefunction(self):
        st0 = from_wavefunction(LAT, np.ones(LAT.shape, dtype=complex))
        assert sup_norm(st0.phiR.values - 1.0) == 0.0
        assert sup_norm(st0.phiI) == 0.0

    def test_bijection(self):
        st0 = random_state(6)
        back = from_wavefunction(LAT, to_wavefunction(st0))
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
        bad = list(section.states)
        mid = len(bad) // 2
        comps = tuple(
            ScalarField(LAT, c.values + 1.0) for c in bad[mid].betaR.components
        )
        from covlab.lattice import VectorField

        bad[mid] = SchrState(
            phiR=bad[mid].phiR,
            phiI=bad[mid].phiI,
            betaR=VectorField(LAT, comps),
            betaI=bad[mid].betaI,
            time=bad[mid].time,
            frame=bad[mid].frame,
        )
        worse = type(section).from_states(bad, section.dt)
        assert schr_dedonder_weyl_residual(worse) >= 0.9


class TestAction:
    def test_zero_section_zero_action(self):
        zero = schr_enforce_constraints(
            ScalarField(LAT, np.zeros(LAT.shape)), ScalarField(LAT, np.zeros(LAT.shape))
        )
        section = schr_solution_section(zero, 1e-2, 5)
        assert schr_action(section) == 0.0

    def test_temporal_term_antisymmetric_under_swap(self):
        # with the momenta zeroed the action reduces to its temporal term
        # integral (phiI d_t phiR - phiR d_t phiI); swapping the real and
        # imaginary parts flips its sign, and a static section gives zero
        rng = seeded(11)
        from covlab.lattice import VectorField

        zero_vec = VectorField(
            LAT, tuple(ScalarField(LAT, np.zeros(LAT.shape)) for _ in range(LAT.dim))
        )

        def bare_state(fR, fI, t):
            return SchrState(
                phiR=fR, phiI=fI, betaR=zero_vec, betaI=zero_vec, time=t,
            )

        base = random_state(11)
        slices = [schr_evolve_spectral(base, 0.01 * i) for i in range(6)]
        sec = type(schr_solution_section(base, 0.01, 5)).from_states(
            [bare_state(s.phiR, s.phiI, s.time) for s in slices],
            0.01,
        )
        swapped = type(sec).from_states(
            [bare_state(s.phiI, s.phiR, s.time) for s in slices],
            0.01,
        )
        assert schr_action(swapped) == pytest.approx(-schr_action(sec), rel=1e-12)

        static = type(sec).from_states(
            [bare_state(base.phiR, base.phiI, 0.01 * i) for i in range(6)],
            0.01,
        )
        # the one-sided difference stencils leave 3*f rounding residue
        norm = inner(base.phiR, base.phiR) + inner(base.phiI, base.phiI)
        assert abs(schr_action(static)) <= 1e-13 * norm

    def test_pairing_equals_difference_quotient(self):
        st0 = random_state(9, band=1)
        section = schr_solution_section(st0, 1e-2, 30)
        d1 = random_state(12, band=1).phiR
        d2 = random_state(13, band=1).phiI
        var = schr_random_variation_profile(section, d1, d2)
        pairing = schr_el_pairing(section, var)

        def shifted(eps):
            from covlab.lattice import VectorField

            states = []
            for stt, v in zip(section.states, var.states):
                states.append(
                    SchrState(
                        phiR=ScalarField(LAT, stt.phiR.values + eps * v.phiR.values),
                        phiI=ScalarField(LAT, stt.phiI.values + eps * v.phiI.values),
                        betaR=VectorField(
                            LAT,
                            tuple(
                                ScalarField(LAT, b.values + eps * db.values)
                                for b, db in zip(
                                    stt.betaR.components, v.betaR.components
                                )
                            ),
                        ),
                        betaI=VectorField(
                            LAT,
                            tuple(
                                ScalarField(LAT, b.values + eps * db.values)
                                for b, db in zip(
                                    stt.betaI.components, v.betaI.components
                                )
                            ),
                        ),
                        time=stt.time,
                        frame=stt.frame,
                    )
                )
            return type(section).from_states(states, section.dt)

        eps = 0.61
        quotient = (schr_action(shifted(eps)) - schr_action(shifted(-eps))) / (2 * eps)
        assert abs(pairing - quotient) <= 1e-9 * max(abs(pairing), 1.0)

    def test_pairing_rejects_nonvanishing_endpoints(self):
        st0 = random_state(9, band=1)
        section = schr_solution_section(st0, 1e-2, 10)
        var = schr_random_variation_profile(section, st0.phiR, st0.phiI)

        def mid_slice_last(stack):
            out = stack.copy()
            out[-1] = stack[len(stack) // 2]
            return out

        bad = replace(
            var,
            phiR=mid_slice_last(var.phiR),
            phiI=mid_slice_last(var.phiI),
            betaR=mid_slice_last(var.betaR),
            betaI=mid_slice_last(var.betaI),
        )
        with pytest.raises(ValueError):
            schr_el_pairing(section, bad)

    def test_cancellation_scale_positive(self):
        st0 = random_state(9, band=1)
        section = schr_solution_section(st0, 1e-2, 20)
        var = schr_random_variation_profile(section, st0.phiR, st0.phiI)
        assert schr_el_cancellation_scale(section, var) > 0.0


# The real-space Lagrangian and cancellation scale as they were written
# before the bilinear table, kept verbatim as independent references for
# lattice._lagrangian_form.


def _stacks(section: SchrSpacetimeSection):
    return section.phiR, section.phiI, section.betaR, section.betaI


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
        var = schr_random_variation_profile(
            section, random_state(32, lat=lat).phiR, random_state(33, lat=lat).phiI
        )
        scale = schr_el_cancellation_scale(section, var)
        assert schr_action(section) == pytest.approx(ref_action(section), rel=1e-12)
        assert scale == pytest.approx(ref_scale(section, var), rel=1e-12)
        assert abs(schr_el_pairing(section, var) - ref_pairing(section, var)) <= 1e-13 * scale
        if not solution:
            assert abs(ref_pairing(section, var)) > 1e-3 * scale


def reference_schr_rotate(a, b, theta, steps: int = 1):
    """The mode rotation with its cosine and sine taken on the full angle
    grid: the reference for the section's per-distinct-k^2 trig."""
    c, sg = np.cos(theta), np.sin(theta)
    for _ in range(steps):
        a, b = a * c + b * sg, b * c - a * sg
    return a, b


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8), (3, 8)])
def test_section_rotation_matches_the_full_angle_grid(dim, n):
    from covlab.lattice import _by_distinct
    from covlab.schrodinger import _half_angle_trig, _schr_rotate

    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    rng = seeded(dim)
    a, b = (
        hermitize(rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape))
        for _ in range(2)
    )
    grid = np.array([0.0, -0.0, 1e-3, -0.37, 2.5, 40.0]).reshape((-1,) + (1,) * dim)
    for s in (0.0, -0.0, 0.83, 1e-3 * np.arange(7).reshape((-1,) + (1,) * dim), grid):
        theta = 0.5 * lat.ksq() * s
        trig = _by_distinct(lat.ksq(), s, _half_angle_trig)
        for got, want in zip(trig, (np.cos(theta), np.sin(theta))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got.flags.c_contiguous
        for got, want in zip(_schr_rotate(a, b, *trig), reference_schr_rotate(a, b, theta)):
            assert got.shape == want.shape and np.array_equal(got, want)
            assert got.flags.c_contiguous
