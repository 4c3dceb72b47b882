"""Klein-Gordon slice dynamics, action, and residuals."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlab.kg import (
    KGConfig,
    KGSpacetimeSection,
    KGState,
    KGVariation,
    kg_action,
    kg_constraint_residual,
    kg_dedonder_weyl_residual,
    kg_el_cancellation_scale,
    kg_el_pairing,
    kg_enforce_constraints,
    kg_evolve_leapfrog,
    kg_evolve_spectral,
    kg_hamiltonian,
    kg_random_variation_profile,
    kg_solution_section,
)
from covlab.lattice import (
    Lattice,
    ModeVector,
    ScalarField,
    VectorField,
    hermitize,
    idft,
    stack_gradient,
    sup_norm,
)

LAT = Lattice(dim=1, n=64, length=2 * np.pi)
CFG = KGConfig(mass=1.0, lattice=LAT)


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

    return kg_enforce_constraints(field(), field())


def single_mode_state(k=1, amp_phi=0.8, amp_p=-0.3, lat=LAT):
    x = lat.coordinates()[0]
    phi = ScalarField(lat, amp_phi * np.cos(k * x))
    p = ScalarField(lat, amp_p * np.sin(k * x))
    return kg_enforce_constraints(phi, p)


class TestEnergyAndConstraints:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        s=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_spectral_energy_invariant(self, seed, s):
        st0 = random_state(seed)
        e0 = kg_hamiltonian(st0, CFG)
        e1 = kg_hamiltonian(kg_evolve_spectral(st0, s, CFG), CFG)
        assert abs(e1 - e0) <= 1e-12 * max(abs(e0), 1.0)

    def test_leapfrog_energy_drift_single_mode(self):
        st0 = single_mode_state()
        e0 = kg_hamiltonian(st0, CFG)
        out = kg_evolve_leapfrog(st0, 1e-3, 1000, CFG)
        e1 = kg_hamiltonian(out, CFG)
        assert abs(e1 - e0) <= 1e-6 * abs(e0)

    def test_leapfrog_converges_to_spectral(self):
        st0 = single_mode_state()
        exact = kg_evolve_spectral(st0, 1.0, CFG)
        errs = []
        for steps in (1000, 2000):
            out = kg_evolve_leapfrog(st0, 1.0 / steps, steps, CFG)
            errs.append(sup_norm(out.phi.values - exact.phi.values))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_constraints_preserved(self, seed):
        st0 = random_state(seed)
        out = kg_evolve_spectral(st0, 2.7, CFG)
        assert kg_constraint_residual(out) <= 1e-10 * max(sup_norm(out.phi), 1e-30)

    def test_enforce_constraints_residual(self):
        st0 = random_state(3)
        assert kg_constraint_residual(st0) <= 1e-12 * max(sup_norm(st0.phi), 1e-30)

    def test_evolve_zero_steps_is_identity(self):
        st0 = random_state(8)
        out = kg_evolve_leapfrog(st0, 1e-3, 0, CFG)
        assert np.array_equal(out.phi.values, st0.phi.values)
        assert np.array_equal(out.p.values, st0.p.values)


class TestEvolution:
    def test_single_mode_closed_form(self):
        k, a, b = 2, 0.7, 0.4
        om = np.sqrt(k * k + CFG.mass**2)
        x = LAT.coordinates()[0]
        st0 = kg_enforce_constraints(
            ScalarField(LAT, a * np.cos(k * x)), ScalarField(LAT, b * np.cos(k * x))
        )
        s = 1.3
        out = kg_evolve_spectral(st0, s, CFG)
        expect_phi = (a * np.cos(om * s) + b * np.sin(om * s) / om) * np.cos(k * x)
        expect_p = (b * np.cos(om * s) - a * om * np.sin(om * s)) * np.cos(k * x)
        assert sup_norm(out.phi.values - expect_phi) < 1e-12
        assert sup_norm(out.p.values - expect_p) < 1e-12

    def test_massless_zero_mode_drifts(self):
        cfg0 = KGConfig(mass=0.0, lattice=LAT)
        phi = ScalarField(LAT, np.full(LAT.shape, 0.2))
        p = ScalarField(LAT, np.full(LAT.shape, 0.5))
        out = kg_evolve_spectral(kg_enforce_constraints(phi, p), 3.0, cfg0)
        assert sup_norm(out.phi.values - (0.2 + 3.0 * 0.5)) < 1e-13
        assert sup_norm(out.p.values - 0.5) < 1e-13

    def test_printed_mass_sign_is_tachyonic(self):
        # the printed slice Hamiltonian generates growth where k^2 < m^2:
        # keep it available, demonstrably wrong, and clearly labeled
        cfg = KGConfig(mass=2.0, lattice=LAT)
        st0 = single_mode_state(k=1, amp_phi=1.0, amp_p=0.0)
        out = kg_evolve_spectral(st0, 4.0, cfg, mass_sign="paper-printed")
        assert sup_norm(out.phi) > 10.0
        ok = kg_evolve_spectral(st0, 4.0, cfg)
        assert sup_norm(ok.phi) <= 1.0 + 1e-12

    def test_unknown_mass_sign_rejected(self):
        with pytest.raises(ValueError):
            kg_evolve_spectral(random_state(1), 1.0, CFG, mass_sign="wat")


class TestSectionResiduals:
    def test_dedonder_weyl_residual_small(self):
        st0 = random_state(4, band=2)
        section = kg_solution_section(st0, 1e-3, 80, CFG)
        assert kg_dedonder_weyl_residual(section) <= 1e-5

    def test_dedonder_weyl_ratio(self):
        st0 = random_state(4, band=2)
        r = []
        for dt in (1e-3, 5e-4):
            section = kg_solution_section(st0, dt, int(0.08 / dt), CFG)
            r.append(kg_dedonder_weyl_residual(section))
        assert r[0] / r[1] == pytest.approx(4.0, rel=0.2)

    def test_corrupted_momentum_detected(self):
        st0 = random_state(4, band=2)
        section = kg_solution_section(st0, 1e-3, 10, CFG)
        bad = list(section.states)
        mid = len(bad) // 2
        bad[mid] = KGState(
            phi=bad[mid].phi,
            p=ScalarField(LAT, bad[mid].p.values + 1.0),
            beta=bad[mid].beta,
            time=bad[mid].time,
        )
        worse = type(section).from_states(bad, section.dt, section.cfg)
        assert kg_dedonder_weyl_residual(worse) >= 1.0

    def test_too_few_slices_rejected(self):
        st0 = random_state(4)
        section = kg_solution_section(st0, 1e-3, 1, CFG)
        with pytest.raises(ValueError):
            kg_dedonder_weyl_residual(section)


class TestAction:
    def test_zero_section_zero_action(self):
        zero = kg_enforce_constraints(
            ScalarField(LAT, np.zeros(LAT.shape)), ScalarField(LAT, np.zeros(LAT.shape))
        )
        section = kg_solution_section(zero, 1e-2, 5, CFG)
        assert kg_action(section) == 0.0

    def test_pairing_equals_difference_quotient(self):
        st0 = random_state(9, band=1)
        section = kg_solution_section(st0, 1e-2, 30, CFG)
        rng = seeded(10)
        d1 = random_state(11, band=1).phi
        d2 = random_state(12, band=1).p
        var = kg_random_variation_profile(section, d1, d2)
        pairing = kg_el_pairing(section, var)

        def shifted(eps):
            states = []
            for stt, v in zip(section.states, var.states):
                states.append(
                    KGState(
                        phi=ScalarField(LAT, stt.phi.values + eps * v.phi.values),
                        p=ScalarField(LAT, stt.p.values + eps * v.p.values),
                        beta=VectorField(
                            LAT,
                            tuple(
                                ScalarField(LAT, b.values + eps * db.values)
                                for b, db in zip(
                                    stt.beta.components, v.beta.components
                                )
                            ),
                        ),
                        time=stt.time,
                    )
                )
            return type(section).from_states(states, section.dt, section.cfg)

        eps = 0.37
        quotient = (kg_action(shifted(eps)) - kg_action(shifted(-eps))) / (2 * eps)
        assert abs(pairing - quotient) <= 1e-9 * max(abs(pairing), 1.0)

    def test_pairing_rejects_nonvanishing_endpoints(self):
        st0 = random_state(9, band=1)
        section = kg_solution_section(st0, 1e-2, 10, CFG)
        var = kg_random_variation_profile(section, st0.phi, st0.p)

        def mid_slice_first(stack):
            out = stack.copy()
            out[0] = stack[len(stack) // 2]
            return out

        bad = replace(
            var,
            phi=mid_slice_first(var.phi),
            p=mid_slice_first(var.p),
            beta=mid_slice_first(var.beta),
        )
        with pytest.raises(ValueError):
            kg_el_pairing(section, bad)

    def test_cancellation_scale_amplitude_invariance(self):
        st0 = random_state(9, band=1)
        section = kg_solution_section(st0, 1e-2, 40, CFG)
        d1, d2 = random_state(13, band=1).phi, random_state(14, band=1).p
        var = kg_random_variation_profile(section, d1, d2)
        r1 = abs(kg_el_pairing(section, var)) / kg_el_cancellation_scale(section, var)

        big = kg_solution_section(
            kg_enforce_constraints(
                ScalarField(LAT, 10 * st0.phi.values),
                ScalarField(LAT, 10 * st0.p.values),
            ),
            1e-2,
            40,
            CFG,
        )
        var_big = kg_random_variation_profile(
            big, ScalarField(LAT, 10 * d1.values), ScalarField(LAT, 10 * d2.values)
        )
        r2 = abs(kg_el_pairing(big, var_big)) / kg_el_cancellation_scale(big, var_big)
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_hamiltonian_mass_sign_difference(self):
        st0 = random_state(21)
        from covlab.lattice import inner

        diff = kg_hamiltonian(st0, CFG) - kg_hamiltonian(st0, CFG, mass_sign="paper-printed")
        assert diff == pytest.approx(CFG.mass**2 * inner(st0.phi, st0.phi), rel=1e-12)


# The real-space Lagrangian density and cancellation scale as they were
# written before the bilinear table, kept verbatim as independent
# references for lattice._lagrangian_form.


def _time_derivative(stack: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time derivative along axis 0 (central inside,
    one-sided at the ends)."""
    return np.gradient(stack, dt, axis=0, edge_order=2)


def _covariant_lagrangian_density(
    section: KGSpacetimeSection, phis: np.ndarray, ps: np.ndarray,
    betas: np.ndarray,
) -> np.ndarray:
    """P^mu d_mu phi - H at each node, integrated over the slice.

    Returns a 1-D array over time nodes.  Uses P^0 = -p and the covariant
    H = (1/2)(eta_mn P^m P^n - mass^2 phi^2) = (1/2)(-p^2 + |beta|^2
    - mass^2 phi^2).
    """
    lat = section.lattice
    msq = section.cfg.mass**2
    h_d = lat.spacing**lat.dim
    dphi_dt = _time_derivative(phis, section.dt)
    grads = stack_gradient(lat, phis)
    temporal = -ps * dphi_dt
    spatial = np.einsum("ta...,ta...->t...", betas, grads)
    beta_sq = np.einsum("ta...,ta...->t...", betas, betas)
    ham = 0.5 * (-(ps**2) + beta_sq - msq * phis**2)
    dens = temporal + spatial - ham
    return h_d * dens.reshape(len(phis), -1).sum(axis=1)


def _stacks(section: KGSpacetimeSection):
    return section.phi, section.p, section.beta


def ref_action(section):
    lag = _covariant_lagrangian_density(section, *_stacks(section))
    return float(np.trapezoid(lag, dx=section.dt))


def ref_pairing(section, variation):
    stacks, dstacks = _stacks(section), _stacks(variation)

    def action_at(eps):
        lag = _covariant_lagrangian_density(
            section, *(a + eps * d for a, d in zip(stacks, dstacks))
        )
        return float(np.trapezoid(lag, dx=section.dt))

    return 0.5 * (action_at(1.0) - action_at(-1.0))


def ref_scale(section, variation):
    lat = section.lattice
    msq = section.cfg.mass**2
    h_d = lat.spacing**lat.dim
    phis, ps, betas = _stacks(section)
    dphis, dps, dbetas = _stacks(variation)
    dphi_dt = _time_derivative(phis, section.dt)
    ddphi_dt = _time_derivative(dphis, section.dt)
    grads = stack_gradient(lat, phis)
    dgrads = stack_gradient(lat, dphis)
    total = (
        np.abs(ps * ddphi_dt)
        + np.abs(dps * dphi_dt)
        + np.abs(ps * dps)
        + msq * np.abs(phis * dphis)
        + np.einsum("ta...,ta...->t...", np.abs(betas), np.abs(dgrads))
        + np.einsum("ta...,ta...->t...", np.abs(dbetas), np.abs(grads))
        + np.einsum("ta...,ta...->t...", np.abs(betas), np.abs(dbetas))
    )
    dens = h_d * total.reshape(len(phis), -1).sum(axis=1)
    return float(np.trapezoid(dens, dx=section.dt))


class TestLagrangianTable:
    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 8), (3, 8)])
    @pytest.mark.parametrize("solution", [True, False])
    def test_matches_real_space_reference(self, dim, n, solution):
        lat = Lattice(dim=dim, n=n, length=2 * np.pi)
        cfg = KGConfig(mass=0.7, lattice=lat)
        section = kg_solution_section(random_state(31, lat=lat), 1e-2, 24, cfg)
        if not solution:
            # off shell: the pairing no longer cancels
            section = replace(section, p=section.p + 0.3 * section.phi)
        var = kg_random_variation_profile(
            section, random_state(32, lat=lat).phi, random_state(33, lat=lat).p
        )
        scale = kg_el_cancellation_scale(section, var)
        assert kg_action(section) == pytest.approx(ref_action(section), rel=1e-12)
        assert scale == pytest.approx(ref_scale(section, var), rel=1e-12)
        assert abs(kg_el_pairing(section, var) - ref_pairing(section, var)) <= 1e-13 * scale
        if not solution:
            assert abs(ref_pairing(section, var)) > 1e-3 * scale


def reference_general_rotation(om2: np.ndarray, s):
    """The propagator entries with every branch evaluated on every element
    and picked by np.where: the reference for _general_rotation, which
    evaluates each branch once per distinct om2 on its own entries."""
    om2 = np.asarray(om2, dtype=float)
    pos = om2 > 0
    neg = om2 < 0
    om = np.sqrt(np.where(pos, om2, 1.0))
    mu = np.sqrt(np.where(neg, -om2, 1.0))
    C = np.where(pos, np.cos(om * s), np.where(neg, np.cosh(mu * s), 1.0))
    S = np.where(
        pos,
        np.sin(om * s) / om,
        np.where(neg, np.sinh(mu * s) / mu, s),
    )
    return C, S


def same_bits(a, b):
    """Equal values, NaN in the same places, and the same signed zeros."""
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


class TestRotationPerDistinctFrequency:
    # the resolved sign, and the printed one with a mass between two
    # lattice wavenumbers, so that om2 has positive and negative entries;
    # mass 0 puts om2 = 0 on the zero mode
    @pytest.mark.parametrize(
        "mass_sign,mass",
        [("resolved", 0.7), ("resolved", 0.0), ("paper-printed", 1.5), ("paper-printed", 1.0)],
    )
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 8), (3, 8)])
    def test_matches_the_np_where_reference(self, dim, n, mass_sign, mass):
        from covlab.kg import _general_rotation, _kg_om2

        lat = Lattice(dim=dim, n=n, length=2 * np.pi)
        om2 = _kg_om2(KGConfig(mass=mass, lattice=lat), mass_sign)
        grid = np.array([0.0, -0.0, 1e-3, -0.37, 2.5, 40.0]).reshape((-1,) + (1,) * dim)
        for s in (0.0, -0.0, 0.83, -1.7, 1e-3 * np.arange(7).reshape((-1,) + (1,) * dim), grid):
            got, want = _general_rotation(om2, s), reference_general_rotation(om2, s)
            for g, w in zip(got, want):
                assert same_bits(g, w)
                assert g.flags.c_contiguous
        if mass_sign == "paper-printed" and mass == 1.5:
            assert np.any(om2 < 0) and np.any(om2 > 0)
        if mass == 0.0:
            assert np.any(om2 == 0)
