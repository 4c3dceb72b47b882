"""Klein-Gordon slice dynamics, action, and residuals."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from section_references import bumped, hermitize

from covlab.kg import (
    KGSpacetimeSection,
    kg_dedonder_weyl_residual,
    kg_el_cancellation_scale,
    kg_el_pairing,
    kg_evolve_leapfrog,
    kg_evolve_spectral,
    kg_hamiltonian,
    kg_solution_section,
)
from covlab.darboux import Theory
from covlab.lattice import (
    Lattice,
    ModeVector,
    ScalarField,
    VectorField,
    dft,
    idft,
    stack_gradient,
    sup_norm,
)

LAT = Lattice(dim=1, n=64, length=2 * np.pi)
MASS = 1.0


def enforce(phi, p):
    """The slice state of the fields (phi, p), through the theory record:
    a variation, which the EL pairing takes under its time bump, too."""
    return Theory.of("kg", phi.lattice).enforce(phi, p)


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


def single_mode_state(k=1, amp_phi=0.8, amp_p=-0.3, lat=LAT):
    x = lat.coordinates()[0]
    phi = ScalarField(lat, amp_phi * np.cos(k * x))
    p = ScalarField(lat, amp_p * np.sin(k * x))
    return enforce(phi, p)


class TestEnergyAndConstraints:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        s=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_spectral_energy_invariant(self, seed, s):
        st0 = random_state(seed)
        e0 = kg_hamiltonian(st0, MASS)
        e1 = kg_hamiltonian(kg_evolve_spectral(st0, s, MASS), MASS)
        assert abs(e1 - e0) <= 1e-12 * max(abs(e0), 1.0)

    def test_leapfrog_energy_drift_single_mode(self):
        st0 = single_mode_state()
        e0 = kg_hamiltonian(st0, MASS)
        out = kg_evolve_leapfrog(st0, 1e-3, 1000, MASS)
        e1 = kg_hamiltonian(out, MASS)
        assert abs(e1 - e0) <= 1e-6 * abs(e0)

    def test_leapfrog_converges_to_spectral(self):
        st0 = single_mode_state()
        exact = kg_evolve_spectral(st0, 1.0, MASS)
        errs = []
        for steps in (1000, 2000):
            out = kg_evolve_leapfrog(st0, 1.0 / steps, steps, MASS)
            errs.append(sup_norm(out.phi.values - exact.phi.values))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_constraints_preserved(self, seed):
        st0 = random_state(seed)
        out = kg_evolve_spectral(st0, 2.7, MASS)
        assert out.constraint_residual() <= 1e-10 * max(sup_norm(out.phi), 1e-30)

    def test_enforce_constraints_residual(self):
        st0 = random_state(3)
        assert st0.constraint_residual() <= 1e-12 * max(sup_norm(st0.phi), 1e-30)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_nan_on_any_axis_gives_nan(self, axis):
        # the builtin max over the axes dropped a NaN after the first
        lat = Lattice(dim=2, n=8, length=2 * np.pi)
        st0 = random_state(6, lat=lat)
        comps = [c.values.copy() for c in st0.beta.components]
        comps[axis][3, 5] = np.nan
        bad = replace(st0, beta=VectorField(lat, tuple(ScalarField(lat, c) for c in comps)))
        assert np.isnan(bad.constraint_residual())

    def test_evolve_zero_steps_is_identity(self):
        st0 = random_state(8)
        out = kg_evolve_leapfrog(st0, 1e-3, 0, MASS)
        assert np.array_equal(out.phi.values, st0.phi.values)
        assert np.array_equal(out.p.values, st0.p.values)


class TestEvolution:
    def test_single_mode_closed_form(self):
        k, a, b = 2, 0.7, 0.4
        om = np.sqrt(k * k + MASS**2)
        x = LAT.coordinates()[0]
        st0 = enforce(
            ScalarField(LAT, a * np.cos(k * x)), ScalarField(LAT, b * np.cos(k * x))
        )
        s = 1.3
        out = kg_evolve_spectral(st0, s, MASS)
        expect_phi = (a * np.cos(om * s) + b * np.sin(om * s) / om) * np.cos(k * x)
        expect_p = (b * np.cos(om * s) - a * om * np.sin(om * s)) * np.cos(k * x)
        assert sup_norm(out.phi.values - expect_phi) < 1e-12
        assert sup_norm(out.p.values - expect_p) < 1e-12

    def test_massless_zero_mode_drifts(self):
        phi = ScalarField(LAT, np.full(LAT.shape, 0.2))
        p = ScalarField(LAT, np.full(LAT.shape, 0.5))
        out = kg_evolve_spectral(enforce(phi, p), 3.0, 0.0)
        assert sup_norm(out.phi.values - (0.2 + 3.0 * 0.5)) < 1e-13
        assert sup_norm(out.p.values - 0.5) < 1e-13

    def test_printed_mass_sign_is_tachyonic(self):
        # the printed slice Hamiltonian generates growth where k^2 < m^2:
        # keep it available, demonstrably wrong, and clearly labeled
        st0 = single_mode_state(k=1, amp_phi=1.0, amp_p=0.0)
        out = kg_evolve_spectral(st0, 4.0, 2.0, ledger="paper-printed")
        assert sup_norm(out.phi) > 10.0
        ok = kg_evolve_spectral(st0, 4.0, 2.0)
        assert sup_norm(ok.phi) <= 1.0 + 1e-12

    def test_unknown_ledger_rejected(self):
        with pytest.raises(ValueError, match="unknown ledger 'wat'"):
            kg_evolve_spectral(random_state(1), 1.0, MASS, ledger="wat")

    def test_record_on_another_lattice_rejected(self):
        # the frequencies come from the state's lattice; a record on the
        # box of length 4 pi, where the mode cos x would rotate as
        # cos(s / 2), refuses the state
        lat = Lattice(dim=1, n=8, length=2 * np.pi)
        x = lat.coordinates()[0]
        st0 = enforce(ScalarField(lat, np.cos(x)), ScalarField(lat, 0 * x))
        out = Theory.of("kg", lat).evolve(st0, 1.0)
        assert out.phi.values[0] == pytest.approx(np.cos(1.0), abs=1e-14)
        other = Theory.of("kg", Lattice(dim=1, n=8, length=4 * np.pi))
        for build in (lambda: other.evolve(st0, 1.0), lambda: other.section(st0, 1e-3, 2)):
            with pytest.raises(ValueError, match="record is on"):
                build()


class TestSectionResiduals:
    def test_dedonder_weyl_residual_small(self):
        st0 = random_state(4, band=2)
        section = kg_solution_section(st0, 1e-3, 80, MASS)
        assert kg_dedonder_weyl_residual(section) <= 1e-5

    def test_dedonder_weyl_ratio(self):
        st0 = random_state(4, band=2)
        r = []
        for dt in (1e-3, 5e-4):
            section = kg_solution_section(st0, dt, int(0.08 / dt), MASS)
            r.append(kg_dedonder_weyl_residual(section))
        assert r[0] / r[1] == pytest.approx(4.0, rel=0.2)

    def test_corrupted_momentum_detected(self):
        st0 = random_state(4, band=2)
        section = kg_solution_section(st0, 1e-3, 10, MASS)
        p = section.p.copy()
        p[len(p) // 2] += 1.0
        worse = replace(section, p=p)
        assert kg_dedonder_weyl_residual(worse) >= 1.0

    def test_too_few_slices_rejected(self):
        st0 = random_state(4)
        section = kg_solution_section(st0, 1e-3, 1, MASS)
        with pytest.raises(ValueError):
            kg_dedonder_weyl_residual(section)


class TestAction:
    def test_zero_section_zero_pairing(self):
        zero = enforce(
            ScalarField(LAT, np.zeros(LAT.shape)), ScalarField(LAT, np.zeros(LAT.shape))
        )
        section = kg_solution_section(zero, 1e-2, 5, MASS)
        var = random_state(11, band=1)
        assert kg_el_pairing(section, var) == 0.0
        assert kg_el_cancellation_scale(section, var) == 0.0

    def test_pairing_equals_difference_quotient(self):
        st0 = random_state(9, band=1)
        section = kg_solution_section(st0, 1e-2, 30, MASS)
        rng = seeded(10)
        d1 = random_state(11, band=1).phi
        d2 = random_state(12, band=1).p
        var = enforce(d1, d2)
        pairing = kg_el_pairing(section, var)
        v = bumped(section, var)

        def shifted(eps):
            return replace(
                section, **{n: getattr(section, n) + eps * getattr(v, n) for n in _FIELDS}
            )

        eps = 0.37
        quotient = (ref_action(shifted(eps)) - ref_action(shifted(-eps))) / (2 * eps)
        assert abs(pairing - quotient) <= 1e-9 * max(abs(pairing), 1.0)

    def test_pairing_is_linear_in_the_variation(self):
        # off shell, so that the pairing does not cancel: the kernel reads
        # the variation as a slice state under a fixed bump, and the
        # pairing is linear in that state
        section = kg_solution_section(random_state(9, band=1), 1e-2, 30, MASS)
        section = replace(section, p=section.p + 0.3 * section.phi)
        u = enforce(random_state(11, band=1).phi, random_state(12, band=1).p)
        w = enforce(random_state(13, band=1).phi, random_state(14, band=1).p)
        a, b = 0.7, -2.3
        both = enforce(
            ScalarField(LAT, a * u.phi.values + b * w.phi.values),
            ScalarField(LAT, a * u.p.values + b * w.p.values),
        )
        scale = abs(a) * kg_el_cancellation_scale(section, u) + abs(
            b
        ) * kg_el_cancellation_scale(section, w)
        expect = a * kg_el_pairing(section, u) + b * kg_el_pairing(section, w)
        assert abs(expect) > 1e-3 * scale
        assert abs(kg_el_pairing(section, both) - expect) <= 1e-13 * scale

    def test_cancellation_scale_amplitude_invariance(self):
        st0 = random_state(9, band=1)
        section = kg_solution_section(st0, 1e-2, 40, MASS)
        d1, d2 = random_state(13, band=1).phi, random_state(14, band=1).p
        var = enforce(d1, d2)
        r1 = abs(kg_el_pairing(section, var)) / kg_el_cancellation_scale(section, var)

        big = kg_solution_section(
            enforce(
                ScalarField(LAT, 10 * st0.phi.values),
                ScalarField(LAT, 10 * st0.p.values),
            ),
            1e-2,
            40,
            MASS,
        )
        var_big = enforce(ScalarField(LAT, 10 * d1.values), ScalarField(LAT, 10 * d2.values))
        r2 = abs(kg_el_pairing(big, var_big)) / kg_el_cancellation_scale(big, var_big)
        assert r1 == pytest.approx(r2, rel=1e-9)


# The real-space Lagrangian density and cancellation scale as they were
# written before the bilinear table, kept verbatim as independent
# references for the kernels of lattice.py; they read the variation's
# stacks written out by section_references.bumped.


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
    msq = section.mass**2
    h_d = lat.spacing**lat.dim
    dphi_dt = _time_derivative(phis, section.dt)
    grads = stack_gradient(lat, phis)
    temporal = -ps * dphi_dt
    spatial = np.einsum("ta...,ta...->t...", betas, grads)
    beta_sq = np.einsum("ta...,ta...->t...", betas, betas)
    ham = 0.5 * (-(ps**2) + beta_sq - msq * phis**2)
    dens = temporal + spatial - ham
    return h_d * dens.reshape(len(phis), -1).sum(axis=1)


_FIELDS = ("phi", "p", "beta")


def _stacks(section: KGSpacetimeSection):
    return tuple(getattr(section, n) for n in _FIELDS)


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
    msq = section.mass**2
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
        section = kg_solution_section(random_state(31, lat=lat), 1e-2, 24, 0.7)
        if not solution:
            # off shell: the pairing no longer cancels
            section = replace(section, p=section.p + 0.3 * section.phi)
        var = enforce(random_state(32, lat=lat).phi, random_state(33, lat=lat).p)
        stacks = bumped(section, var)
        scale = kg_el_cancellation_scale(section, var)
        assert scale == pytest.approx(ref_scale(section, stacks), rel=1e-12)
        assert abs(kg_el_pairing(section, var) - ref_pairing(section, stacks)) <= 1e-13 * scale
        if not solution:
            assert abs(ref_pairing(section, stacks)) > 1e-3 * scale


def reference_rotation(kappa: np.ndarray, lam: np.ndarray, s):
    """The rotation (c, r, q) of the flow d(a0, a1)/ds = (kappa a1,
    -lam a0) with every branch evaluated on every mode and picked by
    np.where: the reference for lattice._ModeFlow.rotation, which
    evaluates each branch once per class of equal k^2 on its own
    entries."""
    prod = kappa * lam
    pos, neg = prod > 0, prod < 0
    nu = np.sqrt(np.abs(prod))
    mu = nu / np.where(pos | neg, kappa, 1.0)
    safe_mu = np.where(pos | neg, mu, 1.0)
    x = nu * s
    with np.errstate(over="ignore"):
        c = np.where(pos, np.cos(x), np.where(neg, np.cosh(x), 1.0))
        r = np.where(pos, np.sin(x) / safe_mu, np.where(neg, np.sinh(x) / safe_mu, kappa * s))
        q = np.where(pos, mu * np.sin(x), np.where(neg, -mu * np.sinh(x), lam * s))
    return c, r, q


def same_bits(a, b):
    """Equal values, NaN in the same places, and the same signed zeros."""
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


# scalar times, a stacked (T, 1, ..., 1) grid of them, and a long one
TIMES = (0.0, -0.0, 0.83, -1.7, "steps", "grid")


def times(lat, which):
    if which == "steps":
        return 1e-3 * np.arange(7).reshape((-1,) + (1,) * lat.dim)
    if which == "grid":
        return np.array([0.0, -0.0, 1e-3, -0.37, 2.5, 40.0]).reshape((-1,) + (1,) * lat.dim)
    return which


class TestModeFlowRotation:
    # the resolved sign, massive and massless (kappa lam = 0 on the zero
    # mode), and the printed one with a mass between two lattice
    # wavenumbers, so that lam has positive and negative (hyperbolic)
    # entries, and with a mass on one
    @pytest.mark.parametrize(
        "ledger,mass",
        [("resolved", 0.7), ("resolved", 0.0), ("paper-printed", 1.5), ("paper-printed", 1.0)],
    )
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 8), (3, 8)])
    @pytest.mark.parametrize("which", TIMES)
    def test_matches_the_np_where_reference(self, dim, n, ledger, mass, which):
        from covlab.lattice import _ModeFlow

        lat = Lattice(dim=dim, n=n, length=2 * np.pi)
        generator = Theory.of("kg", lat, mass).generator(ledger)
        flow = _ModeFlow(lat, generator)
        kappa, lam = (c0 + c1 * lat.ksq() for c0, c1 in generator)
        s = times(lat, which)
        want = reference_rotation(kappa, lam, s)
        for got, ref in zip(flow.rotation(s), want):
            assert same_bits(got, ref)
            assert got.flags.c_contiguous
        # compact on a support: (B, 1) times against the reference's
        # columns of the support's modes
        index = np.arange(0, lat.site_count, 3)
        block = np.ravel(s)
        lead = (len(block),) + (1,) * dim
        want = reference_rotation(kappa, lam, block.reshape(lead))
        for got, ref in zip(flow.restricted(index).rotation(block[:, np.newaxis]), want):
            assert same_bits(got, ref.reshape(len(block), -1)[:, index])
            assert got.flags.c_contiguous
        if ledger == "paper-printed" and mass == 1.5:
            assert np.any(lam < 0) and np.any(lam > 0)
        if mass == 0.0:
            assert np.any(lam == 0)
        # the slice propagator applies the same rotation
        state = random_state(5, lat=lat)
        phihat, phat = dft(state.phi).coefficients, dft(state.p).coefficients
        c, r, q = reference_rotation(kappa, lam, s)
        got = flow.propagate(phihat, phat, s)
        for g, w in zip(got, (phihat * c + phat * r, phat * c - phihat * q)):
            assert same_bits(g.real, w.real) and same_bits(g.imag, w.imag)
