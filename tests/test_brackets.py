"""The two-form on solutions, the bivector, and the bracket algebra."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from section_references import hermitize

from bracket_references import (
    construction_crosscheck,
    fd_gradient,
    fd_richardson_check,
    fd_w_slope,
    lambda_pairing,
    omega_schr_expansion_check,
)
from covlab.brackets import (
    Observable,
    TangentPair,
    bracket_equivalence_check,
    hamiltonian_vector_field,
    jacobi_bracket,
    mode_real_part,
    omega,
    omega_slice_report,
    poisson_bracket,
    product_observable,
    quadratic_cross,
    quadratic_power,
    smeared_observable,
    subalgebra_closure_check,
    w_coordinate,
)
from covlab.darboux import DarbouxState, Theory, random_hermitian_modes
from covlab.lattice import Lattice, ModeVector, ScalarField, idft

LAT = Lattice(dim=1, n=64, length=2 * np.pi)
KG = Theory.of("kg", LAT, 1.0)
SCHR = Theory.of("schrodinger", LAT)
VOL = LAT.volume


def seeded(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def banded_field(rng, band=8, lat=LAT):
    coeff = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    mask = np.abs(np.fft.fftfreq(lat.n, d=1.0 / lat.n)) <= band
    coeff[~mask] = 0.0
    return idft(ModeVector(lat, hermitize(coeff)))


# variations of the linear theories are slice states


def kg_variation(seed, lat=LAT):
    rng = seeded(seed)
    return Theory.of("kg", lat).enforce(banded_field(rng, lat=lat), banded_field(rng, lat=lat))


def schr_variation(seed, lat=LAT):
    rng = seeded(seed)
    return Theory.of("schrodinger", lat).enforce(
        banded_field(rng, lat=lat), banded_field(rng, lat=lat)
    )


def kg_slice_variation(dphi, dp):
    return KG.enforce(ScalarField(LAT, dphi), ScalarField(LAT, dp))


def schr_slice_variation(dphiR, dphiI):
    return SCHR.enforce(ScalarField(LAT, dphiR), ScalarField(LAT, dphiI))


def kg_point(seed, time=1.3, W=0.5, band=None):
    rng = seeded(seed)
    return DarbouxState(
        ModeVector(LAT, random_hermitian_modes(LAT, rng, band=band)),
        ModeVector(LAT, random_hermitian_modes(LAT, rng, band=band)),
        W=W,
        time=time,
    )


def schr_point(seed, time=1.3, W=0.5, band=None):
    rng = seeded(seed)
    return DarbouxState(
        ModeVector(LAT, random_hermitian_modes(LAT, rng, band=band)),
        ModeVector(LAT, random_hermitian_modes(LAT, rng, band=band)),
        W=W,
        time=time,
    )


def constant_observable(theory, value):
    def gradient(pt):
        z = np.zeros(LAT.shape, dtype=complex)
        return z, z

    return Observable(
        theory=theory,
        evaluate=lambda pt: float(value),
        gradient=gradient,
        w_derivative=lambda pt: 0.0,
        name=f"const {value}",
    )


class TestOmega:
    def test_kg_sine_pair_value(self):
        # with dphi_U = sin x and dp_V = sin x the pairing collapses to
        # -integral sin^2 dx = -pi on the circle of circumference 2 pi
        x = LAT.coordinates()[0]
        zero = np.zeros(LAT.shape)
        U = kg_slice_variation(np.sin(x), zero)
        V = kg_slice_variation(zero, np.sin(x))
        assert omega(KG, U, V) == pytest.approx(-np.pi, abs=1e-12)

    def test_schr_sine_pair_value(self):
        # the doubled pairing gives 2 integral sin^2 dx = 2 pi
        x = LAT.coordinates()[0]
        zero = np.zeros(LAT.shape)
        U = schr_slice_variation(zero, np.sin(x))
        V = schr_slice_variation(np.sin(x), zero)
        assert omega(SCHR, U, V) == pytest.approx(2 * np.pi, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_antisymmetry(self, seed):
        U = kg_variation(seed)
        V = kg_variation(seed + 77)
        a = omega(KG, U, V)
        assert abs(a + omega(KG, V, U)) <= 1e-13 * max(1.0, abs(a))

    def test_schr_site_expansion_matches_closed_form(self):
        U = schr_variation(11)
        V = schr_variation(12)
        assert omega_schr_expansion_check(U, V, LAT) <= 1e-11

    def test_slice_independence(self):
        rng = seeded(5)
        sol = KG.enforce(banded_field(rng), banded_field(rng))
        rep = omega_slice_report(
            KG,
            sol,
            kg_variation(6),
            kg_variation(7),
            times=np.linspace(0.0, 5.0, 6),
        )
        assert rep.max_rel_spread <= 1e-10
        assert len(rep.values) == 6

    def test_slice_independence_schr(self):
        sol = SCHR.enforce(banded_field(seeded(8)), banded_field(seeded(9)))
        rep = omega_slice_report(
            SCHR,
            sol,
            schr_variation(6),
            schr_variation(7),
            times=np.linspace(0.0, 5.0, 6),
        )
        assert rep.max_rel_spread <= 1e-10

    def test_frozen_variation_control(self):
        # leaving V at its initial data breaks conservation at O(1)
        rng = seeded(5)
        sol = KG.enforce(banded_field(rng), banded_field(rng))
        rep = omega_slice_report(
            KG,
            sol,
            kg_variation(6),
            kg_variation(7),
            times=np.linspace(0.0, 5.0, 6),
            freeze="v",
        )
        assert rep.max_rel_spread > 0.1

    @pytest.mark.parametrize("freeze", ["V", "U", "u", "", "both", 1])
    def test_unknown_freeze_rejected(self, freeze):
        # "V" used to run the positive check, a spread of 9.5e-16 where
        # "v" reads 1.43
        rng = seeded(5)
        sol = KG.enforce(banded_field(rng), banded_field(rng))
        with pytest.raises(ValueError, match=f"freeze must be .*got {freeze!r}"):
            omega_slice_report(KG, sol, kg_variation(6), kg_variation(7), (0.0, 1.0), freeze)

    def test_lattice_mismatch_rejected(self):
        other = Lattice(dim=1, n=32, length=2 * np.pi)
        with pytest.raises(ValueError):
            omega(Theory.of("kg", other, 1.0), kg_variation(1), kg_variation(2))

    def test_tangent_pair_checks_lattices(self):
        other = Lattice(dim=1, n=32, length=2 * np.pi)
        with pytest.raises(ValueError):
            TangentPair(kg_variation(1), kg_variation(2, lat=other))

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    def test_variation_time_is_not_read(self, theory):
        # omega and the smeared observables take the chart time as an
        # argument; the time a variation carries as a slice state is unused
        th, var = (KG, kg_variation) if theory == "kg" else (SCHR, schr_variation)
        U, V = var(3), var(4)
        late = replace(U, time=2.5)
        assert omega(th, late, V) == omega(th, U, V)
        pt = darboux_point(LAT, 5)
        F, G = (smeared_observable(th, u, time=0.4) for u in (U, late))
        assert F.evaluate(pt) == G.evaluate(pt)


class TestStructureConstants:
    @given(st.integers(1, 31))
    @settings(max_examples=12, deadline=None)
    def test_kg_canonical_pair_paired_modes(self, k0):
        # a non-self-conjugate mode splits its weight between k0 and -k0,
        # so the canonical pair bracket is -1/(2 vol)
        F = mode_real_part(KG, "Phi", k0)
        G = mode_real_part(KG, "P", k0)
        assert jacobi_bracket(F, G, kg_point(21)) == pytest.approx(
            -1.0 / (2 * VOL), rel=1e-13
        )

    def test_kg_canonical_pair_self_conjugate_modes(self):
        for k0 in (0, LAT.n // 2):
            F = mode_real_part(KG, "Phi", k0)
            G = mode_real_part(KG, "P", k0)
            assert jacobi_bracket(F, G, kg_point(21)) == pytest.approx(
                -1.0 / VOL, rel=1e-13
            )

    def test_schr_canonical_pair(self):
        pt = schr_point(22)
        F = mode_real_part(SCHR, "PhiR", 3)
        G = mode_real_part(SCHR, "PhiI", 3)
        assert jacobi_bracket(F, G, pt) == pytest.approx(-1.0 / (4 * VOL), rel=1e-13)
        F0 = mode_real_part(SCHR, "PhiR", 0)
        G0 = mode_real_part(SCHR, "PhiI", 0)
        assert jacobi_bracket(F0, G0, pt) == pytest.approx(-1.0 / (2 * VOL), rel=1e-13)

    def test_negative_mode_index_wraps(self):
        F = mode_real_part(KG, "Phi", -1)
        G = mode_real_part(KG, "P", -1)
        assert jacobi_bracket(F, G, kg_point(26)) == pytest.approx(
            -1.0 / (2 * VOL), rel=1e-13
        )

    def test_distinct_modes_commute(self):
        pt = kg_point(23)
        F = mode_real_part(KG, "Phi", 1)
        others = (
            mode_real_part(KG, "P", 2),
            mode_real_part(KG, "Phi", 2),
            mode_real_part(KG, "Phi", 1),
        )
        for G in others:
            assert abs(jacobi_bracket(F, G, pt)) <= 1e-15

    def test_linear_brackets_are_point_independent(self):
        F = mode_real_part(KG, "Phi", 4)
        G = mode_real_part(KG, "P", 4)
        assert jacobi_bracket(F, G, kg_point(24)) == jacobi_bracket(
            F, G, kg_point(25, time=0.2, W=-2.0)
        )

    def test_bivector_against_w(self):
        # contracting dW picks out the momentum-slot coordinate itself:
        # Lambda(dW, dRe P(k0)) = Re P(k0), and the Phi slot pairs to zero
        pt = kg_point(27)
        w = w_coordinate(KG)
        for k0 in (0, 1, 5):
            G = mode_real_part(KG, "P", k0)
            want = G.evaluate(pt)
            assert lambda_pairing(w, G, pt) == pytest.approx(want, rel=1e-12)
            assert lambda_pairing(G, w, pt) == pytest.approx(-want, rel=1e-12)
            # the bracket along X_W: [W, G] = Lambda(dW, dG) - G
            assert jacobi_bracket(w, G, pt) + want == pytest.approx(want, rel=1e-12)
            assert jacobi_bracket(G, w, pt) - want == pytest.approx(-want, rel=1e-12)
            H = mode_real_part(KG, "Phi", k0)
            assert abs(lambda_pairing(w, H, pt)) <= 1e-15
            assert abs(jacobi_bracket(w, H, pt) + H.evaluate(pt)) <= 1e-15

    def test_bivector_against_w_schr(self):
        pt = schr_point(28)
        w = w_coordinate(SCHR)
        G = mode_real_part(SCHR, "PhiI", 2)
        assert lambda_pairing(w, G, pt) == pytest.approx(G.evaluate(pt), rel=1e-12)
        assert jacobi_bracket(w, G, pt) + G.evaluate(pt) == pytest.approx(
            G.evaluate(pt), rel=1e-12
        )
        H = mode_real_part(SCHR, "PhiR", 2)
        assert abs(lambda_pairing(w, H, pt)) <= 1e-15
        assert abs(jacobi_bracket(w, H, pt) + H.evaluate(pt)) <= 1e-15


class TestJacobiAndLeibniz:
    @staticmethod
    def nested(F, G, theory=KG):
        return Observable(theory, lambda p: jacobi_bracket(F, G, p), name="nested")

    def test_bracket_antisymmetry(self):
        pt = kg_point(31, band=LAT.n // 4)
        w = w_coordinate(KG)
        quad1 = quadratic_power(KG, 0)
        quad2 = quadratic_cross(KG)
        lin = mode_real_part(KG, "P", 1)
        wquad = product_observable(w, quad1)
        worst = 0.0
        for F, G in ((lin, quad1), (quad1, quad2), (wquad, lin), (w, quad2)):
            worst = max(
                worst, abs(jacobi_bracket(F, G, pt) + jacobi_bracket(G, F, pt))
            )
        assert worst <= 1e-12

    @pytest.mark.parametrize("name", ["kg", "schrodinger"])
    def test_bracket_antisymmetry_3d(self, name):
        # at 3D n=8 the unscaled sum reaches 1.7e-12 (KG) over seeds 0-7 and
        # 42; scaled as bracket-antisymmetry-scaled scales it, 1.0e-16
        lat = Lattice(dim=3, n=8, length=2 * np.pi)
        th = Theory.of(name, lat, 1.0)
        lin1, lin2 = (mode_real_part(th, slot, (1, 0, 0)) for slot in th.slots)
        quad1, quad2, w = quadratic_power(th, 0), quadratic_cross(th), w_coordinate(th)
        wquad = product_observable(w, quad1)
        worst = 0.0
        for seed in [*range(8), 42]:
            rng = seeded(seed)
            modes = [ModeVector(lat, random_hermitian_modes(lat, rng, band=2)) for _ in range(2)]
            pt = DarbouxState(*modes, W=0.5, time=1.3)
            for F, G in ((lin1, quad1), (lin2, quad1), (quad1, quad2), (wquad, lin2), (w, quad2)):
                fg, gf = jacobi_bracket(F, G, pt), jacobi_bracket(G, F, pt)
                FGW = F.evaluate(pt) * G.w_derivative_at(pt)
                GFW = G.evaluate(pt) * F.w_derivative_at(pt)
                scale = 1.0 + abs(fg) + abs(gf) + abs(FGW) + abs(GFW)
                worst = max(worst, abs(fg + gf) / scale)
        assert worst <= 1e-12

    def test_jacobi_identity_quadratics(self):
        pt = kg_point(32, band=LAT.n // 4)
        F = quadratic_power(KG, 0)
        G = quadratic_cross(KG)
        H = quadratic_power(KG, 1)
        terms = (
            jacobi_bracket(F, self.nested(G, H), pt),
            jacobi_bracket(G, self.nested(H, F), pt),
            jacobi_bracket(H, self.nested(F, G), pt),
        )
        scale = 1.0 + sum(abs(x) for x in terms)
        assert abs(sum(terms)) / scale <= 1e-8

    def test_jacobi_identity_with_w(self):
        pt = schr_point(33, band=LAT.n // 4)
        th = SCHR
        F = w_coordinate(th)
        G = quadratic_power(th, 0)
        H = mode_real_part(th, "PhiI", 1)
        terms = (
            jacobi_bracket(F, self.nested(G, H, th), pt),
            jacobi_bracket(G, self.nested(H, F, th), pt),
            jacobi_bracket(H, self.nested(F, G, th), pt),
        )
        scale = 1.0 + sum(abs(x) for x in terms)
        assert abs(sum(terms)) / scale <= 1e-8

    def test_leibniz_rule(self):
        # first order in each slot only up to the Reeb correction:
        # [f, gh] = [f, g] h + g [f, h] + g h reeb(f)
        pt = kg_point(34, band=LAT.n // 4)
        f = product_observable(w_coordinate(KG), quadratic_power(KG, 0))
        g = quadratic_cross(KG)
        h = quadratic_power(KG, 1)
        gh = product_observable(g, h)
        gv, hv = g.evaluate(pt), h.evaluate(pt)
        reeb_f = f.w_derivative_at(pt)
        lhs = jacobi_bracket(f, gh, pt)
        rhs = (
            jacobi_bracket(f, g, pt) * hv
            + gv * jacobi_bracket(f, h, pt)
            + gv * hv * reeb_f
        )
        assert abs(lhs - rhs) / (1.0 + abs(lhs)) <= 1e-9
        # flipping the correction term must miss by exactly 2 g h reeb(f)
        flipped = rhs - 2.0 * gv * hv * reeb_f
        assert abs(flipped - lhs) == pytest.approx(abs(2.0 * gv * hv * reeb_f), rel=1e-9)

    def test_leibniz_constants_example(self):
        # f = W, g = h = 2: [W, 4] = -4 while the flipped correction gives
        # -12, a defect of exactly 2 g h reeb(W) = 8
        f = w_coordinate(KG)
        g = constant_observable(KG, 2.0)
        h = constant_observable(KG, 2.0)
        gh = product_observable(g, h)
        pt = kg_point(35)
        lhs = jacobi_bracket(f, gh, pt)
        assert lhs == -4.0
        rhs = (
            jacobi_bracket(f, g, pt) * 2.0
            + 2.0 * jacobi_bracket(f, h, pt)
            + 4.0 * f.w_derivative_at(pt)
        )
        assert rhs == -4.0
        flipped = rhs - 2.0 * 4.0 * f.w_derivative_at(pt)
        assert flipped == -12.0
        assert abs(flipped - lhs) == 8.0


def darboux_point(lat, seed, time=1.3, W=0.5):
    rng = seeded(seed)
    band = lat.n // 4
    return DarbouxState(
        ModeVector(lat, random_hermitian_modes(lat, rng, band=band)),
        ModeVector(lat, random_hermitian_modes(lat, rng, band=band)),
        W=W,
        time=time,
    )


def contract(g0, g1, GW, tangent):
    """dG(tangent) from G's g-arrays and W-derivative."""
    d0, d1, dW = tangent
    return float(np.real(np.sum(g0 * d0) + np.sum(g1 * d1))) + GW * dW


def bracket_families(theory):
    first = (1,) + (0,) * (theory.lattice.dim - 1)
    lin1 = mode_real_part(theory, theory.slots[0], first)
    lin2 = mode_real_part(theory, theory.slots[1], first)
    quad1 = quadratic_power(theory, 0)
    quad2 = quadratic_cross(theory)
    w = w_coordinate(theory)
    wquad = product_observable(w, quad1)
    return lin1, lin2, quad1, quad2, w, wquad


class TestHamiltonianVectorField:
    """[F, G] = dG(X_F) - G reeb(F) with X_F = Lambda#(dF) + F R."""

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8)])
    def test_contraction_matches_bivector(self, theory, dim, n):
        lat = Lattice(dim=dim, n=n, length=2 * np.pi)
        pt = darboux_point(lat, 70 + dim)
        lin1, lin2, quad1, quad2, w, wquad = bracket_families(Theory.of(theory, lat, 1.0))
        pairs = ((lin1, quad1), (quad1, quad2), (wquad, lin2), (w, quad2), (quad2, wquad))
        for F, G in pairs:
            X = hamiltonian_vector_field(F, pt)
            FW, GW = F.w_derivative_at(pt), G.w_derivative_at(pt)
            Fv, Gv = F.evaluate(pt), G.evaluate(pt)
            lhs = contract(*G.gradient_at(pt), GW, X) - Gv * FW
            rhs = lambda_pairing(F, G, pt) + Fv * GW - Gv * FW
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (F.name, G.name)
            # and the bracket, dG(X_F) - G F_W, against the bivector written out
            value = jacobi_bracket(F, G, pt)
            assert abs(value - rhs) <= 1e-12 * max(1.0, abs(rhs)), (F.name, G.name)

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    def test_w_coordinate_field(self, theory):
        # X_W = Lambda#(dW) + W R: no mode gradient, so only the momentum
        # correction and the Reeb part remain
        pt = darboux_point(LAT, 75)
        d0, d1, dW = hamiltonian_vector_field(w_coordinate(Theory.of(theory, LAT, 1.0)), pt)
        assert np.all(d0 == 0.0)
        np.testing.assert_array_equal(d1, pt.a1.coefficients)
        assert dW == pt.W

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
    def test_nested_bracket_matches_fd_gradient(self, theory, dim, n):
        # independent cross-check: the directional derivative along X_A
        # against the mode-by-mode finite-difference gradient contracted
        # with X_A
        lat = Lattice(dim=dim, n=n, length=2 * np.pi)
        pt = darboux_point(lat, 80 + dim)
        th = Theory.of(theory, lat, 1.0)
        lin1, lin2, quad1, quad2, w, wquad = bracket_families(th)
        for A, B, C in ((lin1, lin2, quad2), (quad1, quad2, w), (wquad, quad1, lin2)):
            nested = TestJacobiAndLeibniz.nested(B, C, th)
            X_A = hamiltonian_vector_field(A, pt)
            dG = contract(*fd_gradient(nested, pt), fd_w_slope(nested.evaluate, pt, 1e-6), X_A)
            fd = dG - nested.evaluate(pt) * A.w_derivative_at(pt)
            value = jacobi_bracket(A, nested, pt)
            # the mode-by-mode central differences carry the rounding
            # noise (measured up to 3.5e-8 relative); a wrong field is O(1)
            assert abs(value - fd) <= 1e-6 * max(1.0, abs(fd)), (A.name, B.name, C.name)

    def test_nan_tangent_gives_nan_bracket(self):
        # F = |a0|^2 with a NaN in a0 at the modes +-1: X_F has d0 = 0 and
        # NaN in d1 and dW, so the directional derivative of a G without
        # gradient is NaN, not the 0 of a zero tangent
        lat = Lattice(dim=1, n=8, length=2 * np.pi)
        th = Theory.of("kg", lat, 1.0)
        ok = darboux_point(lat, 95)
        a0 = ok.a0.coefficients.copy()
        a0[[1, -1]] = np.nan
        pt = replace(ok, a0=ModeVector(lat, a0))
        F = quadratic_power(th, 0)
        G = Observable(th, lambda p: float(np.real(p.a1.coefficients[1])), name="Re a1(1)")
        assert np.isnan(F.evaluate(pt)) and np.isfinite(G.evaluate(pt))
        assert np.isnan(jacobi_bracket(F, G, pt))

    def test_nested_bracket_cost_is_independent_of_n(self):
        def calls_at(n):
            lat = Lattice(dim=1, n=n, length=2 * np.pi)
            pt = darboux_point(lat, 90)
            th = Theory.of("kg", lat, 1.0)
            lin1, lin2, quad1, quad2, w, wquad = bracket_families(th)
            count = 0

            def evaluate(p):
                nonlocal count
                count += 1
                return jacobi_bracket(wquad, quad2, p)

            nested = Observable(th, evaluate, name="nested")
            jacobi_bracket(lin1, nested, pt)
            return count

        assert calls_at(16) == calls_at(256) <= 5


class TestPoissonRestriction:
    def test_poisson_rejects_w_dependence(self):
        with pytest.raises(ValueError, match="subalgebra"):
            poisson_bracket(w_coordinate(KG), quadratic_power(KG, 0), kg_point(41))

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    def test_poisson_is_jacobi_on_subalgebra(self, theory):
        th, point = (KG, kg_point) if theory == "kg" else (SCHR, schr_point)
        lin1, lin2, quad1, quad2, _, _ = bracket_families(th)
        smeared = smeared_observable(th, (kg_variation if theory == "kg" else schr_variation)(3))
        pt = point(42)
        for F, G in ((quad1, quad2), (quad2, quad1), (lin1, lin2), (smeared, quad1)):
            assert poisson_bracket(F, G, pt) == jacobi_bracket(F, G, pt)

    @pytest.mark.parametrize("slot", ["first", "second"])
    @pytest.mark.parametrize("missing", ["gradient", "w_derivative"])
    def test_poisson_needs_analytic_derivatives_in_both_slots(self, slot, missing):
        # a slot without them would send jacobi_bracket along X_F
        F, G = quadratic_power(KG, 0), quadratic_cross(KG)
        if slot == "first":
            F = replace(F, **{missing: None})
        else:
            G = replace(G, **{missing: None})
        with pytest.raises(TypeError, match="has no analytic"):
            poisson_bracket(F, G, kg_point(42))

    def test_closure_kg(self):
        pts = [
            kg_point(43, band=LAT.n // 4),
            kg_point(44, time=0.4, W=-1.0, band=LAT.n // 4),
        ]
        rep = subalgebra_closure_check(quadratic_power(KG, 0), quadratic_cross(KG), pts)
        assert rep.passed
        assert rep.flow_spread <= 1e-10
        assert max(rep.reeb_residuals) <= 1e-10

    def test_closure_schr(self):
        pts = [schr_point(45, band=LAT.n // 4)]
        rep = subalgebra_closure_check(
            quadratic_power(SCHR, 0), quadratic_cross(SCHR), pts
        )
        assert rep.passed

    def test_closure_rejects_w_dependence(self):
        with pytest.raises(ValueError):
            subalgebra_closure_check(
                w_coordinate(KG), quadratic_cross(KG), [kg_point(46)]
            )


class TestEquivalence:
    def test_kg_smeared_brackets_match_omega(self):
        pairs = [
            TangentPair(kg_variation(100 + 2 * k), kg_variation(101 + 2 * k), time=0.7)
            for k in range(6)
        ]
        eq = bracket_equivalence_check(KG, pairs, kg_point(51))
        assert eq.max_mismatch <= 1e-9
        assert len(eq.mismatches) == 6

    def test_schr_smeared_brackets_match_omega(self):
        pairs = [
            TangentPair(
                schr_variation(120 + 2 * k), schr_variation(121 + 2 * k), time=1.1
            )
            for k in range(6)
        ]
        eq = bracket_equivalence_check(SCHR, pairs, schr_point(52))
        assert eq.max_mismatch <= 1e-9

    def test_smeared_observable_passes_construction_check(self):
        pt = kg_point(54)
        obs = smeared_observable(KG, kg_variation(53), time=0.3)
        construction_crosscheck(obs, pt)
        assert obs.w_derivative_at(pt) == 0.0


class TestDerivativeMachinery:
    def test_fd_gradient_matches_analytic(self):
        pt = kg_point(61)
        analytic = quadratic_cross(KG)
        probe = Observable(KG, analytic.evaluate, name="fd probe")
        ga = analytic.gradient_at(pt)
        gf = fd_gradient(probe, pt)
        for slot in (0, 1):
            diff = float(np.max(np.abs(ga[slot] - gf[slot])))
            assert diff <= 1e-7 * max(1.0, float(np.max(np.abs(ga[slot]))))

    def test_richardson_consistency(self):
        # quadratic evaluate, so the h-step truncation error vanishes and
        # the check bounds pure rounding amplification
        pt = kg_point(62)
        probe = Observable(KG, quadratic_power(KG, 0).evaluate, name="fd probe")
        assert fd_richardson_check(probe, pt) <= 1e-6

    def test_construction_check_catches_wrong_gradient(self):
        base = quadratic_power(KG, 0)

        def inflated(pt):
            g0, g1 = base.gradient(pt)
            return 1.5 * g0, g1

        wrong = Observable(KG, base.evaluate, gradient=inflated, w_derivative=lambda pt: 0.0)
        with pytest.raises(ValueError, match="gradients disagree"):
            construction_crosscheck(wrong, kg_point(63))

    def test_construction_check_catches_wrong_w_slope(self):
        wrong = Observable(KG, lambda pt: float(pt.W) ** 2, w_derivative=lambda pt: 3.0)
        with pytest.raises(ValueError, match="W-derivatives disagree"):
            construction_crosscheck(wrong, kg_point(64, W=0.8))

    def test_product_rule_derivatives(self):
        pt = kg_point(65)
        quad = quadratic_power(KG, 0)
        prod = product_observable(w_coordinate(KG), quad)
        assert prod.w_derivative_at(pt) == pytest.approx(quad.evaluate(pt), rel=1e-13)
        g_prod = prod.gradient_at(pt)[0]
        g_quad = quad.gradient_at(pt)[0]
        assert float(np.max(np.abs(g_prod - pt.W * g_quad))) <= 1e-13 * float(
            np.max(np.abs(g_quad))
        )

    def test_w_coordinate_reeb_is_unit(self):
        assert w_coordinate(KG).w_derivative_at(kg_point(67)) == 1.0

    def test_theory_mismatch_rejected(self):
        F = mode_real_part(KG, "Phi", 1)
        G = mode_real_part(SCHR, "PhiR", 1)
        with pytest.raises(ValueError, match="different theories"):
            jacobi_bracket(F, G, kg_point(68))

    def test_theory_mismatch_rejected_in_products(self):
        with pytest.raises(ValueError, match="different theories"):
            product_observable(quadratic_power(KG, 0), quadratic_power(SCHR, 0))

    def test_records_of_another_mass_rejected(self):
        # smeared observables on the KG records of mass 1 and mass 2 used
        # to pair, since only the theory names were compared
        heavy = Theory.of("kg", LAT, 2.0)
        F = smeared_observable(KG, kg_variation(1))
        G = smeared_observable(heavy, kg_variation(2))
        for pairing in (poisson_bracket, jacobi_bracket):
            with pytest.raises(ValueError, match="different kg records"):
                pairing(F, G, kg_point(69))
        with pytest.raises(ValueError, match="different kg records"):
            product_observable(F, G)

    def test_records_of_another_lattice_rejected(self):
        wide = Theory.of("kg", Lattice(dim=1, n=64, length=4 * np.pi), 1.0)
        F = mode_real_part(KG, "Phi", 1)
        G = mode_real_part(wide, "P", 1)
        with pytest.raises(ValueError, match="different kg records"):
            jacobi_bracket(F, G, kg_point(70))
        with pytest.raises(ValueError, match="different kg records"):
            jacobi_bracket(F, TestJacobiAndLeibniz.nested(G, G, wide), kg_point(70))

    def test_schr_records_pair_whatever_the_mass(self):
        # the Schrodinger record does not read its mass: records that
        # differ only there are one theory on one lattice
        massive = Theory.of("schrodinger", LAT, 1.0)
        assert massive is not SCHR
        pt = schr_point(71)
        F = quadratic_power(SCHR, 0)
        G = quadratic_cross(massive)
        assert poisson_bracket(F, G, pt) == poisson_bracket(F, quadratic_cross(SCHR), pt)

    @pytest.mark.parametrize("entry", ["jacobi", "jacobi-nested", "poisson", "field"])
    def test_point_on_another_lattice_rejected(self, entry):
        # a KG record on the 2 pi box and a point of the 4 pi box, 1D n=16
        lat, wide = (Lattice(dim=1, n=16, length=L) for L in (2 * np.pi, 4 * np.pi))
        th = Theory.of("kg", lat, 1.0)
        pt = darboux_point(wide, 72)
        F, G = quadratic_power(th, 0), quadratic_cross(th)
        calls = {
            "jacobi": lambda: jacobi_bracket(F, G, pt),
            "jacobi-nested": lambda: jacobi_bracket(F, TestJacobiAndLeibniz.nested(G, F, th), pt),
            "poisson": lambda: poisson_bracket(F, G, pt),
            "field": lambda: hamiltonian_vector_field(F, pt),
        }
        with pytest.raises(ValueError, match=re.escape(repr(wide))):
            calls[entry]()

    @pytest.mark.parametrize(
        "factory", ["mode", "power", "cross", "smeared", "w", "product"]
    )
    def test_observable_refuses_a_point_on_another_lattice(self, factory):
        # evaluated directly, a KG record's observables on the 2 pi box
        # read a point of the 4 pi box (1D n=16) as their own
        lat, wide = (Lattice(dim=1, n=16, length=L) for L in (2 * np.pi, 4 * np.pi))
        th = Theory.of("kg", lat, 1.0)
        bare = Observable(th, lambda pt: float(pt.W)), Observable(th, lambda pt: 2.0)
        F = {
            "mode": lambda: mode_real_part(th, "Phi", 1),
            "power": lambda: quadratic_power(th, 0),
            "cross": lambda: quadratic_cross(th),
            "smeared": lambda: smeared_observable(th, kg_variation(1, lat)),
            "w": lambda: w_coordinate(th),
            "product": lambda: product_observable(*bare),
        }[factory]()
        assert np.isfinite(F.evaluate(darboux_point(lat, 72)))
        with pytest.raises(ValueError, match=re.escape(repr(wide))):
            F.evaluate(darboux_point(wide, 72))

    def test_a_bare_function_observable_refuses_a_point_on_another_lattice(self):
        # the check is the Observable's, not its factory's: an observable
        # built from plain functions refuses the point in every entry point
        lat, wide = (Lattice(dim=1, n=16, length=L) for L in (2 * np.pi, 4 * np.pi))
        th = Theory.of("kg", lat, 1.0)
        zero = np.zeros(lat.shape, dtype=complex)
        F = Observable(
            th, lambda pt: float(pt.W), lambda pt: (zero, zero), lambda pt: 1.0, name="bare"
        )
        here, there = darboux_point(lat, 72), darboux_point(wide, 72)
        assert F.evaluate(here) == here.W and F.w_derivative_at(here) == 1.0
        assert [np.array_equal(g, zero) for g in F.gradient_at(here)] == [True, True]
        for entry in (F.evaluate, F.gradient_at, F.w_derivative_at):
            with pytest.raises(ValueError, match=re.escape(repr(wide))):
                entry(there)

    def test_a_rebuilt_observable_checks_the_lattice_once(self, monkeypatch):
        # Observable(th, G.evaluate) and a replace() copy keep G's checked
        # evaluate: wrapped again, one evaluation checked the point twice
        lat, wide = (Lattice(dim=1, n=16, length=L) for L in (2 * np.pi, 4 * np.pi))
        th = Theory.of("kg", lat, 1.0)
        calls = []
        check = Theory.check_lattice

        def counted(self, point):
            calls.append(point)
            return check(self, point)

        monkeypatch.setattr(Theory, "check_lattice", counted)
        G = quadratic_power(th, 0)
        here = darboux_point(lat, 72)
        want = G.evaluate(here)
        for F in (G, Observable(th, G.evaluate, name="values"), replace(G, name="copy")):
            calls.clear()
            assert F.evaluate(here) == want and len(calls) == 1
            with pytest.raises(ValueError, match=re.escape(repr(wide))):
                F.evaluate(darboux_point(wide, 72))


class TestAnalyticDerivativesOnly:
    """An observable carries analytic derivatives or none."""

    def test_missing_derivatives_raise(self):
        bare = Observable(KG, lambda pt: float(pt.W), name="bare W")
        pt = kg_point(73)
        with pytest.raises(TypeError, match="'bare W' has no analytic gradient"):
            bare.gradient_at(pt)
        with pytest.raises(TypeError, match="'bare W' has no analytic W-derivative"):
            bare.w_derivative_at(pt)

    def test_first_slot_needs_a_gradient(self):
        # a nested bracket has no gradient: it can only be a second slot
        lat = Lattice(dim=1, n=16, length=2 * np.pi)
        th = Theory.of("kg", lat, 1.0)
        pt = darboux_point(lat, 74)
        lin1, lin2, quad1, quad2, w, wquad = bracket_families(th)
        nested = TestJacobiAndLeibniz.nested(quad2, lin1, th)
        with pytest.raises(TypeError, match="'nested' has no analytic gradient"):
            jacobi_bracket(nested, quad1, pt)
        with pytest.raises(TypeError, match="'nested' has no analytic gradient"):
            hamiltonian_vector_field(nested, pt)
        assert np.isfinite(jacobi_bracket(quad1, nested, pt))

    def test_second_slot_with_gradient_only(self):
        # a G with a gradient but no W-derivative is evaluated along X_F,
        # like any second slot without both derivatives
        lat = Lattice(dim=1, n=16, length=2 * np.pi)
        th = Theory.of("kg", lat, 1.0)
        pt = darboux_point(lat, 76)
        lin1, lin2, quad1, quad2, w, wquad = bracket_families(th)
        for F, G in ((quad1, quad2), (wquad, lin2), (quad2, wquad)):
            bare = replace(G, w_derivative=None, name="gradient only")
            want = jacobi_bracket(F, G, pt)
            got = jacobi_bracket(F, bare, pt)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (F.name, G.name)

    def test_unknown_labels_rejected(self):
        with pytest.raises(ValueError):
            mode_real_part(KG, "Q", 1)
        # each record names its own slots only
        with pytest.raises(ValueError):
            mode_real_part(KG, "PhiR", 1)
        with pytest.raises(TypeError, match="Theory record"):
            Observable("kg", lambda pt: 0.0)
