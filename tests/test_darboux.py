"""Rectifying mode transforms and the W bookkeeping coordinate."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlab import darboux
from covlab.darboux import (
    BLOCK_COEFFS,
    KGModeState,
    KGModeTangent,
    SchrModeState,
    SchrModeTangent,
    WOracle,
    WOracleClosednessError,
    kg_from_darboux,
    kg_mode_state,
    kg_slice_state,
    kg_to_darboux,
    kg_w_derived,
    kg_w_printed,
    random_hermitian_modes,
    schr_from_darboux,
    schr_mode_state,
    schr_slice_state,
    schr_to_darboux,
    schr_w_derived,
    schr_w_printed,
    theta_pullback_residual,
    w_oracle,
)
from covlab.kg import KGConfig, kg_evolve_spectral
from covlab.lattice import Lattice, ModeVector, sup_norm
from covlab.schrodinger import schr_evolve_spectral

LAT = Lattice(dim=1, n=64, length=2 * np.pi)
CFG = KGConfig(mass=1.0, lattice=LAT)


def seeded(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def kg_point(seed, time=0.0, band=None):
    rng = seeded(seed)
    return KGModeState(
        ModeVector(LAT, random_hermitian_modes(LAT, rng, band=band)),
        ModeVector(LAT, random_hermitian_modes(LAT, rng, band=band)),
        time=time,
    )


def schr_point(seed, time=0.0, band=None):
    rng = seeded(seed)
    return SchrModeState(
        ModeVector(LAT, random_hermitian_modes(LAT, rng, band=band)),
        ModeVector(LAT, random_hermitian_modes(LAT, rng, band=band)),
        time=time,
    )


class TestChart:
    @given(s=st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_kg_round_trip(self, s):
        m = kg_point(5, time=s)
        back = kg_from_darboux(kg_to_darboux(m, CFG), CFG)
        err = max(
            np.max(np.abs(back.phiHat.coefficients - m.phiHat.coefficients)),
            np.max(np.abs(back.pHat.coefficients - m.pHat.coefficients)),
        )
        scale = max(
            np.max(np.abs(m.phiHat.coefficients)),
            np.max(np.abs(m.pHat.coefficients)),
        )
        assert err <= 1e-13 * max(scale, 1.0)

    @given(s=st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_schr_round_trip(self, s):
        m = schr_point(6, time=s)
        back = schr_from_darboux(schr_to_darboux(m))
        err = max(
            np.max(np.abs(back.phiRHat.coefficients - m.phiRHat.coefficients)),
            np.max(np.abs(back.phiIHat.coefficients - m.phiIHat.coefficients)),
        )
        assert err <= 1e-13

    def test_kg_invariance_along_flow(self):
        from covlab.harness import ExperimentConfig, random_state

        hc = ExperimentConfig(theory="kg", experiment="darboux-check")
        st0 = random_state(hc)
        d0 = kg_to_darboux(kg_mode_state(st0), CFG)
        worst = 0.0
        scale = max(
            np.max(np.abs(d0.PhiHat.coefficients)),
            np.max(np.abs(d0.PHat.coefficients)),
        )
        for s in np.linspace(0.0, 10.0, 9):
            ds = kg_to_darboux(kg_mode_state(kg_evolve_spectral(st0, s, CFG)), CFG)
            worst = max(
                worst,
                np.max(np.abs(ds.PhiHat.coefficients - d0.PhiHat.coefficients)),
                np.max(np.abs(ds.PHat.coefficients - d0.PHat.coefficients)),
            )
        assert worst <= 1e-12 * scale

    def test_schr_invariance_along_flow(self):
        from covlab.harness import ExperimentConfig, random_state

        hc = ExperimentConfig(theory="schrodinger", experiment="darboux-check")
        st0 = random_state(hc)
        d0 = schr_to_darboux(schr_mode_state(st0))
        worst = 0.0
        for s in np.linspace(0.0, 10.0, 9):
            ds = schr_to_darboux(schr_mode_state(schr_evolve_spectral(st0, s)))
            worst = max(
                worst,
                np.max(np.abs(ds.PhiRHat.coefficients - d0.PhiRHat.coefficients)),
                np.max(np.abs(ds.PhiIHat.coefficients - d0.PhiIHat.coefficients)),
            )
        assert worst <= 1e-12

    def test_kg_quarter_period_single_mode(self):
        # at s = pi/(2 omega) the chart sends (phi, p) to (-p/omega, omega phi)
        k = 3
        om = float(np.sqrt(k * k + CFG.mass**2))
        coeff_phi = np.zeros(LAT.shape, dtype=complex)
        coeff_p = np.zeros(LAT.shape, dtype=complex)
        coeff_phi[k] = coeff_phi[-k] = 0.4
        coeff_p[k] = coeff_p[-k] = -0.7
        m = KGModeState(
            ModeVector(LAT, coeff_phi), ModeVector(LAT, coeff_p),
            time=np.pi / (2 * om),
        )
        d = kg_to_darboux(m, CFG)
        assert abs(d.PhiHat.coefficients[k] - (-(-0.7) / om)) < 1e-13
        assert abs(d.PHat.coefficients[k] - om * 0.4) < 1e-13

    def test_kg_massless_zero_mode_shear(self):
        cfg0 = KGConfig(mass=0.0, lattice=LAT)
        coeff_phi = np.zeros(LAT.shape, dtype=complex)
        coeff_p = np.zeros(LAT.shape, dtype=complex)
        coeff_phi[0] = 0.3
        coeff_p[0] = 0.9
        m = KGModeState(
            ModeVector(LAT, coeff_phi), ModeVector(LAT, coeff_p), time=2.0
        )
        d = kg_to_darboux(m, cfg0)
        assert abs(d.PhiHat.coefficients[0] - (0.3 - 2.0 * 0.9)) < 1e-13
        assert abs(d.PHat.coefficients[0] - 0.9) < 1e-13

    def test_schr_quarter_turn_single_mode(self):
        # theta = k^2 s / 2 = pi/2 at k = 1, s = pi: PhiR -> -b, PhiI -> a
        a, b = 0.8, -0.2
        cr = np.zeros(LAT.shape, dtype=complex)
        ci = np.zeros(LAT.shape, dtype=complex)
        cr[1] = cr[-1] = a
        ci[1] = ci[-1] = b
        m = SchrModeState(ModeVector(LAT, cr), ModeVector(LAT, ci), time=np.pi)
        d = schr_to_darboux(m)
        assert abs(d.PhiRHat.coefficients[1] - (-b)) < 1e-13
        assert abs(d.PhiIHat.coefficients[1] - a) < 1e-13

    def test_mode_state_round_trips_slice_state(self):
        from covlab.harness import ExperimentConfig, random_state

        hc = ExperimentConfig(theory="kg", experiment="darboux-check")
        st0 = random_state(hc)
        back = kg_slice_state(kg_mode_state(st0))
        assert sup_norm(back.phi.values - st0.phi.values) < 1e-13
        assert sup_norm(back.p.values - st0.p.values) < 1e-13

    def test_random_modes_hermitian_and_banded(self):
        from covlab.lattice import hermitian_defect

        arr = random_hermitian_modes(LAT, seeded(3), band=4)
        assert hermitian_defect(arr) < 1e-14
        idx = np.abs(np.fft.fftfreq(LAT.n, d=1.0 / LAT.n))
        assert np.all(arr[idx > 4] == 0.0)


class TestW:
    def test_w_zero_at_time_zero(self):
        m = kg_point(8, time=0.0)
        assert kg_w_derived(m, CFG) == 0.0
        sm = schr_point(9, time=0.0)
        assert schr_w_derived(sm) == 0.0

    def test_kg_w_matches_oracle_line_integral(self):
        oracle = w_oracle("kg", CFG)
        for seed in (1, 2, 3):
            m = kg_point(seed, time=1.7)
            assert abs(oracle.value(m) - kg_w_derived(m, CFG)) <= 1e-9

    def test_schr_w_matches_oracle_line_integral(self):
        oracle = w_oracle("schrodinger", LAT)
        for seed in (1, 2, 3):
            m = schr_point(seed, time=2.3)
            assert abs(oracle.value(m) - schr_w_derived(m)) <= 1e-9

    def test_oracle_loop_integral_vanishes(self):
        oracle = w_oracle("kg", CFG)
        pts = [kg_point(seed, time=t) for seed, t in ((1, 0.4), (2, 1.1), (3, 2.9))]
        assert abs(oracle.loop_integral(*pts)) <= 1e-9

    def test_oracle_rejects_printed_ledger(self):
        with pytest.raises(WOracleClosednessError):
            WOracle("kg", CFG, sign_ledger="paper-printed")
        with pytest.raises(WOracleClosednessError):
            WOracle("schrodinger", LAT, sign_ledger="paper-printed")

    def test_theta_pullback_oracle_identity(self):
        m = kg_point(4, time=1.3)
        rep = theta_pullback_residual("kg", m, cfg=CFG, tangent_count=50)
        assert rep.oracle_residual <= 1e-9
        sm = schr_point(5, time=0.8)
        rep_s = theta_pullback_residual("schrodinger", sm, tangent_count=50)
        assert rep_s.oracle_residual <= 1e-9

    def test_kg_printed_w_departs_at_generic_points(self):
        # the doubled cross term shows up in the differential: keep the
        # measured departure pinned so a silent "fix" cannot creep in
        m = kg_point(4, time=1.3)
        rep = theta_pullback_residual("kg", m, cfg=CFG, tangent_count=50)
        assert rep.printed_residual > 1e-3

    def test_kg_printed_w_agrees_without_cross_term(self):
        coeff = np.zeros(LAT.shape, dtype=complex)
        coeff[1] = coeff[-1] = 0.37
        m = KGModeState(
            ModeVector(LAT, coeff),
            ModeVector(LAT, np.zeros(LAT.shape, dtype=complex)),
            time=2.2,
        )
        assert abs(kg_w_printed(m, CFG) - kg_w_derived(m, CFG)) <= 1e-12

    def test_schr_printed_w_departs(self):
        sm = schr_point(5, time=0.8)
        d = schr_to_darboux(sm)
        assert abs(schr_w_printed(d) - schr_w_derived(sm)) > 1e-3

    def test_chart_w_consistency(self):
        # kg_to_darboux stores exactly the derived W
        m = kg_point(10, time=3.1)
        assert kg_to_darboux(m, CFG).W == pytest.approx(
            kg_w_derived(m, CFG), abs=1e-15
        )

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_oracle_differential_antisymmetry_free(self, seed):
        # the difference form is linear in the tangent
        m = kg_point(7, time=0.9)
        oracle = w_oracle("kg", CFG, check_points=0)
        rng = seeded(seed)
        t1 = KGModeTangent(
            random_hermitian_modes(LAT, rng),
            random_hermitian_modes(LAT, rng),
            float(rng.standard_normal()),
        )
        t2 = KGModeTangent(2.0 * t1.dphi, 2.0 * t1.dp, 2.0 * t1.ds)
        assert oracle.differential(m, t2) == pytest.approx(
            2.0 * oracle.differential(m, t1), rel=1e-12
        )


class TestValidation:
    def test_mismatched_lattices_rejected(self):
        other = Lattice(dim=1, n=32, length=2 * np.pi)
        with pytest.raises(ValueError):
            KGModeState(
                ModeVector(LAT, np.zeros(LAT.shape, dtype=complex)),
                ModeVector(other, np.zeros(other.shape, dtype=complex)),
            )

    def test_unknown_theory_rejected(self):
        with pytest.raises(ValueError):
            w_oracle("dirac", CFG)


# ---------------------------------------------------------------------------
# blocks: the oracle evaluated per point and per tangent, as it was before
# the difference form took stacks, is the reference the blocked
# evaluation must match bit for bit


def ref_sampler(lat, rng):
    arr = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    m1 = np.fft.fftfreq(lat.n, 1.0 / lat.n).astype(int)
    mask = np.ones(lat.shape, dtype=bool)
    for axis in range(lat.dim):
        mg = np.moveaxis(np.broadcast_to(m1, lat.shape), lat.dim - 1, axis)
        mask &= np.abs(mg) <= lat.n // 4
    arr = np.where(mask, arr, 0.0)
    reflected = np.conj(arr)
    for axis in range(lat.dim):
        reflected = np.roll(np.flip(reflected, axis=axis), 1, axis=axis)
    return 0.5 * (arr + reflected)


def ref_pairing(lat, x, dy):
    return lat.volume * float(np.real(np.sum(x * np.conj(dy))))


def ref_form(theory, cfg, a0, a1, s, d0, d1, ds):
    """Theta - canonical at one point along one tangent (resolved ledger)."""
    if theory == "kg":
        lat = cfg.lattice
        om = cfg.omega()
        hflow = 0.5 * lat.volume * float(np.sum(np.abs(a1) ** 2 + om**2 * np.abs(a0) ** 2))
        theta = ref_pairing(lat, a1, d0) - hflow * ds
        zero = om == 0.0
        c = np.cos(om * s)
        sinc = np.where(zero, s, np.sin(om * s) / np.where(zero, 1.0, om))
        om_sin = om * np.sin(om * s)
        P = c * a1 + om_sin * a0
        dPhi = c * d0 - sinc * d1 + (-om_sin * a0 - c * a1) * ds
        return theta - ref_pairing(lat, P, dPhi)
    lat = cfg
    ksq = lat.ksq()
    hflow = 0.5 * lat.volume * float(np.sum(ksq * (np.abs(a0) ** 2 + np.abs(a1) ** 2)))
    theta = 2.0 * ref_pairing(lat, a1, d0) - hflow * ds
    c, sg = np.cos(0.5 * ksq * s), np.sin(0.5 * ksq * s)
    B = c * a1 + sg * a0
    dA = c * d0 - sg * d1 + 0.5 * ksq * (-sg * a0 - c * a1) * ds
    return theta - 2.0 * ref_pairing(lat, B, dA)


def ref_value(theory, cfg, a0, a1, s, order=8):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    zeros = np.zeros_like(a0)
    total = 0.0
    for ui, wi in zip(u, w):
        total += wi * s * ref_form(theory, cfg, zeros, zeros, ui * s, zeros, zeros, 1.0)
    for ui, wi in zip(u, w):
        total += wi * ref_form(theory, cfg, ui * a0, ui * a1, s, a0, a1, 0.0)
    return total


def ref_loop(theory, cfg, points, om_max, order=8):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for (a0, a1, sa), (b0, b1, sb) in zip(points, points[1:] + points[:1]):
        panels = max(4, int(np.ceil(2.0 * om_max * abs(sb - sa))) + 1)
        for j in range(panels):
            lo, hi = j / panels, (j + 1) / panels
            for ui, wi in zip(
                0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * weights
            ):
                total += wi * ref_form(
                    theory,
                    cfg,
                    (1 - ui) * a0 + ui * b0,
                    (1 - ui) * a1 + ui * b1,
                    (1 - ui) * sa + ui * sb,
                    b0 - a0,
                    b1 - a1,
                    sb - sa,
                )
    return total


def ref_kg_dw(cfg, a0, a1, s, d0, d1, ds, cross_coeff):
    om = cfg.omega()
    zero = om == 0.0
    c, sg = np.cos(om * s), np.sin(om * s)
    half_sc_over_om = np.where(zero, 0.5 * s, 0.5 * sg * c / np.where(zero, 1.0, om))
    quad = np.abs(a1) ** 2 - om**2 * np.abs(a0) ** 2
    cross = np.real(a1 * np.conj(a0))
    d_quad = 2.0 * np.real(np.conj(a1) * d1) - om**2 * 2.0 * np.real(np.conj(a0) * d0)
    d_cross = np.real(d1 * np.conj(a0)) + np.real(a1 * np.conj(d0))
    d_per = (
        d_quad * half_sc_over_om
        + quad * 0.5 * (c**2 - sg**2) * ds
        + cross_coeff * d_cross * sg**2
        + cross_coeff * cross * 2.0 * sg * c * om * ds
    )
    return cfg.lattice.volume * float(np.sum(d_per))


def ref_schr_dw_derived(lat, a, b, s, da, db, ds):
    ksq = lat.ksq()
    c, sg = np.cos(0.5 * ksq * s), np.sin(0.5 * ksq * s)
    rate = ksq * (sg * c) * 2.0 * np.real(a * np.conj(b)) - 0.5 * ksq * (c**2 - sg**2) * (
        np.abs(a) ** 2 - np.abs(b) ** 2
    )
    dr = 2.0 * np.real(da * np.conj(b) + a * np.conj(db))
    dq = 2.0 * np.real(np.conj(a) * da) - 2.0 * np.real(np.conj(b) * db)
    return lat.volume * float(np.sum(rate * ds + sg**2 * dr - (sg * c) * dq))


def ref_schr_dw_printed(lat, a, b, s, da, db, ds):
    ksq = lat.ksq()
    c, sg = np.cos(0.5 * ksq * s), np.sin(0.5 * ksq * s)
    A, B = c * a - sg * b, c * b + sg * a
    dA = c * da - sg * db + 0.5 * ksq * (-sg * a - c * b) * ds
    dB = c * db + sg * da + 0.5 * ksq * (-sg * b + c * a) * ds
    d_per = (
        0.5 * ksq * np.cos(ksq * s) * ds * (np.abs(A) ** 2 - np.abs(B) ** 2)
        + 0.5 * np.sin(ksq * s) * (2.0 * np.real(np.conj(A) * dA) - 2.0 * np.real(np.conj(B) * dB))
        + 2.0 * np.real(dA * np.conj(B) + A * np.conj(dB)) * sg
        + 2.0 * np.real(A * np.conj(B)) * 0.5 * ksq * c * ds
    )
    return lat.volume * float(np.sum(d_per))


def ref_pullback(theory, cfg, a0, a1, s, tangent_count, seed):
    lat = cfg.lattice if theory == "kg" else cfg
    if theory == "kg":
        s_scale = 1.0 / (1.0 + 2.0 * float(np.max(cfg.omega())))
    else:
        s_scale = 1.0 / (1.0 + float(np.max(lat.ksq())))
    rng = seeded(seed)
    derived, printed = [], []
    for _ in range(tangent_count):
        t = (ref_sampler(lat, rng), ref_sampler(lat, rng), float(rng.standard_normal()) * s_scale)
        gap = ref_form(theory, cfg, a0, a1, s, *t)
        if theory == "kg":
            dw_derived = ref_kg_dw(cfg, a0, a1, s, *t, 1.0)
            dw_printed = ref_kg_dw(cfg, a0, a1, s, *t, 2.0)
        else:
            dw_derived = ref_schr_dw_derived(lat, a0, a1, s, *t)
            dw_printed = ref_schr_dw_printed(lat, a0, a1, s, *t)
        derived.append(abs(gap - dw_derived))
        printed.append(abs(gap - dw_printed))
    return max(derived), max(printed)


# 3D n=8 evaluates on the band, 125 of 512 modes
SHAPES = [(1, 64), (2, 8), (3, 4), (3, 8)]


def block_setup(theory, dim, n):
    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    cfg = KGConfig(mass=1.0, lattice=lat) if theory == "kg" else lat
    state = KGModeState if theory == "kg" else SchrModeState

    def point(seed, s):
        rng = seeded(seed)
        a0 = random_hermitian_modes(lat, rng)
        a1 = random_hermitian_modes(lat, rng)
        return state(ModeVector(lat, a0), ModeVector(lat, a1), time=s), (a0, a1, s)

    return lat, cfg, point


def block_sizes(lat):
    """The module's block, one point per block, and a block that does not
    divide the node or tangent counts."""
    return (BLOCK_COEFFS, lat.site_count, 3 * lat.site_count)


class TestBlocks:
    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    @pytest.mark.parametrize("dim,n", SHAPES)
    def test_value_and_differential_match_per_node_reference(self, monkeypatch, theory, dim, n):
        lat, cfg, point = block_setup(theory, dim, n)
        oracle = WOracle(theory, cfg, check_points=0)
        m, coords = point(11, 1.7)
        want = ref_value(theory, cfg, *coords)
        for coeffs in block_sizes(lat):
            monkeypatch.setattr(darboux, "BLOCK_COEFFS", coeffs)
            assert oracle.value(m) == want
        _, (d0, d1, _) = point(12, 0.0)
        tangent = (KGModeTangent if theory == "kg" else SchrModeTangent)(d0, d1, 0.3)
        assert oracle.differential(m, tangent) == ref_form(theory, cfg, *coords, d0, d1, 0.3)

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    @pytest.mark.parametrize("dim,n", SHAPES)
    def test_loop_integral_matches_per_node_reference(self, monkeypatch, theory, dim, n):
        lat, cfg, point = block_setup(theory, dim, n)
        oracle = WOracle(theory, cfg, check_points=0)
        pts = [point(seed, s) for seed, s in ((21, 0.8), (22, -1.1), (23, 2.4))]
        om_max = float(np.max(cfg.omega() if theory == "kg" else np.sqrt(lat.ksq())))
        want = ref_loop(theory, cfg, [c for _, c in pts], om_max)
        for coeffs in block_sizes(lat):
            monkeypatch.setattr(darboux, "BLOCK_COEFFS", coeffs)
            assert oracle.loop_integral(*(m for m, _ in pts)) == want

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    @pytest.mark.parametrize("dim,n", SHAPES)
    def test_pullback_matches_per_tangent_reference(self, monkeypatch, theory, dim, n):
        lat, cfg, point = block_setup(theory, dim, n)
        m, coords = point(31, -1.3)
        kcfg = cfg if theory == "kg" else None
        # 100 tangents: blocks of 64 and 36 at 1D n=64
        want = ref_pullback(theory, cfg, *coords, tangent_count=100, seed=41)
        for coeffs in block_sizes(lat):
            monkeypatch.setattr(darboux, "BLOCK_COEFFS", coeffs)
            rep = theta_pullback_residual(theory, m, kcfg, tangent_count=100, seed=41)
            assert (rep.oracle_residual, rep.printed_residual) == want
        assert want[0] <= 1e-9 < want[1]

    @pytest.mark.parametrize("dim,n", SHAPES)
    def test_block_sampler_reproduces_sequential_draws(self, dim, n):
        lat = Lattice(dim=dim, n=n, length=2 * np.pi)
        d0, d1, ds = darboux._tangent_block(lat, seeded(5), 7, 0.25)
        rng = seeded(5)
        for k in range(7):
            assert np.array_equal(d0[k], random_hermitian_modes(lat, rng))
            assert np.array_equal(d1[k], random_hermitian_modes(lat, rng))
            assert ds[k] == float(rng.standard_normal()) * 0.25
        rng = seeded(6)
        assert np.array_equal(random_hermitian_modes(lat, rng), ref_sampler(lat, seeded(6)))

    def test_nan_in_one_block_gives_nan_residuals(self, monkeypatch):
        calls = []
        sample = darboux._tangent_block

        def poisoned(*args):
            d0, d1, ds = sample(*args)
            calls.append(len(ds))
            if len(calls) == 2:
                ds = ds.copy()
                ds[-1] = np.nan
            return d0, d1, ds

        monkeypatch.setattr(darboux, "_tangent_block", poisoned)
        rep = theta_pullback_residual("kg", kg_point(4, time=1.3), cfg=CFG, tangent_count=100)
        assert calls == [64, 36]
        assert np.isnan(rep.oracle_residual) and np.isnan(rep.printed_residual)


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
@pytest.mark.parametrize("dim,n", SHAPES)
def test_derived_w_differential_matches_five_point_difference(theory, dim, n):
    lat, cfg, point = block_setup(theory, dim, n)
    m, (a0, a1, s) = point(51, 0.9)
    _, (d0, d1, _) = point(52, 0.0)
    ds = 0.05
    if theory == "kg":
        w = lambda x: kg_w_derived(x, cfg)
        dw = darboux._kg_w_differential(m, cfg, 1.0)(d0, d1, ds)
    else:
        w = schr_w_derived
        dw = darboux._schr_w_derived_differential(m)(d0, d1, ds)
    state = type(m)

    def f(h):
        return w(state(ModeVector(lat, a0 + h * d0), ModeVector(lat, a1 + h * d1), time=s + h * ds))

    h = 1e-3
    fd = (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)
    assert abs(dw - fd) <= 1e-7 * (1.0 + abs(dw))
    assert abs(dw) > 1.0


# ---------------------------------------------------------------------------
# supports: the oracle works on the modes its data occupy, read from the
# data; an entry outside the sampling band must count like any other


def off_band(lat):
    """The flat index of the Nyquist mode on the first axis, outside
    |m_j| <= n/4."""
    return np.ravel_multi_index((lat.n // 2,) + (0,) * (lat.dim - 1), lat.shape)


def poisoned(a, lat, entry):
    a = a.copy()
    a.reshape(-1)[off_band(lat)] = entry
    return a


ENTRIES = {"nan": np.nan, "nonzero": 0.3 - 0.2j}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
@pytest.mark.parametrize("dim,n", [(1, 64), (3, 8)])
def test_off_band_point_entry_counts(theory, dim, n, entry):
    lat, cfg, point = block_setup(theory, dim, n)
    oracle = WOracle(theory, cfg, check_points=0)
    state = type(point(1, 0.0)[0])

    def bad_point(seed, s):
        _, (a0, a1, _) = point(seed, s)
        a0 = poisoned(a0, lat, ENTRIES[entry])
        return state(ModeVector(lat, a0), ModeVector(lat, a1), time=s), (a0, a1, s)

    m, coords = bad_point(11, 1.7)
    # only p2 carries the entry: the edges p1 -> p2 and p2 -> p3 see it
    pts = [point(21, 0.8), bad_point(22, -1.1), point(23, 2.4)]
    om_max = float(np.max(cfg.omega() if theory == "kg" else np.sqrt(lat.ksq())))
    kcfg = cfg if theory == "kg" else None
    got = (
        oracle.value(m),
        oracle.loop_integral(*(p for p, _ in pts)),
        theta_pullback_residual(theory, m, kcfg, tangent_count=20, seed=41),
    )
    if entry == "nan":
        assert np.isnan(got[0]) and np.isnan(got[1])
        assert np.isnan(got[2].oracle_residual) and np.isnan(got[2].printed_residual)
    else:
        assert got[0] == ref_value(theory, cfg, *coords)
        assert got[1] == ref_loop(theory, cfg, [c for _, c in pts], om_max)
        want = ref_pullback(theory, cfg, *coords, tangent_count=20, seed=41)
        assert (got[2].oracle_residual, got[2].printed_residual) == want


def ref_block_gaps(theory, cfg, a0, a1, s, blocks):
    """Dense (derived, printed) sup gaps over the tangents of the blocks."""
    lat = cfg.lattice if theory == "kg" else cfg
    derived, printed = [], []
    for block in blocks:
        for d0, d1, ds in zip(*block):
            gap = ref_form(theory, cfg, a0, a1, s, d0, d1, ds)
            if theory == "kg":
                dws = [ref_kg_dw(cfg, a0, a1, s, d0, d1, ds, c) for c in (1.0, 2.0)]
            else:
                dws = [f(lat, a0, a1, s, d0, d1, ds) for f in (ref_schr_dw_derived, ref_schr_dw_printed)]
            derived.append(abs(gap - dws[0]))
            printed.append(abs(gap - dws[1]))
    return max(derived), max(printed)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
@pytest.mark.parametrize("dim,n", [(1, 64), (3, 8)])
def test_off_band_tangent_entry_counts(monkeypatch, theory, dim, n, entry):
    lat, cfg, point = block_setup(theory, dim, n)
    m, coords = point(31, -1.3)
    blocks = []
    sample = darboux._tangent_block

    def drawn(*args):
        d0, d1, ds = sample(*args)
        if len(blocks) == 1:
            d1 = poisoned(d1, lat, ENTRIES[entry])
        blocks.append((d0, d1, ds))
        return d0, d1, ds

    monkeypatch.setattr(darboux, "BLOCK_COEFFS", 4 * lat.site_count)
    monkeypatch.setattr(darboux, "_tangent_block", drawn)
    kcfg = cfg if theory == "kg" else None
    rep = theta_pullback_residual(theory, m, kcfg, tangent_count=10, seed=41)
    assert len(blocks) == 3
    got = (rep.oracle_residual, rep.printed_residual)
    if entry == "nan":
        assert np.isnan(got[0]) and np.isnan(got[1])
    else:
        assert got == ref_block_gaps(theory, cfg, *coords, blocks)


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_non_finite_time_keeps_nan_on_zero_fields(theory):
    # the chart's factors are NaN at every mode, so no support may drop one
    _, cfg, _ = block_setup(theory, 2, 8)
    oracle = WOracle(theory, cfg, check_points=0)
    lat = oracle.lattice
    zeros = np.zeros(lat.shape, dtype=complex)
    state = KGModeState if theory == "kg" else SchrModeState
    tangent = KGModeTangent if theory == "kg" else SchrModeTangent
    with np.errstate(invalid="ignore"):
        for s in (np.nan, np.inf):
            m = state(ModeVector(lat, zeros), ModeVector(lat, zeros), time=s)
            assert np.isnan(oracle.differential(m, tangent(zeros, zeros, 0.0)))
        m = state(ModeVector(lat, zeros), ModeVector(lat, zeros), time=0.5)
        assert np.isnan(oracle.differential(m, tangent(zeros, zeros, np.nan)))


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_mode_sums_run_on_the_support(monkeypatch, theory):
    # 3D n=16: points and tangents on |m_j| <= 4 occupy 729 of 4096 modes
    lat, cfg, point = block_setup(theory, 3, 16)
    oracle = WOracle(theory, cfg, check_points=0)
    lengths = []
    mode_sum = darboux._mode_sum

    def recorded(lattice, index, x):
        lengths.append(x.shape[-1])
        return mode_sum(lattice, index, x)

    monkeypatch.setattr(darboux, "_mode_sum", recorded)
    m, (a0, a1, _) = point(11, 1.7)
    pts = [point(seed, t)[0] for seed, t in ((21, 0.8), (22, -1.1), (23, 2.4))]
    kcfg = cfg if theory == "kg" else None
    oracle.value(m)
    oracle.loop_integral(*pts)
    oracle.differential(m, (a1, a0, 0.3))
    theta_pullback_residual(theory, m, kcfg, tangent_count=3)
    assert lengths and set(lengths) == {729}
    # the support is read from the data, not from the sampling band
    rng = seeded(7)
    narrow = type(m)(
        ModeVector(lat, random_hermitian_modes(lat, rng, band=1)),
        ModeVector(lat, random_hermitian_modes(lat, rng, band=1)),
        time=0.4,
    )
    lengths.clear()
    oracle.value(narrow)
    assert set(lengths) == {27}
    lengths.clear()
    oracle.differential(narrow, (random_hermitian_modes(lat, rng, band=2), np.zeros_like(a0), 0.1))
    assert set(lengths) == {125}


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_loop_integral_with_a_non_finite_time_is_nan(theory):
    _, cfg, point = block_setup(theory, 1, 16)
    oracle = WOracle(theory, cfg, check_points=0)
    p1, p2 = point(21, 0.8)[0], point(22, -1.1)[0]
    assert np.isfinite(oracle.loop_integral(p1, p2, point(23, 2.4)[0]))
    for s in (np.nan, np.inf, -np.inf):
        assert np.isnan(oracle.loop_integral(p1, p2, point(23, s)[0]))
        assert np.isnan(oracle.loop_integral(point(23, s)[0], p1, p2))


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_loop_integral_refuses_an_edge_over_the_panel_budget(theory, monkeypatch):
    _, cfg, point = block_setup(theory, 1, 16)
    oracle = WOracle(theory, cfg, check_points=0)
    p1, p2 = point(21, 0.8)[0], point(22, -1.1)[0]
    for s in (1e300, -1.7e308):
        with pytest.raises(ValueError, match=re.escape(f"s=-1.1 to s={s!r} needs ")):
            oracle.loop_integral(p1, p2, point(23, s)[0])
    # the budget is the module constant: the longest edge, from s=-1.1 to
    # s=2.4, runs at a budget of its exact panel count and is refused one
    # panel below it
    om_max = float(np.max(cfg.omega() if theory == "kg" else np.sqrt(cfg.ksq())))
    need = int(np.ceil(2.0 * om_max * 3.5)) + 1
    p3 = point(23, 2.4)[0]
    monkeypatch.setattr(darboux, "LOOP_PANEL_BUDGET", need)
    oracle.loop_integral(p1, p2, p3)
    monkeypatch.setattr(darboux, "LOOP_PANEL_BUDGET", need - 1)
    with pytest.raises(ValueError, match="s=-1.1 to s=2.4 needs"):
        oracle.loop_integral(p1, p2, p3)
