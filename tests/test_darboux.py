"""Rectifying mode transforms and the W bookkeeping coordinate."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlab import darboux
from covlab.darboux import (
    BLOCK_COEFFS,
    KGTheory,
    ModeState,
    SchrTheory,
    Theory,
    WOracle,
    WOracleClosednessError,
    kg_from_darboux,
    kg_to_darboux,
    random_hermitian_modes,
    schr_from_darboux,
    schr_to_darboux,
    theta_pullback_residual,
)
from covlab.kg import KGConfig, kg_evolve_spectral
from covlab.lattice import Lattice, ModeVector, sup_norm
from covlab.schrodinger import schr_evolve_spectral

LAT = Lattice(dim=1, n=64, length=2 * np.pi)
CFG = KGConfig(mass=1.0, lattice=LAT)
KG = Theory.of("kg", LAT, 1.0)
SCHR = Theory.of("schrodinger", LAT)


def seeded(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def kg_point(seed, time=0.0, band=None):
    rng = seeded(seed)
    return ModeState(
        ModeVector(LAT, random_hermitian_modes(LAT, rng, band=band)),
        ModeVector(LAT, random_hermitian_modes(LAT, rng, band=band)),
        time=time,
    )


def schr_point(seed, time=0.0, band=None):
    rng = seeded(seed)
    return ModeState(
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
            np.max(np.abs(back.a0.coefficients - m.a0.coefficients)),
            np.max(np.abs(back.a1.coefficients - m.a1.coefficients)),
        )
        scale = max(
            np.max(np.abs(m.a0.coefficients)),
            np.max(np.abs(m.a1.coefficients)),
        )
        assert err <= 1e-13 * max(scale, 1.0)

    @given(s=st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_schr_round_trip(self, s):
        m = schr_point(6, time=s)
        back = schr_from_darboux(schr_to_darboux(m))
        err = max(
            np.max(np.abs(back.a0.coefficients - m.a0.coefficients)),
            np.max(np.abs(back.a1.coefficients - m.a1.coefficients)),
        )
        assert err <= 1e-13

    def test_kg_invariance_along_flow(self):
        from covlab.harness import ExperimentConfig, random_state

        hc = ExperimentConfig(theory="kg", experiment="darboux-check")
        st0 = random_state(hc)
        d0 = kg_to_darboux(KG.mode_state(st0), CFG)
        worst = 0.0
        scale = max(
            np.max(np.abs(d0.a0.coefficients)),
            np.max(np.abs(d0.a1.coefficients)),
        )
        for s in np.linspace(0.0, 10.0, 9):
            ds = kg_to_darboux(KG.mode_state(kg_evolve_spectral(st0, s, CFG)), CFG)
            worst = max(
                worst,
                np.max(np.abs(ds.a0.coefficients - d0.a0.coefficients)),
                np.max(np.abs(ds.a1.coefficients - d0.a1.coefficients)),
            )
        assert worst <= 1e-12 * scale

    def test_schr_invariance_along_flow(self):
        from covlab.harness import ExperimentConfig, random_state

        hc = ExperimentConfig(theory="schrodinger", experiment="darboux-check")
        st0 = random_state(hc)
        d0 = schr_to_darboux(SCHR.mode_state(st0))
        worst = 0.0
        for s in np.linspace(0.0, 10.0, 9):
            ds = schr_to_darboux(SCHR.mode_state(schr_evolve_spectral(st0, s)))
            worst = max(
                worst,
                np.max(np.abs(ds.a0.coefficients - d0.a0.coefficients)),
                np.max(np.abs(ds.a1.coefficients - d0.a1.coefficients)),
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
        m = ModeState(
            ModeVector(LAT, coeff_phi), ModeVector(LAT, coeff_p),
            time=np.pi / (2 * om),
        )
        d = kg_to_darboux(m, CFG)
        assert abs(d.a0.coefficients[k] - (-(-0.7) / om)) < 1e-13
        assert abs(d.a1.coefficients[k] - om * 0.4) < 1e-13

    def test_kg_massless_zero_mode_shear(self):
        cfg0 = KGConfig(mass=0.0, lattice=LAT)
        coeff_phi = np.zeros(LAT.shape, dtype=complex)
        coeff_p = np.zeros(LAT.shape, dtype=complex)
        coeff_phi[0] = 0.3
        coeff_p[0] = 0.9
        m = ModeState(
            ModeVector(LAT, coeff_phi), ModeVector(LAT, coeff_p), time=2.0
        )
        d = kg_to_darboux(m, cfg0)
        assert abs(d.a0.coefficients[0] - (0.3 - 2.0 * 0.9)) < 1e-13
        assert abs(d.a1.coefficients[0] - 0.9) < 1e-13

    def test_schr_quarter_turn_single_mode(self):
        # theta = k^2 s / 2 = pi/2 at k = 1, s = pi: PhiR -> -b, PhiI -> a
        a, b = 0.8, -0.2
        cr = np.zeros(LAT.shape, dtype=complex)
        ci = np.zeros(LAT.shape, dtype=complex)
        cr[1] = cr[-1] = a
        ci[1] = ci[-1] = b
        m = ModeState(ModeVector(LAT, cr), ModeVector(LAT, ci), time=np.pi)
        d = schr_to_darboux(m)
        assert abs(d.a0.coefficients[1] - (-b)) < 1e-13
        assert abs(d.a1.coefficients[1] - a) < 1e-13

    def test_mode_state_round_trips_slice_state(self):
        from covlab.harness import ExperimentConfig, random_state

        hc = ExperimentConfig(theory="kg", experiment="darboux-check")
        st0 = random_state(hc)
        back = KG.slice_state(KG.mode_state(st0))
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
        assert KG.w(m) == 0.0
        sm = schr_point(9, time=0.0)
        assert SCHR.w(sm) == 0.0

    def test_kg_w_matches_oracle_line_integral(self):
        oracle = WOracle(KG)
        for seed in (1, 2, 3):
            m = kg_point(seed, time=1.7)
            assert abs(oracle.value(m) - KG.w(m)) <= 1e-9

    def test_schr_w_matches_oracle_line_integral(self):
        oracle = WOracle(SCHR)
        for seed in (1, 2, 3):
            m = schr_point(seed, time=2.3)
            assert abs(oracle.value(m) - SCHR.w(m)) <= 1e-9

    def test_oracle_loop_integral_vanishes(self):
        oracle = WOracle(KG)
        pts = [kg_point(seed, time=t) for seed, t in ((1, 0.4), (2, 1.1), (3, 2.9))]
        assert abs(oracle.loop_integral(*pts)) <= 1e-9

    def test_oracle_rejects_printed_ledger(self):
        with pytest.raises(WOracleClosednessError):
            WOracle("kg", CFG, sign_ledger="paper-printed")
        with pytest.raises(WOracleClosednessError):
            WOracle("schrodinger", LAT, sign_ledger="paper-printed")

    def test_theta_pullback_oracle_identity(self):
        m = kg_point(4, time=1.3)
        rep = theta_pullback_residual(KG, m, tangent_count=50)
        assert rep.oracle_residual <= 1e-9
        sm = schr_point(5, time=0.8)
        rep_s = theta_pullback_residual(SCHR, sm, tangent_count=50)
        assert rep_s.oracle_residual <= 1e-9

    def test_kg_printed_w_departs_at_generic_points(self):
        # the doubled cross term shows up in the differential: keep the
        # measured departure pinned so a silent "fix" cannot creep in
        m = kg_point(4, time=1.3)
        rep = theta_pullback_residual(KG, m, tangent_count=50)
        assert rep.printed_residual > 1e-3

    def test_kg_printed_w_agrees_without_cross_term(self):
        coeff = np.zeros(LAT.shape, dtype=complex)
        coeff[1] = coeff[-1] = 0.37
        m = ModeState(
            ModeVector(LAT, coeff),
            ModeVector(LAT, np.zeros(LAT.shape, dtype=complex)),
            time=2.2,
        )
        assert abs(KG.w(m, printed=True) - KG.w(m)) <= 1e-12

    def test_schr_printed_w_departs(self):
        sm = schr_point(5, time=0.8)
        assert abs(SCHR.w(sm, printed=True) - SCHR.w(sm)) > 1e-3

    def test_chart_w_consistency(self):
        # kg_to_darboux stores exactly the derived W
        m = kg_point(10, time=3.1)
        assert kg_to_darboux(m, CFG).W == pytest.approx(KG.w(m), abs=1e-15)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_oracle_differential_antisymmetry_free(self, seed):
        # the difference form is linear in the tangent
        m = kg_point(7, time=0.9)
        oracle = WOracle(KG, check_points=0)
        rng = seeded(seed)
        t1 = (
            random_hermitian_modes(LAT, rng),
            random_hermitian_modes(LAT, rng),
            float(rng.standard_normal()),
        )
        t2 = tuple(2.0 * x for x in t1)
        assert oracle.differential(m, t2) == pytest.approx(
            2.0 * oracle.differential(m, t1), rel=1e-12
        )


class TestTheoryRecord:
    def test_records_per_theory(self):
        assert isinstance(KG, KGTheory) and isinstance(SCHR, SchrTheory)
        assert (KG.name, KG.weight, KG.fields, KG.slots) == ("kg", 1.0, ("phi", "p"), ("Phi", "P"))
        assert (SCHR.name, SCHR.weight, SCHR.fields, SCHR.slots) == (
            "schrodinger", 2.0, ("phiR", "phiI"), ("PhiR", "PhiI")
        )
        assert KG.cfg == CFG
        assert KG.freq is CFG.omega()

    @pytest.mark.parametrize(
        "th, to, back",
        [
            (KG, lambda m: kg_to_darboux(m, CFG), lambda d: kg_from_darboux(d, CFG)),
            (SCHR, schr_to_darboux, schr_from_darboux),
        ],
    )
    def test_record_chart_is_the_entry_points(self, th, to, back):
        m = kg_point(3, time=1.9)
        d, want = th.to_darboux(m), to(m)
        assert (d.W, d.time) == (want.W, want.time)
        for got, ref in zip(d.arrays + th.from_darboux(d).arrays, want.arrays + back(want).arrays):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("th, prefix", [(KG, "kg"), (SCHR, "schr")])
    def test_record_calls_entry_points_by_module_name(self, monkeypatch, th, prefix):
        # a record that kept the function objects would skip a name rebound
        # after import, as tracing wrappers are
        entries = ("to_darboux", "from_darboux", "evolve_spectral", "solution_section")
        names = [f"{prefix}_{entry}" for entry in entries]
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return call

        for name in names:
            monkeypatch.setattr(darboux, name, counted(name, getattr(darboux, name)))
        state = th.slice_state(kg_point(2, time=0.4))
        th.from_darboux(th.to_darboux(th.mode_state(th.evolve(state, 0.3))))
        th.section(state, 0.1, 2)
        assert sorted(calls) == sorted(names)

    def test_mode_state_round_trips_for_both_theories(self):
        m = kg_point(12, time=0.6)
        for th in (KG, SCHR):
            back = th.mode_state(th.slice_state(m))
            assert back.time == m.time
            for got, want in zip(back.arrays, m.arrays):
                assert np.max(np.abs(got - want)) < 1e-14


class TestValidation:
    def test_mismatched_lattices_rejected(self):
        other = Lattice(dim=1, n=32, length=2 * np.pi)
        with pytest.raises(ValueError):
            ModeState(
                ModeVector(LAT, np.zeros(LAT.shape, dtype=complex)),
                ModeVector(other, np.zeros(other.shape, dtype=complex)),
            )

    def test_unknown_theory_rejected(self):
        with pytest.raises(ValueError, match="unknown theory 'dirac'"):
            Theory.of("dirac", LAT)
        with pytest.raises(ValueError, match="unknown theory 'dirac'"):
            WOracle("dirac", CFG)

    @pytest.mark.parametrize("count", [0, -3])
    def test_pullback_needs_a_tangent(self, count):
        # with no tangent the residuals would read 0.0, and pass the gate
        # without a comparison
        with pytest.raises(ValueError, match="tangent_count"):
            theta_pullback_residual(KG, kg_point(4, time=1.3), tangent_count=count)

    @pytest.mark.parametrize("count", [2.5, True, np.float64(3.0)])
    def test_pullback_needs_an_integer_tangent_count(self, count):
        with pytest.raises(ValueError, match="tangent_count"):
            theta_pullback_residual(KG, kg_point(4, time=1.3), tangent_count=count)
        theta_pullback_residual(KG, kg_point(4, time=1.3), tangent_count=np.int64(3))

    def test_negative_band_rejected(self):
        # a negative band would leave no mode on it: all-zero coefficients
        with pytest.raises(ValueError, match="band"):
            random_hermitian_modes(LAT, seeded(3), band=-1)

    def test_negative_check_points_rejected(self):
        with pytest.raises(ValueError, match="check_points"):
            WOracle(KG, check_points=-1)
        WOracle(KG, check_points=0)

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    @pytest.mark.parametrize(
        "entry",
        [
            "to_darboux", "from_darboux", "w", "dw",
            "value", "differential", "loop_integral", "pullback",
        ],
    )
    def test_point_on_another_lattice_rejected(self, theory, entry):
        # a record on the 2 pi box given a point of the 4 pi box: before,
        # the oracle's value read half the record's W and the pullback an
        # oracle residual of 24.8 (KG, 1D n=16)
        lat, wide = (Lattice(dim=1, n=16, length=L) for L in (2 * np.pi, 4 * np.pi))
        th = Theory.of(theory, lat, 1.0)
        rng = seeded(7)
        m = ModeState(
            *(ModeVector(wide, random_hermitian_modes(wide, rng)) for _ in range(2)), time=0.6
        )
        tangent = (m.a0.coefficients, m.a1.coefficients, 0.3)
        oracle = WOracle(th, check_points=0)
        calls = {
            "to_darboux": lambda: th.to_darboux(m),
            "from_darboux": lambda: th.from_darboux(darboux.DarbouxState(m.a0, m.a1, W=0.0)),
            "w": lambda: th.w(m),
            "dw": lambda: th.dw(m),
            "value": lambda: oracle.value(m),
            "differential": lambda: oracle.differential(m, tangent),
            "loop_integral": lambda: oracle.loop_integral(m, m, m),
            "pullback": lambda: theta_pullback_residual(th, m, tangent_count=3),
        }
        with pytest.raises(ValueError, match=re.escape(repr(wide))):
            calls[entry]()


# ---------------------------------------------------------------------------
# blocks: the oracle evaluated per point and per tangent, as it was before
# the difference form took stacks, is the reference the blocked
# evaluation must match bit for bit


def band_mask(lat):
    """The modes with |m_j| <= n/4 on every axis."""
    m1 = np.fft.fftfreq(lat.n, 1.0 / lat.n).astype(int)
    mask = np.ones(lat.shape, dtype=bool)
    for axis in range(lat.dim):
        mg = np.moveaxis(np.broadcast_to(m1, lat.shape), lat.dim - 1, axis)
        mask &= np.abs(mg) <= lat.n // 4
    return mask


def reflected(arr):
    """arr[-m] at every mode m."""
    for axis in range(arr.ndim):
        arr = np.roll(np.flip(arr, axis=axis), 1, axis=axis)
    return arr


def ref_sampler(lat, rng):
    """random_hermitian_modes on the n/4 band: 2 N normals on the lattice."""
    arr = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    arr = np.where(band_mask(lat), arr, 0.0)
    return 0.5 * (arr + np.conj(reflected(arr)))


def ref_band_tangent(lat, rng, s_scale):
    """One pullback tangent (d0, d1, ds) from 4 M + 1 normals: the real
    then the imaginary parts of d0 and of d1 on the M band modes, in
    flat order, then ds / s_scale."""
    mask = band_mask(lat)
    m = int(mask.sum())
    raw = rng.standard_normal(4 * m + 1)

    def field(re, im):
        arr = np.zeros(lat.shape, dtype=complex)
        arr[mask] = re + 1j * im
        return 0.5 * (arr + np.conj(reflected(arr)))

    d0 = field(raw[:m], raw[m : 2 * m])
    d1 = field(raw[2 * m : 3 * m], raw[3 * m : 4 * m])
    return d0, d1, raw[4 * m] * s_scale


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


# per-theory closed forms of W and dW, independent of the shared
# gradient: test_w_matches_the_closed_forms compares the record's with them

def ref_kg_w(cfg, a0, a1, s, cross_coeff):
    """(1/2)(<p, phi> - <P, Phi>) as sin cos / (2 omega) (|p|^2 -
    omega^2 |phi|^2) + sin^2 Re(p conj phi) per mode; cross_coeff 2 gives
    the printed W."""
    om = cfg.omega()
    zero = om == 0.0
    c, sg = np.cos(om * s), np.sin(om * s)
    half_sc_over_om = np.where(zero, 0.5 * s, 0.5 * sg * c / np.where(zero, 1.0, om))
    quad = np.abs(a1) ** 2 - om**2 * np.abs(a0) ** 2
    cross = np.real(a1 * np.conj(a0))
    return cfg.lattice.volume * float(np.sum(quad * half_sc_over_om + cross_coeff * cross * sg**2))


def ref_schr_w(lat, a, b, s):
    """<phiR, phiI> - <PhiR, PhiI> as sin^2 2 Re(a conj b) - sin cos
    (|a|^2 - |b|^2) per mode."""
    ksq = lat.ksq()
    c, sg = np.cos(0.5 * ksq * s), np.sin(0.5 * ksq * s)
    per_mode = sg**2 * 2.0 * np.real(a * np.conj(b)) - sg * c * (np.abs(a) ** 2 - np.abs(b) ** 2)
    return lat.volume * float(np.sum(per_mode))


def ref_schr_w_printed(lat, a, b, s):
    """The printed W, in the chart's (A, B) = (PhiR, PhiI)."""
    ksq = lat.ksq()
    c, sg = np.cos(0.5 * ksq * s), np.sin(0.5 * ksq * s)
    A, B = c * a - sg * b, c * b + sg * a
    per_mode = 0.5 * np.sin(ksq * s) * (np.abs(A) ** 2 - np.abs(B) ** 2) + 2.0 * np.real(
        A * np.conj(B)
    ) * np.sin(0.5 * ksq * s)
    return lat.volume * float(np.sum(per_mode))


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


def ref_dw(theory, cfg, a0, a1, s, d0, d1, ds, printed):
    """dW along one tangent as the record computes it, on the whole
    lattice: the direct gradient plus the chart gradient pulled back
    through the chart's Jacobian, summed with the tangent."""
    if theory == "kg":
        lat, f, half = cfg.lattice, cfg.omega(), 0.5
        zero = f == 0.0
        c = np.cos(f * s)
        r = np.where(zero, s, np.sin(f * s) / np.where(zero, 1.0, f))
        q = f * np.sin(f * s)
        rate0, rate1 = -q * a0 - c * a1, f**2 * c * a0 - q * a1
    else:
        lat, f, half = cfg, cfg.ksq(), 1.0
        c, r = np.cos(0.5 * f * s), np.sin(0.5 * f * s)
        q = r
        rate0, rate1 = 0.5 * f * (-q * a0 - c * a1), 0.5 * f * (c * a0 - q * a1)
    A0, A1 = c * a0 - r * a1, c * a1 + q * a0
    g0, g1, gs = half * np.conj(a1), half * np.conj(a0), 0.0
    G0, G1, Gs = -half * np.conj(A1), -half * np.conj(A0), 0.0
    if printed and theory == "kg":
        sg, cs = np.sin(f * s), np.cos(f * s)
        g0 = g0 + sg**2 * np.conj(a1)
        g1 = g1 + sg**2 * np.conj(a0)
        gs = gs + np.real(a1 * np.conj(a0)) * 2.0 * sg * cs * f
    elif printed:
        full, hlf = np.sin(f * s), np.sin(0.5 * f * s)
        g0, g1, gs = 0.0, 0.0, 0.0
        G0 = full * np.conj(A0) + 2.0 * hlf * np.conj(A1)
        G1 = -full * np.conj(A1) + 2.0 * hlf * np.conj(A0)
        Gs = 0.5 * f * np.cos(f * s) * (np.abs(A0) ** 2 - np.abs(A1) ** 2) + np.real(
            A0 * np.conj(A1)
        ) * f * np.cos(0.5 * f * s)
    g0 = g0 + c * G0 + q * G1
    g1 = g1 - r * G0 + c * G1
    gs = np.sum(gs + Gs + np.real(G0 * rate0 + G1 * rate1))
    return lat.volume * (float(np.sum(np.real(g0 * d0 + g1 * d1))) + gs * ds)


def ref_pullback(theory, cfg, a0, a1, s, tangent_count, seed):
    lat = cfg.lattice if theory == "kg" else cfg
    if theory == "kg":
        s_scale = 1.0 / (1.0 + 2.0 * float(np.max(cfg.omega())))
    else:
        s_scale = 1.0 / (1.0 + float(np.max(lat.ksq())))
    rng = seeded(seed)
    derived, printed = [], []
    for _ in range(tangent_count):
        t = ref_band_tangent(lat, rng, s_scale)
        gap = ref_form(theory, cfg, a0, a1, s, *t)
        derived.append(abs(gap - ref_dw(theory, cfg, a0, a1, s, *t, False)))
        printed.append(abs(gap - ref_dw(theory, cfg, a0, a1, s, *t, True)))
    return max(derived), max(printed)


# 3D n=8 evaluates on the band, 125 of 512 modes
SHAPES = [(1, 64), (2, 8), (3, 4), (3, 8)]


def block_setup(theory, dim, n):
    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    cfg = KGConfig(mass=1.0, lattice=lat) if theory == "kg" else lat

    def point(seed, s):
        rng = seeded(seed)
        a0 = random_hermitian_modes(lat, rng)
        a1 = random_hermitian_modes(lat, rng)
        return ModeState(ModeVector(lat, a0), ModeVector(lat, a1), time=s), (a0, a1, s)

    return lat, cfg, point


def record(theory, lat):
    """The theory record block_setup's configs describe."""
    return Theory.of(theory, lat, 1.0)


def band_modes(lat):
    """The modes on |m_j| <= n/4, the support of block_setup's points and
    of the sampled tangents."""
    return len(darboux._band_pairs(lat, None)[0])


def block_sizes(lat):
    """The module's block, one point per block, and three points per
    block, which divides neither the 8 nodes of a segment nor 100
    tangents."""
    return (BLOCK_COEFFS, 1, 3 * band_modes(lat))


def on_lattice(lat, index, rows):
    """Compact rows (B, M) on the flat mode indices index as (B, *shape)."""
    full = np.zeros((len(rows), lat.site_count), dtype=rows.dtype)
    full[:, index] = rows
    return full.reshape((len(rows),) + lat.shape)


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
        assert oracle.differential(m, (d0, d1, 0.3)) == ref_form(theory, cfg, *coords, d0, d1, 0.3)

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
        # 100 tangents: one block at the module's size on the 33 band
        # modes at 1D n=64
        want = ref_pullback(theory, cfg, *coords, tangent_count=100, seed=41)
        for coeffs in block_sizes(lat):
            monkeypatch.setattr(darboux, "BLOCK_COEFFS", coeffs)
            rep = theta_pullback_residual(record(theory, lat), m, tangent_count=100, seed=41)
            assert (rep.oracle_residual, rep.printed_residual) == want
        assert want[0] <= 1e-9 < want[1]

    @pytest.mark.parametrize("dim,n", SHAPES)
    def test_block_sampler_reproduces_per_tangent_band_draws(self, dim, n):
        lat = Lattice(dim=dim, n=n, length=2 * np.pi)
        # 7 tangents in one draw, then in draws of 2 rows: 7 tangents in 4 draws
        for sizes in ((7,), (2, 2, 2, 1)):
            rng = seeded(5)
            draws = [darboux._tangent_block(lat, rng, size, 0.25) for size in sizes]
            index = draws[0][0]
            d0, d1, ds = (np.concatenate([draw[j] for draw in draws]) for j in (1, 2, 3))
            assert d0.shape == d1.shape == (7, band_modes(lat)) and ds.shape == (7,)
            d0, d1 = on_lattice(lat, index, d0), on_lattice(lat, index, d1)
            rng = seeded(5)
            for k in range(7):
                r0, r1, rs = ref_band_tangent(lat, rng, 0.25)
                assert np.array_equal(d0[k], r0)
                assert np.array_equal(d1[k], r1)
                assert ds[k] == rs
        rng = seeded(6)
        assert np.array_equal(random_hermitian_modes(lat, rng), ref_sampler(lat, seeded(6)))

    @given(
        shape=st.sampled_from(SHAPES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_drawn_tangents_are_reality_symmetric(self, shape, seed, count):
        lat = Lattice(dim=shape[0], n=shape[1], length=2 * np.pi)
        index, d0, d1, _ = darboux._tangent_block(lat, seeded(seed), count, 1.0)
        zero_mode = (0,) * lat.dim
        for d in (*on_lattice(lat, index, d0), *on_lattice(lat, index, d1)):
            assert np.array_equal(reflected(d), np.conj(d))
            # the self-conjugate mode m = 0 comes out real
            assert d[zero_mode].imag == 0.0 and d[zero_mode].real != 0.0

    def test_nan_in_one_block_gives_nan_residuals(self, monkeypatch):
        calls = []
        sample = darboux._tangent_block

        def poisoned(*args):
            index, d0, d1, ds = sample(*args)
            calls.append(len(ds))
            if len(calls) == 2:
                ds[-1] = np.nan
            return index, d0, d1, ds

        monkeypatch.setattr(darboux, "_tangent_block", poisoned)
        rep = theta_pullback_residual(KG, kg_point(4, time=1.3), tangent_count=300)
        # blocks of 4096 // 33 tangents on the band at 1D n=64
        assert calls == [124, 124, 52]
        assert np.isnan(rep.oracle_residual) and np.isnan(rep.printed_residual)


# ---------------------------------------------------------------------------
# the closedness sweep: its points and tangents are sequential
# full-lattice draws, whatever the pullback draws, so the seeds at which
# the 3D oracle refuses to build (defect (f)) stay put


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
@pytest.mark.parametrize("dim,n", [(1, 64), (3, 8)])
def test_closedness_sweep_draws_sequential_modes(monkeypatch, theory, dim, n):
    lat, cfg, _ = block_setup(theory, dim, n)
    oracle = WOracle(theory, cfg, check_points=0)
    seen = []
    residual = oracle.closedness_residual

    def recorded(point, tx, ty):
        seen.append((point, tx, ty))
        return residual(point, tx, ty)

    monkeypatch.setattr(oracle, "closedness_residual", recorded)
    oracle._closedness_sweep(46, 3)
    assert len(seen) == 3
    rng = seeded(46)
    for point, tx, ty in seen:
        assert point.time == float(rng.uniform(-2.0, 2.0))
        for got in (*point.arrays, *tx[:2]):
            assert np.array_equal(got, random_hermitian_modes(lat, rng))
        assert tx[2] == float(rng.standard_normal()) * oracle._s_scale
        for got in ty[:2]:
            assert np.array_equal(got, random_hermitian_modes(lat, rng))
        assert ty[2] == float(rng.standard_normal()) * oracle._s_scale


# sweep values at 3D n=16 over 4 points: Philox keys 20 (KG) and 8
# (Schrodinger) are the darboux-check seeds 16 and 4, over the 1e-8
# tolerance; 46 is the acceptance seed 42
SWEEP_3D = {
    ("kg", 20): 1.2139036814569311e-08,
    ("kg", 46): 2.9734342791780445e-09,
    ("schrodinger", 8): 1.1054649702624094e-08,
    ("schrodinger", 46): 3.0142499560334393e-09,
}


@pytest.mark.parametrize("theory,key", SWEEP_3D)
def test_closedness_sweep_values_at_3d(theory, key):
    _, cfg, _ = block_setup(theory, 3, 16)
    oracle = WOracle(theory, cfg, check_points=0)
    assert oracle._closedness_sweep(key, 4) == SWEEP_3D[theory, key]


@pytest.mark.parametrize("printed", [False, True])
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
@pytest.mark.parametrize("dim,n", SHAPES)
def test_derived_w_differential_matches_five_point_difference(theory, dim, n, printed):
    lat, cfg, point = block_setup(theory, dim, n)
    m, (a0, a1, s) = point(51, 0.9)
    _, (d0, d1, _) = point(52, 0.0)
    ds = 0.05
    th = record(theory, lat)
    dw = th.dw(m, printed)(d0.reshape(-1), d1.reshape(-1), ds)

    def f(h):
        moved = (ModeVector(lat, a0 + h * d0), ModeVector(lat, a1 + h * d1))
        return th.w(ModeState(*moved, time=s + h * ds), printed)

    h = 1e-3
    fd = (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)
    assert abs(dw - fd) <= 1e-7 * (1.0 + abs(dw))
    assert abs(dw) > 1.0


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
@pytest.mark.parametrize("dim,n", SHAPES)
def test_w_matches_the_closed_forms(theory, dim, n):
    # W stated once, (w/2)(<a0, a1> - <A0, A1>), and its differential as
    # one pulled-back gradient give what each theory's closed forms gave
    lat, cfg, point = block_setup(theory, dim, n)
    th = record(theory, lat)
    for seed, s in ((61, -1.3), (62, 0.9), (63, 7.4)):
        m, coords = point(seed, s)
        _, (d0, d1, _) = point(seed + 10, 0.0)
        t = (d0, d1, 0.3)
        if theory == "kg":
            w = [ref_kg_w(cfg, *coords, coeff) for coeff in (1.0, 2.0)]
            dw = [ref_kg_dw(cfg, *coords, *t, coeff) for coeff in (1.0, 2.0)]
        else:
            w = [f(lat, *coords) for f in (ref_schr_w, ref_schr_w_printed)]
            dw = [f(lat, *coords, *t) for f in (ref_schr_dw_derived, ref_schr_dw_printed)]
        for printed in (False, True):
            got_w = th.w(m, printed)
            got_dw = th.dw(m, printed)(d0.reshape(-1), d1.reshape(-1), 0.3)
            assert abs(got_w - w[printed]) <= 1e-12 * abs(w[printed])
            assert abs(got_dw - dw[printed]) <= 1e-12 * abs(dw[printed])


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

    def bad_point(seed, s):
        _, (a0, a1, _) = point(seed, s)
        a0 = poisoned(a0, lat, ENTRIES[entry])
        return ModeState(ModeVector(lat, a0), ModeVector(lat, a1), time=s), (a0, a1, s)

    m, coords = bad_point(11, 1.7)
    # only p2 carries the entry: the edges p1 -> p2 and p2 -> p3 see it
    pts = [point(21, 0.8), bad_point(22, -1.1), point(23, 2.4)]
    om_max = float(np.max(cfg.omega() if theory == "kg" else np.sqrt(lat.ksq())))
    got = (
        oracle.value(m),
        oracle.loop_integral(*(p for p, _ in pts)),
        theta_pullback_residual(record(theory, lat), m, tangent_count=20, seed=41),
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
    derived, printed = [], []
    for block in blocks:
        for t in zip(*block):
            gap = ref_form(theory, cfg, a0, a1, s, *t)
            derived.append(abs(gap - ref_dw(theory, cfg, a0, a1, s, *t, False)))
            printed.append(abs(gap - ref_dw(theory, cfg, a0, a1, s, *t, True)))
    return max(derived), max(printed)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
@pytest.mark.parametrize("dim,n", [(1, 64), (3, 8)])
def test_off_band_tangent_entry_counts(monkeypatch, theory, dim, n, entry):
    # tangents drawn on |m_j| <= n/2, every mode: the pullback's support
    # is its point's united with the modes the draw writes, so an entry
    # off the n/4 band of the point counts like any other
    lat, cfg, point = block_setup(theory, dim, n)
    m, coords = point(31, -1.3)
    blocks = []
    sample, band_pairs = darboux._tangent_block, darboux._band_pairs

    def drawn(*args):
        index, d0, d1, ds = sample(*args)
        if len(blocks) == 1:
            d1[0, np.searchsorted(index, off_band(lat))] = ENTRIES[entry]
        blocks.append((on_lattice(lat, index, d0), on_lattice(lat, index, d1), ds))
        return index, d0, d1, ds

    monkeypatch.setattr(darboux, "_band_pairs", lambda lattice, band: band_pairs(lattice, n // 2))
    # blocks of 4 tangents on the full lattice, each one draw of 4 rows
    monkeypatch.setattr(darboux, "BLOCK_COEFFS", 4 * lat.site_count)
    monkeypatch.setattr(darboux, "_tangent_block", drawn)
    rep = theta_pullback_residual(record(theory, lat), m, tangent_count=10, seed=41)
    assert [len(ds) for _, _, ds in blocks] == [4, 4, 2]
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
    with np.errstate(invalid="ignore"):
        for s in (np.nan, np.inf):
            m = ModeState(ModeVector(lat, zeros), ModeVector(lat, zeros), time=s)
            assert np.isnan(oracle.differential(m, (zeros, zeros, 0.0)))
        m = ModeState(ModeVector(lat, zeros), ModeVector(lat, zeros), time=0.5)
        assert np.isnan(oracle.differential(m, (zeros, zeros, np.nan)))


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_mode_sums_run_on_the_support(monkeypatch, theory):
    # 3D n=16: points and tangents on |m_j| <= 4 occupy 729 of 4096 modes
    lat, cfg, point = block_setup(theory, 3, 16)
    oracle = WOracle(theory, cfg, check_points=0)
    lengths = []
    mode_sum = darboux._mode_sum

    def recorded(sup, x):
        lengths.append(x.shape[-1])
        return mode_sum(sup, x)

    monkeypatch.setattr(darboux, "_mode_sum", recorded)
    m, (a0, a1, _) = point(11, 1.7)
    pts = [point(seed, t)[0] for seed, t in ((21, 0.8), (22, -1.1), (23, 2.4))]
    oracle.value(m)
    oracle.loop_integral(*pts)
    oracle.differential(m, (a1, a0, 0.3))
    theta_pullback_residual(record(theory, lat), m, tangent_count=3)
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


def scatter_and_sum(lat, index, x):
    """The mode sum as it was before the support kept a buffer: x (..., M)
    scattered into fresh zeros of shape (..., *shape) and summed over the
    mode axes."""
    full = np.zeros(x.shape[:-1] + (lat.site_count,), dtype=x.dtype)
    full[..., index] = x
    return np.sum(full.reshape(x.shape[:-1] + lat.shape), axis=tuple(range(-lat.dim, 0)))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8), (3, 16)])
def test_buffered_mode_sum_is_the_scatter_and_sum(dim, n, dtype):
    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    rng = seeded(9)
    for index in (darboux._band_pairs(lat, None)[0], None):
        sup = darboux._Support(lat, index)
        size, m = darboux._block_size(sup), len(sup.index)

        def rows(*shape):
            # magnitudes over sixteen decades, so that any other order of
            # the additions rounds differently
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
            return x + 1j * rng.standard_normal(shape) if dtype is complex else x

        # a full block, a short tail, one row, then a full block again
        for shape in ((size, m), (max(1, size // 3), m), (m,), (size, m)):
            x = rows(*shape)
            got = sup.sum(x)
            assert got.dtype == x.dtype and got.shape == shape[:-1]
            assert np.array_equal(got, scatter_and_sum(lat, sup.index, x))
        # a block holding NaNs, in its first and its last row, then finite
        # blocks on the same support: a short one, which leaves the last row
        # of the buffer as it was, and a full one
        bad = rows(size, m)
        bad[0, m // 2] = bad[-1, 0] = np.nan
        assert np.isnan(sup.sum(bad)[[0, -1]]).all()
        for count in (max(1, size // 3), size):
            x = rows(count, m)
            got = sup.sum(x)
            assert np.isfinite(got).all()
            assert np.array_equal(got, scatter_and_sum(lat, sup.index, x))
        # off the support, every buffer entry is still zero
        buf, _ = sup.buffer(np.dtype(dtype), size)
        off = np.ones(lat.site_count, dtype=bool)
        off[sup.index] = False
        assert not buf.reshape(-1, lat.site_count)[:, off].any()


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


# the tracemalloc peak of a warm call at 3D n=16, where the lattice holds
# 4096 modes and the band 729: 0.65, 0.73 and 0.83 (KG) or 0.85
# (Schrodinger) MiB for value, loop_integral and the pullback, whose
# blocks of 5 tangents are each one (5, 4 M + 1) draw of band normals.
# The pullback reads 1.31 and 1.32 MiB when a block is drawn as
# (5, 4 N + 1) full-lattice normals instead
LIVE_PEAK_BOUND = 1.25 * 2**20


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_oracle_live_memory_at_3d(theory):
    lat, _, point = block_setup(theory, 3, 16)
    th = record(theory, lat)
    oracle = WOracle(th, check_points=0)
    m = point(11, 1.7)[0]
    # a short triangle: few panels, the same blocks
    tri = [point(seed, s)[0] for seed, s in ((21, 0.1), (22, -0.1), (23, 0.2))]
    calls = {
        "value": lambda: oracle.value(m),
        "loop_integral": lambda: oracle.loop_integral(*tri),
        "pullback": lambda: theta_pullback_residual(th, m, tangent_count=20, seed=41),
    }
    peaks = {}
    for name, call in calls.items():
        call()
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= LIVE_PEAK_BOUND, peaks

