"""Rectifying mode transforms and the W bookkeeping coordinate."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlab import darboux, lattice
from covlab.darboux import (
    KGTheory,
    ModeState,
    SchrTheory,
    Theory,
    WOracle,
    kg_from_darboux,
    kg_to_darboux,
    random_hermitian_modes,
    schr_from_darboux,
    schr_to_darboux,
    theta_pullback_residual,
)
from covlab.harness import (
    ExperimentConfig,
    _seeded_modes,
    _theory,
    run_experiment,
    suite_configs,
)
from covlab.kg import kg_evolve_spectral
from covlab.lattice import Lattice, ModeVector, sup_norm
from covlab.schrodinger import schr_evolve_spectral
from mutations import recompiled
from section_references import hermitian_defect
import theory_references as references

LAT = Lattice(dim=1, n=64, length=2 * np.pi)
KG = Theory.of("kg", LAT, 1.0)
SCHR = Theory.of("schrodinger", LAT)


def seeded(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def omega(th):
    """The KG frequencies sqrt(k^2 + mass^2) of a record, FFT layout."""
    return np.sqrt(th.lattice.ksq() + th.mass**2)


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
        back = kg_from_darboux(kg_to_darboux(m, KG.mass), KG.mass)
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
        d0 = kg_to_darboux(KG.mode_state(st0), KG.mass)
        worst = 0.0
        scale = max(
            np.max(np.abs(d0.a0.coefficients)),
            np.max(np.abs(d0.a1.coefficients)),
        )
        for s in np.linspace(0.0, 10.0, 9):
            ds = kg_to_darboux(KG.mode_state(kg_evolve_spectral(st0, s, KG.mass)), KG.mass)
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
        om = float(np.sqrt(k * k + KG.mass**2))
        coeff_phi = np.zeros(LAT.shape, dtype=complex)
        coeff_p = np.zeros(LAT.shape, dtype=complex)
        coeff_phi[k] = coeff_phi[-k] = 0.4
        coeff_p[k] = coeff_p[-k] = -0.7
        m = ModeState(
            ModeVector(LAT, coeff_phi), ModeVector(LAT, coeff_p),
            time=np.pi / (2 * om),
        )
        d = kg_to_darboux(m, KG.mass)
        assert abs(d.a0.coefficients[k] - (-(-0.7) / om)) < 1e-13
        assert abs(d.a1.coefficients[k] - om * 0.4) < 1e-13

    def test_kg_massless_zero_mode_shear(self):
        coeff_phi = np.zeros(LAT.shape, dtype=complex)
        coeff_p = np.zeros(LAT.shape, dtype=complex)
        coeff_phi[0] = 0.3
        coeff_p[0] = 0.9
        m = ModeState(
            ModeVector(LAT, coeff_phi), ModeVector(LAT, coeff_p), time=2.0
        )
        d = kg_to_darboux(m, 0.0)
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

    @pytest.mark.parametrize("ledger", ["resolved", "paper-printed"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_chart_is_the_written_out_rotation_to_the_bit(self, dim, ledger):
        # the chart moves the point by the flow's propagate at -s and +s.
        # The rotation by -s is (c, -r, -q) to the bit, and the written-out
        # rotation by s is the chart's reference to the bit but for the
        # sign of a zero (x + 0.0 makes every zero +0): on the rotating,
        # hyperbolic (printed KG at mass 1) and drift (massless KG zero
        # mode) classes, at s = +-0 and at times of either sign
        lat = Lattice(dim=dim, n=4, length=2 * np.pi)
        rng = seeded(80 + dim)

        def bits(*arrays):
            return [(x + 0.0).tobytes() for x in arrays]

        records = (Theory.of("kg", lat, 1.0), Theory.of("kg", lat, 0.0), Theory.of("schrodinger", lat))
        for th in records:
            table, flow = th.table(ledger), th.flow(ledger)
            for s in (0.0, -0.0, 0.3, -1.7, 12.5, -np.pi):
                c, r, q = flow.rotation(s)
                back = [x.tobytes() for x in flow.rotation(-s)]
                assert back == [c.tobytes(), (-r).tobytes(), (-q).tobytes()]
                a0, a1 = (random_hermitian_modes(lat, rng) for _ in range(2))
                m = ModeState(ModeVector(lat, a0), ModeVector(lat, a1), s)
                d = darboux._to_darboux(m, table, th.state)
                A0, A1 = c * a0 - r * a1, c * a1 + q * a0
                assert bits(*d.arrays) == bits(A0, A1)
                m = darboux._from_darboux(d, table, th.state)
                assert bits(*m.arrays) == bits(c * A0 + r * A1, c * A1 - q * A0)

    def test_random_modes_hermitian_and_banded(self):
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

    @pytest.mark.parametrize("ledger", ["resolved", "paper-printed"])
    @pytest.mark.parametrize("th", [KG, SCHR], ids=["kg", "schrodinger"])
    def test_oracle_loop_integral_vanishes(self, th, ledger):
        # the printed ledgers' forms are not closed: their oracles build,
        # and their circulation is far from rounding
        oracle = WOracle(th, sign_ledger=ledger)
        pts = [kg_point(seed, time=t) for seed, t in ((1, 0.4), (2, 1.1), (3, 2.9))]
        loop = abs(oracle.loop_integral(*pts))
        assert loop <= 1e-9 if ledger == "resolved" else loop > 1e-9

    def test_theta_pullback_oracle_identity(self):
        m = kg_point(4, time=1.3)
        rep = theta_pullback_residual(KG, m)
        assert rep.oracle_residual <= 1e-9
        sm = schr_point(5, time=0.8)
        rep_s = theta_pullback_residual(SCHR, sm)
        assert rep_s.oracle_residual <= 1e-9

    def test_kg_printed_w_departs_at_generic_points(self):
        # the doubled cross term shows up in the differential: keep the
        # measured departure pinned so a silent "fix" cannot creep in
        m = kg_point(4, time=1.3)
        rep = theta_pullback_residual(KG, m)
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
        assert kg_to_darboux(m, KG.mass).W == pytest.approx(KG.w(m), abs=1e-15)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_oracle_differential_antisymmetry_free(self, seed):
        # the difference form is linear in the tangent
        m = kg_point(7, time=0.9)
        oracle = WOracle(KG)
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
        # the flow's nu is omega bit for bit, and each ledger's flow is shared
        assert np.array_equal(KG.flow().on()[2], omega(KG))
        assert KG.flow() is KG.flow() and KG.flow("paper-printed") is not KG.flow()

    @pytest.mark.parametrize("length", [2 * np.pi, 64.0])
    @pytest.mark.parametrize("dim,n", [(1, 64), (1, 1024), (2, 16), (3, 8), (3, 16), (3, 32)])
    def test_the_table_reading_is_the_hand_stated_flow(self, dim, n, length):
        # on every mode: the weight, Schrodinger's (kappa, lam) and KG's
        # kappa bit for bit, and the resolved KG flow's nu is omega to the
        # bit.  KG's lam = mass^2 + k^2 is the hand-stated sqrt(k^2 +
        # mass^2)^2 to 1 ulp; the printed k^2 - mass^2 is within 2 ulp of
        # k^2 + mass^2 of the hand-stated form, which cancels
        lat = Lattice(dim=dim, n=n, length=length)
        ksq = lat.ksq()
        bits = lambda x: np.ascontiguousarray(np.broadcast_to(x, lat.shape)).tobytes()
        for theory in ("kg", "schrodinger"):
            for mass in (0.0, 0.15, 0.7, 1.0, 1.5):
                th = Theory.of(theory, lat, mass)
                assert th.weight == references.WEIGHTS[theory]
                for ledger in ("resolved", "paper-printed"):
                    kappa, lam, nu = th.flow(ledger).on()
                    want_kappa, want_lam = references.generator(theory, mass, ledger)(ksq)
                    assert bits(kappa) == bits(want_kappa)
                    if theory == "schrodinger":
                        assert bits(lam) == bits(want_lam)
                    elif ledger == "resolved":
                        assert bits(nu) == bits(np.sqrt(ksq + mass**2))
                        assert np.all(np.abs(lam - want_lam) <= np.spacing(want_lam))
                    else:
                        assert np.all(np.abs(lam - want_lam) <= 2 * np.spacing(ksq + mass**2))

    @pytest.mark.parametrize(
        "th, to, back",
        [
            (KG, lambda m: kg_to_darboux(m, KG.mass), lambda d: kg_from_darboux(d, KG.mass)),
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

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    def test_negative_mass_rejected(self, theory):
        with pytest.raises(ValueError, match="mass must be nonnegative, got -0.5"):
            Theory.of(theory, LAT, -0.5)

    def test_unknown_theory_rejected(self):
        with pytest.raises(ValueError, match="unknown theory 'dirac'"):
            Theory.of("dirac", LAT)

    def test_oracle_takes_only_a_record(self):
        for theory in ("kg", LAT, KG.state):
            with pytest.raises(TypeError, match="Theory record"):
                WOracle(theory)
        with pytest.raises(ValueError, match="unknown sign_ledger 'printed'"):
            WOracle(KG, sign_ledger="printed")

    def test_negative_band_rejected(self):
        # a negative band would leave no mode on it: all-zero coefficients
        with pytest.raises(ValueError, match="band"):
            random_hermitian_modes(LAT, seeded(3), band=-1)

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
        oracle = WOracle(th)
        calls = {
            "to_darboux": lambda: th.to_darboux(m),
            "from_darboux": lambda: th.from_darboux(darboux.DarbouxState(m.a0, m.a1, W=0.0)),
            "w": lambda: th.w(m),
            "dw": lambda: th.dw_covector(m, False, darboux._Support(wide)),
            "value": lambda: oracle.value(m),
            "differential": lambda: oracle.differential(m, tangent),
            "loop_integral": lambda: oracle.loop_integral(m, m, m),
            "pullback": lambda: theta_pullback_residual(th, m),
        }
        with pytest.raises(ValueError, match=re.escape(repr(wide))):
            calls[entry]()


# ---------------------------------------------------------------------------
# references: the oracle evaluated mode by mode, per point and per tangent,
# is the reference the per-class path integral and the pullback's gap norm
# must meet to rounding


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


def ref_pairing(lat, x, dy):
    return lat.volume * float(np.real(np.sum(x * np.conj(dy))))


def ref_form(theory, th, a0, a1, s, d0, d1, ds, ledger="resolved"):
    """Theta - canonical at one point along one tangent, with the
    ledger's Hflow."""
    if theory == "kg":
        lat = th.lattice
        om = omega(th)
        hflow = ref_kg_hflow(lat, th.mass, a0, a1, ledger)
        theta = ref_pairing(lat, a1, d0) - hflow * ds
        zero = om == 0.0
        c = np.cos(om * s)
        sinc = np.where(zero, s, np.sin(om * s) / np.where(zero, 1.0, om))
        om_sin = om * np.sin(om * s)
        P = c * a1 + om_sin * a0
        dPhi = c * d0 - sinc * d1 + (-om_sin * a0 - c * a1) * ds
        return theta - ref_pairing(lat, P, dPhi)
    lat = th.lattice
    ksq = lat.ksq()
    hflow = ref_schr_hflow(lat, a0, a1, ledger)
    theta = 2.0 * ref_pairing(lat, a1, d0) - hflow * ds
    c, sg = np.cos(0.5 * ksq * s), np.sin(0.5 * ksq * s)
    B = c * a1 + sg * a0
    dA = c * d0 - sg * d1 + 0.5 * ksq * (-sg * a0 - c * a1) * ds
    return theta - 2.0 * ref_pairing(lat, B, dA)


def ref_value(theory, th, a0, a1, s, order=8):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    zeros = np.zeros_like(a0)
    total = 0.0
    for ui, wi in zip(u, w):
        total += wi * s * ref_form(theory, th, zeros, zeros, ui * s, zeros, zeros, 1.0)
    for ui, wi in zip(u, w):
        total += wi * ref_form(theory, th, ui * a0, ui * a1, s, a0, a1, 0.0)
    return total


def ref_top(theory, th, fields):
    """The difference form's top frequency in s on the modes where some
    of the fields is nonzero: 2 omega (KG) or k^2 (Schrodinger); 0 on
    none."""
    hit = np.logical_or.reduce([f != 0 for f in fields])
    freq = 2.0 * omega(th) if theory == "kg" else th.lattice.ksq()
    return float(np.max(freq[hit], initial=0.0))


def ref_loop(theory, th, points, order=8):
    """The circulation with each edge's panels sized by the top frequency
    in s on the modes of its two end points."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for (a0, a1, sa), (b0, b1, sb) in zip(points, points[1:] + points[:1]):
        top = ref_top(theory, th, (a0, a1, b0, b1))
        panels = int(np.ceil(top * abs(sb - sa))) + 1
        for j in range(panels):
            lo, hi = j / panels, (j + 1) / panels
            for ui, wi in zip(
                0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * weights
            ):
                total += wi * ref_form(
                    theory,
                    th,
                    a0 + ui * (b0 - a0),
                    a1 + ui * (b1 - a1),
                    sa + ui * (sb - sa),
                    b0 - a0,
                    b1 - a1,
                    sb - sa,
                )
    return total


# per-theory closed forms of W and dW, independent of the shared
# gradient: test_w_matches_the_closed_forms compares the record's with them

def ref_kg_w(th, a0, a1, s, cross_coeff):
    """(1/2)(<p, phi> - <P, Phi>) as sin cos / (2 omega) (|p|^2 -
    omega^2 |phi|^2) + sin^2 Re(p conj phi) per mode; cross_coeff 2 gives
    the printed W."""
    om = omega(th)
    zero = om == 0.0
    c, sg = np.cos(om * s), np.sin(om * s)
    half_sc_over_om = np.where(zero, 0.5 * s, 0.5 * sg * c / np.where(zero, 1.0, om))
    quad = np.abs(a1) ** 2 - om**2 * np.abs(a0) ** 2
    cross = np.real(a1 * np.conj(a0))
    return th.lattice.volume * float(np.sum(quad * half_sc_over_om + cross_coeff * cross * sg**2))


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


def ref_kg_dw(th, a0, a1, s, d0, d1, ds, cross_coeff):
    om = omega(th)
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
    return th.lattice.volume * float(np.sum(d_per))


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


def ref_dw(theory, th, a0, a1, s, d0, d1, ds, printed):
    """dW along one tangent as the record computes it, on the whole
    lattice: the direct gradient plus the chart gradient pulled back
    through the chart's Jacobian, summed with the tangent."""
    if theory == "kg":
        lat, f, half = th.lattice, omega(th), 0.5
        zero = f == 0.0
        c = np.cos(f * s)
        r = np.where(zero, s, np.sin(f * s) / np.where(zero, 1.0, f))
        q = f * np.sin(f * s)
        rate0, rate1 = -q * a0 - c * a1, f**2 * (c * a0 - r * a1)
    else:
        lat, f, half = th.lattice, th.lattice.ksq(), 1.0
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


def drawn_tangents(lat, raw, s_scale, mask):
    """The tangents (d0, d1, ds) that rows of normals (B, 4 M + 1) stand
    for, one at a time: the real then the imaginary parts of d0 and of d1
    on the M modes of the mask, in flat order, each field
    reality-symmetrized, then ds / s_scale."""
    m = int(mask.sum())

    def field(re, im):
        arr = np.zeros(lat.shape, dtype=complex)
        arr[mask] = re + 1j * im
        return 0.5 * (arr + np.conj(reflected(arr)))

    for row in raw:
        parts = row[: 4 * m].reshape(4, m)
        yield field(*parts[:2]), field(*parts[2:]), row[4 * m] * s_scale


def ref_pullback(theory, th, a0, a1, s, raw, mask):
    """The gaps Theta - canonical - dW, for the derived and the printed W,
    along the tangents that rows of normals on the mask stand for: (2, B).
    The ds scale is the reciprocal of one plus the form's top frequency
    in s."""
    lat = th.lattice
    s_scale = 1.0 / (1.0 + ref_top(theory, th, [np.ones(lat.shape)]))
    gaps = []
    for t in drawn_tangents(lat, raw, s_scale, mask):
        gap = ref_form(theory, th, a0, a1, s, *t)
        gaps.append([gap - ref_dw(theory, th, a0, a1, s, *t, p) for p in (False, True)])
    return np.transpose(gaps)


def ref_norms(theory, th, coords, mask):
    """The (derived, printed) gaps along each gap's maximizing tangent,
    whose normals are v / |v|, v the gap's values on the unit normals."""
    count = 4 * int(mask.sum()) + 1
    v = ref_pullback(theory, th, *coords, np.eye(count), mask)
    tops = [ref_pullback(theory, th, *coords, [u / np.linalg.norm(u)], mask) for u in v]
    return np.array([top[k, 0] for k, top in enumerate(tops)])


# 3D n=8 evaluates on the band, 125 of 512 modes
SHAPES = [(1, 64), (2, 8), (3, 4), (3, 8)]


def block_setup(theory, dim, n):
    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    th = Theory.of(theory, lat, 1.0)

    def point(seed, s):
        rng = seeded(seed)
        a0 = random_hermitian_modes(lat, rng)
        a1 = random_hermitian_modes(lat, rng)
        return ModeState(ModeVector(lat, a0), ModeVector(lat, a1), time=s), (a0, a1, s)

    return lat, th, point


def band_modes(lat):
    """The modes on |m_j| <= n/4, the support of block_setup's points."""
    return len(darboux._band_pairs(lat, None)[0])


# the agreement of the per-class path integral and of the pullback's gap
# norm with the mode-by-mode references, measured over 3 points and
# triangles per shape at dims 1-3 (SHAPES and 3D n=16), both theories:
# value to 7.7e-15 relative, the loop to 1.2e-13 of the largest |W| of
# its corners, all of it ref_loop's rounding (at the tests' own points
# value meets ref_value to 0.9 % of VALUE_REL), and the pullback's gap
# norms to 2.9e-15 of its printed one;
# the differential met it to 2.4e-15 relative at the test's points (5.3e-14
# over 20 points and 3 ds each, where the form cancels most).  The closed
# form's own circulation read 3.4e-15 of the largest |W| at most, over
# SHAPES, both theories and the block points' seeds shifted by 0 to 950
# in steps of 50
VALUE_REL, LOOP_REL, PULLBACK_REL, DIFFERENTIAL_REL = 1e-13, 5e-14, 2e-14, 2e-14
CIRCULATION_REL = 1e-14


class TestBlocks:
    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    @pytest.mark.parametrize("dim,n", SHAPES)
    def test_value_and_differential_match_per_node_reference(self, theory, dim, n):
        lat, th, point = block_setup(theory, dim, n)
        oracle = WOracle(th)
        m, coords = point(11, 1.7)
        want = ref_value(theory, th, *coords)
        assert abs(oracle.value(m) - want) <= VALUE_REL * abs(want)
        # the differential contracts the covector at the point
        _, (d0, d1, _) = point(12, 0.0)
        want = ref_form(theory, th, *coords, d0, d1, 0.3)
        assert abs(oracle.differential(m, (d0, d1, 0.3)) - want) <= DIFFERENTIAL_REL * abs(want)

    @pytest.mark.parametrize("shift", [0, 100, 200])
    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    @pytest.mark.parametrize("dim,n", SHAPES)
    def test_loop_integral_reads_rounding(self, theory, dim, n, shift):
        # the closed form's own circulation, not its gap to ref_loop: two
        # numbers near zero, whose gap is ref_loop's rounding
        lat, th, point = block_setup(theory, dim, n)
        oracle = WOracle(th)
        pts = [point(seed + shift, s)[0] for seed, s in ((21, 0.8), (22, -1.1), (23, 2.4))]
        scale = max(abs(th.w(m)) for m in pts)
        assert abs(oracle.loop_integral(*pts)) <= CIRCULATION_REL * scale

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    @pytest.mark.parametrize("dim,n", SHAPES)
    def test_pullback_is_the_norm_of_the_reference_gap(self, theory, dim, n):
        lat, th, point = block_setup(theory, dim, n)
        m, coords = point(31, -1.3)
        rep = theta_pullback_residual(th, m)
        got = np.array([rep.oracle_residual, rep.printed_residual])
        assert got[0] <= 2e-10 < got[1]
        # the reference gap along each maximizing tangent is the norm
        mask = band_mask(lat)
        slack = PULLBACK_REL * got[1]
        assert np.all(np.abs(ref_norms(theory, th, coords, mask) - got) <= slack)
        # and bounds the gap along any tangent, by the length of its normals
        raw = seeded(41).standard_normal((100, 4 * band_modes(lat) + 1))
        gaps = ref_pullback(theory, th, *coords, raw, mask)
        lengths = np.linalg.norm(raw, axis=1)
        assert np.all(np.abs(gaps) <= (got[:, np.newaxis] + slack) * lengths)

    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    def test_pullback_gap_vanishes_off_the_support(self, monkeypatch, theory):
        # the norm on the point's support closed under m -> -m is the
        # norm on every mode of the lattice
        lat, th, point = block_setup(theory, 3, 8)
        m, _ = point(31, -1.3)
        rep = theta_pullback_residual(th, m)
        monkeypatch.setattr(WOracle, "_support", lambda self, fields, times: darboux._Support(lat))
        full = theta_pullback_residual(th, m)
        slack = PULLBACK_REL * rep.printed_residual
        assert rep.oracle_residual <= 2e-10 and full.oracle_residual <= 2e-10
        assert abs(rep.oracle_residual - full.oracle_residual) <= slack
        assert abs(rep.printed_residual - full.printed_residual) <= slack

    @pytest.mark.parametrize("part", ["a1", "time"])
    @pytest.mark.parametrize("theory", ["kg", "schrodinger"])
    def test_nan_in_the_point_gives_nan_residuals(self, theory, part):
        th, m = (KG, kg_point(4, time=1.3)) if theory == "kg" else (SCHR, schr_point(5, time=0.8))
        a0, a1 = m.arrays
        if part == "a1":
            a1 = a1.copy()
            a1.reshape(-1)[3] = np.nan
        time = np.nan if part == "time" else m.time
        bad = ModeState(ModeVector(LAT, a0), ModeVector(LAT, a1), time=time)
        rep = theta_pullback_residual(th, bad)
        assert np.isnan(rep.oracle_residual) and np.isnan(rep.printed_residual)

    @pytest.mark.parametrize("dim,n", SHAPES)
    def test_random_hermitian_modes_is_the_band_sampler(self, dim, n):
        lat = Lattice(dim=dim, n=n, length=2 * np.pi)
        assert np.array_equal(random_hermitian_modes(lat, seeded(6)), ref_sampler(lat, seeded(6)))


# the per-class edge integral and the covector at a point against the
# mode-by-mode reference ref_form, at a random edge, point and tangents:
# the rotating and drift (massless KG) classes, and the printed ledgers'
# Hflow, the KG one hyperbolic below the mass (theory, mass, ledger)
FORMS = [
    ("kg", 1.0, "resolved"),
    ("kg", 0.0, "resolved"),
    ("kg", 1.5, "paper-printed"),
    ("schrodinger", 1.0, "resolved"),
    ("schrodinger", 1.0, "paper-printed"),
]


@pytest.mark.parametrize("theory,mass,ledger", FORMS)
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8), (3, 8)])
def test_per_class_forms_match_the_mode_by_mode_form(theory, mass, ledger, dim, n):
    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    th = Theory.of(theory, lat, mass)
    rng = seeded(81)
    sup = darboux._Support(lat, darboux._band_pairs(lat, None)[0])
    draw = lambda: sup.take(random_hermitian_modes(lat, rng))
    a0, a1, d0, d1 = (draw() for _ in range(4))
    sa, ds = rng.uniform(-2.0, 2.0, 2)

    def reference(b0, b1, s, t0, t1, ts):
        b0, b1, t0, t1 = (darboux._on_lattice(lat, sup.index, x) for x in (b0, b1, t0, t1))
        return ref_form(theory, th, b0, b1, s, t0, t1, ts, ledger)

    def scale(*fields):
        # the form's size from its weight, top frequency and fields; over
        # 10 seeds the covector met the reference to 1.6e-16 of it, the
        # edge integral to 3.3e-17
        big = max(float(np.max(np.abs(f))) for f in fields)
        top = darboux._top_frequency(th.flow())
        return th.weight * lat.volume * (1.0 + top) * len(sup.index) * big**2

    # the edge integral against the reference's on 12-node Gauss panels,
    # twice as many as the top frequency on the support needs
    nodes, weights = np.polynomial.legendre.leggauss(12)
    top = ref_top(theory, th, [darboux._on_lattice(lat, sup.index, a0)])
    panels = 2 * int(np.ceil(top * abs(ds))) + 2
    u = (np.arange(panels)[:, np.newaxis] + 0.5 * (nodes + 1.0)).ravel() / panels
    w = np.tile(weights, panels) / (2 * panels)
    want = math.fsum(
        wk * reference(a0 + uk * d0, a1 + uk * d1, sa + uk * ds, d0, d1, ds) for uk, wk in zip(u, w)
    )
    flow = th.flow().restricted(sup.index)
    got = darboux._edge_integral(th, flow, a0, a1, d0, d1, sa, sa + ds, ledger)
    assert abs(got - want) <= 2e-15 * scale(a0, a1, d0, d1)
    f0, f1, fs = darboux._form_covector(th, sup, a0, a1, sa, ledger)
    for t0, t1, ts in ((d0, d1, ds), (d1, a0, 0.0), (a1, d0, -0.7)):
        got = lat.volume * np.sum(np.real(f0 * np.conj(t0) + f1 * np.conj(t1))) + fs * ts
        assert abs(got - reference(a0, a1, sa, t0, t1, ts)) <= 2e-15 * scale(a0, a1, t0, t1)


VS, LOOP = "w-oracle-vs-derived", "w-loop-integral"
SINGLE = "kg-single-mode-printed-w-agreement"

# single-site faults in the edge integral, with the darboux-check rows each
# fails at 1D n=16, seed 42, for KG and for Schrodinger; value's radial
# edge has ds = 0, so only the loop sees Hflow
EDGE_MUTATIONS = {
    # VS 74 (74), LOOP 14 (7.7), SINGLE 0.074
    "cq-flipped": ("- on(x0d0, Q)", "+ on(x0d0, Q)", ({VS, LOOP, SINGLE}, {VS, LOOP})),
    # LOOP 3.2e2 (4.5e2)
    "hflow-dropped": (
        "kappa_l, lam_l, _ = theory.flow(sign_ledger).restricted(flow.modes).on()",
        "kappa_l = lam_l = 0.0",
        ({LOOP}, {LOOP}),
    ),
}

# single-site faults in _ModeFlow.moments, with the rows each fails in
# MOMENT_CASES (KG at mass 1 and 0, Schrodinger), as above
MOMENT_CASES = [("kg", 1.0), ("kg", 0.0), ("schrodinger", 1.0)]
MOMENT_MUTATIONS = {
    # LOOP 39, 34, 42
    "recurrence-sign": (
        "(end[far] - k * E[k - 1, far])",
        "(end[far] + k * E[k - 1, far])",
        ({LOOP}, {LOOP}, {LOOP}),
    ),
    # VS 10, 9.9, 9.8; SINGLE 0.012, 0.14
    "series-denominator": (
        "term / (j + k + 1)",
        "term / (j + k + 2)",
        ({VS, SINGLE}, {VS, SINGLE}, {VS}),
    ),
    # LOOP 40 at mass 0, the only flow with a drift class
    "drift-polynomial": (
        "(tb - ta) / (j + 2)",
        "(tb - ta) / (j + 1)",
        (set(), {LOOP}, set()),
    ),
    # VS 27, 27; LOOP 4.8, 2.9; Schrodinger's mu is 1, so there it is no fault
    "mu-inverted": ("sn / mu", "sn * mu", ({VS, LOOP}, {VS, LOOP}, set())),
}

# the same two breaks in the covector of the form at a point
COVECTOR_MUTATIONS = {
    "cq-flipped": ("moment = c * a1 + q * a0", "moment = c * a1 - q * a0"),
    "hflow-dropped": ("fs = rate - _hflow(theory, sup, a0, a1, sign_ledger)", "fs = rate"),
}


def darboux_check_failures(theory, dim=1, n=16, mass=1.0):
    """The rows that fail darboux-check on the lattice, seed 42."""
    cfg = ExperimentConfig(
        theory=theory, experiment="darboux-check", dim=dim, n=n, seed=42, mass=mass
    )
    report = run_experiment(cfg)
    assert report.errors == ()
    return {r.metric for r in report.rows if r.passed is False}


# darboux-check at 1D n=1024 and 3D n=32, seeds 0 and 42, and at the
# 3D n=16 seeds the chart-3d workload is pinned away from: a
# finite-difference closedness check at construction once refused the
# oracle at each of them
@pytest.mark.parametrize(
    "theory,dim,n,seed",
    [
        ("kg", 1, 1024, 42),
        ("schrodinger", 1, 1024, 42),
        ("schrodinger", 3, 32, 42),
        ("schrodinger", 3, 16, 4),
        ("kg", 3, 16, 16),
        ("kg", 1, 1024, 0),
        ("schrodinger", 1, 1024, 0),
        ("schrodinger", 3, 32, 0),
        ("kg", 3, 32, 42),
    ],
)
def test_darboux_check_passes_at_the_large_lattices_and_pinned_seeds(theory, dim, n, seed):
    cfg = ExperimentConfig(theory=theory, experiment="darboux-check", dim=dim, n=n, seed=seed)
    report = run_experiment(cfg)
    assert report.errors == () and report.all_pass


def test_kg_3d_n32_seed_0_builds_its_oracle_and_fails_only_the_pullback_row():
    # the one flipped cell that does not pass: the oracle builds, and the
    # pullback row reads 2.23e-10 against 2e-10 (the settings table's cell)
    cfg = ExperimentConfig(theory="kg", experiment="darboux-check", dim=3, n=32, seed=0)
    report = run_experiment(cfg)
    assert report.errors == ()
    assert {r.metric for r in report.rows if r.passed is False} == {"theta-pullback-oracle"}


@pytest.mark.parametrize("mutation", EDGE_MUTATIONS)
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_a_broken_edge_term_fails_an_oracle_row(monkeypatch, theory, mutation):
    old, new, rows = EDGE_MUTATIONS[mutation]
    assert darboux_check_failures(theory) == set()
    monkeypatch.setattr(darboux, "_edge_integral", recompiled(darboux, "_edge_integral", old, new))
    assert darboux_check_failures(theory) == rows[theory != "kg"]


@pytest.mark.parametrize("mutation", MOMENT_MUTATIONS)
@pytest.mark.parametrize("case", range(len(MOMENT_CASES)))
def test_a_broken_moment_fails_its_rows(monkeypatch, case, mutation):
    theory, mass = MOMENT_CASES[case]
    old, new, rows = MOMENT_MUTATIONS[mutation]
    assert darboux_check_failures(theory, mass=mass) == set()
    broken = recompiled(lattice, "_ModeFlow.moments", old, new)
    monkeypatch.setattr(lattice._ModeFlow, "moments", broken)
    assert darboux_check_failures(theory, mass=mass) == rows[case]


@pytest.mark.parametrize("mutation", COVECTOR_MUTATIONS)
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
@pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (3, 16)])
def test_a_broken_covector_term_fails_the_pullback_row(monkeypatch, dim, n, theory, mutation):
    cfg = ExperimentConfig(theory=theory, experiment="darboux-check", dim=dim, n=n, seed=42)
    # the harness's first pullback point
    point = ModeState(*_seeded_modes(cfg, cfg.seed + 30), time=-2.0)
    assert darboux_check_failures(theory, dim, n) == set()
    assert theta_pullback_residual(_theory(cfg), point).oracle_residual <= 2e-10
    broken = recompiled(darboux, "_form_covector", *COVECTOR_MUTATIONS[mutation])
    monkeypatch.setattr(darboux, "_form_covector", broken)
    # the loop and value integrate the edge form, so only the pullback
    # reads the covector ...
    assert darboux_check_failures(theory, dim, n) == {"theta-pullback-oracle"}
    # ... and sees the break at its first point on its own
    assert theta_pullback_residual(_theory(cfg), point).oracle_residual > 2e-10


def contracted_dw(th, m, printed, tangent):
    """dW at m along the tangent (d0, d1, ds): Theory.dw_covector on
    every mode, contracted."""
    sup = darboux._Support(m.lattice)
    (h0, h1, hs), (d0, d1, ds) = th.dw_covector(m, printed, sup), tangent
    pairing = np.sum(np.real(h0 * np.conj(sup.take(d0)) + h1 * np.conj(sup.take(d1))))
    return m.lattice.volume * pairing + hs * ds


@pytest.mark.parametrize("printed", [False, True])
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
@pytest.mark.parametrize("dim,n", SHAPES)
def test_derived_w_differential_matches_five_point_difference(theory, dim, n, printed):
    lat, th, point = block_setup(theory, dim, n)
    m, (a0, a1, s) = point(51, 0.9)
    _, (d0, d1, _) = point(52, 0.0)
    ds = 0.05
    dw = contracted_dw(th, m, printed, (d0, d1, ds))

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
    lat, th, point = block_setup(theory, dim, n)
    for seed, s in ((61, -1.3), (62, 0.9), (63, 7.4)):
        m, coords = point(seed, s)
        _, (d0, d1, _) = point(seed + 10, 0.0)
        t = (d0, d1, 0.3)
        if theory == "kg":
            w = [ref_kg_w(th, *coords, coeff) for coeff in (1.0, 2.0)]
            dw = [ref_kg_dw(th, *coords, *t, coeff) for coeff in (1.0, 2.0)]
        else:
            w = [f(lat, *coords) for f in (ref_schr_w, ref_schr_w_printed)]
            dw = [f(lat, *coords, *t) for f in (ref_schr_dw_derived, ref_schr_dw_printed)]
        for printed in (False, True):
            got_w = th.w(m, printed)
            got_dw = contracted_dw(th, m, printed, t)
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
    lat, th, point = block_setup(theory, dim, n)
    oracle = WOracle(th)

    def bad_point(seed, s):
        _, (a0, a1, _) = point(seed, s)
        a0 = poisoned(a0, lat, ENTRIES[entry])
        return ModeState(ModeVector(lat, a0), ModeVector(lat, a1), time=s), (a0, a1, s)

    m, coords = bad_point(11, 1.7)
    # only p2 carries the entry: the edges p1 -> p2 and p2 -> p3 see it
    pts = [point(21, 0.8), bad_point(22, -1.1), point(23, 2.4)]
    got = (
        oracle.value(m),
        oracle.loop_integral(*(p for p, _ in pts)),
        theta_pullback_residual(th, m),
    )
    if entry == "nan":
        assert np.isnan(got[0]) and np.isnan(got[1])
        assert np.isnan(got[2].oracle_residual) and np.isnan(got[2].printed_residual)
    else:
        want = ref_value(theory, th, *coords)
        assert abs(got[0] - want) <= VALUE_REL * abs(want)
        scale = max(abs(th.w(p)) for p, _ in pts)
        # the off-band Nyquist mode sets the top frequency: at 1D n=64 the
        # Schrodinger reference at order 8 is 7.5e-12 off, at 12 2.3e-13
        want = ref_loop(theory, th, [c for _, c in pts], order=12)
        assert abs(got[1] - want) <= LOOP_REL * scale
        # the pullback's norm takes the off-band mode with the band
        mask = band_mask(lat)
        mask.reshape(-1)[off_band(lat)] = True
        want = ref_norms(theory, th, coords, mask)
        got = np.array([got[2].oracle_residual, got[2].printed_residual])
        assert np.all(np.abs(got - want) <= PULLBACK_REL * want[1])


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_non_finite_time_keeps_nan_on_zero_fields(theory):
    # the chart's factors are NaN at every mode, so no support may drop one
    _, th, _ = block_setup(theory, 2, 8)
    oracle = WOracle(th)
    lat = oracle.lattice
    zeros = np.zeros(lat.shape, dtype=complex)
    with np.errstate(invalid="ignore"):
        for s in (np.nan, np.inf):
            m = ModeState(ModeVector(lat, zeros), ModeVector(lat, zeros), time=s)
            assert np.isnan(oracle.differential(m, (zeros, zeros, 0.0)))
        m = ModeState(ModeVector(lat, zeros), ModeVector(lat, zeros), time=0.5)
        assert np.isnan(oracle.differential(m, (zeros, zeros, np.nan)))


def spy_on_forms(monkeypatch):
    """The compact length of the point each form of the oracle is given,
    in call order: the edge integral, the covector of the difference form
    and the gradient of W."""
    lengths = []

    def spied(real, length):
        def call(*args):
            lengths.append(length(*args))
            return real(*args)

        return call

    point_length = lambda th, sup, a0, *rest: a0.shape[-1]
    for name in ("_edge_integral", "_form_covector"):
        monkeypatch.setattr(darboux, name, spied(getattr(darboux, name), point_length))
    covector = spied(Theory.dw_covector, lambda th, m, printed, sup: len(sup.index))
    monkeypatch.setattr(Theory, "dw_covector", covector)
    return lengths


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_the_forms_run_on_the_support(monkeypatch, theory):
    # 3D n=16: points and tangents on |m_j| <= 4 occupy 729 of 4096 modes
    lat, th, point = block_setup(theory, 3, 16)
    oracle = WOracle(th)
    lengths = spy_on_forms(monkeypatch)
    m, (a0, a1, _) = point(11, 1.7)
    pts = [point(seed, t)[0] for seed, t in ((21, 0.8), (22, -1.1), (23, 2.4))]
    oracle.value(m)
    oracle.loop_integral(*pts)
    oracle.differential(m, (a1, a0, 0.3))
    theta_pullback_residual(th, m)
    # one edge integral for value, three for the loop, then the differential,
    # and the pullback's covector and two gradients
    assert lengths == [729] * 8
    # the support is read from the data, not from the sampling band
    rng = seeded(7)
    narrow = type(m)(
        ModeVector(lat, random_hermitian_modes(lat, rng, band=1)),
        ModeVector(lat, random_hermitian_modes(lat, rng, band=1)),
        time=0.4,
    )
    lengths.clear()
    oracle.value(narrow)
    assert lengths == [27]
    lengths.clear()
    oracle.differential(narrow, (random_hermitian_modes(lat, rng, band=2), np.zeros_like(a0), 0.1))
    assert lengths == [125]
    lengths.clear()
    theta_pullback_residual(th, narrow)
    assert lengths == [27] * 3
    # the pullback's support is closed under m -> -m: a mode without its
    # conjugate brings the conjugate in
    lone = np.zeros(lat.shape, dtype=complex)
    lone[1, 2, 0] = 0.4 - 0.1j
    lengths.clear()
    theta_pullback_residual(th, type(m)(*(ModeVector(lat, lone),) * 2, time=0.4))
    assert lengths == [2] * 3


def scatter_and_sum(lat, index, x):
    """x (..., M) on the flat mode indices index scattered into fresh zeros
    of shape (..., *shape) and summed over the mode axes, written out."""
    full = np.zeros(x.shape[:-1] + (lat.site_count,), dtype=x.dtype)
    full[..., index] = x
    return np.sum(full.reshape(x.shape[:-1] + lat.shape), axis=tuple(range(-lat.dim, 0)))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8), (3, 16)])
def test_support_sum_is_the_full_lattice_sum(dim, n, dtype):
    # Hflow and the ds part of W's gradient sum the array a full-lattice
    # evaluation sums, so their values round alike
    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    rng = seeded(9)
    for index in (darboux._band_pairs(lat, None)[0], None):
        sup = darboux._Support(lat, index)
        m = len(sup.index)

        def rows(*shape):
            # magnitudes over sixteen decades, so that any other order of
            # the additions rounds differently
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
            return x + 1j * rng.standard_normal(shape) if dtype is complex else x

        for shape in ((5, m), (m,)):
            x = rows(*shape)
            got = sup.sum(x)
            assert got.dtype == x.dtype and got.shape == shape[:-1]
            assert np.array_equal(got, scatter_and_sum(lat, sup.index, x))
        # a NaN stays in its row alone
        bad = rows(3, m)
        bad[1, m // 2] = np.nan
        assert np.isnan(sup.sum(bad)).tolist() == [False, True, False]


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_loop_integral_with_a_non_finite_time_is_nan(theory):
    _, th, point = block_setup(theory, 1, 16)
    oracle = WOracle(th)
    p1, p2 = point(21, 0.8)[0], point(22, -1.1)[0]
    assert np.isfinite(oracle.loop_integral(p1, p2, point(23, 2.4)[0]))
    for s in (np.nan, np.inf, -np.inf):
        assert np.isnan(oracle.loop_integral(p1, p2, point(23, s)[0]))
        assert np.isnan(oracle.loop_integral(point(23, s)[0], p1, p2))


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_value_at_a_non_finite_time_is_nan(theory):
    _, th, point = block_setup(theory, 1, 16)
    oracle = WOracle(th)
    lat = oracle.lattice
    zeros = ModeVector(lat, np.zeros(lat.shape, dtype=complex))
    for s in (np.nan, np.inf, -np.inf):
        assert np.isnan(oracle.value(point(11, s)[0]))
        assert np.isnan(oracle.value(ModeState(zeros, zeros, time=s)))


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_an_edge_of_zero_fields_is_never_evaluated(theory, monkeypatch):
    # value's rise edge and the triangle's edge between two zero points
    # have no nonzero mode: neither reaches the edge integral
    _, th, point = block_setup(theory, 1, 16)
    oracle = WOracle(th)
    lat = oracle.lattice
    edges = spy_on_edges(monkeypatch)
    m, coords = point(11, 1.7)
    want = ref_value(theory, th, *coords)
    assert abs(oracle.value(m) - want) <= VALUE_REL * abs(want)
    # the radial edge alone
    assert edges == [True]
    zeros = np.zeros(lat.shape, dtype=complex)
    pts = [(zeros, zeros, 0.8), (zeros, zeros, -1.1), point(23, 2.4)[1]]
    tri = [ModeState(ModeVector(lat, a0), ModeVector(lat, a1), time=s) for a0, a1, s in pts]
    edges.clear()
    got = oracle.loop_integral(*tri)
    assert abs(got - ref_loop(theory, th, pts)) <= LOOP_REL * abs(th.w(tri[2]))
    assert edges == [True, True]


def spy_on_edges(monkeypatch):
    """Whether some end point data is nonzero, per edge the oracle
    integrates, in order."""
    edges = []
    edge_integral = darboux._edge_integral

    def spied(th, flow, a0, a1, d0, d1, sa, sb, ledger):
        edges.append(any(np.any(x != 0) for x in (a0, a1, d0, d1)))
        return edge_integral(th, flow, a0, a1, d0, d1, sa, sb, ledger)

    monkeypatch.setattr(darboux, "_edge_integral", spied)
    return edges


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_huge_times_read_rounding_or_nan(theory):
    # every edge costs one term per class, whatever its |ds|: at s = 1e300
    # the loop reads rounding and value meets the derived W; at -1.7e308,
    # where 4 top s overflows, both are NaN, with no warning
    lat, th, point = block_setup(theory, 1, 16)
    oracle = WOracle(th)
    p1, p2 = point(21, 0.8)[0], point(22, -1.1)[0]
    far = point(23, 1e300)[0]
    scale = max(abs(th.w(p)) for p in (p1, p2, far))
    assert abs(oracle.loop_integral(p1, p2, far)) <= LOOP_REL * scale
    want = th.w(far)
    assert abs(oracle.value(far) - want) <= VALUE_REL * abs(want)
    beyond = point(23, -1.7e308)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(oracle.loop_integral(p1, p2, beyond))
        assert np.isnan(oracle.value(beyond))


@pytest.mark.parametrize("theory,mass", [("kg", 1.0), ("kg", 0.0), ("schrodinger", 0.0)])
@pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (3, 4)])
def test_the_chart_reads_huge_times_quietly(theory, mass, dim, n):
    # where a phase nu s overflows, the chart's coordinates and W, the
    # printed W and the pullback residuals are NaN, with no warning, as the
    # oracle's value is; the massless zero mode's drift overflows in the
    # chart too
    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    th = Theory.of(theory, lat, mass)
    rng = seeded(24)
    a0, a1 = (ModeVector(lat, random_hermitian_modes(lat, rng)) for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (-1.7e308, 1e300, 1.7e308):
            m = ModeState(a0, a1, time=s)
            d = th.to_darboux(m)
            th.from_darboux(d)
            assert np.array_equal(d.W, th.w(m), equal_nan=True)
            th.w(m, printed=True)
            theta_pullback_residual(th, m)
        huge = ModeState(a0, a1, time=-1.7e308)
        assert np.isnan(th.w(huge)) and np.isnan(th.w(huge, printed=True))
        report = theta_pullback_residual(th, huge)
        assert np.isnan(report.oracle_residual) and np.isnan(report.printed_residual)


@pytest.mark.parametrize("band", [16, 24, 31])
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_loop_integral_resolves_points_beyond_the_sampling_band(theory, band):
    # the harness's triangle at 1D n=64, seed 42, drawn on wider bands,
    # where the Schrodinger form oscillates in s at up to k^2
    cfg = ExperimentConfig(theory=theory, experiment="darboux-check", n=64, seed=42)
    oracle = WOracle(_theory(cfg))
    pts = [
        ModeState(*_seeded_modes(cfg, 62 + i, band=band), time=s)
        for i, s in enumerate((0.8, -1.1, 2.4))
    ]
    assert abs(oracle.loop_integral(*pts)) <= 1e-9


# the harness's oracle rows at the largest advertised lattices, gated as
# the harness gates them.  Worst over the seeds: KG 4.8e-12 (1D n=1024)
# and 1.7e-10 (3D n=32), Schrodinger 1.7e-13 and 2.2e-10, where the Gauss
# path read up to 1.06e-8 and 5.3e-9 (KG) and refused Schrodinger 1D
# n=1024 for its panel count
@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("dim,n", [(1, 1024), (3, 32)])
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_oracle_rows_hold_at_the_largest_lattices(theory, dim, n, seed):
    cfg = ExperimentConfig(theory=theory, experiment="darboux-check", dim=dim, n=n, seed=seed)
    th = _theory(cfg)
    oracle = WOracle(th)
    point = lambda key, s: ModeState(*_seeded_modes(cfg, key), time=s)
    for k in range(5):
        m = point(seed + 10 + k, 0.3 * (k + 1))
        assert abs(oracle.value(m) - th.w(m)) <= 1e-9
    triangle = [point(seed + 20 + k, s) for k, s in enumerate((0.8, -1.1, 2.4))]
    assert abs(oracle.loop_integral(*triangle)) <= 1e-9


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_oracle_at_zero_fields_is_zero(theory):
    # the base point and zero fields at another time have an empty
    # support, where W is 0 by definition
    lat = Lattice(dim=1, n=16, length=2 * np.pi)
    oracle = WOracle(Theory.of(theory, lat))
    zeros = ModeVector(lat, np.zeros(lat.shape, dtype=complex))
    for s in (0.0, 0.7):
        assert oracle.value(ModeState(zeros, zeros, time=s)) == 0.0
    tri = [ModeState(zeros, zeros, time=s) for s in (0.8, -1.1, 2.4)]
    assert oracle.loop_integral(*tri) == 0.0


# the tracemalloc peak of a warm call at 3D n=16, where the lattice holds
# 4096 modes and the band 729 in 32 classes of equal k^2: 0.51, 0.44 and
# 0.26 MiB, both theories, for value, loop_integral and the pullback, whose
# gap covectors are a few (2, 729) arrays on the band
LIVE_PEAK_BOUND = 1.25 * 2**20


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_oracle_live_memory_at_3d(theory):
    lat, th, point = block_setup(theory, 3, 16)
    oracle = WOracle(th)
    m = point(11, 1.7)[0]
    # a short triangle
    tri = [point(seed, s)[0] for seed, s in ((21, 0.1), (22, -0.1), (23, 0.2))]
    calls = {
        "value": lambda: oracle.value(m),
        "loop_integral": lambda: oracle.loop_integral(*tri),
        "pullback": lambda: theta_pullback_residual(th, m),
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


# ---------------------------------------------------------------------------
# the mode flow both theories state once, as a generator (kappa, lam) of
# d(a0, a1)/ds = (kappa a1, -lam a0): the chart's s-rates and Hflow are
# read off it, and a wrong generator still fails the rows that do not read it

# (theory, mass, ledger): massive and massless KG, and the printed flows,
# the KG one hyperbolic below the mass
FLOWS = [
    ("kg", 1.0, "resolved"),
    ("kg", 0.0, "resolved"),
    ("kg", 1.5, "paper-printed"),
    ("schrodinger", 1.0, "resolved"),
    ("schrodinger", 1.0, "paper-printed"),
]


@pytest.mark.parametrize("theory,mass,ledger", FLOWS)
@pytest.mark.parametrize("dim,n", [(1, 64), (3, 8)])
def test_chart_s_rates_match_a_central_difference(theory, mass, ledger, dim, n):
    # at fixed (a0, a1) the chart coordinates move in s at (-kappa A1, lam A0)
    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    th = Theory.of(theory, lat, mass)
    flow = th.flow(ledger)
    rng = seeded(61)
    a0, a1 = (random_hermitian_modes(lat, rng) for _ in range(2))
    s, h = 0.7, 1e-4

    def chart(t):
        m = ModeState(ModeVector(lat, a0), ModeVector(lat, a1), time=t)
        return darboux._to_darboux(m, th.table(ledger), th.state).arrays

    A0, A1 = chart(s)
    kappa, lam, _ = flow.on()
    fd = [
        (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
        for p1, m1, p2, m2 in zip(chart(s + h), chart(s - h), chart(s + 2 * h), chart(s - 2 * h))
    ]
    for got, want in zip(fd, (-kappa * A1, lam * A0)):
        scale = 1.0 + np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-7 * scale


# |nu dt| at which the moments are checked: the series, both sides of its
# switch to the recurrence at 1, and long edges
MOMENT_PHASES = (0.0, 1e-9, 0.5, 0.999, 1.0, 1.001, 7.0, 50.0, 5e3)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("theory,mass", [("kg", 1.0), ("kg", 0.0), ("schrodinger", 1.0)])
def test_moments_match_a_composite_gauss_integral(theory, mass, sign):
    # int_0^1 u^j (c, r, q)(ta + u dt) du per class against 8-node Gauss
    # panels of class_rotation, one per radian of phase; a drift class
    # (the zero mode of massless KG and of Schrodinger) takes dt = x.
    # Worst: 1.9e-15 of the integrand's largest value
    flow = Theory.of(theory, Lattice(dim=1, n=16, length=2 * np.pi), mass).flow()
    nodes, weights = np.polynomial.legendre.leggauss(8)
    ta = 0.37
    for x in MOMENT_PHASES:
        for k, nu in enumerate(flow.table[0]):
            dt = sign * x / (nu if nu else 1.0)
            panels = int(np.ceil(x)) + 1
            u = (np.arange(panels)[:, np.newaxis] + 0.5 * (nodes + 1.0)).ravel() / panels
            w = np.tile(weights, panels) / (2 * panels)
            crq = flow.class_rotation((ta + u * dt)[:, np.newaxis])[..., k]
            want = np.stack([np.sum(w * u**j * crq, axis=-1) for j in range(3)], axis=-1)
            scale = np.max(np.abs(crq), axis=-1, keepdims=True)
            got = flow.moments(ta, ta + dt)[..., k]
            assert np.all(np.abs(got - want) <= 1e-14 * scale), (x, k)


def full_series_moments(flow, ta, tb):
    """_ModeFlow.moments with every one of its power series' 20 terms
    added, for flows without a hyperbolic class: the reference for its
    stop at the first term that is zero on every class."""
    nu, kappa, lam, mu, signed_mu = flow.table
    rot, hyp = flow.ends
    j = np.arange(3)[:, np.newaxis]
    out = np.empty((3, 3, nu.size))
    start, end = (np.exp(1j * nu[:rot] * t) for t in (ta, tb))
    a = nu[:rot] * (tb - ta)
    E = np.empty((3, rot), dtype=complex)
    far = np.abs(a) >= 1.0
    ia = 1j * a[far]
    E[0, far] = (end[far] - start[far]) / ia
    for k in (1, 2):
        E[k, far] = (end[far] - k * E[k - 1, far]) / ia
    term, series = np.ones(rot - far.sum(), dtype=complex), 0.0
    for k in range(20):
        series = series + term / (j + k + 1)
        term = term * 1j * a[~far] / (k + 1)
    E[:, ~far] = start[~far] * series
    sn = E.imag
    out[:, :, :rot] = E.real, sn / mu[:rot], signed_mu[:rot] * sn
    drift = ta / (j + 1) + (tb - ta) / (j + 2)
    out[0, :, hyp:] = 1.0 / (j + 1)
    out[1, :, hyp:], out[2, :, hyp:] = kappa[hyp:] * drift, lam[hyp:] * drift
    return out


@pytest.mark.parametrize("theory,mass", [("kg", 1.0), ("kg", 0.0), ("schrodinger", 1.0)])
@pytest.mark.parametrize("dim,n", [(1, 16), (3, 16)])
def test_moments_equal_the_full_series_bit_for_bit(theory, mass, dim, n):
    # a fixed-time edge (WOracle.value's radial one) stops after one term;
    # edges with ta != tb, near and far classes mixed, run as before
    flow = Theory.of(theory, Lattice(dim=dim, n=n, length=2 * np.pi), mass).flow()
    for ta, tb in ((0.6, 0.6), (-2.2, -2.2), (0.0, 0.0), (0.37, 0.45), (0.37, 0.37 + 1e-9), (1.6, -4.8)):
        got, want = flow.moments(ta, tb), full_series_moments(flow, ta, tb)
        assert got.tobytes() == want.tobytes(), (ta, tb)


def test_moments_refuse_a_hyperbolic_class():
    # the printed KG ledger's flow grows below the mass
    flow = Theory.of("kg", Lattice(dim=1, n=16, length=2 * np.pi), 1.5).flow("paper-printed")
    assert flow.ends[1] > flow.ends[0]
    with pytest.raises(ValueError, match="hyperbolic"):
        flow.moments(0.0, 1.0)


def ref_kg_hflow(lat, mass, a0, a1, ledger):
    """The KG flow Hamiltonian written for its theory: (1/2) L^d sum(|p|^2
    + omega^2 |phi|^2), with omega^2 - 2 mass^2 for the printed mass sign."""
    om2 = omega(Theory.of("kg", lat, mass)) ** 2
    if ledger == "paper-printed":
        om2 = om2 - 2.0 * mass**2
    axes = tuple(range(-lat.dim, 0))
    return 0.5 * lat.volume * np.sum(np.abs(a1) ** 2 + om2 * np.abs(a0) ** 2, axis=axes)


def ref_schr_hflow(lat, a0, a1, ledger):
    """The Schrodinger flow Hamiltonian written for its theory: +-(1/2)
    L^d sum k^2 (|a0|^2 + |a1|^2), negative for the printed sign."""
    axes = tuple(range(-lat.dim, 0))
    total = np.sum(lat.ksq() * (np.abs(a0) ** 2 + np.abs(a1) ** 2), axis=axes)
    val = 0.5 * lat.volume * total
    return -val if ledger == "paper-printed" else val


@pytest.mark.parametrize("ledger", ["resolved", "paper-printed"])
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8), (3, 8)])
def test_generic_hflow_matches_the_per_theory_formulas(theory, ledger, dim, n):
    lat = Lattice(dim=dim, n=n, length=2 * np.pi)
    th = Theory.of(theory, lat, 1.5)
    rng = seeded(62)
    # a stack of two points
    a0, a1 = (np.stack([random_hermitian_modes(lat, rng) for _ in range(2)]) for _ in range(2))
    sup = darboux._Support(lat)
    got = darboux._hflow(th, sup, sup.take(a0), sup.take(a1), ledger)
    if theory == "kg":
        want = ref_kg_hflow(lat, 1.5, a0, a1, ledger)
    else:
        want = ref_schr_hflow(lat, a0, a1, ledger)
    assert got.shape == (2,)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


# a generator off by 1 % (lam for KG, kappa and lam for Schrodinger)
# moves the chart and the propagator together, so the rows that compare
# them (darboux-invariance-rel-spread, the W oracle) cannot see it; these
# rows, which read the slice energy, the analytic plane-wave phase and the
# Lagrangian tables instead, must
ENERGY, PHASE, NORM = (
    f"evolve {m}" for m in ("energy-drift-spectral", "propagator-phase-error", "norm-drift")
)
MUTATION_CATCHERS = {"kg": {ENERGY, PHASE}, "schrodinger": {PHASE}}
ACTION_ROWS = {
    f"action-residual {m}"
    for m in (
        "el-pairing-scaled",
        "el-pairing-extrapolated",
        "el-convergence-ratio-error",
        "ddw-residual",
        "ddw-convergence-ratio-error",
    )
}


@pytest.fixture
def fresh_records():
    """Theory.of's records rebuilt inside the test and dropped after it:
    a record reads its weight once, off the table it is built with."""
    Theory.of.cache_clear()
    yield
    Theory.of.cache_clear()


def failing_rows(theory):
    """The failing rows of the theory's suite configs at n=8, by
    experiment and metric; every experiment must run without error."""
    out = set()
    for cfg in suite_configs(seed=42):
        if cfg.theory == theory:
            report = run_experiment(replace(cfg, n=8))
            assert report.errors == ()
            out |= {f"{cfg.experiment} {r.metric}" for r in report.rows if r.passed is False}
    return out


@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_a_wrong_generator_fails_the_rows_that_do_not_read_it(monkeypatch, fresh_records, theory):
    assert failing_rows(theory) == set()
    scales = {"kg": (1.0, 1.01), "schrodinger": (1.01, 1.01)}[theory]
    reading = lattice._table_reading

    def wrong(table, state):
        weight, generator = reading(table, state)
        return weight, tuple((f * c0, f * c1) for f, (c0, c1) in zip(scales, generator))

    # every binding of the reading: the slice layer's and the chart's
    for owner in (lattice, darboux):
        monkeypatch.setattr(owner, "_table_reading", wrong)
    assert failing_rows(theory) == MUTATION_CATCHERS[theory] | ACTION_ROWS


# one coefficient of a Lagrangian table scaled at a time, as (theory, the
# term's index in its table, factor), with the rows each fails at n=8,
# seed 42.  The flow reads the table, so a fault that keeps the equations
# consistent moves the chart, the propagator and the EL rows alike; only
# the rows with a hand-stated side (the slice energy, the norm, the
# plane-wave phase) and the action rows, whose sections carry the
# declared constraint sign, can see it
TABLE_MUTATIONS = {
    "kg mass term x 1.1": ("kg", 4, 1.1, {ENERGY, PHASE}),
    "kg p id p x 1.01": ("kg", 2, 1.01, {ENERGY, PHASE}),
    "kg beta grad phi x 1.01": ("kg", 1, 1.01, {ENERGY, PHASE} | ACTION_ROWS),
    "kg beta id beta x 1.01": ("kg", 3, 1.01, {ENERGY, PHASE} | ACTION_ROWS),
    "kg beta grad phi sign": ("kg", 1, -1.0, ACTION_ROWS),
    "kg p dt phi x 1.01": ("kg", 0, 1.01, {PHASE}),
    "schrodinger phiI dt phiR x 1.01": ("schrodinger", 0, 1.01, {PHASE}),
    "schrodinger betaR grad phiR x 1.01": ("schrodinger", 2, 1.01, {NORM, PHASE} | ACTION_ROWS),
    "schrodinger betaR id betaR x 1.1": ("schrodinger", 4, 1.1, {NORM, PHASE} | ACTION_ROWS),
    "schrodinger betaR grad phiR sign": ("schrodinger", 2, -1.0, ACTION_ROWS),
}


@pytest.mark.parametrize("mutation", TABLE_MUTATIONS)
def test_a_wrong_table_fails_the_pinned_rows(monkeypatch, fresh_records, mutation):
    from covlab import kg, schrodinger

    theory, index, factor, rows = TABLE_MUTATIONS[mutation]
    module, name = (kg, "_kg_lagrangian") if theory == "kg" else (schrodinger, "_schr_lagrangian")
    table = getattr(module, name)

    def wrong(*args):
        terms = table(*args)
        c, *rest = terms[index]
        return terms[:index] + ((factor * c, *rest),) + terms[index + 1 :]

    # every binding of the table: the theory module's and the record's
    for owner in (module, darboux):
        monkeypatch.setattr(owner, name, wrong)
    assert failing_rows(theory) == rows
