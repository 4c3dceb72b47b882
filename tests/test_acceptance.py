"""The acceptance gate: eleven numbered criteria, one verdict line each.

Run ``pytest -s tests/test_acceptance.py`` to see the lines.  Criterion 5
checks the identity Theta - T = dW: the difference form is closed, the
oracle's potential satisfies the pullback identity, and the derived W
that the chart stores equals the oracle.  It also pins the printed KG W
density as a negative control: that density counts the momentum cross
term twice, so its gap to the oracle must equal that term at every
state and must not vanish.  The derivation is pinned by tests in
``tests/test_darboux.py``; ``scripts/w_mismatch_report.py`` tabulates
the gaps per state.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covlab import darboux as dx
from covlab.brackets import (
    Observable,
    TangentPair,
    bracket_equivalence_check,
    jacobi_bracket,
    mode_real_part,
    omega_slice_report,
    product_observable,
    quadratic_cross,
    quadratic_power,
    subalgebra_closure_check,
    w_coordinate,
)
from covlab.harness import (
    ExperimentConfig,
    emit_report,
    random_state,
    run_experiment,
    suite_configs,
)
from covlab.kg import kg_evolve_leapfrog, kg_evolve_spectral, kg_hamiltonian
from covlab.lattice import ModeVector, ScalarField, idft, sup_norm
from covlab.schrodinger import (
    schr_evolve_spectral,
    schr_evolve_stepped,
    schr_norm_squared,
    to_wavefunction,
)

SEED = 42
KG_CFG = ExperimentConfig(theory="kg", experiment="evolve", seed=SEED)
SCHR_CFG = ExperimentConfig(theory="schrodinger", experiment="evolve", seed=SEED)
LAT = KG_CFG.lattice
TH = {t: dx.Theory.of(t, LAT, KG_CFG.mass) for t in ("kg", "schrodinger")}
MASS = TH["kg"].mass


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def seeded(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def banded_field(seed_or_rng, band, lat=LAT):
    rng = seeded(seed_or_rng) if isinstance(seed_or_rng, int) else seed_or_rng
    return idft(ModeVector(lat, dx.random_hermitian_modes(lat, rng, band=band)))


def banded_kg_state(seed, band):
    rng = seeded(seed)
    return TH["kg"].enforce(banded_field(rng, band), banded_field(rng, band))


def banded_schr_state(seed, band):
    rng = seeded(seed)
    return TH["schrodinger"].enforce(banded_field(rng, band), banded_field(rng, band))


def mode_pair(seed):
    rng = seeded(seed)
    band = LAT.n // 4
    return tuple(ModeVector(LAT, dx.random_hermitian_modes(LAT, rng, band=band)) for _ in range(2))


def mode_point(seed, s):
    return dx.ModeState(*mode_pair(seed), time=s)


def darboux_point(seed, s, W):
    return dx.DarbouxState(*mode_pair(seed), W=W, time=s)


def variation(theory, seed):
    """A seeded variation: a slice state, as every variation is."""
    rng = seeded(seed)
    band = LAT.n // 4
    f1 = banded_field(rng, band)
    f2 = banded_field(rng, band)
    return TH[theory].enforce(f1, f2)


@pytest.fixture(scope="module")
def action_reports():
    cfgs = [c for c in suite_configs(seed=SEED) if c.experiment == "action-residual"]
    return {c.theory: run_experiment(c) for c in cfgs}


def metric(report, name):
    for row in report.rows:
        if row.metric == name:
            return row
    raise AssertionError(f"metric {name} missing from report")


def test_criterion_01_kg_energy_conservation():
    st = random_state(KG_CFG)
    h0 = kg_hamiltonian(st, MASS)
    drift = max(
        abs(kg_hamiltonian(kg_evolve_spectral(st, float(s), MASS), MASS) - h0)
        / abs(h0)
        for s in range(1, 11)
    )
    # the leapfrog clause runs on |m| <= 1 data: the truncation constant
    # scales with omega^2 and full-band data cannot meet 1e-6 at dt=1e-3
    low = banded_kg_state(SEED, band=1)
    h1 = kg_hamiltonian(low, MASS)
    lf = kg_evolve_leapfrog(low, 1e-3, 1000, MASS)
    drift_lf = abs(kg_hamiltonian(lf, MASS) - h1) / abs(h1)
    ok = drift <= 1e-12 and drift_lf <= 1e-6
    assert verdict(
        1,
        ok,
        f"spectral H drift {drift:.2e} (tol 1e-12), "
        f"leapfrog dt=1e-3 T=1 drift {drift_lf:.2e} (tol 1e-6)",
    )


def test_criterion_02_constraint_preservation():
    worst = 0.0
    st = random_state(KG_CFG)
    ev = kg_evolve_spectral(st, 10.0, MASS)
    worst = max(worst, ev.constraint_residual() / sup_norm(ev.phi))
    lf = kg_evolve_leapfrog(banded_kg_state(SEED, band=1), 1e-3, 1000, MASS)
    worst = max(worst, lf.constraint_residual() / sup_norm(lf.phi))
    ss = random_state(SCHR_CFG)
    ev_s = schr_evolve_spectral(ss, 10.0)
    worst = max(
        worst,
        ev_s.constraint_residual() / max(sup_norm(ev_s.phiR), sup_norm(ev_s.phiI)),
    )
    sp = schr_evolve_stepped(ss, 1e-3, 1000)
    worst = max(
        worst,
        sp.constraint_residual() / max(sup_norm(sp.phiR), sup_norm(sp.phiI)),
    )
    ok = worst <= 1e-10
    assert verdict(
        2, ok, f"constraint residual / sup-norm {worst:.2e} over four evolutions (tol 1e-10)"
    )


def test_criterion_03_omega_slice_independence():
    times = [float(t) for t in range(11)]
    spreads = {}
    controls = {}
    for theory, cfg in (("kg", KG_CFG), ("schrodinger", SCHR_CFG)):
        sol = random_state(cfg)
        U = variation(theory, SEED + 1)
        V = variation(theory, SEED + 2)
        th = TH[theory]
        spreads[theory] = omega_slice_report(th, sol, U, V, times).max_rel_spread
        controls[theory] = omega_slice_report(th, sol, U, V, times, freeze="v").max_rel_spread
    ok = max(spreads.values()) <= 1e-10 and min(controls.values()) > 1e-10
    assert verdict(
        3,
        ok,
        f"rel spread kg {spreads['kg']:.2e}, schr {spreads['schrodinger']:.2e} "
        f"(tol 1e-10); frozen-V control spreads {controls['kg']:.2g}, "
        f"{controls['schrodinger']:.2g} exceed as required",
    )


def _invariance_spread(theory, ledger):
    cfg = KG_CFG if theory == "kg" else SCHR_CFG
    st = random_state(cfg)
    th = TH[theory]
    ref = np.concatenate(th.to_darboux(th.mode_state(st)).arrays)
    scale = float(np.max(np.abs(ref)))
    worst = 0.0
    for s in range(1, 11):
        if theory == "kg":
            ev = kg_evolve_spectral(st, float(s), MASS, ledger=ledger)
        else:
            ev = schr_evolve_spectral(st, float(s), ledger=ledger)
        cur = np.concatenate(th.to_darboux(th.mode_state(ev)).arrays)
        worst = max(worst, float(np.max(np.abs(cur - ref))) / scale)
    return worst


def test_criterion_04_darboux_invariance():
    res = {t: _invariance_spread(t, "resolved") for t in ("kg", "schrodinger")}
    neg = {t: _invariance_spread(t, "paper-printed") for t in ("kg", "schrodinger")}
    ok = max(res.values()) <= 1e-12 and min(neg.values()) > 1e-12
    assert verdict(
        4,
        ok,
        f"chart spread kg {res['kg']:.2e}, schr {res['schrodinger']:.2e} "
        f"(tol 1e-12); printed-ledger spreads {neg['kg']:.2g}, "
        f"{neg['schrodinger']:.2g} fail as documented",
    )


def kg_cross_term(m):
    """L^d sum_k Re(p-hat_k conj(phi-hat_k)) sin^2(omega_k s): the term the
    printed KG W density counts twice and the derived closed form once."""
    phi, p = m.arrays
    cross = np.real(p * np.conj(phi))
    return m.lattice.volume * float(np.sum(cross * np.sin(np.sqrt(LAT.ksq() + MASS**2) * m.time) ** 2))


def test_criterion_05_theta_pullback_identity():
    # the pullback residual is the norm of the gap between Theta -
    # canonical, from the contact form and the chart Jacobian, and the
    # analytic differential of the chart's derived W, over every tangent;
    # the form's closedness (construction sweep plus the loop circulations
    # below) and the match of its potential to the derived W that the
    # chart stores complete the identity.  np.max keeps a NaN
    points = [mode_point(SEED + 30 + k, s=0.5 * k - 2.0) for k in range(10)]
    worst_oracle = np.max(
        [dx.theta_pullback_residual(th, m).oracle_residual for th in TH.values() for m in points]
    )

    kg_oracle = dx.WOracle(TH["kg"], seed=SEED + 4)
    schr_oracle = dx.WOracle(TH["schrodinger"], seed=SEED + 4)
    p1 = mode_point(SEED + 20, s=0.8)
    p2 = mode_point(SEED + 21, s=-1.1)
    p3 = mode_point(SEED + 22, s=2.4)
    loop = max(abs(oracle.loop_integral(p1, p2, p3)) for oracle in (kg_oracle, schr_oracle))

    # both theories read the same mode data
    states = [mode_point(SEED + 50 + k, s=0.4 * k - 1.6) for k in range(10)]
    # np.max keeps a NaN, so a non-finite W cannot pass these clauses
    kg_values = np.array([kg_oracle.value(m) for m in states])
    schr_values = np.array([schr_oracle.value(m) for m in states])
    kg_derived = np.array([TH["kg"].w(m) for m in states])
    schr_derived = np.array([TH["schrodinger"].w(m) for m in states])
    derived = np.max(
        np.abs(np.concatenate([kg_derived - kg_values, schr_derived - schr_values]))
    )
    gaps = np.array([TH["kg"].w(m, printed=True) for m in states]) - kg_values
    crosses = np.array([kg_cross_term(m) for m in states])
    cross_residual = np.max(np.abs(gaps - crosses) / (1.0 + np.abs(kg_values)))
    printed_gap = np.max(np.abs(gaps))
    schr_printed = np.array([TH["schrodinger"].w(m, printed=True) for m in states])
    schr_gap = np.max(np.abs(schr_printed - schr_values))

    ok = (
        worst_oracle <= 2e-10
        and loop <= 1e-9
        and derived <= 1e-9
        and cross_residual <= 1e-9
        and printed_gap > 1e-9
    )
    assert verdict(
        5,
        ok,
        f"pullback gap norm with oracle W {worst_oracle:.1e} over 10 states per "
        f"theory (tol 2e-10), closedness loop {loop:.2e}, derived W vs oracle "
        f"{derived:.2e} over 2 x 10 states (tol 1e-9); KG printed-W gap minus "
        f"cross term {cross_residual:.1e} relative (tol 1e-9), gap itself "
        f"{printed_gap:.3g} (must exceed 1e-9); "
        f"schr printed-W gap {schr_gap:.3g} (reported, no verdict)",
    ), (
        "criterion 5 needs the difference form closed with its potential "
        f"satisfying the pullback identity (residual {worst_oracle:.1e}, loop "
        f"{loop:.2e}), the chart's derived W equal to the oracle ({derived:.2e}), "
        "and the printed KG W density off the oracle by exactly one extra "
        f"momentum cross term (residual {cross_residual:.1e}, gap "
        f"{printed_gap:.3g}, which must exceed 1e-9). The derivation is pinned "
        "by tests in test_darboux.py; scripts/w_mismatch_report.py tabulates "
        "the gaps per state."
    )


def test_criterion_06_bracket_equivalence():
    worst = 0.0
    for theory, th in TH.items():
        point = darboux_point(SEED + 60, s=1.3, W=0.5)
        pairs = [
            TangentPair(
                variation(theory, SEED + 100 + 2 * k),
                variation(theory, SEED + 101 + 2 * k),
                time=0.7,
            )
            for k in range(20)
        ]
        eq = bracket_equivalence_check(th, pairs, point)
        worst = max(worst, eq.max_mismatch)
    ok = worst <= 1e-9
    assert verdict(
        6, ok, f"smeared-bracket vs two-form mismatch {worst:.2e} on 2 x 20 pairs (tol 1e-9)"
    )


def test_criterion_07_jacobi_algebra():
    anti = 0.0
    jac = 0.0
    leib = 0.0
    closure = 0.0
    for th in TH.values():
        point = darboux_point(SEED + 60, s=1.3, W=0.5)
        lin1 = mode_real_part(th, th.slots[0], 1)
        lin2 = mode_real_part(th, th.slots[1], 1)
        quad1 = quadratic_power(th, 0)
        quad2 = quadratic_cross(th)
        wobs = w_coordinate(th)
        wquad = product_observable(wobs, quad1)

        for F, G in ((lin1, quad1), (quad1, quad2), (wquad, lin2), (wobs, quad2)):
            anti = max(anti, abs(jacobi_bracket(F, G, point) + jacobi_bracket(G, F, point)))

        def nested(F, G, th=th):
            return Observable(th, lambda p: jacobi_bracket(F, G, p), name="nested")

        for A, B, C in ((lin1, lin2, quad2), (quad1, quad2, wobs), (lin1, wquad, quad1)):
            terms = (
                jacobi_bracket(A, nested(B, C), point),
                jacobi_bracket(B, nested(C, A), point),
                jacobi_bracket(C, nested(A, B), point),
            )
            jac = max(jac, abs(sum(terms)) / (1.0 + sum(abs(x) for x in terms)))

        f, g, h = wquad, quad2, lin1
        gh = product_observable(g, h)
        lhs = (
            jacobi_bracket(f, gh, point)
            - jacobi_bracket(f, g, point) * h.evaluate(point)
            - g.evaluate(point) * jacobi_bracket(f, h, point)
            - g.evaluate(point) * h.evaluate(point) * f.w_derivative_at(point)
        )
        leib = max(leib, abs(lhs) / (1.0 + abs(jacobi_bracket(f, gh, point))))

        pts = [point, darboux_point(SEED + 61, s=0.4, W=-1.0)]
        rep = subalgebra_closure_check(quad1, quad2, pts)
        closure = max(closure, max(rep.reeb_residuals), rep.flow_spread)

    ok = anti <= 1e-12 and jac <= 1e-8 and leib <= 1e-9 and closure <= 1e-10
    assert verdict(
        7,
        ok,
        f"antisymmetry {anti:.2e} (tol 1e-12), jacobi identity {jac:.2e} "
        f"(tol 1e-8), leibniz {leib:.2e} (tol 1e-9), closure {closure:.2e} (tol 1e-10)",
    )


def test_criterion_08_schrodinger_unitarity():
    st = random_state(SCHR_CFG)
    n0 = schr_norm_squared(st)
    drift = max(
        abs(schr_norm_squared(schr_evolve_spectral(st, float(s))) - n0) / n0
        for s in range(1, 11)
    )
    x = LAT.coordinates()[0]
    plane = TH["schrodinger"].enforce(
        ScalarField(LAT, np.cos(x)), ScalarField(LAT, np.sin(x))
    )
    evolved = schr_evolve_spectral(plane, math.pi)
    phase_err = float(
        np.max(np.abs(to_wavefunction(evolved) - (-1j) * to_wavefunction(plane)))
    )
    mid = schr_evolve_stepped(st, 1e-3, 1000)
    mid_drift = abs(schr_norm_squared(mid) - n0) / n0
    ok = drift <= 1e-12 and phase_err <= 1e-12 and mid_drift <= 1e-13
    assert verdict(
        8,
        ok,
        f"norm drift {drift:.2e} (tol 1e-12), k=1 s=pi phase error {phase_err:.2e} "
        f"(tol 1e-12), midpoint norm drift {mid_drift:.2e} (tol 1e-13)",
    )


def test_criterion_09_variational_principle(action_reports):
    vals = {}
    ok = True
    for theory, rep in action_reports.items():
        el = metric(rep, "el-pairing-scaled")
        ratio = metric(rep, "el-convergence-ratio-error")
        ext = metric(rep, "el-pairing-extrapolated")
        vals[theory] = (el.value, 4.0 + ratio.value, ext.value)
        ok = ok and el.passed and ratio.passed and ext.passed
    assert verdict(
        9,
        ok,
        f"el pairing scaled kg {vals['kg'][0]:.2e}, schr {vals['schrodinger'][0]:.2e} "
        f"(tol 1e-8 at dt=1e-3); halving ratios {vals['kg'][1]:.3f}, "
        f"{vals['schrodinger'][1]:.3f} (4 +/- 0.8); extrapolated "
        f"{vals['kg'][2]:.2e}, {vals['schrodinger'][2]:.2e} (tol 1e-13)",
    )


def test_criterion_10_dedonder_weyl_residuals(action_reports):
    vals = {}
    ok = True
    for theory, rep in action_reports.items():
        ddw = metric(rep, "ddw-residual")
        ratio = metric(rep, "ddw-convergence-ratio-error")
        vals[theory] = (ddw.value, 4.0 + ratio.value)
        ok = ok and ddw.passed and ratio.passed
    assert verdict(
        10,
        ok,
        f"ddw residual kg {vals['kg'][0]:.2e}, schr {vals['schrodinger'][0]:.2e} "
        f"(tol 1e-5 at dt=1e-3); halving ratios {vals['kg'][1]:.3f}, "
        f"{vals['schrodinger'][1]:.3f} (4 +/- 0.8)",
    )


# covlab suite --all --seed 42 per ledger, the seconds column stripped
GOLDEN = Path(__file__).resolve().parent / "data"


def strip_seconds(text):
    """The report's lines without their last cell, the seconds column."""
    return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]


def changed_rows(lines, golden):
    """'metric: golden -> new' for each row of a stripped report that
    differs from its golden file, the metric named with its experiment;
    a row on one side only reads 'missing' on the other.  Empty when
    the rows agree but their order or the header does not."""

    def rows(report):
        return {" ".join(ln.split(",")[:2]): ",".join(ln.split(",")[2:]) for ln in report[1:]}

    old, new = rows(golden), rows(lines)
    return [
        f"{key}: {old.get(key, 'missing')} -> {new.get(key, 'missing')}"
        for key in {**old, **new}
        if old.get(key) != new.get(key)
    ]


def test_criterion_11_suite_determinism():
    # two runs with the resolved ledger and one with the printed one, each
    # against the golden report of its ledger: no CSV value may move
    # unless CHANGES.md explains it and the golden file moves with it
    runs = []
    for ledger in ("resolved", "resolved", "paper"):
        cmd = [sys.executable, "-m", "covlab.cli", "suite", "--all", "--seed", "42"]
        proc = subprocess.run(
            cmd + ["--ledger", ledger],
            capture_output=True,
            text=True,
            timeout=600,
        )
        golden = (GOLDEN / f"suite_seed42_{ledger}.csv").read_text(encoding="utf-8")
        lines, golden = strip_seconds(proc.stdout), golden.strip().splitlines()
        runs.append((ledger, proc, lines == golden, changed_rows(lines, golden)))
    codes = [proc.returncode for _, proc, _, _ in runs]
    # the printed ledger's negative controls make that suite exit 1
    ok = all(same for _, _, same, _ in runs) and codes == [0, 0, 1]
    assert verdict(
        11,
        ok,
        f"suite runs (resolved, resolved, paper): exit codes {codes}, "
        f"{len(strip_seconds(runs[0][1].stdout)) - 1} rows each identical modulo timings "
        f"to tests/data: {[same for _, _, same, _ in runs]}",
    ), "\n".join(
        f"{ledger} run, rows that differ: {'; '.join(changes) or 'none (order or header)'}"
        f"\n{proc.stderr[-2000:]}"
        for ledger, proc, same, changes in runs
        if not same or proc.stderr
    )


@pytest.mark.parametrize("ledger", ["resolved", "paper"])
@pytest.mark.parametrize("theory", ["kg", "schrodinger"])
def test_darboux_check_3d_matches_golden(theory, ledger):
    # the 3D oracle path, which the 1D suite does not reach: at n=8 the
    # support is 125 of 512 modes, so the W oracle's blocks hold many
    # nodes; no value may move, as in criterion 11
    cfg = ExperimentConfig(
        theory=theory,
        experiment="darboux-check",
        dim=3,
        n=8,
        seed=42,
        sign_ledger="resolved" if ledger == "resolved" else "paper-printed",
    )
    lines = strip_seconds(emit_report(run_experiment(cfg), None, "csv"))
    golden = (GOLDEN / f"darboux3d_n8_seed42_{theory}_{ledger}.csv").read_text(encoding="utf-8")
    golden = golden.strip().splitlines()
    assert lines == golden, changed_rows(lines, golden)

