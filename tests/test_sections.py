"""Spacetime sections stored as stacked arrays: the batched build against
the slice-by-slice flow, hand-built sections, the batched checks, the
de Donder-Weyl residual read off each Lagrangian table, the gradients
exact sections read off their constraint stacks, the rows of a build
(a chunk from a node on, the even rows of a finer build) that a streamed
pass evaluates, and the constraint fields of slice states, derived when
first read."""

from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from section_references import hermitize

from covlab.kg import (
    KGSpacetimeSection,
    _kg_lagrangian,
    kg_dedonder_weyl_residual,
    kg_el_cancellation_scale,
    kg_el_pairing,
    kg_evolve_spectral,
    kg_solution_section,
)
from covlab.darboux import Theory, random_hermitian_modes
from covlab.lattice import (
    Lattice,
    ModeVector,
    _el_densities,
    _first_order_residual,
    idft,
    spectral_gradient,
    stack_divergence,
    stack_gradient,
    stack_idft,
)
from covlab.schrodinger import (
    SchrSpacetimeSection,
    _schr_lagrangian,
    schr_dedonder_weyl_residual,
    schr_el_cancellation_scale,
    schr_el_pairing,
    schr_evolve_spectral,
    schr_solution_section,
)

DIMS = (1, 2, 3)
DT = 0.05
STEPS = 4


def lattice(dim):
    return Lattice(dim=dim, n=8, length=2 * np.pi)


def random_fields(lat, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for _ in range(2):
        coeff = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
        out.append(idft(ModeVector(lat, hermitize(coeff))))
    return out


def kg_setup(dim):
    lat = lattice(dim)
    return Theory.of("kg", lat).enforce(*random_fields(lat, dim)), 0.7


def schr_setup(dim):
    lat = lattice(dim)
    return Theory.of("schrodinger", lat).enforce(*random_fields(lat, 10 + dim))


@pytest.mark.parametrize("dim", DIMS)
def test_kg_batched_section_matches_slice_by_slice(dim):
    st0, mass = kg_setup(dim)
    section = kg_solution_section(st0, DT, STEPS, mass)
    slices = [kg_evolve_spectral(st0, i * DT, mass) for i in range(STEPS + 1)]
    assert np.array_equal(section.phi, np.stack([s.phi.values for s in slices]))
    assert np.array_equal(section.p, np.stack([s.p.values for s in slices]))
    assert np.array_equal(
        section.beta,
        np.array([[c.values for c in s.beta.components] for s in slices]),
    )
    assert section.beta.shape == (STEPS + 1, dim) + st0.lattice.shape


@pytest.mark.parametrize("dim", DIMS)
def test_schr_batched_section_matches_slice_by_slice(dim):
    st0 = schr_setup(dim)
    section = schr_solution_section(st0, DT, STEPS)
    slices = [schr_evolve_spectral(st0, i * DT) for i in range(STEPS + 1)]
    for name in ("phiR", "phiI"):
        expected = np.stack([getattr(s, name).values for s in slices])
        assert np.array_equal(getattr(section, name), expected)
    for name in ("betaR", "betaI"):
        expected = np.array([[c.values for c in getattr(s, name).components] for s in slices])
        assert np.array_equal(getattr(section, name), expected)


def test_section_stacks_are_read_only():
    st0, mass = kg_setup(1)
    section = kg_solution_section(st0, DT, STEPS, mass)
    with pytest.raises(ValueError):
        section.phi[0, 0] = 1.0
    schr = schr_solution_section(schr_setup(1), DT, STEPS)
    with pytest.raises(ValueError):
        schr.betaI[0, 0, 0] = 1.0


def test_batched_reality_check_rejects_one_bad_slice():
    lat = lattice(2)
    rng = np.random.Generator(np.random.Philox(key=5))
    stack = np.stack(
        [hermitize(rng.standard_normal(lat.shape) + 0j) for _ in range(4)]
    )
    stack_idft(lat, stack)
    stack[2, 1, 3] += 0.5  # no conjugate partner
    with pytest.raises(ValueError, match="slice 2"):
        stack_idft(lat, stack)


def test_batched_reality_check_is_relative_per_slice():
    # a defect below tol * max(1, |coeff|) of its own slice passes, even
    # when another slice has a far larger scale
    lat = lattice(1)
    stack = np.zeros((2,) + lat.shape, dtype=complex)
    stack[0, 1] = stack[0, -1] = 1e6
    stack[1, 2] = 1e-13
    stack_idft(lat, stack)
    stack[1, 2] = 1e-11
    with pytest.raises(ValueError, match="slice 1"):
        stack_idft(lat, stack)


def test_ksq_is_cached_and_read_only():
    lat = lattice(3)
    k2 = lat.ksq()
    assert k2 is Lattice(dim=3, n=8, length=2 * np.pi).ksq()
    with pytest.raises(ValueError):
        k2[0, 0, 0] = 1.0


def test_dedonder_weyl_residuals_keep_nan():
    st0, mass = kg_setup(1)
    section = kg_solution_section(st0, DT, STEPS, mass)
    p = section.p.copy()
    p[2, 3] = np.nan
    bad = KGSpacetimeSection(
        phi=section.phi, p=p, beta=section.beta, dt=section.dt, lattice=section.lattice, mass=mass
    )
    assert np.isnan(kg_dedonder_weyl_residual(bad))

    schr = schr_solution_section(schr_setup(1), DT, STEPS)
    betaR = schr.betaR.copy()
    betaR[2, 0, 1] = np.nan
    bad = SchrSpacetimeSection(
        phiR=schr.phiR, phiI=schr.phiI, betaR=betaR, betaI=schr.betaI,
        dt=schr.dt, lattice=schr.lattice,
    )
    assert np.isnan(schr_dedonder_weyl_residual(bad))


# ---------------------------------------------------------------------------
# the de Donder-Weyl residual read off each Lagrangian table, against the
# first-order equations as they were written by hand before it


def kg_ddw_reference(section):
    """With P^0 = -p: d phi/dt - p, beta - grad phi and
    -dp/dt + div beta - mass^2 phi on the interior time nodes."""
    dt, lat, msq = section.dt, section.lattice, section.mass**2
    phis, ps, betas = section.phi, section.p, section.beta
    dphi_dt = (phis[2:] - phis[:-2]) / (2 * dt)
    dp_dt = (ps[2:] - ps[:-2]) / (2 * dt)
    mid = slice(1, -1)
    return (
        dphi_dt - ps[mid],
        betas[mid] - stack_gradient(lat, phis[mid]),
        -dp_dt + stack_divergence(lat, betas[mid]) - msq * phis[mid],
    )


def schr_ddw_reference(section):
    """(i) d phiI/dt + div(P_R)/2, (ii) grad phiI + P_I,
    (iii) d phiR/dt - div(P_I)/2, (iv) grad phiR + P_R on the interior
    time nodes."""
    dt, lat = section.dt, section.lattice
    aR, aI = section.phiR, section.phiI
    mid = slice(1, -1)
    bR, bI = section.betaR[mid], section.betaI[mid]
    dR_dt = (aR[2:] - aR[:-2]) / (2 * dt)
    dI_dt = (aI[2:] - aI[:-2]) / (2 * dt)
    return (
        dI_dt + 0.5 * stack_divergence(lat, bR),
        stack_gradient(lat, aI[mid]) + bI,
        dR_dt - 0.5 * stack_divergence(lat, bI),
        stack_gradient(lat, aR[mid]) + bR,
    )


def sup_of(residuals):
    return float(np.max([np.max(np.abs(r)) for r in residuals]))


def perturbed(section, name, seed):
    """The section with O(1) noise added to one stack (None: as built),
    so that the equations that stack enters dominate the sup."""
    if name is None:
        return section
    stack = getattr(section, name)
    noise = np.random.Generator(np.random.Philox(key=seed)).standard_normal(stack.shape)
    return replace(section, **{name: stack + 0.3 * noise})


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("name", [None, "phi", "p", "beta"])
def test_kg_ddw_residual_is_the_hand_written_one_bit_for_bit(dim, name):
    # the table's equations are exactly minus the hand-written ones
    st0, mass = kg_setup(dim)
    section = perturbed(kg_solution_section(st0, DT, STEPS, mass), name, dim)
    assert kg_dedonder_weyl_residual(section) == sup_of(kg_ddw_reference(section))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("name", [None, "phiR", "phiI", "betaR", "betaI"])
def test_schr_ddw_residual_is_the_hand_written_one_with_doubled_time_equations(dim, name):
    # phiI d_t phiR - phiR d_t phiI varies to 2 d_t: the table's equations
    # of phiR and phiI are exactly -2 (i) and 2 (iii), those of betaR and
    # betaI exactly (iv) and (ii)
    section = perturbed(schr_solution_section(schr_setup(dim), DT, STEPS), name, dim)
    i, ii, iii, iv = schr_ddw_reference(section)
    assert schr_dedonder_weyl_residual(section) == sup_of((2 * i, ii, 2 * iii, iv))


TABLES = {
    "kg": lambda mass: _kg_lagrangian(mass, "resolved"),
    "schrodinger": lambda mass: _schr_lagrangian("resolved"),
}


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", TABLES)
def test_a_flipped_table_term_lifts_the_ddw_residual(theory, dim):
    # on an exact section the table's equations hold to the truncation
    # of the central differences; with the sign of any one term flipped
    # they fail at O(1)
    lat = lattice(dim)
    state = Theory.of(theory, lat).enforce(*banded_fields(lat, 70 + dim, band=1))
    if theory == "kg":
        section = kg_solution_section(state, 5e-4, 20, 0.7)
    else:
        section = schr_solution_section(state, 5e-4, 20)
    table = TABLES[theory](0.7)
    assert _first_order_residual(table, section) <= 1e-5
    for k, (c, *rest) in enumerate(table):
        flipped = table[:k] + ((-c, *rest),) + table[k + 1 :]
        assert _first_order_residual(flipped, section) > 1e-2, table[k]


def test_mode_flow_is_shared_and_read_only():
    # one flow per (lattice, generator), and a generator is a tuple of
    # coefficients, so every caller of a (lattice, mass) shares it, and so
    # does an equal tuple built anew; its nu is omega.  The half-spectrum
    # flow the slice layer reads is shared the same way, and rotates the
    # half modes as the full flow does, bit for bit
    from covlab.lattice import _half_flow, _mode_flow

    lat = lattice(2)
    same = Lattice(dim=2, n=8, length=2 * np.pi)
    generator = Theory.of("kg", lat, 0.7).generator("resolved")
    assert generator == ((1.0, 0.0), (0.7**2, 1.0))
    flow = _mode_flow(lat, generator)
    assert flow is _mode_flow(same, ((1.0, 0.0), (0.7**2, 1.0)))
    assert flow is Theory.of("kg", lat, 0.7).flow()
    assert np.array_equal(flow.on()[2], np.sqrt(lat.ksq() + 0.7**2))
    half = _half_flow(lat, generator)
    assert half is _half_flow(same, ((1.0, 0.0), (0.7**2, 1.0)))
    for shared in (flow, half):
        for table in (shared.table, shared.classes):
            with pytest.raises(ValueError):
                table[0, 0] = 1
    other = Theory.of("kg", lat, 0.8).generator("resolved")
    assert _mode_flow(lat, other) is not flow
    assert _half_flow(lat, other) is not half
    cut = (..., slice(0, lat.n // 2 + 1))
    assert np.array_equal(half.on()[2], flow.on()[2][cut])
    for s in (0.83, np.array([0.0, -1.7, 40.0]).reshape(3, 1, 1)):
        for got, want in zip(half.rotation(s), flow.rotation(s)):
            assert got.shape == want[cut].shape and np.array_equal(got, want[cut])


# ---------------------------------------------------------------------------
# exact sections: the builder's, whose gradients are read off their
# constraint stacks


def derived(state):
    """The state with its constraint fields derived (see the last tests
    here), so that a count of transforms sees only what reads it."""
    for vector in state.VECTORS:
        getattr(state, vector).components
    return state


def kg_pair(dim, sampled=False):
    """A builder section and a slice state to vary it along, its constraint
    fields derived; with `sampled`, the section is the even rows of the
    build at DT / 2."""
    st0, mass = kg_setup(dim)
    if sampled:
        fine = kg_solution_section(st0, DT / 2, 2 * STEPS, mass)
        section = fine._sampled(slice(0, None, 2), DT)
    else:
        section = kg_solution_section(st0, DT, STEPS, mass)
    th = Theory.of("kg", st0.lattice)
    return section, derived(th.enforce(*random_fields(st0.lattice, 20 + dim)))


def schr_pair(dim, sampled=False):
    st0 = schr_setup(dim)
    if sampled:
        section = schr_solution_section(st0, DT / 2, 2 * STEPS)._sampled(slice(0, None, 2), DT)
    else:
        section = schr_solution_section(st0, DT, STEPS)
    th = Theory.of("schrodinger", section.lattice)
    return section, derived(th.enforce(*random_fields(section.lattice, 30 + dim)))


PAIRS = {
    "kg": (kg_pair, ("phi",), kg_el_pairing, kg_el_cancellation_scale),
    "schrodinger": (schr_pair, ("phiR", "phiI"), schr_el_pairing, schr_el_cancellation_scale),
}
# the same pairs with the section taken as the even rows of the build at
# DT / 2
PAIRS.update(
    {
        f"{theory}-even-rows": (partial(build, sampled=True), *rest)
        for theory, (build, *rest) in list(PAIRS.items())
    }
)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", PAIRS)
def test_constraint_stacks_of_exact_sections_are_their_gradients(theory, dim):
    # what the EL densities read in place of a transform: the builder's
    # constraint stacks are sign * grad(scalar) bit for bit
    section, _ = PAIRS[theory][0](dim)
    assert section._exact
    for vector, name, sign in section.STATE.CONSTRAINTS:
        fresh = stack_gradient(section.lattice, getattr(section, name))
        assert np.array_equal(sign * getattr(section, vector), fresh)


@pytest.mark.parametrize("theory", ("kg", "schrodinger"))
def test_el_pairing_rejects_a_variation_on_another_lattice(theory):
    # its gradients were taken with other wavenumbers
    build, _, pairing, scale = PAIRS[theory]
    section, _ = build(1)
    other = Lattice(dim=1, n=8, length=4 * np.pi)
    variation = Theory.of(theory, other).enforce(*random_fields(other, 71))
    for form in (pairing, scale):
        with pytest.raises(ValueError, match="lattice"):
            form(section, variation)


@pytest.mark.parametrize("theory", ("kg", "schrodinger"))
def test_a_two_slice_section_is_refused_by_every_time_derivative(theory):
    # a section may hold two slices, but each kernel's second-order d/dt
    # reads three: one covlab refusal, not numpy's from np.gradient
    build, _, pairing, scale = PAIRS[theory]
    section, variation = build(1)
    th = Theory.of(theory, section.lattice)
    short = th.section(variation, DT, 1)
    assert len(short.times()) == 2
    kernels = (
        lambda: pairing(short, variation),
        lambda: scale(short, variation),
        lambda: th.ddw(short),
    )
    for kernel in kernels:
        with pytest.raises(ValueError, match="need at least three time slices"):
            kernel()


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", PAIRS)
def test_builder_stacks_are_contiguous_owned_and_read_only(theory, dim):
    # a section copies its stacks on purpose: a strided view of a transform's
    # complex buffer would round the EL sums differently; the even rows of a
    # finer build are copied the same way
    section, _ = PAIRS[theory][0](dim)
    stacks = [(f.name, getattr(section, f.name)) for f in fields(section)]
    stacks = [(name, a) for name, a in stacks if isinstance(a, np.ndarray)]
    for name, stack in stacks:
        assert stack.flags.c_contiguous and stack.flags.owndata, name
        assert not stack.flags.writeable, name


def count_ffts(monkeypatch):
    calls = []
    for fname in ("fftn", "ifftn", "rfftn", "irfftn"):
        raw = getattr(np.fft, fname)

        def counted(*args, _raw=raw, **kwargs):
            calls.append(1)
            return _raw(*args, **kwargs)

        monkeypatch.setattr(np.fft, fname, counted)
    return calls


@pytest.mark.parametrize("theory", PAIRS)
def test_replace_gives_a_section_whose_gradients_are_transformed(theory, monkeypatch):
    # nothing is kept on a section, so nothing goes stale: a replaced
    # section is not exact, and its table gradients come from its scalars,
    # not from constraint stacks that no longer match them
    build, names, pairing, _ = PAIRS[theory]
    section, var = build(1)
    moved = replace(section, **{n: 2 * getattr(section, n) for n in names})
    assert not moved._exact
    calls = count_ffts(monkeypatch)
    pairing(section, var)
    assert calls == []
    got = pairing(moved, var)
    assert len(calls) > 0
    stale = replace(section, **{n: 2 * getattr(section, n) for n in names})._marked(True)
    assert got != pairing(stale, var)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", PAIRS)
def test_el_pairing_and_scale_transform_nothing_on_exact_sections(theory, dim, monkeypatch):
    # the variation's gradients are its slice state's constraint fields
    build, _, pairing, scale = PAIRS[theory]
    section, var = build(dim)
    calls = count_ffts(monkeypatch)
    pairing(section, var), scale(section, var)
    assert calls == []


# ---------------------------------------------------------------------------
# rows of a build: a chunk built from a node on, and the even rows of the
# build at dt / 2


def banded_fields(lat, seed, band):
    """Two real fields on |m_j| <= band, as action-residual draws them."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return [idft(ModeVector(lat, random_hermitian_modes(lat, rng, band=band))) for _ in range(2)]


def kg_build(dim, band):
    lat = Lattice(dim=dim, n=8, length=2 * np.pi)
    st0 = Theory.of("kg", lat).enforce(*banded_fields(lat, 40 + dim, band), time=0.25)
    return lambda dt, steps, first=0: kg_solution_section(st0, dt, steps, 0.15, first)


def schr_build(dim, band):
    lat = Lattice(dim=dim, n=8, length=2 * np.pi)
    st0 = Theory.of("schrodinger", lat).enforce(*banded_fields(lat, 50 + dim, band), time=0.25)
    return lambda dt, steps, first=0: schr_solution_section(st0, dt, steps, first)


BUILDS = {"kg": kg_build, "schrodinger": schr_build}
NAMES = {"kg": ("phi", "p", "beta"), "schrodinger": ("phiR", "phiI", "betaR", "betaI")}


# (band, dt, steps): the band-1 EL data over a long window and the
# band-2 de Donder-Weyl data over a short one, at the suite's step
@pytest.mark.parametrize("band,dt,steps", [(1, 1e-3, 600), (2, 1e-3, 200), (2, 0.05, 3)])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", BUILDS)
def test_even_rows_are_the_coarse_build_bit_for_bit(theory, dim, band, dt, steps):
    build = BUILDS[theory](dim, band)
    coarse = build(dt, steps)
    fine = build(dt / 2, 2 * steps)
    sliced = fine._sampled(slice(0, None, 2), dt)
    assert type(sliced) is type(coarse) and sliced._exact
    assert (sliced.dt, sliced.t0) == (coarse.dt, coarse.t0)
    assert np.array_equal(sliced.times(), coarse.times())
    for name in NAMES[theory]:
        assert np.array_equal(getattr(sliced, name), getattr(coarse, name)), name
    # and so are their EL densities, d/dt at the coarse step included
    th = Theory.of(theory, coarse.lattice)
    variation = th.enforce(*banded_fields(coarse.lattice, 60 + dim, band))
    got = _el_densities(sliced.lagrangian, sliced, variation)
    want = _el_densities(coarse.lagrangian, coarse, variation)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the finer section is left as it was
    assert len(fine.times()) == 2 * steps + 1 and fine.dt == dt / 2


@pytest.mark.parametrize("first,steps", [(0, 3), (5, 1), (7, 10), (20, 4)])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", BUILDS)
def test_a_chunk_is_the_rows_of_the_whole_build_bit_for_bit(theory, dim, first, steps):
    # a node's slice and its EL densities do not depend on which nodes
    # are built beside it
    build = BUILDS[theory](dim, 1)
    whole = build(1e-3, 24)
    chunk = build(1e-3, steps, first=first)
    rows = slice(first, first + steps + 1)
    assert chunk._exact and chunk.t0 == whole.t0 + first * 1e-3
    for name in NAMES[theory]:
        assert np.array_equal(getattr(chunk, name), getattr(whole, name)[rows]), name
    if steps < 2:
        return  # d/dt takes three rows
    # the densities at the chunk's (first, count) equal the whole section's
    # on every row whose d/dt stencil the chunk holds: all but an end of
    # the chunk that is not an end of the grid
    variation = Theory.of(theory, whole.lattice).enforce(*banded_fields(whole.lattice, 61, 1))
    held = slice(1 if first else 0, steps + 1 if first + steps == 24 else steps)
    got = _el_densities(chunk.lagrangian, chunk, variation, first, 25)
    want = _el_densities(whole.lagrangian, whole, variation)
    for g, w in zip(got, want):
        assert np.array_equal(g[held], w[rows][held])


# vector stacks the EL densities hold at once on an exact section, 2D:
# one term's at a time, at most a d/dt term's np.gradient of a scalar
# stack (its output and two temporaries, three half-size stacks); the
# variation is never written out (measured: 1.52 for kg, 1.54 for
# schrodinger, whose variation stacks read 2.04 and 4.04 when built)
DENSITY_STACKS = 1.5


def test_el_densities_hold_one_time_derivative_and_no_variation_stack():
    import tracemalloc

    for theory in BUILDS:
        section = BUILDS[theory](2, 2)(1e-3, 400)
        th = Theory.of(theory, section.lattice)
        var = th.enforce(*random_fields(section.lattice, 60))
        table = section.lagrangian
        _el_densities(table, section, var)
        # the vector stacks, (T, dim, *shape), are the largest
        largest = max(getattr(section, n).nbytes for n in section.STATE.VECTORS)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _el_densities(table, section, var)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= DENSITY_STACKS * largest + 2**16, theory


def test_the_slice_layer_is_written_once():
    # the section builder has one body, lattice._Section, and the EL
    # densities one kernel: neither theory module binds the pieces of them
    import dataclasses

    from covlab import kg, schrodinger

    for module in (kg, schrodinger):
        bound = vars(module)
        for name in ("stack_idft", "stack_gradient", "_el_densities"):
            assert name not in bound, (module.__name__, name)
        assert dataclasses.replace not in bound.values(), module.__name__


# tracemalloc peaks of the suite's action-residual runs at steps=2000
# (numpy 2.4, x86-64 Linux), when this bound was set: the live memory of
# the streamed EL and dDW passes, one chunk of sections and densities at
# a time beside the per-node densities of each level
ACTION_RESIDUAL_PEAK_MIB = {"kg": 3.30, "schrodinger": 4.70}


@pytest.mark.parametrize("theory", ("kg", "schrodinger"))
def test_action_residual_live_peak(theory):
    # 0.25 MiB of slack: writing out each chunk's variation stacks, as the
    # pass once did, breaks the bound (it read 3.68 and 5.21 MiB), and so
    # does one more (T, n) stack held at the peak, 1.95 MiB at this size
    import tracemalloc

    from covlab.harness import run_experiment, suite_configs

    (cfg,) = (
        c for c in suite_configs() if c.experiment == "action-residual" and c.theory == theory
    )
    cfg = replace(cfg, steps=2000)
    run_experiment(cfg)  # fills the per-lattice caches outside the trace
    tracemalloc.start()
    try:
        report = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.errors
    assert peak <= (ACTION_RESIDUAL_PEAK_MIB[theory] + 0.25) * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# the constraint fields of enforced and evolved slice states, derived the
# first time they are read


def enforced_and_evolved(theory, dim):
    """A state from enforcement and the state it evolves to."""
    if theory == "kg":
        state, mass = kg_setup(dim)
        return state, kg_evolve_spectral(state, 0.3, mass)
    state = schr_setup(dim)
    return state, schr_evolve_spectral(state, 0.3)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", ("kg", "schrodinger"))
def test_constraint_fields_are_the_signed_gradients_bit_for_bit(theory, dim):
    for state in enforced_and_evolved(theory, dim):
        for vector, scalar, sign in state.CONSTRAINTS:
            want = spectral_gradient(getattr(state, scalar)).components
            got = getattr(state, vector).components
            assert len(got) == dim
            for g, w in zip(got, want):
                assert g.lattice == state.lattice
                assert g.values.tobytes() == (sign * w.values).tobytes()
        assert state.constraint_residual() == 0.0


@pytest.mark.parametrize("theory", ("kg", "schrodinger"))
def test_evolve_transforms_no_gradient_until_a_constraint_field_is_read(theory, monkeypatch):
    # 3D n=8: a gradient is one forward and three inverse transforms
    if theory == "kg":
        state, mass = kg_setup(3)
        evolve = lambda s: kg_evolve_spectral(state, s, mass)
    else:
        state = schr_setup(3)
        evolve = lambda s: schr_evolve_spectral(state, s)
    calls = count_ffts(monkeypatch)
    out = evolve(0.3)
    # the two scalars, there and back
    assert len(calls) == 4
    # again: each scalar keeps its half spectrum, so only back
    evolve(0.5)
    assert len(calls) == 6
    for vector, _, _ in out.CONSTRAINTS:
        before = len(calls)
        first = getattr(out, vector).components
        assert len(calls) == before + 4
        assert getattr(out, vector).components is first
        assert len(calls) == before + 4
