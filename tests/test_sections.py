"""Spacetime sections stored as stacked arrays: the batched build against
the slice-by-slice flow, hand-built sections, the batched checks, the
memo of derived stacks, and the even slices of a finer build."""

from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from covlab.kg import (
    KGConfig,
    KGSpacetimeSection,
    kg_dedonder_weyl_residual,
    kg_el_cancellation_scale,
    kg_el_pairing,
    kg_enforce_constraints,
    kg_evolve_spectral,
    kg_random_variation_profile,
    kg_solution_section,
)
from covlab.darboux import random_hermitian_modes
from covlab.lattice import (
    Lattice,
    ModeVector,
    _even_slices,
    _table_op,
    hermitize,
    idft,
    stack_gradient,
    stack_idft,
)
from covlab.schrodinger import (
    SchrSpacetimeSection,
    schr_dedonder_weyl_residual,
    schr_el_cancellation_scale,
    schr_el_pairing,
    schr_enforce_constraints,
    schr_evolve_spectral,
    schr_random_variation_profile,
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
    cfg = KGConfig(mass=0.7, lattice=lat)
    return kg_enforce_constraints(*random_fields(lat, dim)), cfg


def schr_setup(dim):
    return schr_enforce_constraints(*random_fields(lattice(dim), 10 + dim))


@pytest.mark.parametrize("dim", DIMS)
def test_kg_batched_section_matches_slice_by_slice(dim):
    st0, cfg = kg_setup(dim)
    section = kg_solution_section(st0, DT, STEPS, cfg)
    slices = [kg_evolve_spectral(st0, i * DT, cfg) for i in range(STEPS + 1)]
    assert np.array_equal(section.phi, np.stack([s.phi.values for s in slices]))
    assert np.array_equal(section.p, np.stack([s.p.values for s in slices]))
    assert np.array_equal(
        section.beta,
        np.array([[c.values for c in s.beta.components] for s in slices]),
    )
    assert section.beta.shape == (STEPS + 1, dim) + cfg.lattice.shape


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
    st0, cfg = kg_setup(1)
    section = kg_solution_section(st0, DT, STEPS, cfg)
    with pytest.raises(ValueError):
        section.phi[0, 0] = 1.0
    schr = schr_solution_section(schr_setup(1), DT, STEPS)
    with pytest.raises(ValueError):
        schr.betaI[0, 0, 0] = 1.0


@pytest.mark.parametrize("dim", (1, 2))
def test_from_states_round_trips(dim):
    st0, cfg = kg_setup(dim)
    section = kg_solution_section(st0, DT, STEPS, cfg)
    again = KGSpacetimeSection.from_states(section.states, section.dt, cfg)
    for name in ("phi", "p", "beta"):
        assert np.array_equal(getattr(again, name), getattr(section, name))
    assert np.array_equal(again.times(), section.times())

    schr = schr_solution_section(schr_setup(dim), DT, STEPS)
    back = SchrSpacetimeSection.from_states(schr.states, schr.dt)
    for name in ("phiR", "phiI", "betaR", "betaI"):
        assert np.array_equal(getattr(back, name), getattr(schr, name))
    assert back.lattice == schr.lattice


def test_from_states_keeps_validation():
    st0, cfg = kg_setup(1)
    states = kg_solution_section(st0, DT, STEPS, cfg).states
    with pytest.raises(ValueError, match="uniform"):
        KGSpacetimeSection.from_states(states, 2 * DT, cfg)
    with pytest.raises(ValueError, match="two time slices"):
        KGSpacetimeSection.from_states(states[:1], DT, cfg)
    other = KGConfig(mass=0.7, lattice=Lattice(dim=1, n=8, length=1.0))
    with pytest.raises(ValueError, match="lattice"):
        KGSpacetimeSection.from_states(states, DT, other)


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
    st0, cfg = kg_setup(1)
    section = kg_solution_section(st0, DT, STEPS, cfg)
    p = section.p.copy()
    p[2, 3] = np.nan
    bad = KGSpacetimeSection(
        phi=section.phi, p=p, beta=section.beta, dt=section.dt, cfg=cfg
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


def test_omega_is_cached_and_read_only():
    cfg = KGConfig(mass=0.7, lattice=lattice(2))
    om = cfg.omega()
    assert om is KGConfig(mass=0.7, lattice=Lattice(dim=2, n=8, length=2 * np.pi)).omega()
    assert np.array_equal(om, np.sqrt(cfg.lattice.ksq() + 0.7**2))
    with pytest.raises(ValueError):
        om[0, 0] = 1.0
    assert KGConfig(mass=0.8, lattice=cfg.lattice).omega() is not om


# ---------------------------------------------------------------------------
# derived stacks: built once per section, seeded where a builder holds them


def kg_pair(dim, nested=False):
    """A builder section and its profile variation; with `nested`, the
    section is the even slices of the build at DT / 2."""
    st0, cfg = kg_setup(dim)
    if nested:
        section = _even_slices(kg_solution_section(st0, DT / 2, 2 * STEPS, cfg))
    else:
        section = kg_solution_section(st0, DT, STEPS, cfg)
    d1, d2 = random_fields(cfg.lattice, 20 + dim)
    return section, kg_random_variation_profile(section, d1, d2)


def schr_pair(dim, nested=False):
    st0 = schr_setup(dim)
    if nested:
        section = _even_slices(schr_solution_section(st0, DT / 2, 2 * STEPS))
    else:
        section = schr_solution_section(st0, DT, STEPS)
    d1, d2 = random_fields(section.lattice, 30 + dim)
    return section, schr_random_variation_profile(section, d1, d2)


PAIRS = {
    "kg": (kg_pair, ("phi",), kg_el_pairing, kg_el_cancellation_scale),
    "schrodinger": (schr_pair, ("phiR", "phiI"), schr_el_pairing, schr_el_cancellation_scale),
}
# the same pairs with the section taken as the even slices of the build
# at DT / 2
PAIRS.update(
    {
        f"{theory}-even-slices": (partial(build, nested=True), *rest)
        for theory, (build, *rest) in list(PAIRS.items())
    }
)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", PAIRS)
def test_seeded_gradients_match_fresh_ones(theory, dim):
    build, names, _, _ = PAIRS[theory]
    section, var = build(dim)
    for name in names:
        fresh = stack_gradient(section.lattice, getattr(section, name))
        assert np.array_equal(section._derived[("grad", name)], fresh)
        fresh = stack_gradient(var.lattice, getattr(var, name))
        seeded = var._derived[("grad", name)]
        assert np.max(np.abs(seeded - fresh)) <= 1e-15 * np.max(np.abs(fresh))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", PAIRS)
def test_builder_and_profile_stacks_are_contiguous_owned_and_read_only(theory, dim):
    # _section_stacks copies on purpose: a strided view of a transform's
    # complex buffer would round the EL sums differently; the even slices
    # of a finer build are copied the same way, seeded gradients included
    build = PAIRS[theory][0]
    for owner in build(dim):
        stacks = [(f.name, getattr(owner, f.name)) for f in fields(owner)]
        stacks = [(name, a) for name, a in stacks if isinstance(a, np.ndarray)]
        stacks += [(key, stack) for key, stack in owner._derived.items()]
        for name, stack in stacks:
            assert stack.flags.c_contiguous and stack.flags.owndata, name
            assert not stack.flags.writeable, name


@pytest.mark.parametrize("theory", PAIRS)
def test_derived_stacks_are_read_only_and_built_once(theory):
    build, names, pairing, _ = PAIRS[theory]
    section, var = build(2)
    pairing(section, var)
    assert {("dt", name) for name in names} <= set(var._derived)
    for owner in (section, var):
        for (op, name), stack in owner._derived.items():
            assert _table_op(op, owner, name) is stack
            with pytest.raises(ValueError):
                stack[(0,) * stack.ndim] = 1.0


@pytest.mark.parametrize("theory", PAIRS)
def test_replace_starts_an_empty_memo(theory):
    build, names, pairing, _ = PAIRS[theory]
    section, var = build(1)
    pairing(section, var)
    moved = replace(section, **{n: 2 * getattr(section, n) for n in names})
    assert moved._derived == {} and section._derived
    for name in names:
        doubled = _table_op("grad", moved, name)
        assert np.array_equal(doubled, stack_gradient(moved.lattice, getattr(moved, name)))
        assert not np.array_equal(doubled, section._derived[("grad", name)])


def count_ffts(monkeypatch):
    calls = []
    for fname in ("fftn", "ifftn"):
        raw = getattr(np.fft, fname)

        def counted(*args, _raw=raw, **kwargs):
            calls.append(1)
            return _raw(*args, **kwargs)

        monkeypatch.setattr(np.fft, fname, counted)
    return calls


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", PAIRS)
def test_el_pairing_and_scale_transform_nothing_twice(theory, dim, monkeypatch):
    build, names, pairing, scale = PAIRS[theory]
    section, var = build(dim)
    calls = count_ffts(monkeypatch)
    # a builder section, its even slices and a profile variation hold
    # every gradient
    first = (pairing(section, var), scale(section, var))
    assert calls == []
    # a hand-built variation transforms its stacks once
    hand = replace(var, **{n: getattr(var, n).copy() for n in names})
    pairing(section, hand)
    built = len(calls)
    assert built > 0
    assert (pairing(section, var), scale(section, var)) == first
    scale(section, hand)
    pairing(section, hand)
    assert len(calls) == built


# ---------------------------------------------------------------------------
# even slices: the section at dt served by the build at dt / 2


def banded_fields(lat, seed, band):
    """Two real fields on |m_j| <= band, as action-residual draws them."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return [idft(ModeVector(lat, random_hermitian_modes(lat, rng, band=band))) for _ in range(2)]


def kg_build(dim, band):
    lat = Lattice(dim=dim, n=8, length=2 * np.pi)
    cfg = KGConfig(mass=0.15, lattice=lat)
    st0 = kg_enforce_constraints(*banded_fields(lat, 40 + dim, band), time=0.25)
    return lambda dt, steps: kg_solution_section(st0, dt, steps, cfg)


def schr_build(dim, band):
    lat = Lattice(dim=dim, n=8, length=2 * np.pi)
    st0 = schr_enforce_constraints(*banded_fields(lat, 50 + dim, band), time=0.25)
    return lambda dt, steps: schr_solution_section(st0, dt, steps)


BUILDS = {"kg": kg_build, "schrodinger": schr_build}


# (band, dt, steps): the band-1 EL data over a long window and the
# band-2 de Donder-Weyl data over a short one, at the suite's step
@pytest.mark.parametrize("band,dt,steps", [(1, 1e-3, 600), (2, 1e-3, 200), (2, 0.05, 3)])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("theory", BUILDS)
def test_even_slices_are_the_coarse_build_bit_for_bit(theory, dim, band, dt, steps):
    build = BUILDS[theory](dim, band)
    coarse = build(dt, steps)
    fine = build(dt / 2, 2 * steps)
    sliced = _even_slices(fine)
    assert type(sliced) is type(coarse)
    assert (sliced.dt, sliced.t0) == (coarse.dt, coarse.t0)
    assert np.array_equal(sliced.times(), coarse.times())
    names = ("phi", "p", "beta") if theory == "kg" else ("phiR", "phiI", "betaR", "betaI")
    for name in names:
        assert np.array_equal(getattr(sliced, name), getattr(coarse, name)), name
    # every builder-seeded gradient comes along, equal to the coarse one
    assert sliced._derived.keys() == coarse._derived.keys() == fine._derived.keys()
    for key, stack in coarse._derived.items():
        assert np.array_equal(sliced._derived[key], stack), key
    if theory == "kg":
        assert sliced._derived[("grad", "phi")] is sliced.beta
    # the finer section is left as it was
    assert len(fine.times()) == 2 * steps + 1 and fine.dt == dt / 2


def test_even_slices_drop_time_derivatives():
    build = kg_build(1, 1)
    fine = build(DT / 2, 2 * STEPS)
    _table_op("dt", fine, "phi")
    sliced = _even_slices(fine)
    assert set(sliced._derived) == {("grad", "phi")}
    expected = np.gradient(sliced.phi, sliced.dt, axis=0, edge_order=2)
    assert np.array_equal(_table_op("dt", sliced, "phi"), expected)


@pytest.mark.parametrize("theory", BUILDS)
def test_cancellation_scale_holds_two_magnitude_stacks_at_most(theory):
    # the scale takes each |stack| just before its sum: the live memory it
    # adds stays within two of the largest stacks, not the four factors of
    # a term's two products
    import tracemalloc

    _, _, pairing, scale = PAIRS[theory]
    section = BUILDS[theory](2, 2)(1e-3, 400)
    profile = kg_random_variation_profile if theory == "kg" else schr_random_variation_profile
    var = profile(section, *random_fields(section.lattice, 60))
    pairing(section, var)  # fills the memos the scale reads
    # the gradients, (T, dim, *shape), are the largest stacks
    largest = max(stack.nbytes for stack in section._derived.values())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scale(section, var)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 2 * largest + 2**16
