"""Spacetime sections stored as stacked arrays: the batched build against
the slice-by-slice flow, hand-built sections, and the batched checks."""

import numpy as np
import pytest

from covlab.kg import (
    KGConfig,
    KGSpacetimeSection,
    kg_dedonder_weyl_residual,
    kg_enforce_constraints,
    kg_evolve_spectral,
    kg_solution_section,
)
from covlab.lattice import (
    Lattice,
    ModeVector,
    hermitize,
    idft,
    stack_idft,
)
from covlab.schrodinger import (
    SchrSpacetimeSection,
    schr_dedonder_weyl_residual,
    schr_enforce_constraints,
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
