"""The slice layer's one way into and out of mode space, rfftn's half
spectrum: its reality check on the two planes irfftn would drop
silently, and the sections, evolved states and spectral derivatives it
gives against full-spectrum references kept here (dft ->
_ModeFlow.propagate -> stack_idft, complex fftn/ifftn derivatives)."""

import numpy as np
import pytest
from section_references import hermitize

from covlab.darboux import Theory
from covlab.kg import KGSpacetimeSection
from covlab.lattice import (
    Lattice,
    ModeVector,
    _half_dft,
    _half_idft,
    _mode_flow,
    dft,
    idft,
    spectral_laplacian,
    stack_divergence,
    stack_gradient,
    stack_idft,
)
from covlab.schrodinger import SchrSpacetimeSection

DIMS = (1, 2, 3)
SEEDS = (*range(8), 42)
LEDGERS = ("resolved", "paper-printed")
# the largest |half - full| over each stack's largest entry, over SEEDS,
# dims 1-3, both theories and both ledgers at n=8, was 5.9e-16; the half
# spectrum's round trip read 4.1e-16
REFERENCE_REL = 1e-15


def lattice(dim):
    return Lattice(dim=dim, n=8, length=2 * np.pi)


def random_fields(lat, seed):
    """Two real fields with every mode drawn, Nyquist planes included."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    shape = lat.shape
    return [
        idft(ModeVector(lat, hermitize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))))
        for _ in range(2)
    ]


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("dim", DIMS)
def test_a_field_transforms_its_half_spectrum_once(dim, monkeypatch):
    # the cache the slice layer reads: _half_dft of the values, bit for bit
    lat = lattice(dim)
    field = random_fields(lat, 5)[0]
    want = _half_dft(lat, field.values)
    calls, raw = [], np.fft.rfftn
    monkeypatch.setattr(np.fft, "rfftn", lambda *a, **k: calls.append(1) or raw(*a, **k))
    half = field._half
    assert field._half is half and len(calls) == 1
    assert half.dtype == want.dtype and half.shape == want.shape
    assert half.tobytes() == want.tobytes()
    assert not half.flags.writeable


# ---------------------------------------------------------------------------
# the reality check of _half_idft


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
def test_half_spectrum_is_the_full_one_on_the_half_lattice_and_round_trips(dim, seed):
    lat = lattice(dim)
    fields = random_fields(lat, seed)
    values = np.stack([f.values for f in fields])
    half = _half_dft(lat, values)
    assert half.shape == (2, *lat.shape[:-1], lat.n // 2 + 1)
    full = dft(fields[0]).coefficients[..., : lat.n // 2 + 1]
    assert relative_gap(half[0], full) <= REFERENCE_REL
    # amplitudes far above 1 pass too: the check is relative to the
    # largest mode
    for stack in (values, 1e9 * values):
        assert relative_gap(_half_idft(lat, _half_dft(lat, stack)), stack) <= REFERENCE_REL


@pytest.mark.parametrize("entry", (0, 4))
def test_half_spectrum_check_refuses_an_imaginary_dc_or_nyquist_entry_at_1d(entry):
    lat = lattice(1)
    half = _half_dft(lat, random_fields(lat, 3)[0].values)
    bad = half.copy()
    bad[entry] += 1e-9j
    with pytest.raises(ValueError, match="reality symmetry"):
        _half_idft(lat, bad)
    # an interior entry has its conjugate implied: any value is a real field's
    fine = half.copy()
    fine[1] += 1e-3j
    _half_idft(lat, fine)


@pytest.mark.parametrize("plane", (0, 4))
@pytest.mark.parametrize("dim", (2, 3))
def test_half_spectrum_check_refuses_a_non_symmetric_plane(dim, plane):
    # the mode (1, ..., plane) moves, its partner (n - 1, ..., plane) not
    lat = lattice(dim)
    half = _half_dft(lat, random_fields(lat, 4)[0].values)
    bad = half.copy()
    bad[(1,) * (dim - 1) + (plane,)] += 1e-9
    with pytest.raises(ValueError, match="reality symmetry"):
        _half_idft(lat, bad)
    fine = half.copy()
    fine[(1,) * (dim - 1) + (1,)] += 1e-3
    _half_idft(lat, fine)


@pytest.mark.parametrize("dim", DIMS)
def test_half_spectrum_check_names_the_slice_as_stack_idft_does(dim):
    lat = lattice(dim)
    stack = np.stack([f.values for seed in (1, 2) for f in random_fields(lat, seed)])
    half = _half_dft(lat, stack)
    _half_idft(lat, half)
    half[2][(0,) * dim] += 1e-9j
    with pytest.raises(ValueError, match="slice 2") as half_error:
        _half_idft(lat, half)
    full = np.fft.fftn(stack, axes=tuple(range(1, dim + 1)), norm="forward")
    full[2][(0,) * dim] += 1e-9j
    with pytest.raises(ValueError, match="slice 2") as full_error:
        stack_idft(lat, full)
    assert str(half_error.value) == str(full_error.value)


def test_half_spectrum_check_is_relative_per_slice():
    # a defect below tol * max(1, |coeff|) of its own slice passes, even
    # when another slice has a far larger scale
    lat = lattice(1)
    half = np.zeros((2, lat.n // 2 + 1), dtype=complex)
    half[0, 1] = 1e6
    half[1, 0] = 1e-13j
    _half_idft(lat, half)
    half[1, 0] = 1e-11j
    with pytest.raises(ValueError, match="slice 1"):
        _half_idft(lat, half)


# ---------------------------------------------------------------------------
# against the full spectrum


def nyquist_free_wavenumbers(lat):
    """k per axis, zero on the axis's Nyquist plane."""
    out = []
    for axis, kg in enumerate(lat.wavenumber_grids()):
        index = [slice(None)] * lat.dim
        index[axis] = lat.n // 2
        kg[tuple(index)] = 0.0
        out.append(kg)
    return out


def full_gradient(lat, stack):
    axes = tuple(range(1, lat.dim + 1))
    fhat = np.fft.fftn(stack, axes=axes)
    comps = [np.fft.ifftn(1j * kg * fhat, axes=axes).real for kg in nyquist_free_wavenumbers(lat)]
    return np.stack(comps, axis=1)


def full_divergence(lat, stack):
    axes = tuple(range(1, lat.dim + 1))
    return sum(
        np.fft.ifftn(1j * kg * np.fft.fftn(stack[:, axis], axes=axes), axes=axes).real
        for axis, kg in enumerate(nyquist_free_wavenumbers(lat))
    )


def full_flow(state, generator, s):
    """The scalars of state moved by the time (or times) s on the full
    spectrum, the path before the half spectrum."""
    lat = state.lattice
    hats = (dft(getattr(state, n)).coefficients for n in state.SCALARS)
    return [stack_idft(lat, h) for h in _mode_flow(lat, generator).propagate(*hats, s)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
def test_spectral_derivatives_match_the_full_spectrum(dim, seed):
    lat = lattice(dim)
    stack = np.stack([f.values for f in random_fields(lat, seed)])
    grad = stack_gradient(lat, stack)
    assert relative_gap(grad, full_gradient(lat, stack)) <= REFERENCE_REL
    # a vector stack that is no gradient
    vectors = grad + stack[:, np.newaxis]
    assert relative_gap(stack_divergence(lat, vectors), full_divergence(lat, vectors)) <= REFERENCE_REL
    f = random_fields(lat, seed)[0]
    full_lap = np.fft.ifftn(-lat.ksq() * np.fft.fftn(f.values)).real
    assert relative_gap(spectral_laplacian(f).values, full_lap) <= REFERENCE_REL


DT, STEPS, EVOLVE_S = 0.3, 6, 0.9


def flowed(theory, ledger, lat, seed):
    """(state, generator, the state's section on STEPS intervals of DT,
    the state evolved by EVOLVE_S) of a theory in a ledger."""
    th = Theory.of(theory, lat, 0.7)
    state = th.enforce(*random_fields(lat, seed))
    if theory == "kg":
        section = KGSpacetimeSection._solution(state, DT, STEPS, th.table(ledger), 0, mass=0.7)
    else:
        section = SchrSpacetimeSection._solution(state, DT, STEPS, th.table(ledger), 0)
    return state, th.generator(ledger), section, th.evolve(state, EVOLVE_S, ledger)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ledger", LEDGERS)
@pytest.mark.parametrize("theory", ("kg", "schrodinger"))
@pytest.mark.parametrize("dim", DIMS)
def test_sections_and_evolved_states_match_the_full_spectrum(dim, theory, ledger, seed):
    lat = lattice(dim)
    state, generator, section, evolved = flowed(theory, ledger, lat, seed)
    times = (np.arange(STEPS + 1) * DT).reshape((-1,) + (1,) * dim)
    want = dict(zip(state.SCALARS, full_flow(state, generator, times)))
    for name in state.SCALARS:
        assert relative_gap(getattr(section, name), want[name]) <= REFERENCE_REL, name
    for vector, scalar, sign in state.CONSTRAINTS:
        got = getattr(section, vector)
        assert relative_gap(got, sign * full_gradient(lat, want[scalar])) <= REFERENCE_REL, vector
    for name, values in zip(state.SCALARS, full_flow(state, generator, EVOLVE_S)):
        assert relative_gap(getattr(evolved, name).values, values) <= REFERENCE_REL, name
