"""Spectral calculus on the periodic lattice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlab.lattice import (
    Lattice,
    ModeVector,
    ScalarField,
    conjugate_reflection,
    dft,
    hermitian_defect,
    hermitize,
    idft,
    inner,
    mode_index_table,
    spectral_divergence,
    spectral_gradient,
    spectral_laplacian,
    stack_gradient,
    sup_norm,
)

LAT = Lattice(dim=1, n=64, length=2 * np.pi)
LAT2 = Lattice(dim=2, n=8, length=2 * np.pi)


def random_band_limited(lat, rng, band=None):
    band = band if band is not None else lat.n // 4
    coeff = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    mask = np.ones(lat.shape, dtype=bool)
    for grid in np.meshgrid(
        *[np.fft.fftfreq(lat.n, d=1.0 / lat.n)] * lat.dim, indexing="ij"
    ):
        mask &= np.abs(grid) <= band
    coeff[~mask] = 0.0
    return idft(ModeVector(lat, hermitize(coeff)))


def seeded(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestTransforms:
    def test_cosine_modes(self):
        x = LAT.coordinates()[0]
        f = ScalarField(LAT, np.cos(x))
        fhat = dft(f).coefficients
        assert abs(fhat[1] - 0.5) < 1e-14
        assert abs(fhat[-1] - 0.5) < 1e-14
        rest = np.delete(fhat, [1, LAT.n - 1])
        assert np.max(np.abs(rest)) < 1e-14

    def test_zero_modes_zero_field(self):
        f = idft(ModeVector(LAT, np.zeros(LAT.shape, dtype=complex)))
        assert sup_norm(f) == 0.0

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        f = random_band_limited(LAT, seeded(seed))
        back = idft(dft(f))
        scale = max(sup_norm(f), 1.0)
        assert sup_norm(back.values - f.values) <= 1e-13 * scale

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        rng = seeded(seed)
        f = random_band_limited(LAT, rng)
        g = random_band_limited(LAT, rng)
        lhs = inner(f, g)
        fhat = dft(f).coefficients
        ghat = dft(g).coefficients
        rhs = LAT.length**LAT.dim * float(np.sum(fhat * np.conj(ghat)).real)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_idft_rejects_hermitian_defect(self):
        coeff = np.zeros(LAT.shape, dtype=complex)
        coeff[3] = 1.0  # no conjugate partner
        with pytest.raises(ValueError):
            idft(ModeVector(LAT, coeff))

    def test_reality_symmetry_of_dft(self):
        f = random_band_limited(LAT, seeded(11))
        assert hermitian_defect(dft(f).coefficients) < 1e-14


class TestDerivatives:
    def test_constant_has_zero_gradient(self):
        f = ScalarField(LAT, np.full(LAT.shape, 2.5))
        g = spectral_gradient(f)
        assert all(sup_norm(c) < 1e-14 for c in g.components)

    def test_sin_derivative(self):
        x = LAT.coordinates()[0]
        g = spectral_gradient(ScalarField(LAT, np.sin(x)))
        assert sup_norm(g.components[0].values - np.cos(x)) < 1e-12

    def test_divergence_inverts_gradient_on_gradients(self):
        f = random_band_limited(LAT, seeded(5))
        lap = spectral_divergence(spectral_gradient(f))
        lap2 = spectral_laplacian(f)
        assert sup_norm(lap.values - lap2.values) < 1e-11

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_laplacian_self_adjoint(self, seed):
        rng = seeded(seed)
        f = random_band_limited(LAT, rng)
        g = random_band_limited(LAT, rng)
        a = inner(f, spectral_laplacian(g))
        b = inner(spectral_laplacian(f), g)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    def test_plane_wave_eigenvalue(self):
        x = LAT.coordinates()[0]
        k = 3.0
        f = ScalarField(LAT, np.cos(k * x))
        lap = spectral_laplacian(f)
        assert sup_norm(lap.values + k * k * f.values) < 1e-11

    def test_nyquist_mode_odd_derivative_is_zero(self):
        x = LAT.coordinates()[0]
        ny = ScalarField(LAT, np.cos((LAT.n // 2) * x * (2 * np.pi / LAT.length)))
        g = spectral_gradient(ny)
        assert sup_norm(g.components[0]) < 1e-12

    def test_stack_gradient_matches_per_slice(self):
        rng = seeded(17)
        fields = [random_band_limited(LAT, rng) for _ in range(5)]
        stack = np.stack([f.values for f in fields])
        batched = stack_gradient(LAT, stack)
        for i, f in enumerate(fields):
            single = spectral_gradient(f)
            for a in range(LAT.dim):
                assert (
                    sup_norm(batched[i, a] - single.components[a].values) < 1e-14
                )

    def test_two_dimensional_gradient(self):
        xs, ys = LAT2.coordinates()
        f = ScalarField(LAT2, np.sin(xs) * np.cos(2 * ys))
        g = spectral_gradient(f)
        assert sup_norm(g.components[0].values - np.cos(xs) * np.cos(2 * ys)) < 1e-12
        assert sup_norm(g.components[1].values + 2 * np.sin(xs) * np.sin(2 * ys)) < 1e-12


class TestModeBookkeeping:
    def test_conjugate_reflection_involution(self):
        rng = seeded(23)
        arr = rng.standard_normal(LAT.shape) + 1j * rng.standard_normal(LAT.shape)
        assert np.allclose(conjugate_reflection(conjugate_reflection(arr)), arr)

    def test_hermitize_projects(self):
        rng = seeded(29)
        arr = rng.standard_normal(LAT.shape) + 1j * rng.standard_normal(LAT.shape)
        assert hermitian_defect(hermitize(arr)) < 1e-14

    def test_mode_index_table_pairs(self):
        conj_map, self_conj, representative = mode_index_table(LAT)
        # the zero and Nyquist slots are their own partners
        assert self_conj[0] and self_conj[LAT.n // 2]
        assert conj_map[1] == LAT.n - 1
        assert conj_map[conj_map[5]] == 5
        # representatives pick one slot per conjugate pair
        assert representative[1] != representative[LAT.n - 1] or 1 == LAT.n - 1
        assert representative[1] or representative[LAT.n - 1]

    def test_sup_norm_accepts_field_or_array(self):
        f = ScalarField(LAT, np.full(LAT.shape, -3.0))
        assert sup_norm(f) == 3.0
        assert sup_norm(f.values) == 3.0


class TestValidation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Lattice(dim=1, n=63, length=1.0)

    def test_boundary_sizes(self):
        # n = 4 is the smallest instance; 2 is below the floor
        lat = Lattice(dim=1, n=4, length=1.0)
        f = ScalarField(lat, np.arange(4.0))
        back = idft(dft(f))
        assert np.allclose(back.values, f.values, atol=1e-15)
        with pytest.raises(ValueError):
            Lattice(dim=1, n=2, length=1.0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            Lattice(dim=4, n=8, length=1.0)

    def test_numpy_scalars_do_not_poison_the_caches(self):
        # a float32 length equals and hashes like its float64 widening;
        # kept as given, the float32 lattice built its wavenumbers in
        # float32 into the ksq cache the float64 one reads (off by 8.9e-7)
        narrow = Lattice(dim=1, n=8, length=np.float32(2 * np.pi))
        wide = Lattice(dim=1, n=8, length=float(np.float32(2 * np.pi)))
        narrow.ksq()
        assert type(narrow.length) is float and narrow == wide
        assert np.array_equal(wide.ksq(), wide.axis_wavenumbers() ** 2)
        # a uint8 n overflowed n**dim
        lat = Lattice(dim=np.int64(3), n=np.uint8(16), length=1.0)
        assert (type(lat.dim), type(lat.n), lat.site_count) == (int, int, 4096)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Lattice(dim=1, n=8, length=0.0)

    def test_field_shape_mismatch(self):
        with pytest.raises(ValueError):
            ScalarField(LAT, np.zeros(7))
