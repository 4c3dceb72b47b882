"""Periodic lattice, real fields, and spectral calculus.

Everything downstream (evolution, Darboux charts, brackets) runs on a uniform
periodic grid with n sites per axis on a box of side ``length``.  Conventions,
fixed once here and relied on everywhere:

* forward transform carries the 1/n^dim factor, so a real field satisfies
  ``f(x) = sum_k fhat(k) exp(i k.x)`` with the plain inverse FFT;
* the wavenumber set per axis is {2*pi*m/L : m = -n/2+1 .. n/2}, stored in FFT
  layout with the Nyquist slot assigned the positive value;
* reality of fields appears in mode space as ``fhat(-k) = conj(fhat(k))``;
* ``inner(f, g) == L^dim * sum_k fhat(k) * conj(ghat(k))`` (Parseval).

Odd-order spectral derivatives zero the Nyquist mode (its lattice derivative
is not representable as a real band-limited field); the Laplacian keeps the
full k^2 multiplier.  Band-limited data never meets the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "Lattice",
    "ScalarField",
    "VectorField",
    "ModeVector",
    "inner",
    "dft",
    "idft",
    "stack_idft",
    "spectral_gradient",
    "stack_gradient",
    "spectral_divergence",
    "stack_divergence",
    "spectral_laplacian",
    "conjugate_reflection",
    "hermitian_defect",
    "hermitize",
    "mode_coefficient",
    "mode_index_table",
    "sup_norm",
    "nan_max",
]


def _locked(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Lattice:
    """Uniform periodic grid standing in for the spatial slice.

    Parameters
    ----------
    dim : spatial dimension, 1 to 3
    n : sites per axis, a power of two
    length : physical box size per axis
    """

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2, or 3, got {self.dim}")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 4, got {self.n}")
        if not (self.length > 0):
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def site_count(self) -> int:
        return self.n**self.dim

    @property
    def volume(self) -> float:
        return self.length**self.dim

    def axis_wavenumbers(self) -> np.ndarray:
        """1-D wavenumbers in FFT layout, Nyquist stored with positive sign."""
        m = np.fft.fftfreq(self.n, d=1.0 / self.n)
        m[self.n // 2] = self.n // 2
        return (2.0 * np.pi / self.length) * m

    def wavenumber_grids(self) -> tuple[np.ndarray, ...]:
        k1 = self.axis_wavenumbers()
        return tuple(
            np.moveaxis(
                np.broadcast_to(k1, self.shape).copy(), self.dim - 1, axis
            )
            for axis in range(self.dim)
        )

    def ksq(self) -> np.ndarray:
        """|k|^2 per mode, FFT layout; read-only and cached per lattice."""
        return _ksq(self)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        x1 = self.spacing * np.arange(self.n)
        return tuple(
            np.moveaxis(
                np.broadcast_to(x1, self.shape).copy(), self.dim - 1, axis
            )
            for axis in range(self.dim)
        )


@lru_cache(maxsize=32)
def _ksq(lattice: Lattice) -> np.ndarray:
    out = np.zeros(lattice.shape)
    for kg in lattice.wavenumber_grids():
        out = out + kg**2
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScalarField:
    """Real scalar sample array on a lattice."""

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != self.lattice.shape:
            raise ValueError(
                f"field shape {arr.shape} does not match lattice shape "
                f"{self.lattice.shape}"
            )
        object.__setattr__(self, "values", _locked(arr))


@dataclass(frozen=True)
class VectorField:
    """Tuple of scalar components, one per spatial axis."""

    lattice: Lattice
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.lattice.dim:
            raise ValueError(
                f"expected {self.lattice.dim} components, got {len(comps)}"
            )
        for c in comps:
            if c.lattice != self.lattice:
                raise ValueError("component lattice mismatch")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class ModeVector:
    """Complex Fourier coefficients of a real field, FFT layout."""

    lattice: Lattice
    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=complex)
        if arr.shape != self.lattice.shape:
            raise ValueError(
                f"mode array shape {arr.shape} does not match lattice shape "
                f"{self.lattice.shape}"
            )
        object.__setattr__(self, "coefficients", _locked(arr))


def _require_same_lattice(a, b):
    if a.lattice != b.lattice:
        raise ValueError("lattice mismatch between operands")


def inner(f: ScalarField, g: ScalarField) -> float:
    """L2 pairing  integral of f*g over the box  via the trapezoid-free
    periodic Riemann sum, which is exact for band-limited integrands."""
    _require_same_lattice(f, g)
    return float(f.lattice.spacing**f.lattice.dim * np.sum(f.values * g.values))


def dft(f: ScalarField) -> ModeVector:
    """Forward transform with the 1/n^dim normalization."""
    coeff = np.fft.fftn(f.values) / f.lattice.site_count
    return ModeVector(f.lattice, coeff)


def idft(m: ModeVector, tol: float = 1e-12) -> ScalarField:
    """Inverse transform back to a real field.

    Rejects mode data whose reality symmetry defect exceeds ``tol`` relative
    to the coefficient scale, rather than silently discarding an imaginary
    part.
    """
    return ScalarField(m.lattice, stack_idft(m.lattice, m.coefficients, tol))


def stack_idft(lattice: Lattice, coeffs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Inverse transform of mode arrays of shape (..., *lattice.shape) to
    real sample arrays, one batched transform over the spatial axes.

    Each mode array is checked on its own, as idft checks one: its
    reality symmetry defect must not exceed ``tol * max(1, max|coeff|)``.
    """
    axes = tuple(range(coeffs.ndim - lattice.dim, coeffs.ndim))
    defect = np.max(np.abs(coeffs - conjugate_reflection(coeffs, axes)), axis=axes)
    scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=axes))
    bad = np.flatnonzero(defect > tol * scale)
    if bad.size:
        where = "" if coeffs.ndim == lattice.dim else f" in slice {int(bad[0])}"
        raise ValueError(
            f"mode vector violates reality symmetry{where}: defect "
            f"{float(np.ravel(defect)[bad[0]]):.3e} exceeds {tol:.1e} * scale"
        )
    return (np.fft.ifftn(coeffs, axes=axes) * lattice.site_count).real


@lru_cache(maxsize=32)
def _gradient_multipliers(lattice: Lattice) -> tuple[np.ndarray, ...]:
    grids = []
    ny = lattice.n // 2
    for axis, kg in enumerate(lattice.wavenumber_grids()):
        kg = kg.copy()
        sl = [slice(None)] * lattice.dim
        sl[axis] = ny
        kg[tuple(sl)] = 0.0
        kg.setflags(write=False)
        grids.append(kg)
    return tuple(grids)


def spectral_gradient(f: ScalarField) -> VectorField:
    """Exact lattice gradient of a band-limited field, axis by axis."""
    fhat = np.fft.fftn(f.values)
    comps = []
    for kg in _gradient_multipliers(f.lattice):
        comp = np.fft.ifftn(1j * kg * fhat).real
        comps.append(ScalarField(f.lattice, comp))
    return VectorField(f.lattice, tuple(comps))


def stack_gradient(lattice: Lattice, stack: np.ndarray) -> np.ndarray:
    """Spectral gradient of a stack of fields in one batched transform.

    `stack` has shape (count, *lattice.shape); the result has shape
    (count, dim, *lattice.shape) and matches spectral_gradient applied
    slice by slice (same Nyquist rule).
    """
    axes = tuple(range(1, lattice.dim + 1))
    fhat = np.fft.fftn(stack, axes=axes)
    comps = [
        np.fft.ifftn(1j * kg[np.newaxis] * fhat, axes=axes).real
        for kg in _gradient_multipliers(lattice)
    ]
    return np.stack(comps, axis=1)


def spectral_divergence(v: VectorField) -> ScalarField:
    stack = np.stack([c.values for c in v.components])[np.newaxis]
    return ScalarField(v.lattice, stack_divergence(v.lattice, stack)[0])


def stack_divergence(lattice: Lattice, stack: np.ndarray) -> np.ndarray:
    """Spectral divergence of a stack of vector fields.

    `stack` has shape (count, dim, *lattice.shape); the result has shape
    (count, *lattice.shape), with the Nyquist rule of stack_gradient.
    """
    axes = tuple(range(1, lattice.dim + 1))
    out = np.zeros((stack.shape[0],) + lattice.shape)
    for axis, kg in enumerate(_gradient_multipliers(lattice)):
        chat = np.fft.fftn(stack[:, axis], axes=axes)
        out = out + np.fft.ifftn(1j * kg[np.newaxis] * chat, axes=axes).real
    return out


def spectral_laplacian(f: ScalarField) -> ScalarField:
    """Analyst's Laplacian: eigenvalue -k^2 on the plane wave exp(i k.x)."""
    fhat = np.fft.fftn(f.values)
    return ScalarField(f.lattice, np.fft.ifftn(-f.lattice.ksq() * fhat).real)


def conjugate_reflection(arr: np.ndarray, axes=None) -> np.ndarray:
    """conj(arr) sampled at -k, in the same FFT layout; `axes` are the
    mode axes (all of them by default)."""
    out = np.conj(arr)
    for axis in range(arr.ndim) if axes is None else axes:
        out = np.flip(out, axis=axis)
        out = np.roll(out, 1, axis=axis)
    return out


def hermitian_defect(arr: np.ndarray) -> float:
    """Sup deviation from the reality symmetry fhat(-k) == conj(fhat(k))."""
    return float(np.max(np.abs(arr - conjugate_reflection(arr))))


def hermitize(arr: np.ndarray) -> np.ndarray:
    """Project onto the reality-symmetric subspace."""
    return 0.5 * (arr + conjugate_reflection(arr))


def mode_coefficient(m: ModeVector, multi_index) -> complex:
    """Coefficient at integer mode multi-index (negative entries allowed)."""
    if np.isscalar(multi_index):
        multi_index = (int(multi_index),)
    idx = tuple(int(mi) % m.lattice.n for mi in multi_index)
    if len(idx) != m.lattice.dim:
        raise ValueError("multi-index rank does not match lattice dimension")
    return complex(m.coefficients[idx])


@lru_cache(maxsize=32)
def mode_index_table(lattice: Lattice):
    """Bookkeeping for conjugate mode pairs, cached per lattice.

    Returns (conj_map, self_conjugate, representative): ``conj_map`` sends the
    flat index of k to the flat index of -k; ``self_conjugate`` marks modes
    with k == -k (zero and Nyquist combinations); ``representative`` selects
    one member of each conjugate pair plus every self-conjugate mode.
    """
    idx = np.indices(lattice.shape)
    conj_multi = tuple((-idx[a]) % lattice.n for a in range(lattice.dim))
    conj_map = np.ravel_multi_index(conj_multi, lattice.shape).ravel()
    flat = np.arange(lattice.site_count)
    self_conjugate = conj_map == flat
    representative = flat <= conj_map
    conj_map.setflags(write=False)
    self_conjugate.setflags(write=False)
    representative.setflags(write=False)
    return conj_map, self_conjugate, representative


def sup_norm(f) -> float:
    values = f.values if hasattr(f, "values") else np.asarray(f)
    return float(np.max(np.abs(values)))


def nan_max(values) -> float:
    """Largest of the values, 0.0 when there are none.  A NaN anywhere
    gives NaN; the builtin max drops one that does not come first, which
    would let a verdict pass on a non-finite term."""
    arr = np.fromiter(values, dtype=float)
    return float(np.max(arr)) if arr.size else 0.0


# ---------------------------------------------------------------------------
# spacetime sections: stacks of slice fields on a uniform time grid


def _section_stacks(lattice: Lattice, scalars, vectors) -> tuple[np.ndarray, ...]:
    """Read-only float copies of a section's stacks, shape-checked.

    Scalar stacks have shape (T, *lattice.shape) and vector stacks
    (T, dim, *lattice.shape), with one T >= 2 shared by all of them.
    """
    # The copy stays, though the builders never reuse what they pass in.
    # Without it a stack_idft result stays a strided .real view of its
    # complex buffer, and the sums over it round differently: the KG
    # el-pairing-scaled row at seed 42 moves from 4.5120079787548944e-09
    # to 4.5120079851279934e-09.  Copies made elsewhere to keep the stacks
    # contiguous kept every value but raised the suite's peak RSS by
    # about 7 %, which depends on the order of allocations.
    out = [_locked(np.asarray(a, dtype=float)) for a in (*scalars, *vectors)]
    count = out[0].shape[0] if out[0].ndim else 0
    if count < 2:
        raise ValueError("a section needs at least two time slices")
    wanted = [(count, *lattice.shape)] * len(scalars)
    wanted += [(count, lattice.dim, *lattice.shape)] * len(vectors)
    for arr, shape in zip(out, wanted):
        if arr.shape != shape:
            raise ValueError(
                f"section stack shape {arr.shape} does not match {shape}"
            )
    return tuple(out)


def _section_origin(states, dt: float, lattice: Lattice) -> float:
    """First node time of slice states that sit on the lattice at uniform
    steps of dt; rejects anything else."""
    if len(states) < 2:
        raise ValueError("a section needs at least two time slices")
    t0 = states[0].time
    for i, st in enumerate(states):
        if st.lattice != lattice:
            raise ValueError("section slice lattice mismatch")
        if abs(st.time - (t0 + i * dt)) > 1e-9 * max(1.0, abs(dt)):
            raise ValueError("section time nodes are not uniform in dt")
    return t0


def _bump_stack(count: int, dt: float, field: np.ndarray) -> np.ndarray:
    """`field` under a sin^2 time bump over `count` nodes of spacing dt,
    exactly zero on the first and last node: shape (count, *field.shape)."""
    times = np.arange(count) * dt
    bump = np.sin(np.pi * times / times[-1]) ** 2
    out = bump.reshape((-1,) + (1,) * field.ndim) * field
    out[[0, -1]] = 0.0
    return out


def _table_op(op: str, section, name: str) -> np.ndarray:
    """op of a Lagrangian table applied to the section's stack `name`:
    "id", "dt" (second order in time, one-sided at the ends) or "grad"
    (stack_gradient).  A derived stack is built at most once per section
    and kept read-only in its memo."""
    stack = getattr(section, name)
    if op == "id":
        return stack
    memo = section._derived
    if (op, name) not in memo:
        if op == "dt":
            out = np.gradient(stack, section.dt, axis=0, edge_order=2)
        else:
            out = stack_gradient(section.lattice, stack)
        _seed_derived(section, op, name, out)
    return memo[(op, name)]


def _seed_derived(section, op: str, name: str, stack: np.ndarray) -> None:
    """Store `stack` as the section's derived stack (op, name), locked in
    place: a builder that already holds op(name) saves the transform."""
    stack.setflags(write=False)
    section._derived[(op, name)] = stack


def _even_slices(section):
    """The section on its even nodes, at step 2 dt: every stack and every
    derived gradient taken [::2], as contiguous read-only copies.

    A builder's section at dt / 2 sliced this way is its section at dt
    bit for bit, gradients included, so one build serves both steps and
    an EL pass on the result still transforms nothing.  A gradient that
    is one of the section's own stacks stays that stack; d/dt stacks
    depend on the step and are not carried.
    """
    stacks = {
        f.name: getattr(section, f.name)
        for f in fields(section)
        if isinstance(getattr(section, f.name), np.ndarray)
    }
    out = replace(section, dt=2 * section.dt, **{n: a[::2] for n, a in stacks.items()})
    for (op, name), stack in section._derived.items():
        if op == "grad":
            own = next((n for n, a in stacks.items() if a is stack), None)
            _seed_derived(out, op, name, stack[::2].copy() if own is None else getattr(out, own))
    return out


def _by_distinct(keys: np.ndarray, s, fn) -> tuple[np.ndarray, ...]:
    """fn(key, s) for every element of the mode array `keys`, evaluated
    once per distinct key (keys that compare equal share one evaluation)
    and gathered back onto the modes.

    ``s`` is a time, or an array of times shaped (..., 1, ..., 1) with one
    trailing 1 per axis of keys; fn receives the distinct keys as a 1-D
    array and s as (..., 1), must act elementwise, and returns a tuple of
    arrays shaped (..., distinct).  Each result has shape
    (..., *keys.shape) and is C-ordered: np.take keeps the layout, where
    fancy indexing on the last axis would give an F-ordered array whose
    sums round differently.
    """
    s = np.asarray(s, dtype=float)
    lead = s.shape[: max(0, s.ndim - keys.ndim)]
    distinct, inverse = np.unique(keys, return_inverse=True)
    inverse = inverse.reshape(keys.shape)
    return tuple(
        np.take(out, inverse, axis=-1) for out in fn(distinct, s.reshape(lead + (1,)))
    )


def _node_sums(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum of u * v over every axis but the leading time axis."""
    return np.einsum("ti,ti->t", u.reshape(len(u), -1), v.reshape(len(v), -1))


def _lagrangian_form(table, section, variation=None, magnitude=False) -> float:
    """Integral of a bilinear Lagrangian table over a section, trapezoidal
    in time and exact in space.  A term (c, a, op, b) adds c a . op(b) to
    the density, with a and b names of section stacks.

    Without a variation: the action, half the pairing of the section with
    itself.  With one: the EL pairing sum c int (da . op(b) + a . op(db)),
    the exact directional derivative, for a variation that vanishes on the
    end slices.  With `magnitude`: the cancellation scale
    sum |c| int (|da| . |op(b)| + |a| . |op(db)|), the L1 mass of the same
    products, against which the pairing's cancellation on solution
    sections is measured independently of the amplitude.

    Every op(b) comes from the memo of the section or variation it is
    taken on (_table_op), so the pairing and the scale on one pair, and
    the two halves of the action, transform each stack once between them.
    """
    if variation is None:
        variation, half = section, 0.5
    else:
        half = 1.0
        for name in {name for _, a, _, b in table for name in (a, b)}:
            stack, dstack = getattr(section, name), getattr(variation, name)
            if stack.shape != dstack.shape:
                raise ValueError("one variation per time slice required")
            if not magnitude and np.any(dstack[[0, -1]] != 0.0):
                raise ValueError("variation must vanish at the temporal endpoints")
    lat = section.lattice
    # magnitudes are taken as each sum needs them, so no more than two
    # stack-sized temporaries are alive at once
    mag = np.abs if magnitude else (lambda stack: stack)
    dens = 0.0
    for c, a, op, b in table:
        c = abs(c) if magnitude else c
        x, dx = getattr(section, a), getattr(variation, a)
        if (op, a) == ("id", b):
            # da . a and a . da are one sum
            dens = dens + c * (2.0 * _node_sums(mag(dx), mag(x)))
            continue
        y, dy = (_table_op(op, s, b) for s in (section, variation))
        dens = dens + c * (_node_sums(mag(dx), mag(y)) + _node_sums(mag(x), mag(dy)))
    return half * float(np.trapezoid(lat.spacing**lat.dim * dens, dx=section.dt))
