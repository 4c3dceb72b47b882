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

The slice layer of both theories is written here once: _Slice (constraint
enforcement and residual, spectral evolution) and _Section (the section
builder, the stacks' checks) read what a theory's state declares, its two
scalar fields and its constraints, and take its Lagrangian table, the
theory's one statement: _table_reading reads the pairing weight and the
mode flow's generator off it, which _ModeFlow turns into the rotation
the Darboux chart reads too.  A variation of a
section is a slice state under a time bump, which the EL kernel reads
directly.  The builder also gives any chunk of a section's rows, and the
kernels act per node, so a pass can stream a long section chunk by
chunk.

Its fields are real, so the slice layer and the spectral derivatives go
into mode space and back on rfftn's half spectrum, the modes of last-axis
index 0 .. n/2 (_half_dft, _half_idft; the mode flow restricted to it,
_half_flow, rotates it, and the steppers read half_ksq).  The one part of
a half spectrum that irfftn drops silently, the defect of the two planes
of last-axis index 0 and n/2, is checked with stack_idft's rule.  dft, idft,
stack_idft and ModeVector keep the full spectrum, which the chart, the W
oracle and the brackets read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

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
    "stack_divergence",
    "spectral_laplacian",
    "conjugate_reflection",
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

    The fields are stored as Python int, int and float, whatever numpy
    scalar was given: a lattice equals and hashes like every lattice of
    the same values, so the caches keyed on it (``ksq``, the gradient
    multipliers, ``Theory.of``) must hold the arrays they would build.
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
        object.__setattr__(self, "dim", operator.index(self.dim))
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "length", float(self.length))

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

    def half_ksq(self) -> np.ndarray:
        """|k|^2 on the half spectrum rfftn keeps (last-axis index 0 .. n/2)."""
        return _ksq(self)[..., : self.n // 2 + 1]

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
    """Real scalar sample array on a lattice.

    ``_half``, the half spectrum _half_dft of the values, is transformed
    on first read and kept read-only: a field is frozen and holds a
    locked copy of its values, so it cannot go stale, and evolving one
    state again and again pays only the inverse transforms.
    """

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

    @cached_property
    def _half(self) -> np.ndarray:
        half = _half_dft(self.lattice, self.values)
        half.setflags(write=False)
        return half


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


# the largest relative reality symmetry defect idft and stack_idft accept
REALITY_TOL = 1e-12


def idft(m: ModeVector) -> ScalarField:
    """Inverse transform back to a real field.

    Rejects mode data whose reality symmetry defect exceeds REALITY_TOL
    relative to the coefficient scale, rather than silently discarding an
    imaginary part.
    """
    return ScalarField(m.lattice, stack_idft(m.lattice, m.coefficients))


def stack_idft(lattice: Lattice, coeffs: np.ndarray) -> np.ndarray:
    """Inverse transform of mode arrays of shape (..., *lattice.shape) to
    real sample arrays, one batched transform over the spatial axes.

    Each mode array is checked on its own, as idft checks one: its
    reality symmetry defect must not exceed REALITY_TOL * max(1, max|coeff|).
    """
    axes = tuple(range(coeffs.ndim - lattice.dim, coeffs.ndim))
    _require_real(coeffs, coeffs, axes, axes)
    return (np.fft.ifftn(coeffs, axes=axes) * lattice.site_count).real


def _require_real(coeffs: np.ndarray, part: np.ndarray, axes: tuple, reflected: tuple):
    """Reject mode arrays (mode axes `axes`) whose part `part`, closed
    under k -> -k by reflecting the axes `reflected`, has a reality
    symmetry defect above REALITY_TOL * max(1, max|coeff|), each array of
    a stack on its own."""
    defect = np.max(np.abs(part - conjugate_reflection(part, reflected)), axis=axes)
    if np.max(defect, initial=0.0) <= REALITY_TOL:  # every scale is at least 1
        return
    scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=axes))
    bad = np.flatnonzero(defect > REALITY_TOL * scale)
    if bad.size:
        where = "" if coeffs.ndim == len(axes) else f" in slice {int(bad[0])}"
        raise ValueError(
            f"mode vector violates reality symmetry{where}: defect "
            f"{float(np.ravel(defect)[bad[0]]):.3e} exceeds {REALITY_TOL:.1e} * scale"
        )


def _half_dft(lattice: Lattice, stack: np.ndarray) -> np.ndarray:
    """The half spectrum of real sample arrays of shape (..., *lattice.shape),
    rfftn over the spatial axes with dft's 1/n^dim: the modes of last-axis
    index 0 .. n/2, of which the rest are the conjugates."""
    axes = tuple(range(stack.ndim - lattice.dim, stack.ndim))
    return np.fft.rfftn(stack, axes=axes, norm="forward")


def _half_idft(lattice: Lattice, coeffs: np.ndarray) -> np.ndarray:
    """Real sample arrays of half spectra (_half_dft's layout), one batched
    irfftn.  A half spectrum is any real field's but on the planes of
    last-axis index 0 and n/2, which hold their own conjugates: irfftn
    drops their defect silently, so they are checked with stack_idft's
    rule, per array."""
    axes = tuple(range(coeffs.ndim - lattice.dim, coeffs.ndim))
    _require_real(coeffs, coeffs[..., :: lattice.n // 2], axes, axes[:-1])
    return np.fft.irfftn(coeffs, s=lattice.shape, axes=axes, norm="forward")


@lru_cache(maxsize=32)
def _gradient_multipliers(lattice: Lattice) -> tuple[np.ndarray, ...]:
    """k_axis per axis on the half spectrum, zero on the axis's Nyquist
    plane."""
    grids = []
    ny = lattice.n // 2
    for axis, kg in enumerate(lattice.wavenumber_grids()):
        kg = kg[..., : ny + 1].copy()
        sl = [slice(None)] * lattice.dim
        sl[axis] = ny
        kg[tuple(sl)] = 0.0
        kg.setflags(write=False)
        grids.append(kg)
    return tuple(grids)


def spectral_gradient(f: ScalarField) -> VectorField:
    """Exact lattice gradient of a band-limited field: stack_gradient of
    a one-field stack."""
    comps = stack_gradient(f.lattice, f.values[np.newaxis])[0]
    return VectorField(f.lattice, tuple(ScalarField(f.lattice, c) for c in comps))


def stack_gradient(lattice: Lattice, stack: np.ndarray) -> np.ndarray:
    """Spectral gradient of a stack of fields in one batched transform.

    `stack` has shape (count, *lattice.shape); the result has shape
    (count, dim, *lattice.shape), each slice's gradient with the Nyquist
    mode zeroed (see the module docstring).
    """
    axes = tuple(range(1, lattice.dim + 1))
    fhat = np.fft.rfftn(stack, axes=axes)
    comps = [
        np.fft.irfftn(1j * kg * fhat, s=lattice.shape, axes=axes)
        for kg in _gradient_multipliers(lattice)
    ]
    return np.stack(comps, axis=1)


class _Gradient(VectorField):
    """sign * grad(scalar) as a VectorField whose components are
    transformed the first time they are read, then kept: the arrays
    spectral_gradient gives, negated for a negative sign."""

    def __init__(self, scalar: ScalarField, sign: int):
        object.__setattr__(self, "lattice", scalar.lattice)
        object.__setattr__(self, "_source", (scalar, sign))

    @cached_property
    def components(self) -> tuple[ScalarField, ...]:
        scalar, sign = self._source
        comps = spectral_gradient(scalar).components
        return comps if sign > 0 else tuple(ScalarField(c.lattice, -c.values) for c in comps)


def stack_divergence(lattice: Lattice, stack: np.ndarray) -> np.ndarray:
    """Spectral divergence of a stack of vector fields.

    `stack` has shape (count, dim, *lattice.shape); the result has shape
    (count, *lattice.shape), with the Nyquist rule of stack_gradient.
    """
    axes = tuple(range(1, lattice.dim + 1))
    out = 0.0
    for axis, kg in enumerate(_gradient_multipliers(lattice)):
        out = out + 1j * kg * np.fft.rfftn(stack[:, axis], axes=axes)
    return np.fft.irfftn(out, s=lattice.shape, axes=axes)


def spectral_laplacian(f: ScalarField) -> ScalarField:
    """Analyst's Laplacian: eigenvalue -k^2 on the plane wave exp(i k.x)."""
    lat = f.lattice
    lap = -lat.half_ksq() * np.fft.rfftn(f.values)
    return ScalarField(lat, np.fft.irfftn(lap, s=lat.shape, axes=range(lat.dim)))


def conjugate_reflection(arr: np.ndarray, axes=None) -> np.ndarray:
    """conj(arr) sampled at -k, in the same FFT layout; `axes` are the
    mode axes (all of them by default).  One gather over the axes from
    the first reflected one on, through _reflection_index."""
    axes = tuple(a % arr.ndim for a in (range(arr.ndim) if axes is None else axes))
    first = min(axes, default=arr.ndim)
    index = _reflection_index(arr.shape[first:], tuple(a - first for a in axes))
    flat = arr.reshape(arr.shape[:first] + (-1,))
    return np.conj(np.take(flat, index, axis=-1)).reshape(arr.shape)


@lru_cache(maxsize=32)
def _reflection_index(shape: tuple, axes: tuple) -> np.ndarray:
    """The flat index of -k per mode of an array of shape `shape` whose
    axes `axes` are reflected (k -> -k is m -> -m mod n on each of them,
    a flip then a roll by one) and the rest kept; read-only and cached
    per (shape, axes)."""
    index = np.arange(math.prod(shape)).reshape(shape)
    for axis in axes:
        index = np.roll(np.flip(index, axis=axis), 1, axis=axis)
    index = index.ravel()
    index.setflags(write=False)
    return index


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
# slice states and spacetime sections: one body for both theories


class _Slice:
    """The body of a theory's slice state, Cauchy data at one time.

    A subclass is a frozen dataclass of two scalar fields, one vector
    field per constraint and ``time``, declared once: ``SCALARS`` names
    the scalars behind the mode data (a0, a1); ``CONSTRAINTS`` holds
    triples (vector, scalar, sign), vector = sign * grad(scalar), and
    gives ``VECTORS``.  A state that _enforced builds (enforcement,
    evolution) holds each constrained field as a _Gradient, transformed
    when its components are first read; every reader sees the arrays an
    eager spectral_gradient gives.  The physics comes as the theory's
    Lagrangian table (see _table_reading).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.VECTORS = tuple(vector for vector, _, _ in cls.CONSTRAINTS)

    def __post_init__(self):
        lat = self.lattice
        for name in self.SCALARS[1:] + self.VECTORS:
            if getattr(self, name).lattice != lat:
                raise ValueError("state fields live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return getattr(self, self.SCALARS[0]).lattice

    @classmethod
    def _enforced(cls, a0: ScalarField, a1: ScalarField, time: float = 0.0):
        """The state of the scalar fields (a0, a1) with every constrained
        field set to sign * grad(scalar), a _Gradient: transformed when
        its components are first read, so a state whose constraint
        fields nobody reads costs no gradient transform."""
        data = dict(zip(cls.SCALARS, (a0, a1)))
        for vector, scalar, sign in cls.CONSTRAINTS:
            data[vector] = _Gradient(data[scalar], sign)
        return cls(**data, time=time)

    def _evolved(self, s: float, table):
        """The state at time + s under the mode flow of a Lagrangian table."""
        flow = _half_flow(self.lattice, _table_reading(table, type(self))[1])
        return self._advanced(s, lambda a0, a1: flow.propagate(a0, a1, s))

    def _stepped(self, dt: float, steps: int, advance):
        """The state after `steps` steps of dt of a stepper, advance(a0_hat,
        a1_hat) taking the half spectra through all of them (k^2 there is
        the lattice's half_ksq)."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if steps < 0:
            raise ValueError(f"steps must be nonnegative, got {steps}")
        if steps == 0:
            return self
        return self._advanced(dt * steps, advance)

    def _advanced(self, s: float, advance):
        """The state at time + s of half spectra advance(a0_hat, a1_hat)
        (_half_dft, _half_idft); constraints re-enforced."""
        lat = self.lattice
        hats = advance(*(getattr(self, n)._half for n in self.SCALARS))
        scalars = (ScalarField(lat, _half_idft(lat, h)) for h in hats)
        return self._enforced(*scalars, time=self.time + s)

    def constraint_residual(self) -> float:
        """Sup-norm of vector - sign * grad(scalar) over every constraint
        and axis; a NaN anywhere gives NaN."""
        return nan_max(
            sup_norm(b.values - g.values if sign > 0 else b.values + g.values)
            for vector, scalar, sign in self.CONSTRAINTS
            for b, g in zip(
                getattr(self, vector).components,
                spectral_gradient(getattr(self, scalar)).components,
            )
        )


class _Section:
    """The body of a theory's spacetime section: the discrete section chi
    on the uniform time grid t0 + i dt, stored as read-only stacks.

    A subclass is a frozen dataclass that declares its stacks, ``dt``,
    ``lattice``, ``t0`` and its theory's parameters, names its slice state
    (a ``_Slice``) in ``STATE`` and its bilinear Lagrangian table as the
    property ``lagrangian``: one stack per state field, the scalars of
    shape (T, *lattice.shape) and the vectors of shape (T, dim,
    *lattice.shape).  Nothing derived is kept.
    """

    # True where each constraint stack is sign * grad(scalar) by construction
    # (the builder and its rows); dataclasses.replace gives a section without
    _exact = False

    def __post_init__(self):
        """Replace the stacks by read-only float copies, shape-checked: one
        T >= 2 shared by all of them."""
        # The copy lets a section freeze its stacks without freezing a
        # caller's arrays, and makes every stack C-contiguous and owned, the
        # strided rows _sampled takes too.  No report value rests on it: the
        # builders' irfftn results are owned arrays already.
        names = self.STATE.SCALARS + self.STATE.VECTORS
        out = [_locked(np.asarray(getattr(self, n), dtype=float)) for n in names]
        count = out[0].shape[0] if out[0].ndim else 0
        if count < 2:
            raise ValueError("a section needs at least two time slices")
        lat = self.lattice
        wanted = [(count, *lat.shape)] * len(self.STATE.SCALARS)
        wanted += [(count, lat.dim, *lat.shape)] * len(self.STATE.VECTORS)
        for name, arr, shape in zip(names, out, wanted):
            if arr.shape != shape:
                raise ValueError(f"section stack shape {arr.shape} does not match {shape}")
            object.__setattr__(self, name, arr)

    @classmethod
    def _solution(cls, state, dt: float, steps: int, table, first, **params):
        """The flow of state on the nodes first .. first + steps of the
        grid of spacing dt from state.time: the mode flow of a table on
        the half spectrum of state's lattice, over those times at once, one
        batched inverse transform per scalar and one batched gradient per
        constraint, none of which mixes nodes, so each row is the state
        _evolved gives.  `params` are the theory's section fields."""
        if steps < 1:
            raise ValueError("need at least one time interval")
        lat = state.lattice
        s = (np.arange(first, first + steps + 1) * dt).reshape((-1,) + (1,) * lat.dim)
        hats = (getattr(state, n)._half for n in cls.STATE.SCALARS)
        hats = _half_flow(lat, _table_reading(table, cls.STATE)[1]).propagate(*hats, s)
        scalars = {n: _half_idft(lat, h) for n, h in zip(cls.STATE.SCALARS, hats)}
        grads = {n: stack_gradient(lat, scalars[n]) for _, n, _ in cls.STATE.CONSTRAINTS}
        vectors = {v: grads[n] if sign > 0 else -grads[n] for v, n, sign in cls.STATE.CONSTRAINTS}
        t0 = state.time + first * dt
        return cls(**scalars, **vectors, dt=dt, lattice=lat, t0=t0, **params)._marked(True)

    def _sampled(self, rows: slice, dt: float):
        """The section on its rows `rows` (a slice with a step) at time
        step dt, every stack copied.  The rows [::2] of a build at dt / 2
        are the build at dt bit for bit."""
        stacks = {n: getattr(self, n)[rows] for n in self.STATE.SCALARS + self.STATE.VECTORS}
        out = replace(self, dt=dt, t0=self.t0 + rows.start * self.dt, **stacks)
        return out._marked(self._exact)

    def _marked(self, exact: bool):
        object.__setattr__(self, "_exact", exact)
        return self

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(getattr(self, self.STATE.SCALARS[0])))


# ---------------------------------------------------------------------------
# the mode flow: one linear Hamiltonian flow per Fourier mode


@lru_cache(maxsize=32)
def _mode_flow(lattice: Lattice, generator) -> _ModeFlow:
    """The _ModeFlow of a generator on a lattice, one per pair: equal
    generators are equal tuples, so their callers share flows."""
    return _ModeFlow(lattice, generator)


@lru_cache(maxsize=32)
def _half_flow(lattice: Lattice, generator) -> _ModeFlow:
    """_mode_flow restricted to the half spectrum, in its shape (last-axis
    index 0 .. n/2), one per pair: the flow the slice layer reads."""
    flat = np.arange(lattice.site_count).reshape(lattice.shape)
    return _mode_flow(lattice, generator).restricted(flat[..., : lattice.n // 2 + 1])


# the restrictions a _ModeFlow keeps, the oldest dropped first
RESTRICTED_KEPT = 8


class _ModeFlow:
    """The flow d(a0, a1)/ds = (kappa a1, -lam a0) of every mode of a
    lattice, for a generator ((kappa0, kappa1), (lam0, lam1)), kappa =
    kappa0 + kappa1 k^2 and lam = lam0 + lam1 k^2, evaluated once per
    class of equal k^2.  With nu = sqrt|kappa lam| and mu = nu / kappa,
    the flow by time s is a0(s) = c a0 + r a1, a1(s) = c a1 - q a0, with
    (c, r, q) = (cos, sin / mu, mu sin) of nu s where kappa lam > 0,
    (cosh, sinh / mu, -mu sinh) of nu s where it is < 0 and (1, kappa s,
    lam s) where it is 0.  Values are gathered onto the flow's modes: every
    mode of the lattice, in its shape; ``restricted`` gives the flow of
    some modes."""

    def __init__(self, lattice: Lattice, generator):
        # the classes of equal k^2: np.unique keys on the float k^2, never
        # on integer mode indices, on which it can import numpy.ma
        distinct, classes = np.unique(lattice.ksq(), return_inverse=True)
        kappa, lam = (c0 + c1 * distinct for c0, c1 in generator)
        # the table holds the classes in branch order, so each branch is a slice
        branch = np.where(kappa * lam > 0, 0, np.where(kappa * lam < 0, 1, 2))
        order = np.argsort(branch, kind="stable")
        self.classes = np.argsort(order)[classes.reshape(lattice.shape)]
        self.ends = rot, hyp = np.searchsorted(branch[order], (1, 2))
        kappa, lam = kappa[order], lam[order]
        nu = np.sqrt(np.abs(kappa * lam))
        mu = np.ones_like(nu)  # 1 on the drift, where it is not read
        mu[:hyp] = nu[:hyp] / kappa[:hyp]
        signed_mu = np.concatenate((mu[:rot], -mu[rot:hyp], mu[hyp:]))
        self.table = np.stack((nu, kappa, lam, mu, signed_mu))
        self._parts = {}
        for shared in (self.classes, self.ends, self.table):
            shared.setflags(write=False)

    def on(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kappa, lam, nu) on the modes."""
        nu, kappa, lam = np.take(self.table[:3], self.classes, axis=-1)
        return kappa, lam, nu

    def restricted(self, index) -> _ModeFlow:
        """The flow of the flat mode indices index alone, in index's shape,
        on the table columns of the classes they use: ``classes`` is each
        index's column, ``modes`` the flat index of one mode per column.

        Built once per index: the flow keeps its last RESTRICTED_KEPT
        parts, keyed by the index's shape, dtype and bytes, so the
        evaluations on one support share one part.  A part's arrays are
        read-only and nothing writes to a part."""
        key = (index.shape, index.dtype.str, index.tobytes())
        if key in self._parts:
            return self._parts[key]
        keys = self.classes.reshape(-1)[index]
        used = np.zeros(self.table.shape[1], dtype=bool)
        used[keys] = True
        rows = np.flatnonzero(used)
        part = _ModeFlow.__new__(_ModeFlow)
        part.classes, part.table = (np.cumsum(used) - 1)[keys], self.table[:, rows]
        part.ends = np.searchsorted(rows, self.ends)
        # any mode of a class stands for it: its k^2 is the class's
        part.modes = np.empty(len(rows), dtype=index.dtype)
        part.modes[part.classes] = index
        part._parts = {}
        for shared in (part.classes, part.ends, part.table, part.modes):
            shared.setflags(write=False)
        if len(self._parts) >= RESTRICTED_KEPT:
            del self._parts[next(iter(self._parts))]
        self._parts[key] = part
        return part

    def class_rotation(self, s) -> np.ndarray:
        """(c, r, q) by the time s per class, stacked: (3, ..., K) for
        times s of shape (..., 1), (3, K) for one time."""
        nu, kappa, lam, mu, signed_mu = self.table
        rot, hyp = self.ends
        s = np.asarray(s, dtype=float)
        crq = np.empty((3,) + s.shape[:-1] + nu.shape)
        c, r, q = crq
        branches = (slice(0, rot), np.cos, np.sin), (slice(rot, hyp), np.cosh, np.sinh)
        for part, cos, sin in branches:
            if part.stop > part.start:
                x = nu[part] * s
                c[..., part], sn = cos(x), sin(x)
                r[..., part], q[..., part] = sn / mu[part], signed_mu[part] * sn
        c[..., hyp:] = 1.0
        r[..., hyp:], q[..., hyp:] = kappa[hyp:] * s, lam[hyp:] * s
        return crq

    def moments(self, ta: float, tb: float) -> np.ndarray:
        """int_0^1 u^j (c, r, q)(ta + u (tb - ta)) du per class for j = 0, 1,
        2, as (3, 3, K): on the rotation branch from E_j = int u^j e^{i nu
        t} du, by a recurrence from the end phases where |nu (tb - ta)| >=
        1 and by its power series below, which stops at its first term
        that is zero on every class, as every later one is (after one term
        on a fixed-time edge, ta == tb); polynomials on the drift.  A
        hyperbolic class raises ValueError."""
        nu, kappa, lam, mu, signed_mu = self.table
        rot, hyp = self.ends
        if hyp > rot:
            raise ValueError(f"no moments on the {hyp - rot} hyperbolic classes")
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
        # E_j = e^{i nu ta} sum_k (i a)^k / (k! (j + k + 1)), to 1/20! or
        # up to a term that is 0 on every class: the rest would add zeros
        term, series = np.ones(rot - far.sum(), dtype=complex), 0.0
        for k in range(20):
            series = series + term / (j + k + 1)
            term = term * 1j * a[~far] / (k + 1)
            if not term.any():
                break
        E[:, ~far] = start[~far] * series
        sn = E.imag
        out[:, :, :rot] = E.real, sn / mu[:rot], signed_mu[:rot] * sn
        # the drift, (1, kappa t, lam t), with drift = int_0^1 u^j t du
        drift = ta / (j + 1) + (tb - ta) / (j + 2)
        out[0, :, hyp:] = 1.0 / (j + 1)
        out[1, :, hyp:], out[2, :, hyp:] = kappa[hyp:] * drift, lam[hyp:] * drift
        return out

    def rotation(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c, r, q) by the time s on the modes, evaluated per class; s is
        a time, or times with a trailing unit axis per mode axis.  np.take
        gives C-ordered entries: fancy indexing on the last axis would
        give F-ordered ones, whose sums round otherwise."""
        s = np.asarray(s, dtype=float)
        s = s.reshape(s.shape[: max(0, s.ndim - self.classes.ndim)] + (1,))
        return tuple(np.take(self.class_rotation(s), self.classes, axis=-1))

    def propagate(self, a0, a1, s):
        """The mode data (a0_hat, a1_hat) on the modes moved by the time
        s, or by each of an array of times."""
        c, r, q = self.rotation(s)
        return a0 * c + a1 * r, a1 * c - a0 * q


def _node_sums(stack: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Sum of stack * other over every axis but stack's leading time axis;
    other is one slice of the stack."""
    return np.einsum("ti,i->t", stack.reshape(len(stack), -1), other.reshape(-1))


def _op(section, op: str, b: str) -> tuple[int, str, np.ndarray]:
    """op(b) on the section's stacks as (sign, name, y), op(b) = sign * y
    with name the state field that op reads of b.  d/dt is second order
    in time, one-sided at the ends of the rows.  grad(b) is taken in its
    constraint's convention, y = sign * grad(b), the field `name`: read
    off the constraint stack on an exact section, transformed on any
    other.  A sign on a sum is exact."""
    if op != "grad":
        y = getattr(section, b)
        return 1, b, np.gradient(y, section.dt, axis=0, edge_order=2) if op == "dt" else y
    vector, sign = next((v, sg) for v, n, sg in section.STATE.CONSTRAINTS if n == b)
    if section._exact:
        return sign, vector, getattr(section, vector)
    return sign, vector, sign * stack_gradient(section.lattice, getattr(section, b))


def _time_rows(section) -> int:
    """The section's time slices, at least the three its d/dt reads."""
    rows = len(getattr(section, section.STATE.SCALARS[0]))
    if rows < 3:
        raise ValueError("need at least three time slices for central differences")
    return rows


def _el_densities(
    table, section, variation, first: int = 0, count: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node slice sums of the EL pairing of a bilinear Lagrangian
    table on a section, sum c (da . op(b) + a . op(db)), the exact
    directional derivative of the quadratic action, and of its
    cancellation scale, sum |c| (|da| . |op(b)| + |a| . |op(db)|).

    The variation is a slice state v on the section's lattice under a
    sin^2 time bump w over a grid of `count` nodes (the section's by
    default), zero on its end nodes, the section's rows being the grid's
    nodes from `first` on: its field a is w v_a, d/dt of it w' v_a (w'
    as np.gradient takes d/dt of a stack) and grad of it w times v's
    constraint field, so each sum is a weight per node times the node
    sums of the section's stacks against v's fixed fields.  A node's
    values read only its rows and its neighbours', so a chunk with a
    halo gives the whole section's values on its inner nodes bit for bit.
    Each node sum is taken once per call, keyed by the stack it reads and
    the variation field: an ``id`` term's two halves, and an exact
    section's ``grad`` term's, are one sum.
    """
    if variation.lattice != section.lattice:
        raise ValueError("variation field lattice mismatch")
    rows = _time_rows(section)
    count = rows if count is None else count
    times = np.arange(first, first + rows) * section.dt
    bump = np.sin(np.pi * times / ((count - 1) * section.dt)) ** 2
    bump[[i - first for i in (0, count - 1) if first <= i < first + rows]] = 0.0
    rate = np.gradient(bump, section.dt, edge_order=2)
    fields = {n: getattr(variation, n).values for n in variation.SCALARS}
    for n in variation.VECTORS:
        fields[n] = np.array([comp.values for comp in getattr(variation, n).components])

    sums = {}

    def node_sums(read, stack, field, magnitude=False):
        key = (read, field, magnitude)
        if key not in sums:
            # magnitudes are taken as each sum needs them, so one stack-sized
            # temporary is alive beside a term's op(b), which goes on return
            u = fields[field]
            sums[key] = _node_sums(np.abs(stack), np.abs(u)) if magnitude else _node_sums(stack, u)
        return sums[key]

    def term(c, a, op, b):
        sign, name, y = _op(section, op, b)
        # the stack op(b) reads: a state field's own, or one derived from b
        read = name if op == "id" or (op == "grad" and section._exact) else (op, b)
        x = getattr(section, a)
        weight = rate if op == "dt" else bump
        pairing = sign * c * (bump * node_sums(read, y, a) + weight * node_sums(a, x, name))
        scale = abs(c) * (
            bump * node_sums(read, y, a, True) + np.abs(weight) * node_sums(a, x, name, True)
        )
        return pairing, scale

    parts = [term(*t) for t in table]
    return sum(p for p, _ in parts), sum(s for _, s in parts)


def _time_integral(lat: Lattice, dt: float, density: np.ndarray) -> float:
    """Trapezoidal time integral of per-node slice sums, exact in space."""
    return float(np.trapezoid(lat.spacing**lat.dim * density, dx=dt))


def _el_integrals(table, section, variation) -> tuple[float, float]:
    """The EL pairing and cancellation scale of a table on a whole section
    along a slice state under the time bump: a trapezoid of each of
    _el_densities."""
    return tuple(
        _time_integral(section.lattice, section.dt, density)
        for density in _el_densities(table, section, variation)
    )


# op -> -op^T for the derivatives of a table: d/dt is skew-adjoint, and
# the adjoint of grad is minus the divergence
_ADJOINT = {"dt": "dt", "grad": "div"}


def _equations(table, apply) -> dict:
    """The first-order (de Donder-Weyl) equations dL/dx of a bilinear
    Lagrangian table, with apply(op, x) the operator op on the field x: a
    term (c, a, op, b) adds c op(b) to a's equation and c op^T(a) to b's,
    op^T minus the operator _ADJOINT names; (c, x, "id", x) adds 2 c x."""
    eqs = {}
    for c, a, op, b in table:
        if (op, a) == ("id", b):
            eqs[a] = eqs.get(a, 0.0) + 2.0 * c * apply("id", a)
        else:
            eqs[a] = eqs.get(a, 0.0) + c * apply(op, b)
            eqs[b] = eqs.get(b, 0.0) - c * apply(_ADJOINT[op], a)
    return eqs


def _first_order_residual(table, section) -> float:
    """Sup residual of a table's _equations on a section's interior time
    nodes, with _op's central differences and spectral derivatives and the
    divergence transformed; a NaN anywhere makes the residual NaN."""
    _time_rows(section)
    mid = slice(1, -1)

    def apply(op, name):
        if op == "div":
            return stack_divergence(section.lattice, getattr(section, name)[mid])
        sign, _, y = _op(section, op, name)
        return sign * y[mid]

    eqs = _equations(table, apply)
    return nan_max(np.max(np.abs(eq)) for eq in eqs.values())


# a field's columns in a mode-space equation: id, d/dt, i k (grad, div), k^2 (substituted)
_SYMBOL = {"id": 0, "dt": 1, "grad": 2, "div": 2}


@lru_cache(maxsize=32)
def _table_reading(table, state) -> tuple[float, tuple]:
    """The pairing weight w and the mode-flow generator ((kappa0, kappa1),
    (lam0, lam1)) of a Lagrangian table for the slice state class `state`,
    read off its _equations per mode.  A constraint field's equation has
    no d/dt and gives it as i k times its scalar; substituted, a0's
    equation reads t (da1/ds + lam a0) = 0 and a1's t (kappa a1 - da0/ds)
    = 0, t the d/dt coefficient of a1 in a0's, kappa and lam each c0 + c1
    k^2.  w = |t|, the orientation whose slice energy (w/2) L^d sum(kappa
    |a1|^2 + lam |a0|^2) is positive.  Plain floats: no linear algebra."""
    col = {n: i for i, n in enumerate(state.SCALARS + state.VECTORS)}
    unit = np.eye(4 * len(col)).reshape(-1, len(col), 4)
    eqs = _equations(table, lambda op, name: unit[4 * col[name] + _SYMBOL[op]])
    (a0, a1), (e0, e1) = (col[n] for n in state.SCALARS), (eqs[n] for n in state.SCALARS)
    for vector, scalar, _ in state.CONSTRAINTS:
        # vector = -(x_ik / x_id) i k scalar, and i k . i k = -k^2
        ratio = eqs[vector][col[scalar], 2] / eqs[vector][col[vector], 0]
        for e in (e0, e1):
            e[col[scalar], 3] += e[col[vector], 2] * ratio
    t = float(e0[a1, 1])
    kappa, lam = (tuple(float(c) / t for c in e[a, [0, 3]]) for e, a in ((e1, a1), (e0, a0)))
    return abs(t), (kappa, lam)
