"""Test-side references for the slice layer.

covlab's EL kernel reads a variation as a slice state under a sin^2 time
bump and never forms its spacetime stacks.  ``bumped`` builds them, as
the section builder once did: the state's fields, its constraint fields
included, times the bump on every row, in the section's own class, so
the real-space references and the finite-difference quotients of the
action can read them like any section.  ``hermitize`` makes the tests'
random mode draws those of real fields, and ``hermitian_defect``
measures how far mode data is from that symmetry.
"""

from dataclasses import replace

import numpy as np

from covlab.lattice import conjugate_reflection


def hermitize(arr):
    """The reality-symmetric part of mode data, fhat(-k) == conj(fhat(k))."""
    return 0.5 * (arr + conjugate_reflection(arr))


def hermitian_defect(arr):
    """Sup deviation from the reality symmetry fhat(-k) == conj(fhat(k))."""
    return float(np.max(np.abs(arr - conjugate_reflection(arr))))


def bumped(section, state, first=0, count=None):
    """The stacks of the slice state `state` under the sin^2 time bump
    over a grid of `count` nodes (the section's by default), zero on its
    end nodes, the section's rows being the grid's nodes from `first` on."""
    rows = len(section.times())
    count = rows if count is None else count
    times = np.arange(first, first + rows) * section.dt
    profile = np.sin(np.pi * times / ((count - 1) * section.dt)) ** 2
    ends = [i - first for i in (0, count - 1) if first <= i < first + rows]

    def bump(field):
        out = profile.reshape((-1,) + (1,) * field.ndim) * field
        out[ends] = 0.0
        return out

    stacks = {n: bump(getattr(state, n).values) for n in section.STATE.SCALARS}
    for n in section.STATE.VECTORS:
        stacks[n] = bump(np.array([c.values for c in getattr(state, n).components]))
    return replace(section, **stacks)
