"""The Fourier transform over Z/mZ and the exact division/power operators.

The Fourier transform is numpy's pocketfft, which covers every length (primes
through Bluestein's algorithm) with kernel exp(2*pi*i*x*y/m)/sqrt(m). It acts
on register 0, which must be an exponent register: the procedure transforms
no other register. It consumes the state it is given: it overwrites its
amplitudes and returns it.

Every division in the procedure acts on two registers that have not met yet,
so the division and power operators are one primitive, controlled_product,
which takes the two one-register states and writes the divided joint state
straight into a fresh buffer, row by row along the cycles of a single
multiplier. Those cycles come from group multiplication alone, never from a
discrete-log lookup. The inputs are left alone.

fourier_matrix and the three joint-index tables below (div_alpha_permutation,
div_x_permutation, power_oracle_permutation) are reference oracles: the verify
suites and the tests compare the operators against them, and nothing on the
simulation path calls them. Each returns a read-only array, and the package
namespace does not re-export them. They stay here, wrapped in lru_cache, only
while the benchmark's tracer reads those caches' counters by name; once it
traces controlled_product instead, they belong in verify, uncached.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NotBijective, WrongLayout, WrongRegisterKind
from .group import GroupSpec
from .qstate import ExponentRegister, GroupRegister, QState, RegisterLayout

__all__ = [
    "controlled_product",
    "div_alpha_apply",
    "div_alpha_permutation",
    "div_x_apply",
    "div_x_permutation",
    "fourier_matrix",
    "power_oracle_apply",
    "power_oracle_permutation",
    "qft_apply",
]


# maxsize=0 stores nothing (an m = 512 matrix alone is 4 MB) but still
# counts the calls in cache_info(), which the benchmark's tracer reads
@lru_cache(maxsize=0)
def fourier_matrix(m: int, inverse: bool = False) -> np.ndarray:
    """Dense m x m Fourier matrix; the inverse is the conjugate transpose.

    Reference oracle only: qft_apply never builds it.
    """
    if m < 1:
        raise ValueError(f"dimension {m} must be positive")
    k = np.outer(np.arange(m), np.arange(m)) % m
    sign = -1.0 if inverse else 1.0
    mat = np.exp(sign * 2j * np.pi * k / m) / np.sqrt(m)
    mat.setflags(write=False)
    return mat


def _consume(state: QState) -> np.ndarray:
    """The amplitudes a transform overwrites, made C-contiguous complex128 once."""
    state.amplitudes = np.require(state.amplitudes, np.complex128, ("C", "W"))
    return state.amplitudes


def qft_apply(state: QState, inverse: bool = False) -> QState:
    """Fourier-transform exponent register 0 with an O(m log m) FFT per row.

    Consumes its input: the amplitudes are transformed in place and the same
    state is returned.
    """
    reg = state.layout.registers[0]
    if not isinstance(reg, ExponentRegister):
        raise WrongRegisterKind("the Fourier transform acts on exponent registers only")
    # one row per register-1 basis state; a lone register is a single row
    data = _consume(state).reshape(-1, reg.dim)
    # the forward transform has the +2*pi*i/m kernel, which numpy calls ifft
    transform = np.fft.fft if inverse else np.fft.ifft
    transform(data, axis=1, norm="ortho", out=data)
    return state


def _mult_index_perm(spec: GroupSpec, c: int) -> np.ndarray:
    """Basis-index table of right multiplication y -> y*c."""
    return np.fromiter((spec.index_of(spec.mul(y, c)) for y in spec.elements),
                       dtype=np.int64, count=spec.order)


def controlled_product(a: QState, b: QState, step: int, order) -> QState:
    """The joint state |a>|b> after the map |order[k], y> -> |order[k], y * step**k>.

    a is the control register (register 0 of the result) and b a group
    register (register 1); order lists every basis index of a once. Row k of
    the map is the permutation "multiply by step" composed k times, so one
    bijectivity check covers every row. The divided state is written straight
    into a fresh buffer, out[y, order[k]] = a[order[k]] * b[y * step**-k], and
    the inputs are left alone. Along a cycle c_0, c_1 = c_0 * step, ... of
    length L, row c_j is the window at L - 1 - j of b[cycle reversed], tiled,
    read through the inverse of order and multiplied by a.
    """
    ra, rb = _lone_register(a), _lone_register(b)
    if not isinstance(rb, GroupRegister):
        raise WrongLayout("expected a (control, group) register pair")
    spec = rb.group
    d0, m = ra.dim, spec.order
    layout = RegisterLayout((ra, rb))  # refuses a joint state over the cap
    one = _mult_index_perm(spec, step)
    order = np.asarray(order, dtype=np.intp)
    for perm, n, what in ((one, m, f"multiplying by {step!r}"),
                          (order, d0, "the control order")):
        if perm.shape != (n,) or perm.min() < 0 or perm.max() >= n \
                or np.bincount(perm, minlength=n).max() != 1:
            raise NotBijective(f"{what} is not a permutation of {n} basis indices")
    # every scratch array exists before the m x d0 output and the loop below
    # allocates none, so no small array lands above a freed state in the heap
    nxt = one.tolist()
    seen = bytearray(m)
    walk, bounds = [], []  # each cycle reversed: position p has window p
    for start in range(m):
        if not seen[start]:
            cycle = []
            while not seen[start]:
                seen[start] = 1
                cycle.append(start)
                start = nxt[start]
            bounds.append((len(walk), len(walk) + len(cycle)))
            walk.extend(reversed(cycle))
    # a cycle of length L is tiled in whole copies, L + d0 - 1 <= L * reps < 2L + d0
    tiled = np.empty(2 * m + d0, dtype=np.complex128)
    inverse = np.empty(d0, dtype=np.intp)  # window entry k lands in column order[k]
    inverse[order] = np.arange(d0)
    window = np.empty(d0, dtype=np.complex128)
    along = b.amplitudes.take(walk)  # b along each reversed cycle
    out = np.empty((m, d0), dtype=np.complex128)
    for begin, end in bounds:
        size = end - begin
        reps = -(-(size + d0 - 1) // size)
        tiled[:reps * size].reshape(reps, size)[...] = along[begin:end]
        for p in range(size):
            # out of place: numpy rounds a one-element product made in place differently
            tiled[p:p + d0].take(inverse, out=window, mode="clip")
            np.multiply(window, a.amplitudes, out=out[walk[begin + p]])
    return QState(layout, out.reshape(-1))


def _joint_table(rows: np.ndarray, d0: int) -> np.ndarray:
    """Assemble |i0, i1> -> |i0, rows[i0, i1]> into a flat read-only joint table."""
    i1, i0 = np.divmod(np.arange(d0 * rows.shape[1], dtype=np.int64), d0)
    table = i0 + d0 * rows[i0, i1]
    table.setflags(write=False)
    return table


def _walk_table(spec: GroupSpec, step: int) -> np.ndarray:
    """Joint table of |a, y> -> |a, y * step**a> on an (exponent, group) pair."""
    m = spec.order
    one = _mult_index_perm(spec, step)
    rows = np.empty((m, m), dtype=np.int64)
    rows[0] = np.arange(m)
    for a in range(1, m):
        rows[a] = one[rows[a - 1]]
    return _joint_table(rows, m)


@lru_cache(maxsize=128)
def div_alpha_permutation(spec: GroupSpec, alpha: int) -> np.ndarray:
    """Joint table of |x, y> -> |x, y * x**(-alpha)> on a (group, group) pair."""
    m = spec.order
    alpha %= m
    rows = np.empty((m, m), dtype=np.int64)
    for ix, x in enumerate(spec.elements):
        rows[ix] = _mult_index_perm(spec, spec.pow(x, -alpha))
    return _joint_table(rows, m)


@lru_cache(maxsize=128)
def div_x_permutation(spec: GroupSpec, x: int) -> np.ndarray:
    """Joint table of |a, y> -> |a, y * x**(-a)> on an (exponent, group) pair."""
    return _walk_table(spec, spec.inverse(x))


@lru_cache(maxsize=128)
def power_oracle_permutation(spec: GroupSpec) -> np.ndarray:
    """Joint table of |r, y> -> |r, y * g**r> on an (exponent, group) pair."""
    return _walk_table(spec, spec.generator)


def _lone_register(state: QState):
    regs = state.layout.registers
    if len(regs) != 1:
        raise WrongLayout(f"expected a one-register state, got {len(regs)} registers")
    return regs[0]


def _group_group(a: QState, b: QState) -> GroupSpec:
    ra, rb = _lone_register(a), _lone_register(b)
    if not isinstance(ra, GroupRegister) or not isinstance(rb, GroupRegister):
        raise WrongLayout("expected a (group, group) register pair")
    if ra.group != rb.group:
        raise WrongLayout("both registers must carry the same group")
    return rb.group


def _exponent_group(a: QState, b: QState) -> GroupSpec:
    ra, rb = _lone_register(a), _lone_register(b)
    if not isinstance(ra, ExponentRegister) or not isinstance(rb, GroupRegister):
        raise WrongLayout("expected an (exponent, group) register pair")
    spec = rb.group
    if ra.dim != spec.order:
        raise WrongLayout(
            f"exponent register dimension {ra.dim} != group order {spec.order}")
    return spec


def div_alpha_apply(a: QState, b: QState, alpha: int) -> QState:
    """Join two group registers and divide the right one by the left raised to alpha."""
    spec = _group_group(a, b)
    # the left label g**k picks up (g**-alpha)**k
    return controlled_product(a, b, spec.pow(spec.generator, -alpha), spec.power_indices)


def div_x_apply(a: QState, b: QState, x: int) -> QState:
    """Join an exponent register and a group register; divide the right by x**left."""
    spec = _exponent_group(a, b)
    return controlled_product(a, b, spec.inverse(x), range(spec.order))


def power_oracle_apply(a: QState, b: QState) -> QState:
    """Join an exponent register and a group register; multiply the right by g**left."""
    spec = _exponent_group(a, b)
    return controlled_product(a, b, spec.generator, range(spec.order))
