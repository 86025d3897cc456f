"""The Fourier transform over Z/mZ and the exact division/power operators.

The Fourier transform is numpy's pocketfft, which covers every length (primes
through Bluestein's algorithm) with kernel exp(2*pi*i*x*y/m)/sqrt(m). The
division and power operators are one primitive, controlled_multiply, which
moves amplitudes along the power walk of a single multiplier built from group
multiplication alone (never from a discrete-log lookup). Both consume the
state they are given: they overwrite its amplitudes and return it.

The dense Fourier matrix and the joint-index permutation tables below are
reference oracles for the verify suites and the tests; nothing on the
simulation path calls them.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NotBijective, WrongLayout, WrongRegisterKind
from .group import GroupSpec
from .qstate import (
    BasisPermutation,
    ExponentRegister,
    GroupRegister,
    QState,
)

__all__ = [
    "controlled_multiply",
    "div_alpha_apply",
    "div_alpha_permutation",
    "div_x_apply",
    "div_x_permutation",
    "fourier_matrix",
    "power_oracle_apply",
    "power_oracle_permutation",
    "qft_apply",
]


@lru_cache(maxsize=64)
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


def qft_apply(state: QState, register_index: int, inverse: bool = False) -> QState:
    """Fourier-transform one exponent register with an O(m log m) FFT.

    Consumes its input: the amplitudes are transformed in place and the same
    state is returned.
    """
    regs = state.layout.registers
    if not 0 <= register_index < len(regs):
        raise WrongLayout(f"no register {register_index} in this layout")
    if not isinstance(regs[register_index], ExponentRegister):
        raise WrongRegisterKind("the Fourier transform acts on exponent registers only")
    data = _consume(state)
    axis = 0
    if len(regs) == 2:
        data = data.reshape(regs[1].dim, regs[0].dim)
        axis = 1 if register_index == 0 else 0
    # the forward transform has the +2*pi*i/m kernel, which numpy calls ifft
    transform = np.fft.fft if inverse else np.fft.ifft
    transform(data, axis=axis, norm="ortho", out=data)
    return state


def _mult_index_perm(spec: GroupSpec, c: int) -> np.ndarray:
    """Basis-index table of right multiplication y -> y*c."""
    return np.fromiter((spec.index_of(spec.mul(y, c)) for y in spec.elements),
                       dtype=np.int64, count=spec.order)


def controlled_multiply(state: QState, step: int, order) -> QState:
    """Map |order[k], y> -> |order[k], y * step**k> on a two-register state.

    Register 1 must be a group register; order lists every basis index of
    register 0 once. Row k of the map is the permutation "multiply by step"
    composed k times, so one bijectivity check covers every row. Consumes its
    input: the amplitudes are permuted in place and the same state is returned.
    """
    regs = state.layout.registers
    if len(regs) != 2 or not isinstance(regs[1], GroupRegister):
        raise WrongLayout("expected a (control, group) register pair")
    spec = regs[1].group
    d0, m = regs[0].dim, spec.order
    one = _mult_index_perm(spec, step)
    order = np.asarray(order, dtype=np.intp)
    for perm, n, what in ((one, m, f"multiplying by {step!r}"),
                          (order, d0, "the control order")):
        if perm.shape != (n,) or perm.min() < 0 or perm.max() >= n \
                or np.bincount(perm, minlength=n).max() != 1:
            raise NotBijective(f"{what} is not a permutation of {n} basis indices")
    # row c of the transposed grid holds the amplitudes of control index c
    grid = _consume(state).reshape(m, d0).T
    cur = np.arange(m)
    for c in order.tolist():
        grid[c][cur] = grid[c].copy()
        cur = one[cur]
    return state


def _joint_table(rows: np.ndarray, d0: int) -> np.ndarray:
    """Assemble |i0, i1> -> |i0, rows[i0, i1]> into a flat joint table."""
    i1, i0 = np.divmod(np.arange(d0 * rows.shape[1], dtype=np.int64), d0)
    return i0 + d0 * rows[i0, i1]


@lru_cache(maxsize=128)
def div_alpha_permutation(spec: GroupSpec, alpha: int) -> BasisPermutation:
    """Joint table of |x, y> -> |x, y * x**(-alpha)> on a (group, group) pair."""
    m = spec.order
    alpha %= m
    rows = np.empty((m, m), dtype=np.int64)
    for ix, x in enumerate(spec.elements):
        rows[ix] = _mult_index_perm(spec, spec.pow(x, -alpha))
    return BasisPermutation(_joint_table(rows, m))


@lru_cache(maxsize=128)
def div_x_permutation(spec: GroupSpec, x: int) -> BasisPermutation:
    """Joint table of |a, y> -> |a, y * x**(-a)> on an (exponent, group) pair."""
    m = spec.order
    step = _mult_index_perm(spec, spec.inverse(x))
    rows = np.empty((m, m), dtype=np.int64)
    rows[0] = np.arange(m)
    for a in range(1, m):
        rows[a] = step[rows[a - 1]]
    return BasisPermutation(_joint_table(rows, m))


@lru_cache(maxsize=128)
def power_oracle_permutation(spec: GroupSpec) -> BasisPermutation:
    """Joint table of |r, y> -> |r, y * g**r> on an (exponent, group) pair."""
    m = spec.order
    step = _mult_index_perm(spec, spec.generator)
    rows = np.empty((m, m), dtype=np.int64)
    rows[0] = np.arange(m)
    for r in range(1, m):
        rows[r] = step[rows[r - 1]]
    return BasisPermutation(_joint_table(rows, m))


def _group_group(state: QState) -> GroupSpec:
    regs = state.layout.registers
    if len(regs) != 2 or not all(isinstance(r, GroupRegister) for r in regs):
        raise WrongLayout("expected a (group, group) register pair")
    if regs[0].group != regs[1].group:
        raise WrongLayout("both registers must carry the same group")
    return regs[0].group


def _exponent_group(state: QState) -> GroupSpec:
    regs = state.layout.registers
    if len(regs) != 2 or not isinstance(regs[0], ExponentRegister) \
            or not isinstance(regs[1], GroupRegister):
        raise WrongLayout("expected an (exponent, group) register pair")
    spec = regs[1].group
    if regs[0].dim != spec.order:
        raise WrongLayout(
            f"exponent register dimension {regs[0].dim} != group order {spec.order}")
    return spec


def div_alpha_apply(state: QState, alpha: int) -> QState:
    """Divide the right register by the left register raised to alpha."""
    spec = _group_group(state)
    # the left label g**k picks up (g**-alpha)**k
    return controlled_multiply(state, spec.pow(spec.generator, -alpha),
                               spec.power_indices)


def div_x_apply(state: QState, x: int) -> QState:
    """Divide the right register by x raised to the left exponent register."""
    spec = _exponent_group(state)
    return controlled_multiply(state, spec.inverse(x), range(spec.order))


def power_oracle_apply(state: QState) -> QState:
    """Multiply the right register by g raised to the left exponent register."""
    spec = _exponent_group(state)
    return controlled_multiply(state, spec.generator, range(spec.order))
