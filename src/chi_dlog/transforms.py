"""The Fourier transform over Z/mZ and the exact division/power operators.

The Fourier transform is numpy's pocketfft, which covers every length (primes
through Bluestein's algorithm) with kernel exp(2*pi*i*x*y/m)/sqrt(m). It acts
on register 0, which must be an exponent register: the procedure transforms
no other register. qft_apply transforms the lone exponent register a run or
a preparation starts from; it consumes the state it is given, overwriting its
amplitudes in one numpy call, and returns it.

Every division in the procedure acts on two registers that have not met yet,
so both division operators, div_alpha_apply and div_x_apply, are one
primitive, controlled_product, which takes the two one-register states and
writes the divided joint state straight into a fresh buffer, or into one the
caller passes as out (a chi handle keeps one for its runs), along the cycles
of a single multiplier. Those cycles come from group multiplication alone,
never from a discrete-log lookup. The inputs are left alone. The
preparation's power oracle, |r, y> -> |r, y * g**r>, is div_x_apply with
x = g**-1, so it has no operator of its own.

Each div_x_apply in the procedure is followed at once by a transform of the
joint state it builds: the forward one in the preparation's round and the
inverse one in a run. div_x_apply makes that transform itself (qft=), in the
same pass: controlled_product builds a block of consecutive rows along the
cycles in a per-core scratch, transforms it there while it is in cache, and
copies the rows to their places, so the joint state goes through memory
once. Each row is transformed exactly as one whole-array call transforms it,
so the bits are those of qft_apply after the division. From 2**18 amplitudes
on (a joint state at m = 512) qstate._over_cores, which the marginal and
factor_out share, cuts the rows into one contiguous range per core in the
process's affinity mask; numpy releases the GIL inside its FFT, so one core's
Python loop overlaps another's transform. The ranges share one fixed scratch
(_blocks), so a division in the procedure holds at most 3 MiB beside its
state on any core count. Every thread is joined before the call returns, and
the output is the same on any core count. div_alpha_apply, which no
transform follows, writes each row straight into its place on the calling
thread.

fourier_matrix and the three joint-index tables below (div_alpha_permutation,
div_x_permutation, power_oracle_permutation) are reference oracles: the verify
suites and the tests compare the operators against them, and nothing on the
simulation path calls them. Each returns a read-only array, and the package
namespace does not re-export them. They stay here, wrapped in lru_cache, only
while the benchmark's tracer reads those caches' counters by name; once it
traces controlled_product instead, they belong in verify, uncached.
"""
from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotBijective, WrongLayout, WrongRegisterKind
from .group import GroupSpec
from .qstate import (
    ExponentRegister,
    GroupRegister,
    QState,
    RegisterLayout,
    _cuts,
    _over_cores,
)

__all__ = [
    "controlled_product",
    "div_alpha_apply",
    "div_alpha_permutation",
    "div_x_apply",
    "div_x_permutation",
    "fourier_matrix",
    "power_oracle_permutation",
    "qft_apply",
]

# amplitudes the row ranges of one division with its transform share for
# their blocks of rows, 1 MiB on any core count (_blocks). On two cores a
# block is 512 KiB, which stays in a core's cache between the division and
# the transform
_SCRATCH = 1 << 16


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


def _fft(inverse: bool):
    """The numpy call for one direction; the forward kernel, +2*pi*i/m, is numpy's ifft."""
    return np.fft.fft if inverse else np.fft.ifft


def qft_apply(state: QState, inverse: bool = False) -> QState:
    """Fourier-transform exponent register 0 with an O(m log m) FFT per row.

    Consumes its input: the amplitudes are transformed in place, in one numpy
    call on the calling thread, and the same state is returned.
    """
    reg = state.layout.registers[0]
    if not isinstance(reg, ExponentRegister):
        raise WrongRegisterKind("the Fourier transform acts on exponent registers only")
    # one row per register-1 basis state; a lone register is a single row
    data = _consume(state).reshape(-1, reg.dim)
    _fft(inverse)(data, axis=1, norm="ortho", out=data)
    return state


def _mult_index_perm(spec: GroupSpec, c: int) -> np.ndarray:
    """Basis-index table of right multiplication y -> y*c."""
    return np.fromiter((spec.index_of(spec.mul(y, c)) for y in spec.elements),
                       dtype=np.int64, count=spec.order)


def _blocks(d0: int, m: int) -> tuple[list[int], int]:
    """Row ranges, one per core, and the rows in a block, of a division with its transform.

    The ranges share _SCRATCH amplitudes for their blocks of rows. Each range
    also holds a tile of 2 * m + d0 amplitudes and a window of d0, and
    numpy's multiply of a block through the strided window may hold two
    buffers of np.getbufsize() values; these share twice _SCRATCH. So a
    division holds at most 3 MiB of scratch on any core count (6 ranges at
    most at m = d0 = 1008, 4 at 4000), and every range has a block of at
    least one row. A block also holds at most an eighth of the rows, so that
    a small state's scratch adds little to its peak memory (m = 256: 32 rows,
    128 KiB; the reuse-256 benchmark's peak RSS rose 1.3 % with 128 rows).
    """
    most = max(1, 2 * _SCRATCH // (2 * (m + d0) + 2 * np.getbufsize()))
    cuts = _cuts(m, d0 * m, -(-m // most))
    return cuts, max(1, min(m // 8, _SCRATCH // ((len(cuts) - 1) * d0)))


def controlled_product(a: QState, b: QState, step: int, order, out=None,
                       qft=None) -> QState:
    """The joint state |a>|b> after the map |order[k], y> -> |order[k], y * step**k>.

    a is the control register (register 0 of the result) and b a group
    register (register 1); order lists every basis index of a once. Row k of
    the map is the permutation "multiply by step" composed k times, so one
    bijectivity check covers every row. The divided state is written straight
    into out, out[y, order[k]] = a[order[k]] * b[y * step**-k], and the inputs
    are left alone. out defaults to a fresh buffer; one the caller passes is
    overwritten whole and becomes the result's amplitudes, with the same bits.
    It must be a flat, C-contiguous, writable complex128 array of exactly
    d0 * m amplitudes that shares no memory with a or b, else WrongLayout.
    Along a cycle c_0, c_1 = c_0 * step, ... of length L, row c_j is the
    window at L - 1 - j of b[cycle reversed], tiled, read through the inverse
    of order and multiplied by a; when order is the identity the window is
    multiplied as it is.

    qft, "forward" or "inverse", also Fourier-transforms register 0, which
    must then be an exponent register: the result has the bits of qft_apply on
    the divided state. Consecutive rows are built a block at a time in a
    per-core scratch, transformed there while they are in cache, and copied
    to their rows; from qstate._SPLIT_MIN amplitudes the rows are split over
    the cores, which share one fixed scratch (_blocks). Without qft every row
    is written straight into its row of out on the calling thread.
    """
    ra, rb = _lone_register(a), _lone_register(b)
    if not isinstance(rb, GroupRegister):
        raise WrongLayout("expected a (control, group) register pair")
    if qft not in (None, "forward", "inverse"):
        raise ValueError(f"qft must be None, 'forward' or 'inverse', not {qft!r}")
    if qft is not None and not isinstance(ra, ExponentRegister):
        raise WrongRegisterKind("the Fourier transform acts on exponent registers only")
    spec = rb.group
    d0, m = ra.dim, spec.order
    layout = RegisterLayout((ra, rb))  # refuses a joint state over the cap
    if out is not None:
        if not (isinstance(out, np.ndarray) and out.dtype == np.complex128
                and out.shape == (d0 * m,) and out.flags.c_contiguous
                and out.flags.writeable):
            raise WrongLayout(
                f"out must be a flat, C-contiguous, writable complex128 array of "
                f"{d0 * m} amplitudes")
        if np.shares_memory(out, a.amplitudes) or np.shares_memory(out, b.amplitudes):
            raise WrongLayout("out shares memory with an input register")
    one = _mult_index_perm(spec, step)
    order = np.asarray(order, dtype=np.intp)
    for perm, n, what in ((one, m, f"multiplying by {step!r}"),
                          (order, d0, "the control order")):
        if perm.shape != (n,) or perm.min() < 0 or perm.max() >= n \
                or np.bincount(perm, minlength=n).max() != 1:
            raise NotBijective(f"{what} is not a permutation of {n} basis indices")
    # every scratch array exists before the m x d0 output and the loop below
    # keeps none of its own (numpy frees its multiply buffers within each
    # call), so no small array lands above a freed state in the heap
    nxt = one.tolist()
    seen = bytearray(m)
    walk, ends = [], []  # each cycle reversed: position p has window p
    for start in range(m):
        if not seen[start]:
            cycle = []
            while not seen[start]:
                seen[start] = 1
                cycle.append(start)
                start = nxt[start]
            walk.extend(reversed(cycle))
            ends.append(len(walk))
    walk = np.array(walk, dtype=np.intp)
    gather = not np.array_equal(order, np.arange(d0))
    inverse = np.empty(d0, dtype=np.intp)  # window entry k lands in column order[k]
    inverse[order] = np.arange(d0)
    along = b.amplitudes.take(walk)  # b along each reversed cycle
    # each range of walk positions goes in blocks of size from its start;
    # without a transform the whole walk is one block, on the calling thread
    cuts, size = ([0, m], m) if qft is None else _blocks(d0, m)
    parts = len(cuts) - 1
    # a cycle of length L is tiled in whole copies, L + d0 - 1 <= L * reps < 2L + d0
    tiles = np.empty((parts, 2 * m + d0), dtype=np.complex128)
    windows = np.empty((parts, d0), dtype=np.complex128)
    blocks = np.empty((parts, size if qft else 0, d0), dtype=np.complex128)
    if out is None:
        out = np.empty(d0 * m, dtype=np.complex128)
    rows = out.reshape(m, d0)
    transform = _fft(qft == "inverse")

    def build(part, lo, hi):
        tile, window, block = tiles[part], windows[part], blocks[part]
        slide = sliding_window_view(tile, d0)  # slide[p] is window p of the tile
        cycle, tiled = bisect_right(ends, lo), -1
        for first in range(lo, hi, size):
            last = min(first + size, hi)
            pos = first
            while pos < last:
                if ends[cycle] <= pos:
                    cycle += 1
                begin, end = ends[cycle - 1] if cycle else 0, ends[cycle]
                if tiled != cycle:
                    length = end - begin
                    reps = -(-(length + d0 - 1) // length)
                    tile[:reps * length].reshape(reps, length)[...] = along[begin:end]
                    tiled = cycle
                stop = min(end, last)
                # numpy rounds a one-element product made in place, or by a
                # 2-D call, differently: a one-row segment takes the row path
                if qft is not None and not gather and stop - pos > 1:
                    np.multiply(slide[pos - begin:stop - begin], a.amplitudes,
                                out=block[pos - first:stop - first])
                else:
                    for p in range(pos, stop):
                        src = slide[p - begin]
                        if gather:
                            src = src.take(inverse, out=window, mode="clip")
                        np.multiply(src, a.amplitudes,
                                    out=rows[walk[p]] if qft is None else block[p - first])
                pos = stop
            if qft is not None:
                built = block[:last - first]
                transform(built, axis=1, norm="ortho", out=built)
                rows[walk[first:last]] = built

    _over_cores(cuts, build)
    return QState(layout, out)


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


def div_alpha_apply(a: QState, b: QState, alpha: int, out=None) -> QState:
    """Join two group registers and divide the right one by the left raised to alpha.

    out, if given, is the buffer controlled_product writes the state into.
    """
    spec = _group_group(a, b)
    # the left label g**k picks up (g**-alpha)**k
    return controlled_product(a, b, spec.pow(spec.generator, -alpha), spec.power_indices,
                              out=out)


def div_x_apply(a: QState, b: QState, x: int, out=None, qft=None) -> QState:
    """Join an exponent register and a group register; divide the right by x**left.

    out, if given, is the buffer controlled_product writes the state into.
    qft, "forward" or "inverse", is the transform of the exponent register
    that follows the division, made block by block as the rows are built.
    """
    spec = _exponent_group(a, b)
    return controlled_product(a, b, spec.inverse(x), range(spec.order), out=out, qft=qft)
