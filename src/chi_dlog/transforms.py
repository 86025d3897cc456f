"""The Fourier transform over Z/mZ and the exact division operator.

The Fourier transform is numpy's pocketfft, which covers every length (primes
through Bluestein's algorithm) with kernel exp(2*pi*i*x*y/m)/sqrt(m). It acts
on register 0, which must be an exponent register: the procedure transforms
no other register. qft_apply transforms the lone exponent register a run or
a preparation starts from; it consumes the state it is given, overwriting its
amplitudes in one numpy call, and returns it.

Every division in the procedure is div_x_apply, the one operator that joins
two registers: it takes a lone exponent register k of order m and a lone
group register of order m, and writes the joint state with the latter
divided by x**k straight into a fresh buffer, along the cycles of a single
multiplier; a run keeps one exponent column of it instead, and a
preparation's round, in either mode, its coprime columns (keep=). Those
cycles come from group multiplication alone, never from a discrete-log
lookup. The inputs are left alone. The preparation's power oracle,
|r, y> -> |r, y * g**r>, is div_x_apply with x = g**-1, and its
conversion, which divides by a register holding g**k raised to alpha, is
the same division with x = g**alpha on that register written over
exponents (chi), so neither has an operator of its own. The conversion is
only read by factor_out, so it is never written whole: _division_rows
shares div_x_apply's checks, its walk along the cycles and its tile, and
hands factor_out the rule for its rows in the walk's order (qstate._Rows).
alpha is coprime to m there, so the walk is one cycle and a block of rows
at consecutive walk positions is consecutive windows of the one tile,
times the left register.

div_x_apply builds a block of consecutive rows along the cycles in a
per-core scratch and copies the rows to their places. Where a transform of
the joint state follows the division at once, the forward one in the
preparation's round and the inverse one in a run, div_x_apply makes it in
the same pass (qft=): each block is transformed while it is in cache, so the
joint state goes through memory once. Each row is transformed exactly as one
whole-array call transforms it, so the bits are those of qft_apply after the
division. The same pass adds up the exponent register's distribution
(marginal=), which a run and a sampled preparation draw from, so neither
reads the joint state a second time for it. From 2**18 amplitudes on (a
joint state at m = 512) qstate._over_cores, which the readout and factor_out
share, cuts the rows of every division into contiguous ranges of whole
segments, one per core in the process's affinity mask; numpy releases the
GIL inside its multiply and FFT, so one core's Python loop overlaps
another's work. The ranges share one fixed scratch (_blocks), so a division
holds at most 3 MiB beside its state on any core count. Every thread is
joined before the call returns, and the output, the distribution included,
is the same on any core count.

fourier_matrix and the three joint-index tables below (div_alpha_permutation,
div_x_permutation, power_oracle_permutation) are reference oracles: the verify
suites and the tests compare the operators against them, and nothing on the
simulation path calls them. Each returns a read-only array, and the package
namespace does not re-export them. They stay here, in an lru_cache that stores
nothing, only while the benchmark's tracer reads its call counters by name;
once it no longer does, they belong in verify, unwrapped.
"""
from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadLabel, LayoutMismatch, NotAGenerator, NotBijective, WrongRegisterKind
from .group import GroupSpec
from .qstate import (
    ExponentRegister,
    GroupRegister,
    QState,
    RegisterLayout,
    _cuts,
    _over_cores,
    _Rows,
)

__all__ = [
    "div_alpha_permutation",
    "div_x_apply",
    "div_x_permutation",
    "fourier_matrix",
    "power_oracle_permutation",
    "qft_apply",
]

# amplitudes the row ranges of one division with its transform share for
# their blocks of rows, 1 MiB on any core count (_blocks). On two cores a
# block is under 512 KiB, which stays in a core's cache between the division
# and the transform
_SCRATCH = 1 << 16
# segments of the walk a marginal is added over: their bounds depend on m
# alone and every core's range is whole segments, so the sum does not depend
# on the core count. A division takes 7 ranges at most (_blocks); 12 splits
# evenly over 2, 3, 4 and 6 of them, and the longest of 5 ranges holds a
# quarter more rows than an even split, of 7 a sixth more
_SEGMENTS = 12


# maxsize=0, here and on the tables below, stores nothing (an m = 512 matrix is
# 4 MB, a table 134 MB at m = 4096) but counts calls in cache_info() for the tracer
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


def _blocks(m: int) -> tuple[list[int], list[int], int]:
    """Segment bounds, the segments of each core's range, and the rows in a block.

    The walk positions are cut into _SEGMENTS segments from m alone, and each
    core's range is a run of whole segments, so a marginal the pass adds
    segment by segment does not depend on the core count. Each range holds a
    tile of 3 * m amplitudes, and numpy's multiply of a block through the
    strided window may hold two buffers of np.getbufsize() values; these
    share twice _SCRATCH. The ranges' blocks share _SCRATCH, or what is left
    of 3 * _SCRATCH beside the tiles, the buffers, one more row a range,
    which carries a segment's running sum, and the segments' sums, m
    amplitudes each. There are as many ranges as both bounds allow with a
    block of at least one row each (7 at most at m = 512, 6 at 1008, 5 at
    2002, 4 at 4000), so a division holds at most 3 MiB of scratch on any
    core count. A block also holds at most an eighth of the rows, so that a
    small state's scratch adds little to its peak memory (m = 256: 32 rows,
    128 KiB; the reuse-256 benchmark's peak RSS rose 1.3 % with 128 rows).
    """
    each = 3 * m + 2 * np.getbufsize()
    most = min(2 * _SCRATCH // each, (3 * _SCRATCH - _SEGMENTS * m) // (each + 2 * m))
    cuts = _cuts(_SEGMENTS, m * m, 1, max(1, most))
    parts = len(cuts) - 1
    spare = 3 * _SCRATCH - _SEGMENTS * m - parts * (each + m)
    rows = min(_SCRATCH, spare) // (parts * m)
    bounds = [m * k // _SEGMENTS for k in range(_SEGMENTS + 1)]
    return bounds, cuts, max(1, min(m // 8, rows))


def _checked(a: QState, b: QState, x: int):
    """The registers of a division and its multiplier, step = x**-1.

    a must be a lone exponent register of order m and b a lone group
    register of order m, else LayoutMismatch; an x outside the group raises
    NotInGroup.
    """
    ra, rb = a.layout.registers[0], b.layout.registers[0]
    if not (len(a.layout.registers) == len(b.layout.registers) == 1
            and isinstance(ra, ExponentRegister) and isinstance(rb, GroupRegister)
            and ra.dim == rb.dim):
        raise LayoutMismatch(
            "a division joins a lone exponent register and a lone group register of one order")
    return ra, rb, rb.group.inverse(x)


def _cycles(spec: GroupSpec, step: int, b: QState):
    """The walk along the cycles of multiplying by step, their ends, and b along it.

    Each cycle is walked reversed, so walk position p has window p of its
    cycle's tile (_tile). One bijectivity check of the step table covers
    every row of the division.
    """
    m = spec.order
    one = _mult_index_perm(spec, step)
    if one.min() < 0 or one.max() >= m or np.bincount(one, minlength=m).max() != 1:
        raise NotBijective(f"multiplying by {step!r} is not a permutation of {m} basis indices")
    nxt = one.tolist()
    seen = bytearray(m)
    walk, ends = [], []
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
    return walk, ends, b.amplitudes.take(walk)


def _tile(tile: np.ndarray, cycle: np.ndarray, m: int) -> None:
    """Write whole copies of one cycle's entries into tile, enough for each window of m.

    A cycle of length L is tiled L * reps long, L + m - 1 <= L * reps < 2L + m,
    so a tile of 3 * m entries holds any cycle's.
    """
    length = len(cycle)
    reps = -(-(length + m - 1) // length)
    tile[:reps * length].reshape(reps, length)[...] = cycle


def div_x_apply(a: QState, b: QState, x: int, qft=None, marginal=None,
                keep=None) -> QState:
    """The joint state |a>|b> after the division |k, y> -> |k, y * x**-k>.

    a is a lone exponent register of order m (register 0 of the result) and
    b a lone group register of order m (register 1), else LayoutMismatch; an
    x outside the group raises NotInGroup. Row k of the map is the
    permutation "multiply by step = x**-1" composed k times, so one
    bijectivity check covers every row. The divided state is written
    straight into a fresh buffer, out[y, k] = a[k] * b[y * x**k], and the
    inputs are left alone. Along a cycle c_0, c_1 = c_0 * step, ... of
    length L, row c_j is the window at L - 1 - j of b[cycle reversed],
    tiled, times a.

    Consecutive rows are built a block at a time in a per-core scratch and
    copied to their rows; from qstate._SPLIT_MIN amplitudes the rows are
    split over the cores, which share one fixed scratch (_blocks). qft,
    "forward" or "inverse", also Fourier-transforms the exponent register:
    each block is transformed while it is in cache, and the result has the
    bits of qft_apply on the divided state.

    marginal, a writable float64 array of m values, is filled with the
    exponent register's distribution; it needs qft. Once a block is copied
    to its rows, its real and imaginary parts are squared in place and added
    into its segment's column sums, row after row in walk order; the
    segments' sums are then added in order, and each column's real and
    imaginary sums. So the bits do not depend on the core count, and for a
    normalized state they are within m * 2**-52 of marginal_distribution's,
    the one reader that adds it in basis order.

    keep, an exponent or a strictly ascending array of exponents in [0, m)
    (else BadLabel), keeps those columns of the transformed state and writes
    no other: each block's entries in them, gathered into a per-core scratch
    unless they follow one another, are copied to their rows of an m x
    len(keep) grid, and nothing of m * m amplitudes is allocated. The
    result, with the bits of the full pass's columns, is a state whose
    exponent register holds len(keep) values, kept column i being exponent
    keep[i]. It needs qft.
    """
    ra, rb, step = _checked(a, b, x)
    spec = rb.group
    if qft not in (None, "forward", "inverse"):
        raise ValueError(f"qft must be None, 'forward' or 'inverse', not {qft!r}")
    if marginal is not None and qft is None:
        raise ValueError("a marginal is read after the transform: it needs qft")
    if keep is not None and qft is None:
        raise ValueError("kept columns are read after the transform: they need qft")
    m = spec.order
    if keep is not None:
        kept = np.atleast_1d(keep)
        if not (kept.dtype.kind in "iu" and kept.ndim == 1 and kept.size
                and 0 <= kept[0] and kept[-1] < m and (np.diff(kept) > 0).all()):
            raise BadLabel(f"kept columns {keep!r} are not ascending exponents in [0, {m})")
    layout = RegisterLayout((ra, rb))  # refuses a joint state over the cap
    if marginal is not None:
        if not (isinstance(marginal, np.ndarray) and marginal.dtype == np.float64
                and marginal.shape == (m,) and marginal.flags.writeable):
            raise LayoutMismatch(f"marginal must be a writable float64 array of {m} values")
        if any(np.shares_memory(marginal, given.amplitudes) for given in (a, b)):
            raise LayoutMismatch("marginal shares memory with an input register")
    walk, ends, along = _cycles(spec, step, b)
    # every scratch array exists before the output and the loop below
    # keeps none of its own (numpy frees its multiply buffers within each
    # call), so no small array lands above a freed state in the heap.
    # Each range is whole segments of walk positions and goes in blocks from
    # each segment's start
    bounds, cuts, size = _blocks(m)
    parts = len(cuts) - 1
    tiles = np.empty((parts, 3 * m), dtype=np.complex128)
    # row 0 of a range's block carries its segment's running sum
    blocks = np.empty((parts, size + 1, m), dtype=np.complex128)
    # each segment's column sums of the squared real and imaginary parts
    sums = np.zeros((_SEGMENTS, 2 * m)) if marginal is not None else None
    # kept columns that follow one another are a view of each block; others
    # are gathered into a per-core scratch
    if keep is None:
        columns, picked = slice(None), None
    elif kept[-1] - kept[0] == kept.size - 1:
        columns, picked = slice(kept[0], kept[-1] + 1), None
    else:
        columns, picked = kept, np.empty((parts, size, kept.size), dtype=np.complex128)
    rows = np.empty((m, m if keep is None else kept.size), dtype=np.complex128)
    transform = _fft(qft == "inverse")

    def build(part, low, high):
        tile, block = tiles[part], blocks[part, 1:]
        squares = blocks[part].view(np.float64)  # row 0 is the carry
        slide = sliding_window_view(tile, m)  # slide[p] is window p of the tile
        cycle, tiled = bisect_right(ends, bounds[low]), -1
        for segment, first in [(segment, first) for segment in range(low, high)
                               for first in range(bounds[segment], bounds[segment + 1], size)]:
            last = min(first + size, bounds[segment + 1])
            pos = first
            while pos < last:
                if ends[cycle] <= pos:
                    cycle += 1
                begin, end = ends[cycle - 1] if cycle else 0, ends[cycle]
                if tiled != cycle:
                    _tile(tile, along[begin:end], m)
                    tiled = cycle
                stop = min(end, last)
                # numpy rounds a one-element product made by a 2-D call
                # differently: a one-row segment is multiplied as one row
                if stop - pos > 1:
                    np.multiply(slide[pos - begin:stop - begin], a.amplitudes,
                                out=block[pos - first:stop - first])
                else:
                    np.multiply(slide[pos - begin], a.amplitudes, out=block[pos - first])
                pos = stop
            built = block[:last - first]
            if qft is not None:
                transform(built, axis=1, norm="ortho", out=built)
            if picked is None:
                rows[walk[first:last]] = built[:, columns]
            else:
                chosen = picked[part, :last - first]
                np.take(built, columns, axis=1, out=chosen, mode="clip")
                rows[walk[first:last]] = chosen
            if sums is not None:
                # the carry, then the block's rows: a C-contiguous sum down
                # the rows adds them one after another
                added = squares[:1 + last - first]
                np.square(added[1:], out=added[1:])
                added[0] = sums[segment]
                np.add.reduce(added, axis=0, out=sums[segment])

    _over_cores(cuts, build)
    if sums is not None:
        total = np.add.reduce(sums, axis=0)
        np.add(total[0::2], total[1::2], out=marginal)
    if keep is not None:
        layout = RegisterLayout((ExponentRegister(kept.size), rb))
    return QState(layout, rows.reshape(-1))


def _division_rows(a: QState, b: QState, x: int) -> _Rows:
    """div_x_apply(a, b, x) held as the rule for its rows, for factor_out.

    For an x that generates the group, multiplying by x**-1 walks one cycle
    through every basis state, so the rows at consecutive walk positions
    are consecutive windows of the one tile div_x_apply builds for it,
    times a. The rows come in the walk's order: a block of them, or of
    their columns lo:hi, is one multiply, with the bits of div_x_apply's
    rows, so nothing of m * m amplitudes is written. The registers are
    checked as div_x_apply checks them; an x whose powers do not reach the
    whole group raises NotAGenerator.
    """
    ra, rb, step = _checked(a, b, x)
    layout = RegisterLayout((ra, rb))  # refuses a joint state over the cap
    spec = rb.group
    m = spec.order
    walk, ends, along = _cycles(spec, step, b)
    if len(ends) != 1:
        raise NotAGenerator(f"{x!r} does not generate the group: its division walks "
                            f"{len(ends)} cycles")
    tile = np.empty(3 * m, dtype=np.complex128)
    _tile(tile, along, m)
    slide = sliding_window_view(tile, m)

    def write(start, stop, lo, hi, out):
        # numpy rounds a one-element product made by a 2-D call differently:
        # a one-row block is multiplied as one row, as div_x_apply's are
        if stop - start > 1:
            np.multiply(slide[start:stop, lo:hi], a.amplitudes[lo:hi], out=out)
        else:
            np.multiply(slide[start, lo:hi], a.amplitudes[lo:hi], out=out[0])

    return _Rows(layout, walk, write)


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


@lru_cache(maxsize=0)
def div_alpha_permutation(spec: GroupSpec, alpha: int) -> np.ndarray:
    """Joint table of |x, y> -> |x, y * x**(-alpha)> on a (group, group) pair."""
    m = spec.order
    alpha %= m
    rows = np.empty((m, m), dtype=np.int64)
    for ix, x in enumerate(spec.elements):
        rows[ix] = _mult_index_perm(spec, spec.pow(x, -alpha))
    return _joint_table(rows, m)


@lru_cache(maxsize=0)
def div_x_permutation(spec: GroupSpec, x: int) -> np.ndarray:
    """Joint table of |a, y> -> |a, y * x**(-a)> on an (exponent, group) pair."""
    return _walk_table(spec, spec.inverse(x))


@lru_cache(maxsize=0)
def power_oracle_permutation(spec: GroupSpec) -> np.ndarray:
    """Joint table of |r, y> -> |r, y * g**r> on an (exponent, group) pair."""
    return _walk_table(spec, spec.generator)

