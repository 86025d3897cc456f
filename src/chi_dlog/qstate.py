"""Dense complex state vectors over one or two finite registers.

Joint index convention: register 0 (the leftmost) is the fastest-varying
digit, so a two-register state keeps amplitude(i0, i1) at flat index
i0 + dim0 * i1. The text dump format uses the same indexing.

This module holds states, not operators: every gate of the simulation is in
transforms. A two-register state is built there, by div_x_apply, the one
division, which writes the divided joint state of two one-register states
straight into a fresh buffer, and, where a Fourier transform follows the
division, transforms it block by block in the same pass and adds up register
0's distribution as it goes. A run's pass keeps one column instead, and a
preparation's round, in either mode, its coprime columns: a state whose
register 0 holds those values, which collapse and marginal_distribution read
like any other. The preparation's conversion is never held whole: it is a
_Rows, the rule for its grid's rows in the order of the division's walk,
which factor_out writes a block at a time, in that order, into the scratch
of its row sum and of its product check. Everything here returns new arrays.
Only register 0 is ever read out, as in the procedure, where it is the
exponent register: a run and a sampled preparation take its distribution
from that pass, sample_index draws from it, and collapse measures it and
keeps register 1. marginal_distribution, the one reader of register 0 in
basis order, adds each column in that order, so the columns a pass kept
read as they do in the whole distribution: a record's mass reads the one
column a run kept, the exhaustive acceptance the coprime columns.
Readout and factor_out work in blocks of rows, so none of them makes a
temporary the size of a two-register state. The marginal, the norm, and
factor_out, which splits off register 1 by summing the grid's rows and
register 0 by summing its columns, are one row sum, which adds in a fixed
order and makes no BLAS call, so their bits are the same on any core and
BLAS thread count. factor_out's product check clears a block of rows
without magnitudes where the deviations are far below its tolerance.

From _SPLIT_MIN amplitudes on, a pass over a two-register state runs on every
core in the process's affinity mask through _over_cores, which every
division in transforms shares: one contiguous range per core, the first on
the calling thread, the others on short-lived threads that call numpy only,
all joined before the pass returns. The row sum splits its columns, and
factor_out's product check its rows, into at most
READOUT_BLOCK // (2 * np.getbufsize()) ranges, 4 by default: each column's
rows are still added top to bottom, and the check takes the largest of the
ranges' maxima. No bit depends on the core count. collapse and everything
smaller run on the calling thread.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, Union

import numpy as np

from .errors import (
    ArtifactMismatch,
    BadLabel,
    CapExceeded,
    DegenerateNorm,
    LayoutMismatch,
    NotAProductState,
    NotInGroup,
)

if TYPE_CHECKING:  # group imports DIM_CAP from here
    from .group import GroupSpec

__all__ = [
    "CORRUPT_TOL",
    "DIM_CAP",
    "NORM_TOL",
    "READOUT_BLOCK",
    "ExponentRegister",
    "GroupRegister",
    "MeasurementOutcome",
    "QState",
    "RegisterLayout",
    "basis_state",
    "collapse",
    "dump_amplitudes",
    "factor_out",
    "fidelity",
    "marginal_distribution",
    "parse_amplitudes",
    "sample_index",
]

NORM_TOL = 1e-9
CORRUPT_TOL = 1e-6
DIM_CAP = 2 ** 24  # amplitudes in any state: 256 MiB of complex128
READOUT_BLOCK = 1 << 16  # amplitudes per row block of a readout or residual
# below this many amplitudes one core makes a whole pass: on a two-vCPU host
# the split of an m x m Fourier transform loses at m = 256 (0.48 -> 0.64 ms),
# breaks even near m = 512 and wins from m ~ 700
_SPLIT_MIN = 1 << 18
# numpy may sum a block only a few columns wide down its rows in another order
# (one column wide, it sums pairwise), so no column range is narrower than this
_COLUMNS_MIN = 64


@dataclass(frozen=True)
class ExponentRegister:
    """Register over Z/mZ; basis label k means the exponent k."""
    dim: int


@dataclass(frozen=True)
class GroupRegister:
    """Register over a cyclic group; basis index i holds group.elements[i]."""
    group: GroupSpec

    @property
    def dim(self) -> int:
        return self.group.order


Register = Union[ExponentRegister, GroupRegister]


@dataclass(frozen=True)
class RegisterLayout:
    """One or two named registers; fixes the joint basis indexing."""
    registers: tuple[Register, ...]

    def __post_init__(self):
        if not isinstance(self.registers, tuple):
            object.__setattr__(self, "registers", tuple(self.registers))
        if not 1 <= len(self.registers) <= 2:
            raise LayoutMismatch(f"layouts hold 1 or 2 registers, got {len(self.registers)}")
        total = 1
        for reg in self.registers:
            if reg.dim < 1:
                raise LayoutMismatch(f"register dimension {reg.dim} must be positive")
            total *= reg.dim
        if total > DIM_CAP:
            raise CapExceeded(f"total dimension {total} exceeds the cap {DIM_CAP}")

    @property
    def total_dim(self) -> int:
        total = 1
        for reg in self.registers:
            total *= reg.dim
        return total

    def dim(self, register_index: int) -> int:
        return self.registers[register_index].dim

    def label_to_index(self, register_index: int, label: int) -> int:
        reg = self.registers[register_index]
        if isinstance(reg, ExponentRegister):
            if not isinstance(label, (int, np.integer)) or not 0 <= label < reg.dim:
                raise BadLabel(f"exponent label {label!r} not in [0, {reg.dim})")
            return int(label)
        try:
            return reg.group.index_of(label)
        except NotInGroup as exc:
            raise BadLabel(str(exc)) from None


@dataclass
class QState:
    """A normalized state vector over a RegisterLayout."""
    layout: RegisterLayout
    amplitudes: np.ndarray

    def norm(self) -> float:
        """Euclidean norm from the marginal's fixed-order row sum, not BLAS."""
        return float(np.sqrt(marginal_distribution(self).sum()))

    def copy(self) -> "QState":
        return QState(self.layout, self.amplitudes.copy())


@dataclass
class MeasurementOutcome:
    """Observed index of register 0, its probability, and register 1 after it."""
    observed: int
    probability: float
    post_state: QState


@dataclass
class _Rows:
    """A two-register state held as the rule for its grid's rows, never whole.

    The rows come in order, the walk along which they are cheapest to make:
    write(start, stop, lo, hi, out) writes grid[order[start:stop], lo:hi]
    into out, a C-contiguous block. transforms._division_rows makes one for
    the preparation's conversion, and factor_out splits register 1 off it.
    """
    layout: RegisterLayout
    order: np.ndarray
    write: Callable[[int, int, int, int, np.ndarray], None]

    @property
    def shape(self) -> tuple[int, int]:
        return self.layout.dim(1), self.layout.dim(0)


def _grid(state: QState) -> np.ndarray:
    """(dim1, dim0) view of a two-register state; grid[i1, i0]."""
    d0 = state.layout.dim(0)
    d1 = state.layout.dim(1)
    return state.amplitudes.reshape(d1, d0)


def _core_count() -> int:
    """Cores this process may run on now, from its affinity mask where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask off Linux
        return os.cpu_count() or 1


def _cuts(n: int, size: int, least: int = 1, most: int = DIM_CAP) -> list[int]:
    """Bounds of one contiguous range of range(n) per core, none shorter than least.

    A pass over fewer than _SPLIT_MIN amplitudes (size) is one range, and so
    is one whose n cannot give two ranges of least. There are at most most.
    """
    parts = max(1, min(_core_count(), n // least, most)) if size >= _SPLIT_MIN else 1
    return [n * k // parts for k in range(parts + 1)]


def _over_cores(cuts: list[int], work) -> None:
    """Run work(part, lo, hi) for each range lo, hi = cuts[part], cuts[part + 1].

    The caller runs part 0 and one short-lived thread each of the others; all
    are joined before this returns, and the first exception a part raises is
    raised here. Each thread runs in a copy of the caller's context, so a
    numpy errstate the caller sets holds in every part. A part on a thread
    must call numpy only, which releases the GIL, and write into arrays its
    caller made.
    """
    failures: list[BaseException] = []

    def run(part: int) -> None:
        try:
            work(part, cuts[part], cuts[part + 1])
        except BaseException as exc:  # handed to the caller, which re-raises it
            failures.append(exc)

    threads = []
    try:
        for part in range(1, len(cuts) - 1):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(run, part))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]


def basis_state(layout: RegisterLayout, labels: Sequence[int]) -> QState:
    """Computational basis state |labels[0], labels[1], ...> on the layout."""
    labels = tuple(labels)
    if len(labels) != len(layout.registers):
        raise BadLabel(f"expected {len(layout.registers)} labels, got {len(labels)}")
    flat = 0
    stride = 1
    for k, label in enumerate(labels):
        flat += stride * layout.label_to_index(k, label)
        stride *= layout.dim(k)
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[flat] = 1.0
    return QState(layout, amps)


def marginal_distribution(state: QState) -> np.ndarray:
    """Measurement distribution of register 0, marginalized over register 1.

    Each column's terms, |amplitude| squared, are added one row after another
    in basis order, so a state that holds some columns of another reads them
    with the bits they have in its whole distribution; one column costs
    O(dim1). A one-register state is a single row, so its marginal is its
    density.
    """
    grid = state.amplitudes.reshape(-1, state.layout.dim(0))
    if grid.shape[1] == 1:
        # numpy sums a lone column pairwise, not row by row; cumsum adds in order
        terms = np.abs(grid[:, 0])
        np.square(terms, out=terms)
        return np.cumsum(terms)[-1:]
    return _row_sum(grid, np.float64, _densities)


def _densities(block, start, out):
    """The row sum's fill for a distribution: |block| squared, into out."""
    np.abs(block, out=out)
    np.square(out, out=out)


def _row_sum(grid, dtype, fill) -> np.ndarray:
    """Sum over the rows of grid of what fill(block, start, out) writes.

    fill gets the rows grid[start:start + len(out)] of one column range and
    writes their terms into out. grid may be a strided view, such as the
    transpose factor_out sums to split off register 0, or a _Rows, whose
    rows are written into out first, in its order, and filled there in
    place. Each block is summed into the range's slice of the total, which
    buf[0] carries into the next block's sum, so the rows are added one
    after another in order, exactly as a whole-array sum(axis=0) of a
    C-contiguous grid does: the order depends on the grid's shape alone,
    and no BLAS call is made.
    From _SPLIT_MIN amplitudes the columns are split over the cores, which
    changes no bit. The ranges share one scratch of at most READOUT_BLOCK +
    d0 values, and numpy's call over a range's strided block may hold two
    buffers of np.getbufsize() values; those share READOUT_BLOCK values too,
    so there are at most READOUT_BLOCK // (2 * np.getbufsize()) ranges and
    the scratch does not grow with the core count.
    """
    d1, d0 = grid.shape
    built = isinstance(grid, _Rows)
    rows = max(1, min(READOUT_BLOCK // d0, d1))
    scratch = np.zeros((rows + 1) * d0, dtype)
    total = np.empty(d0, dtype)

    def columns(part, lo, hi):
        buf = scratch[(rows + 1) * lo:(rows + 1) * hi].reshape(rows + 1, hi - lo)
        for start in range(0, d1, rows):
            terms = buf[1:1 + min(rows, d1 - start)]
            if built:
                grid.write(start, start + len(terms), lo, hi, terms)
                fill(terms, start, terms)
            else:
                fill(grid[start:start + len(terms), lo:hi], start, terms)
            np.add.reduce(buf[:1 + len(terms)], axis=0, out=total[lo:hi])
            buf[0] = total[lo:hi]

    most = max(1, READOUT_BLOCK // (2 * np.getbufsize()))
    _over_cores(_cuts(d0, d1 * d0, _COLUMNS_MIN, most), columns)
    return total


def collapse(state: QState, index: int) -> MeasurementOutcome:
    """Measure register 0 of a two-register state as basis index `index`.

    The measured register becomes classical, so the post-state is register 1
    alone: the observed column of the grid, normalized.
    """
    regs = state.layout.registers
    if len(regs) != 2:
        raise LayoutMismatch("collapse needs a two-register state")
    if not isinstance(index, (int, np.integer)) or not 0 <= index < regs[0].dim:
        raise BadLabel(f"index {index!r} not in [0, {regs[0].dim})")
    kept = _grid(state)[:, index]
    norm = float(np.linalg.norm(kept))
    p = norm * norm
    # written so that a NaN or infinite column fails it too
    if not 1e-12 <= p < np.inf:
        raise DegenerateNorm(f"index {index} carries probability {p:.3e}")
    return MeasurementOutcome(int(index), p, QState(RegisterLayout((regs[1],)), kept / norm))


def sample_index(probs: np.ndarray, rng=None) -> int:
    """Draw one index from a distribution by inverse CDF, one rng.random() each.

    rng may be a seed or a np.random.Generator; threading one generator
    through several draws gives a reproducible stream. The distribution is
    rescaled by its total, which must be finite and reach CORRUPT_TOL.
    """
    gen = np.random.default_rng(rng)
    total = float(probs.sum())
    # written so that a NaN or infinite total fails it too
    if not CORRUPT_TOL <= total < np.inf:
        raise DegenerateNorm(
            f"total probability mass {total:.3e} is not in [{CORRUPT_TOL}, inf)")
    cdf = np.cumsum(probs)
    u = gen.random() * cdf[-1]
    return min(int(np.searchsorted(cdf, u, side="right")), len(probs) - 1)


def fidelity(a: QState, b: QState) -> float:
    """|<a|b>|^2; invariant under a global phase on either state."""
    if a.layout != b.layout:
        raise LayoutMismatch(f"layouts differ: {a.layout} vs {b.layout}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def factor_out(state, register_index: int, expected: QState) -> QState:
    """Split off one register whose state is known, returning the rest.

    The joint state must equal remaining x expected up to a global phase
    (absorbed into the returned state) within 1e-9, else NotAProductState.
    Either register is split off by one row sum with no BLAS call: register
    1, as a preparation does, by adding the weighted rows of the grid in
    order, and register 0 by adding its weighted columns in order. So the
    result does not depend on the BLAS thread count. state may also be a
    _Rows, the preparation's conversion, which is never held whole: register
    1 alone is split off it, and its rows are written a block at a time, in
    its order, into the scratch of the row sum and of the product check,
    which read expected in that order too.
    """
    regs = state.layout.registers
    if len(regs) != 2:
        raise LayoutMismatch("factor_out needs a two-register state")
    if len(expected.layout.registers) != 1 or \
            expected.layout.registers[0] != regs[register_index]:
        raise LayoutMismatch("expected state does not match the named register")
    if isinstance(state, _Rows):
        if register_index != 1:
            raise LayoutMismatch("a state held as its rows splits off register 1 alone")
        grid, e = state, expected.amplitudes[state.order]
    else:
        grid, e = _grid(state), expected.amplitudes
    weights = e.conj()[:, None]

    def weighted(block, start, out):
        np.multiply(block, weights[start:start + len(block)], out=out)

    # an infinite amplitude makes NaNs, which the residual check refuses
    with np.errstate(invalid="ignore"):
        # the grid's rows are register 1's basis states and its columns register 0's
        remaining = _row_sum(grid if register_index == 1 else grid.T, np.complex128,
                             weighted)
        if register_index == 1:
            column, row, keep = e, remaining, regs[0]
        else:
            column, row, keep = remaining, e, regs[1]
        residual = _residual(column, row, grid)
    if not residual <= NORM_TOL:
        raise NotAProductState(
            f"residual {residual:.3e} after projecting register {register_index}")
    return QState(RegisterLayout((keep,)), remaining)


def _residual(column: np.ndarray, row: np.ndarray, grid) -> float:
    """max |outer(column, row) - grid| where it passes NORM_TOL; NaN if any is NaN.

    A block of rows whose deviations d all have 2 * max(|Re d|, |Im d|) <=
    NORM_TOL passes on two reductions: then |d| <= NORM_TOL / sqrt(2), and
    the block counts that bound, 2 * max(|Re d|, |Im d|), with no magnitude
    taken. Any other block takes the exact |d|, a hypot each. So the check
    passes and fails as the exact max does, and one that fails returns that
    max. numpy buffers a multiply broadcast over rows shorter than its
    buffer, so a block's column entries are copied across its rows and then
    multiplied by a shared tile of the row, with outer's bits. Each block of
    a _Rows grid's rows is written into one more scratch first. The blocks
    and the tile share one scratch of READOUT_BLOCK values per kind (one row
    each where a row is longer than a share); there are at most
    READOUT_BLOCK // d0 ranges, and at most READOUT_BLOCK // (2 *
    np.getbufsize()) as in _row_sum, so the scratch does not grow with the
    core count, nor do the two buffers of np.getbufsize() values a range
    that numpy's multiply may hold while a _Rows grid writes its rows.
    """
    d1, d0 = grid.shape
    built = isinstance(grid, _Rows)
    most = max(1, READOUT_BLOCK // (2 * np.getbufsize()))
    cuts = _cuts(d1, d1 * d0, -(-d1 // max(1, READOUT_BLOCK // d0)), most)
    parts = len(cuts) - 1
    # a _Rows grid's written rows take one more share per range
    shares = parts + 1 + (parts if built else 0)
    rows = max(1, min(READOUT_BLOCK // (d0 * shares), cuts[1]))
    recons = np.empty((parts, rows, d0), np.complex128)
    mags = np.empty((parts, rows, d0), np.float64)
    written = np.empty((parts, rows, d0), np.complex128) if built else None
    peaks = np.zeros(parts)
    tile = np.tile(row, (rows, 1))

    def row_range(part, lo, hi):
        for start in range(lo, hi, rows):
            stop = min(start + rows, hi)
            recon, mag = recons[part, :stop - start], mags[part, :stop - start]
            if built:
                block = written[part, :stop - start]
                grid.write(start, stop, 0, d0, block)
            else:
                block = grid[start:stop]
            recon[...] = column[start:stop, None]
            np.multiply(recon, tile[:stop - start], out=recon)
            recon -= block
            # max and min propagate a NaN, which fails the screen
            flat = recon.view(np.float64)
            bound = 2 * np.maximum(flat.max(), -flat.min())
            if not bound <= NORM_TOL:
                np.abs(recon, out=mag)
                bound = mag.max()
            # np.maximum, not max(): a NaN must win
            peaks[part] = np.maximum(peaks[part], bound)

    _over_cores(cuts, row_range)
    return float(np.max(peaks))


def dump_amplitudes(state: QState) -> str:
    """Text dump: one line per joint index, 'index re im', 17 significant digits."""
    lines = []
    for i, amp in enumerate(state.amplitudes):
        lines.append(f"{i} {amp.real:.17g} {amp.imag:.17g}")
    return "\n".join(lines) + "\n"


def parse_amplitudes(text: str, layout: RegisterLayout) -> QState:
    """Inverse of dump_amplitudes; validates index coverage and finiteness.

    One bulk acceptance pass: every line is split once and the blank ones
    dropped; the dump must hold exactly one line of three fields per
    amplitude. The index column goes through Python's int and the value
    columns through its float (so the accepted syntax is theirs), and the
    range, finiteness and duplicate checks run on whole columns. A refused
    dump raises the ArtifactMismatch of _refusal, which walks the lines in
    file order and names the first offending one.
    """
    total = layout.total_dim
    lines = text.splitlines()
    fields = list(filter(None, map(str.split, lines)))
    # each line's shape, not the token count: "0 1" then "0 1 0 0" balance
    if len(fields) != total or set(map(len, fields)) != {3}:
        raise _refusal(lines, total)
    tokens = list(chain.from_iterable(fields))
    indices = tokens[0::3]
    del tokens[0::3]  # leaves re, im, re, im, ...: complex128's memory layout
    try:
        idx = np.fromiter(map(int, indices), np.int64, count=total)
        values = np.fromiter(map(float, tokens), np.float64, count=2 * total)
    except (ValueError, OverflowError):  # OverflowError: an index past int64
        raise _refusal(lines, total) from None
    if (idx.min() < 0 or idx.max() >= total or not np.isfinite(values).all()
            or np.bincount(idx, minlength=total).max() > 1):
        raise _refusal(lines, total)
    amps = np.empty(total, dtype=np.complex128)
    amps[idx] = values.view(np.complex128)
    return QState(layout, amps)


def _refusal(lines: list[str], total: int) -> ArtifactMismatch:
    """Why a dump is refused: its first offending line, checked in the format's order.

    A line's shape comes first, then its syntax, index range and finiteness;
    a repeated index is named at its second occurrence. A dump whose lines
    all pass but miss indices gets the count instead.
    """
    seen: set[int] = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            return ArtifactMismatch(f"line {lineno}: expected 'index re im', got {line!r}")
        try:
            i, re, im = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            return ArtifactMismatch(f"line {lineno}: unparseable values in {line!r}")
        if not 0 <= i < total:
            return ArtifactMismatch(f"line {lineno}: index {i} out of range")
        if not (math.isfinite(re) and math.isfinite(im)):
            return ArtifactMismatch(f"line {lineno}: non-finite amplitude")
        if i in seen:
            return ArtifactMismatch(f"line {lineno}: duplicate index {i}")
        seen.add(i)
    return ArtifactMismatch(f"dump holds {len(seen)} amplitudes, layout needs {total}")
