"""Dense complex state vectors over one or two finite registers.

Joint index convention: register 0 (the leftmost) is the fastest-varying
digit, so a two-register state keeps amplitude(i0, i1) at flat index
i0 + dim0 * i1. The text dump format uses the same indexing.

This module holds states, not operators: every gate of the simulation is in
transforms. A two-register state is built there, by controlled_product (with
its three wrappers), which writes the divided joint state of two one-register
states straight into a fresh buffer; qft_apply then consumes the state it is
given and returns it. Everything here returns new arrays.
Only register 0 is ever read out, as in the procedure, where it is the
exponent register: marginal_distribution gives its distribution, sample_index
draws from that, and collapse measures it and keeps register 1. Readout and
factor_out work in blocks of rows, so none of them makes a temporary the size
of a two-register state.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import length_hint
from typing import TYPE_CHECKING, Iterable, Sequence, Union

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
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "QState":
        return QState(self.layout, self.amplitudes.copy())


@dataclass
class MeasurementOutcome:
    """Observed index of register 0, its probability, and register 1 after it."""
    observed: int
    probability: float
    post_state: QState


def _grid(state: QState) -> np.ndarray:
    """(dim1, dim0) view of a two-register state; grid[i1, i0]."""
    d0 = state.layout.dim(0)
    d1 = state.layout.dim(1)
    return state.amplitudes.reshape(d1, d0)


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

    A one-register state is a single row, so its marginal is its density.
    """
    d0 = state.layout.dim(0)
    if d0 == 1:
        # no grid to block; numpy sums a single column pairwise, not row by row
        return (np.abs(state.amplitudes) ** 2).reshape(-1, 1).sum(axis=0)
    grid = state.amplitudes.reshape(-1, d0)
    rows = max(1, min(READOUT_BLOCK // d0, grid.shape[0]))
    # buf[0] carries the running column sum, so the rows are added in order
    # exactly as grid.sum(axis=0) does
    buf = np.zeros((rows + 1, d0))
    for start in range(0, grid.shape[0], rows):
        block = grid[start:start + rows]
        dens = buf[1:1 + len(block)]
        np.abs(block, out=dens)
        np.square(dens, out=dens)
        buf[0] = np.add.reduce(buf[:1 + len(block)], axis=0)
    return buf[0].copy()


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
    if p < 1e-12:
        raise DegenerateNorm(f"index {index} carries probability {p:.3e}")
    return MeasurementOutcome(int(index), p, QState(RegisterLayout((regs[1],)), kept / norm))


def sample_index(probs: np.ndarray, rng=None) -> int:
    """Draw one index from a distribution by inverse CDF, one rng.random() each.

    rng may be a seed or a np.random.Generator; threading one generator
    through several draws gives a reproducible stream. The distribution is
    rescaled by its total, which must reach CORRUPT_TOL.
    """
    gen = np.random.default_rng(rng)
    total = float(probs.sum())
    if total < CORRUPT_TOL:
        raise DegenerateNorm(f"total probability mass {total:.3e} below {CORRUPT_TOL}")
    cdf = np.cumsum(probs)
    u = gen.random() * cdf[-1]
    return min(int(np.searchsorted(cdf, u, side="right")), len(probs) - 1)


def fidelity(a: QState, b: QState) -> float:
    """|<a|b>|^2; invariant under a global phase on either state."""
    if a.layout != b.layout:
        raise LayoutMismatch(f"layouts differ: {a.layout} vs {b.layout}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def factor_out(state: QState, register_index: int, expected: QState) -> QState:
    """Split off one register whose state is known, returning the rest.

    The joint state must equal remaining x expected up to a global phase
    (absorbed into the returned state) within 1e-9, else NotAProductState.
    """
    regs = state.layout.registers
    if len(regs) != 2:
        raise LayoutMismatch("factor_out needs a two-register state")
    if len(expected.layout.registers) != 1 or \
            expected.layout.registers[0] != regs[register_index]:
        raise LayoutMismatch("expected state does not match the named register")
    grid = _grid(state)
    e = expected.amplitudes
    if register_index == 1:
        remaining = e.conj() @ grid          # shape (d0,)
        column, row, keep = e, remaining, regs[0]
    else:
        remaining = grid @ e.conj()          # shape (d1,)
        column, row, keep = remaining, e, regs[1]
    residual = _residual(column, row, grid)
    if not residual <= NORM_TOL:
        raise NotAProductState(
            f"residual {residual:.3e} after projecting register {register_index}")
    return QState(RegisterLayout((keep,)), remaining.copy())


def _residual(column: np.ndarray, row: np.ndarray, grid: np.ndarray) -> float:
    """max |outer(column, row) - grid|, one row block at a time; NaN if any is NaN."""
    rows = max(1, READOUT_BLOCK // grid.shape[1])
    blocks = []
    for start in range(0, grid.shape[0], rows):
        recon = np.outer(column[start:start + rows], row)
        recon -= grid[start:start + rows]
        blocks.append(np.max(np.abs(recon)))
    return float(np.max(blocks))


def dump_amplitudes(state: QState) -> str:
    """Text dump: one line per joint index, 'index re im', 17 significant digits."""
    lines = []
    for i, amp in enumerate(state.amplitudes):
        lines.append(f"{i} {amp.real:.17g} {amp.imag:.17g}")
    return "\n".join(lines) + "\n"


def parse_amplitudes(text: str, layout: RegisterLayout) -> QState:
    """Inverse of dump_amplitudes; validates index coverage and finiteness.

    One bulk pass: every line is split once, the index column goes through
    Python's int and the value columns through its float (so the accepted
    syntax is theirs), and the range, finiteness and duplicate checks run on
    whole columns. A refused dump raises ArtifactMismatch naming its first
    offending line in file order (for a duplicate index, the second
    occurrence); a dump whose lines all pass but miss indices names none.
    """
    total = layout.total_dim
    lines = text.splitlines()
    fields = list(map(str.split, lines))
    counts = np.fromiter(map(len, fields), np.intp, count=len(fields))
    misshapen = np.flatnonzero((counts != 0) & (counts != 3))
    end = int(misshapen[0]) if misshapen.size else len(lines)
    # the numbers of the non-blank lines, up to and with the first misshapen one;
    # the lines before it give the tokens, and blank lines give none
    linenos = np.flatnonzero(counts[:end + 1]) + 1
    tokens = list(chain.from_iterable(fields[:end]))
    idx = _column(tokens[0::3], int, np.int64)
    del tokens[0::3]  # leaves re, im, re, im, ...: complex128's memory layout
    values = _column(tokens, float, np.float64)
    rows = min(len(idx), len(values) // 2)
    idx, values = idx[:rows], values[:2 * rows].view(np.complex128)
    bad = np.flatnonzero((idx < 0) | (idx >= total) | ~np.isfinite(values))
    if bad.size:
        rows = int(bad[0])
    # the first `rows` lines pass on their own and the next one, if any, does
    # not; a repeated index among them comes first in file order
    if np.bincount(idx[:rows], minlength=total).max(initial=0) > 1:
        _, first = np.unique(idx[:rows], return_index=True)
        repeat = np.ones(rows, dtype=bool)
        repeat[first] = False
        row = int(np.flatnonzero(repeat)[0])
        raise ArtifactMismatch(f"line {linenos[row]}: duplicate index {idx[row]}")
    if rows < len(linenos):
        lineno = int(linenos[rows])
        raise ArtifactMismatch(_line_fault(lineno, lines[lineno - 1], total))
    if rows != total:
        raise ArtifactMismatch(f"dump holds {rows} amplitudes, layout needs {total}")
    amps = np.empty(total, dtype=np.complex128)
    amps[idx] = values
    return QState(layout, amps)


def _column(tokens: list[str], kind, dtype) -> np.ndarray:
    """tokens through kind() into dtype, up to the first one either refuses."""
    it = iter(tokens)
    try:
        return np.fromiter(map(kind, it), dtype, count=len(tokens))
    except (ValueError, OverflowError):
        # the refused token is the last one the iterator handed out
        stop = len(tokens) - length_hint(it) - 1
        return np.fromiter(map(kind, tokens[:stop]), dtype, count=stop)


def _line_fault(lineno: int, line: str, total: int) -> str:
    """Why one dump line is refused on its own, checked in the format's order."""
    line = line.strip()
    parts = line.split()
    if len(parts) != 3:
        return f"line {lineno}: expected 'index re im', got {line!r}"
    try:
        i = int(parts[0])
        re, im = float(parts[1]), float(parts[2])
    except ValueError:
        return f"line {lineno}: unparseable values in {line!r}"
    if not 0 <= i < total:
        return f"line {lineno}: index {i} out of range"
    # the bulk checks found this line at fault, and a value is all that is left
    return f"line {lineno}: non-finite amplitude"
