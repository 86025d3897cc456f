"""Dense complex state vectors over one or two finite registers.

Joint index convention: register 0 (the leftmost) is the fastest-varying
digit, so a two-register state keeps amplitude(i0, i1) at flat index
i0 + dim0 * i1. The text dump format uses the same indexing.

transforms.qft_apply and transforms.controlled_multiply, with its three
wrappers, consume their input state and return it. Everything else returns
new arrays. Readout and factor_out work in blocks of rows, so none of them
makes a temporary the size of a two-register state.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, Union

import numpy as np

from .errors import (
    ArtifactMismatch,
    BadLabel,
    CapExceeded,
    DegenerateNorm,
    LayoutMismatch,
    NotAProductState,
    NotBijective,
    NotInGroup,
    NotUnitary,
)

if TYPE_CHECKING:  # group imports dim_cap from here
    from .group import GroupSpec

__all__ = [
    "CORRUPT_TOL",
    "DEFAULT_DIM_CAP",
    "DIM_CAP_ENV",
    "NORM_TOL",
    "READOUT_BLOCK",
    "BasisPermutation",
    "ExponentRegister",
    "GroupRegister",
    "MeasurementOutcome",
    "QState",
    "RegisterLayout",
    "apply_basis_permutation",
    "apply_register_unitary",
    "basis_state",
    "collapse",
    "dim_cap",
    "dump_amplitudes",
    "factor_out",
    "fidelity",
    "marginal_distribution",
    "measure",
    "parse_amplitudes",
    "sample_index",
    "tensor",
]

NORM_TOL = 1e-9
CORRUPT_TOL = 1e-6
DEFAULT_DIM_CAP = 2 ** 24
DIM_CAP_ENV = "CHI_DLOG_DIM_CAP"
READOUT_BLOCK = 1 << 16  # amplitudes per row block of a readout or residual


def dim_cap() -> int:
    """Active cap on total amplitude count (env CHI_DLOG_DIM_CAP overrides)."""
    raw = os.environ.get(DIM_CAP_ENV, "").strip()
    if not raw:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{DIM_CAP_ENV}={raw!r} is not an integer") from None
    if cap < 1:
        raise ValueError(f"{DIM_CAP_ENV}={raw!r} must be at least 1")
    return cap


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
        cap = dim_cap()
        if total > cap:
            raise CapExceeded(f"total dimension {total} exceeds the cap {cap}")

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

    def index_to_label(self, register_index: int, index: int) -> int:
        reg = self.registers[register_index]
        if isinstance(reg, ExponentRegister):
            return int(index)
        return reg.group.element(index)


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
    """Observed label, its probability, and the renormalized state it leaves."""
    register_index: int
    observed: int
    probability: float
    post_state: QState


class BasisPermutation:
    """A bijection on joint basis indices; table[i] is the image of index i."""

    __slots__ = ("table",)

    def __init__(self, table):
        arr = np.asarray(table, dtype=np.int64)
        if arr.ndim != 1:
            raise NotBijective(f"table must be one-dimensional, got shape {arr.shape}")
        n = arr.shape[0]
        if n == 0 or arr.min() < 0 or arr.max() >= n:
            raise NotBijective("table entries must cover [0, n)")
        if np.bincount(arr, minlength=n).max() != 1:
            raise NotBijective("table repeats an image index")
        arr = arr.copy()
        arr.setflags(write=False)
        self.table = arr

    def __len__(self) -> int:
        return self.table.shape[0]

    def inverse(self) -> "BasisPermutation":
        inv = np.empty_like(self.table)
        inv[self.table] = np.arange(len(self))
        return BasisPermutation(inv)


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


def apply_register_unitary(state: QState, register_index: int, matrix,
                           check_unitary: bool = False) -> QState:
    """Apply a dense unitary to one register, identity on the other.

    With check_unitary the operator must satisfy max|U U^H - I| <= 1e-9,
    otherwise NotUnitary; the check is meant for verification runs only.
    """
    regs = state.layout.registers
    if not 0 <= register_index < len(regs):
        raise LayoutMismatch(f"no register {register_index} in this layout")
    d = regs[register_index].dim
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.shape != (d, d):
        raise LayoutMismatch(f"operator shape {mat.shape} does not fit dimension {d}")
    if check_unitary:
        err = float(np.max(np.abs(mat @ mat.conj().T - np.eye(d))))
        if err > NORM_TOL:
            raise NotUnitary(f"max |U U^H - I| = {err:.3e} exceeds {NORM_TOL}")
    if len(regs) == 1:
        new = mat @ state.amplitudes
    elif register_index == 0:
        new = (_grid(state) @ mat.T).reshape(-1)
    else:
        new = (mat @ _grid(state)).reshape(-1)
    return QState(state.layout, new)


def apply_basis_permutation(state: QState, perm: BasisPermutation) -> QState:
    """Relabel basis states: new[table[i]] = old[i]. Exact, no arithmetic."""
    if len(perm) != state.layout.total_dim:
        raise LayoutMismatch(
            f"permutation over {len(perm)} indices applied to dimension {state.layout.total_dim}")
    new = np.empty_like(state.amplitudes)
    new[perm.table] = state.amplitudes
    return QState(state.layout, new)


def marginal_distribution(state: QState, register_index: int) -> np.ndarray:
    """Measurement distribution of one register, marginalized over the other."""
    regs = state.layout.registers
    if not 0 <= register_index < len(regs):
        raise LayoutMismatch(f"no register {register_index} in this layout")
    d0 = regs[0].dim
    if len(regs) == 1 or d0 == 1:
        # no grid to block; numpy sums a single column pairwise, not row by row
        dens = np.abs(state.amplitudes) ** 2
        return dens if len(regs) == 1 else dens.reshape(-1, 1).sum(axis=register_index)
    grid = _grid(state)
    rows = max(1, READOUT_BLOCK // d0)
    # buf[0] carries the running column sum, so register 0 adds the rows in
    # order exactly as grid.sum(axis=0) does; a row sum never straddles blocks
    buf = np.zeros((rows + 1, d0))
    out = np.empty(grid.shape[0])
    for start in range(0, grid.shape[0], rows):
        block = grid[start:start + rows]
        dens = buf[1:1 + len(block)]
        np.abs(block, out=dens)
        np.square(dens, out=dens)
        if register_index == 0:
            buf[0] = np.add.reduce(buf[:1 + len(block)], axis=0)
        else:
            np.add.reduce(dens, axis=1, out=out[start:start + len(block)])
    return buf[0].copy() if register_index == 0 else out


def collapse(state: QState, register_index: int, label: int) -> MeasurementOutcome:
    """Project one register onto a basis label and renormalize.

    Measuring one register of a two-register state makes it classical, so the
    post-state is the other register alone: the observed column or row of the
    grid, normalized. A one-register state collapses onto the basis state.
    """
    idx = state.layout.label_to_index(register_index, label)
    regs = state.layout.registers
    if len(regs) == 1:
        layout = state.layout
        kept = np.zeros_like(state.amplitudes)
        kept[idx] = state.amplitudes[idx]
    else:
        layout = RegisterLayout((regs[1 - register_index],))
        grid = _grid(state)
        kept = grid[:, idx] if register_index == 0 else grid[idx, :]
    norm = float(np.linalg.norm(kept))
    p = norm * norm
    if p < 1e-12:
        raise DegenerateNorm(f"label {label} carries probability {p:.3e}")
    return MeasurementOutcome(register_index, label, p, QState(layout, kept / norm))


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


def measure(state: QState, register_index: int, rng=None) -> MeasurementOutcome:
    """Sample one register (see sample_index) and collapse onto the draw."""
    idx = sample_index(marginal_distribution(state, register_index), rng)
    return collapse(state, register_index, state.layout.index_to_label(register_index, idx))


def fidelity(a: QState, b: QState) -> float:
    """|<a|b>|^2; invariant under a global phase on either state."""
    if a.layout != b.layout:
        raise LayoutMismatch(f"layouts differ: {a.layout} vs {b.layout}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def tensor(a: QState, b: QState) -> QState:
    """Join two states; a's registers come first (leftmost, fastest index)."""
    regs = a.layout.registers + b.layout.registers
    if len(regs) > 2:
        raise LayoutMismatch(f"joint layout would hold {len(regs)} registers")
    # joint[i0 + d0*i1] = a[i0] * b[i1]
    return QState(RegisterLayout(regs),
                  np.multiply.outer(b.amplitudes, a.amplitudes).reshape(-1))


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
    # max-abs residual of outer(column, row) - grid, one row block at a time
    rows = max(1, READOUT_BLOCK // grid.shape[1])
    blocks = []
    for start in range(0, grid.shape[0], rows):
        recon = np.outer(column[start:start + rows], row)
        recon -= grid[start:start + rows]
        blocks.append(np.max(np.abs(recon)))
    residual = float(np.max(blocks))
    if not residual <= NORM_TOL:
        raise NotAProductState(
            f"residual {residual:.3e} after projecting register {register_index}")
    return QState(RegisterLayout((keep,)), remaining.copy())


def dump_amplitudes(state: QState) -> str:
    """Text dump: one line per joint index, 'index re im', 17 significant digits."""
    lines = []
    for i, amp in enumerate(state.amplitudes):
        lines.append(f"{i} {amp.real:.17g} {amp.imag:.17g}")
    return "\n".join(lines) + "\n"


def parse_amplitudes(text: str, layout: RegisterLayout) -> QState:
    """Inverse of dump_amplitudes; validates index coverage and finiteness."""
    amps = np.full(layout.total_dim, np.nan + 0j, dtype=np.complex128)
    filled = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ArtifactMismatch(f"line {lineno}: expected 'index re im', got {line!r}")
        try:
            i = int(parts[0])
            re, im = float(parts[1]), float(parts[2])
        except ValueError:
            raise ArtifactMismatch(f"line {lineno}: unparseable values in {line!r}") from None
        if not 0 <= i < layout.total_dim:
            raise ArtifactMismatch(f"line {lineno}: index {i} out of range")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ArtifactMismatch(f"line {lineno}: non-finite amplitude")
        if not np.isnan(amps[i].real):
            raise ArtifactMismatch(f"line {lineno}: duplicate index {i}")
        amps[i] = complex(re, im)
        filled += 1
    if filled != layout.total_dim:
        raise ArtifactMismatch(
            f"dump holds {filled} amplitudes, layout needs {layout.total_dim}")
    return QState(layout, amps)
