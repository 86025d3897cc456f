"""Construction, preparation, powering, and serialization of chi states.

A chi state of power a over a cyclic group of order m puts amplitude
exp(2*pi*i*a*r/m)/sqrt(m) on the basis element g**r. Power 0 is the uniform
superposition. Preparation runs the five-step protocol: superpose exponents,
load powers of g, transform the exponent register again, measure it, and
retry until the observed value is coprime to m; a final division by the
measured value's inverse converts the surviving state to power 1.

Every division here is the run's own operator, div_x_apply, the package's
only division and its only operator that joins two registers. The round loads
the powers of g with x = g**-1 and, in the same pass, keeps the coprime
columns alone, the only ones a preparation ever collapses, and in sampled
mode adds up the whole distribution its draw reads.
The conversion, and chi_power_from, divide by a group register holding g**k
raised to alpha: that is dividing by (g**alpha)**k, controlled on the
exponent k, so their left register is the chi state written over exponents
(_chi_exponents) and comes back to the group's basis in one O(m) scatter
through power_indices (_over_group). The conversion's joint state is only
split by factor_out, which builds its rows a block at a time along the
division's walk and reads them in that order (transforms._division_rows),
so it is never held whole:
every preparation peaks at its round's coprime columns, 16 * m * phi(m)
bytes, plus a pass's fixed scratch.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ArtifactMismatch,
    DegenerateNorm,
    InvariantViolation,
    NotCoprime,
    RetryLimitExceeded,
    UnverifiedChi,
)
from .group import GroupSpec, gcd, mod_inverse, validate_group
from .qstate import (
    ExponentRegister,
    GroupRegister,
    QState,
    RegisterLayout,
    basis_state,
    collapse,
    dump_amplitudes,
    factor_out,
    fidelity,
    marginal_distribution,
    parse_amplitudes,
    sample_index,
)
from .transforms import _division_rows, div_x_apply, qft_apply

__all__ = [
    "FIDELITY_TOL",
    "ChiHandle",
    "PrepStats",
    "chi_power_from",
    "chi_reference",
    "load_chi",
    "prepare_chi",
    "save_chi",
]

FIDELITY_TOL = 1e-9


def _chi_exponents(spec: GroupSpec, power: int) -> QState:
    """The chi state of a power written over exponents: position r holds g**r's amplitude."""
    m = spec.order
    amps = np.exp(2j * np.pi * ((power % m) * np.arange(m) % m) / m) / np.sqrt(m)
    return QState(RegisterLayout((ExponentRegister(m),)), amps)


def _over_group(spec: GroupSpec, state: QState) -> QState:
    """A register written over exponents moved to the group's basis: r goes to g**r."""
    amps = np.empty(spec.order, dtype=np.complex128)
    amps[spec.power_indices] = state.amplitudes
    return QState(RegisterLayout((GroupRegister(spec),)), amps)


def chi_reference(spec: GroupSpec, power: int) -> QState:
    """Reference chi state built directly from its definition."""
    return _over_group(spec, _chi_exponents(spec, power))


@dataclass
class ChiHandle:
    """A chi register with its claimed power; reused and mutated across runs.

    A handle holds the register's m amplitudes and nothing else: a run keeps
    one column of its joint state, and a preparation frees its own when it
    returns, so a live handle holds no m x m state.
    """
    power: int
    state: QState
    verified: bool = False

    @property
    def group(self) -> GroupSpec:
        return self.state.layout.registers[0].group

    def verify(self) -> float:
        """Fidelity against the reference state; sets the verified flag.

        Verified also needs the squared norm within FIDELITY_TOL of 1.
        """
        fid = fidelity(self.state, chi_reference(self.group, self.power))
        self.verified = (fid >= 1.0 - FIDELITY_TOL
                         and abs(self.state.norm() ** 2 - 1.0) <= FIDELITY_TOL)
        return fid


@dataclass
class PrepStats:
    """Preparation telemetry: one entry in observed_s per attempt."""
    attempts: int
    observed_s: list[int] = field(default_factory=list)
    success_s: int = 0
    acceptance_probability: float | None = None


def _superposed_round(spec: GroupSpec, marginal=None, keep=None) -> QState:
    """The state a preparation measures: exponent column s holds chi_s/sqrt(m).

    Superpose exponents, load powers of g, transform again. The powers are
    loaded by the run's own division, div_x_apply with x = g**-1, so the
    power oracle is no second operator, and that division makes the second
    transform as it builds the joint state, block by block in one pass, and
    in the same pass fills marginal, if one is given, with the distribution
    the measurement draws from, or keeps the columns keep names alone. The
    fresh exponent register is transformed before it joins the group
    register, so the first transform touches m amplitudes. A device reruns
    the round on every attempt, but the simulated unitary and its input are
    fixed, so every attempt draws from this one distribution.
    """
    exp_zero = basis_state(RegisterLayout((ExponentRegister(spec.order),)), (0,))
    identity = basis_state(RegisterLayout((GroupRegister(spec),)), (spec.identity,))
    # dividing by (g**-1)**r is multiplying by g**r
    return div_x_apply(qft_apply(exp_zero), identity, spec.inverse(spec.generator),
                       qft="forward", marginal=marginal, keep=keep)


def prepare_chi(spec: GroupSpec, seed=None, mode: str = "sampled",
                max_attempts: int = 10_000) -> tuple[ChiHandle, PrepStats]:
    """Prepare a verified power-1 chi state for the group.

    The round before the measurement is simulated once per call, and in
    either mode it keeps the coprime columns alone, 16 * m * phi(m) bytes:
    only a coprime value is ever collapsed. In sampled mode its division
    also adds up the whole distribution of the measured value, which is
    drawn from with a seeded generator, redrawn while the value shares a
    factor with the order; only the accepted draw is collapsed. A seed numpy
    refuses is refused before the round. Exhaustive mode instead reports the
    exact acceptance probability of the coprimality test, marginal_distribution's
    basis-order sum of the kept columns, and collapses deterministically onto
    the smallest coprime value, so it always finishes in one attempt. The
    conversion after the measurement is never held whole: factor_out builds
    its rows a block at a time along the division's walk and adds them in
    that order (transforms._division_rows), so every preparation peaks at
    its round's coprime columns plus a pass's fixed scratch. Returns the
    handle and the attempt statistics.

    A wrong round is refused by the checks every preparation makes:
    collapse and sample_index (DegenerateNorm), the retry cap
    (RetryLimitExceeded), factor_out's product residual (NotAProductState)
    and the handle's fidelity gate (InvariantViolation).
    """
    if mode not in ("sampled", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    m = spec.order
    # only a coprime column is ever collapsed, so the round keeps those alone:
    # kept column i holds exponent coprime[i]
    coprime = [s for s in range(m) if gcd(s, m) == 1]
    acceptance = None
    if mode == "exhaustive":
        state = _superposed_round(spec, keep=coprime)
        # each kept column is added in basis order, then the columns in the
        # order of s
        acceptance = float(sum(marginal_distribution(state)))
        observed = coprime[:1]
    else:
        # a bad seed is refused before the round
        rng = np.random.default_rng(seed)
        probs = np.empty(m)
        state = _superposed_round(spec, probs, keep=coprime)
        observed = []
        for _ in range(max_attempts):
            observed.append(sample_index(probs, rng))
            if gcd(observed[-1], m) == 1:
                break
        else:
            raise RetryLimitExceeded(
                f"no coprime measurement within {max_attempts} attempts for order {m}")
    success = observed[-1]
    if gcd(success, m) != 1:
        raise InvariantViolation(f"accepted s={success} shares a factor with m={m}")
    column = coprime.index(success)
    try:
        survivor = collapse(state, column).post_state
    except DegenerateNorm as exc:
        # the message names the measured exponent, not the column it was kept in
        raise DegenerateNorm(str(exc).replace(f"index {column} ", f"index {success} ", 1)) \
            from None
    # collapse copied the survivor out, so the round's buffer goes before the
    # conversion. The measurement left the chi register of power s alone. A
    # uniform chi register written over exponents, k for g**k, divides it by
    # (g**k)**(s**-1), which kicks power 1 back onto that register; s**-1 is
    # coprime to m, so that divisor generates the group
    del state
    joint = _division_rows(_chi_exponents(spec, 0), survivor,
                           spec.pow(spec.generator, mod_inverse(success, m)))
    chi_state = _over_group(spec, factor_out(joint, 1, chi_reference(spec, success)))

    handle = ChiHandle(power=1, state=chi_state)
    fid = handle.verify()
    if not handle.verified:
        raise InvariantViolation(
            f"prepared state fidelity {fid} below {1 - FIDELITY_TOL}")
    stats = PrepStats(attempts=len(observed), observed_s=observed, success_s=success,
                      acceptance_probability=acceptance)
    return handle, stats


def chi_power_from(spec: GroupSpec, source: ChiHandle, alpha: int,
                   start_power: int = 0) -> ChiHandle:
    """Raise a chi state into a fresh register without consuming the source.

    Puts a chi state of start_power (default: uniform) on a new left register,
    divides it by the source register raised to alpha, and splits the pair
    back apart. The left register comes out at power start_power + alpha *
    source.power and the source register is checked to be unchanged.
    """
    if not source.verified:
        raise UnverifiedChi("source handle must be verified before powering")
    m = spec.order
    new_power = (start_power + alpha * source.power) % m
    joint = div_x_apply(_chi_exponents(spec, start_power), source.state,
                        spec.pow(spec.generator, alpha))
    new_state = _over_group(spec, factor_out(joint, 1, source.state))
    untouched = factor_out(joint, 0, _chi_exponents(spec, new_power))
    drift = fidelity(untouched, source.state)
    if not drift >= 1.0 - FIDELITY_TOL:
        raise InvariantViolation(f"source register drifted to fidelity {drift}")
    handle = ChiHandle(power=new_power, state=new_state)
    handle.verify()
    return handle


_HEADER = re.compile(r"^chi m=(\d+) power=(\d+) n=(\d+) g=(\d+)$")


def save_chi(handle: ChiHandle, path) -> None:
    """Write a chi register to a text file: one header line, then amplitudes."""
    spec = handle.group
    if spec.modulus is None:
        raise ValueError("only modulus-backed groups serialize to chi files")
    header = (f"chi m={spec.order} power={handle.power % spec.order} "
              f"n={spec.modulus} g={spec.generator}\n")
    Path(path).write_text(header + dump_amplitudes(handle.state))


def load_chi(path) -> tuple[GroupSpec, ChiHandle]:
    """Read a chi file back; the caller decides whether to verify the handle.

    A file that cannot be read as text, or whose header names no valid group,
    raises ArtifactMismatch naming the path.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ArtifactMismatch(f"cannot read chi file {path}: {exc}") from None
    head = text.partition("\n")[0]
    match = _HEADER.match(head.strip())
    if match is None:
        raise ArtifactMismatch(f"bad chi header: {head!r}")
    m, power, n, g = (int(v) for v in match.groups())
    if power >= m:
        raise ArtifactMismatch(f"header power {power} is not a residue mod the order {m}")
    try:
        spec = validate_group(n, g)
    except (ValueError, NotCoprime) as exc:
        raise ArtifactMismatch(f"chi file {path} names an invalid group: {exc}") from None
    if spec.order != m:
        raise ArtifactMismatch(
            f"header claims order {m}, but {g} has order {spec.order} mod {n}")
    # the parser skips blank lines, so the header's line goes in blank and a
    # refused amplitude is named by its line in the file
    state = parse_amplitudes(text[len(head):], RegisterLayout((GroupRegister(spec),)))
    return spec, ChiHandle(power=power, state=state, verified=False)
