"""Construction, preparation, powering, and serialization of chi states.

A chi state of power a over a cyclic group of order m puts amplitude
exp(2*pi*i*a*r/m)/sqrt(m) on the basis element g**r. Power 0 is the uniform
superposition. Preparation runs the five-step protocol: superpose exponents,
load powers of g, transform the exponent register again, measure it, and
retry until the observed value is coprime to m; a final division by the
measured value's inverse converts the surviving state to power 1.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ArtifactMismatch,
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
from .transforms import div_alpha_apply, power_oracle_apply, qft_apply

__all__ = [
    "FIDELITY_TOL",
    "VERIFY_MAX_ORDER",
    "ChiHandle",
    "PrepStats",
    "chi_power_from",
    "chi_reference",
    "load_chi",
    "prepare_chi",
    "save_chi",
]

FIDELITY_TOL = 1e-9
VERIFY_MAX_ORDER = 64  # structural checks default on up to this order


def chi_reference(spec: GroupSpec, power: int) -> QState:
    """Reference chi state built directly from its definition."""
    m = spec.order
    amps = np.empty(m, dtype=np.complex128)
    amps[spec.power_indices] = np.exp(2j * np.pi * ((power % m) * np.arange(m) % m) / m)
    amps /= np.sqrt(m)
    return QState(RegisterLayout((GroupRegister(spec),)), amps)


@dataclass
class ChiHandle:
    """A chi register with its claimed power; reused and mutated across runs."""
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


def _check_superposed_structure(spec: GroupSpec, state: QState) -> None:
    """Check that every exponent column holds that power's chi state, scaled."""
    m = spec.order
    grid = state.amplitudes.reshape(m, m)  # [group index, exponent label]
    scale = 1.0 / np.sqrt(m)
    for s in range(m):
        ref = chi_reference(spec, s).amplitudes * scale
        drift = float(np.max(np.abs(grid[:, s] - ref)))
        if not drift <= FIDELITY_TOL:
            raise InvariantViolation(
                f"pre-measurement column {s} drifted {drift:.3e} from its chi state")


def prepare_chi(spec: GroupSpec, seed=None, mode: str = "sampled",
                verify: bool | None = None,
                max_attempts: int = 10_000) -> tuple[ChiHandle, PrepStats]:
    """Prepare a verified power-1 chi state for the group.

    The round before the measurement is simulated once per call. Sampled
    mode draws the measured value from its distribution with a seeded
    generator, redrawing while the value shares a factor with the order, and
    collapses only the accepted draw. Exhaustive mode instead
    reports the exact acceptance probability of the coprimality test and
    collapses deterministically onto the smallest coprime value, so it always
    finishes in one attempt. Returns the handle and the attempt statistics.
    """
    if mode not in ("sampled", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    m = spec.order
    check = (m <= VERIFY_MAX_ORDER) if verify is None else verify

    # round: superpose exponents, load powers, transform again. The fresh
    # exponent register is transformed before it joins the group register, so
    # the first transform touches m amplitudes. A device reruns the round on
    # every attempt, but the simulated unitary and its input are fixed, so
    # every attempt draws from this one distribution
    exp_zero = basis_state(RegisterLayout((ExponentRegister(m),)), (0,))
    identity = basis_state(RegisterLayout((GroupRegister(spec),)), (spec.identity,))
    state = qft_apply(power_oracle_apply(qft_apply(exp_zero), identity))
    if check:
        _check_superposed_structure(spec, state)
    probs = marginal_distribution(state)

    acceptance = None
    if mode == "exhaustive":
        acceptance = float(sum(probs[s] for s in range(m) if gcd(s, m) == 1))
        observed = [next(s for s in range(m) if gcd(s, m) == 1)]
    else:
        rng = np.random.default_rng(seed)
        observed = []
        for _ in range(max_attempts):
            observed.append(sample_index(probs, rng))
            if gcd(observed[-1], m) == 1:
                break
        else:
            raise RetryLimitExceeded(
                f"no coprime measurement within {max_attempts} attempts for order {m}")
    success = observed[-1]
    survivor = collapse(state, success).post_state
    # the uniform register is built first, so only the division's O(m) scratch
    # is allocated between freeing the round's m x m buffer and building the
    # joint state, which can then reuse it (otherwise peak RSS can hold a
    # second state, as at m = 1008)
    uniform = chi_reference(spec, 0)
    del state

    if gcd(success, m) != 1:
        raise InvariantViolation(f"accepted s={success} shares a factor with m={m}")
    # the measurement left the chi register of power s alone: pair it with a
    # uniform chi register and divide down to power 1
    joint = div_alpha_apply(uniform, survivor, mod_inverse(success, m))
    chi_state = factor_out(joint, 1, chi_reference(spec, success))

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
    joint = div_alpha_apply(chi_reference(spec, start_power), source.state, alpha)
    new_state = factor_out(joint, 1, source.state)
    untouched = factor_out(joint, 0, chi_reference(spec, new_power))
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
    head, _, body = text.partition("\n")
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
    state = parse_amplitudes(body, RegisterLayout((GroupRegister(spec),)))
    return spec, ChiHandle(power=power, state=state, verified=False)
