"""The two-register discrete-log procedure over a prepared chi handle.

One run: transform a fresh exponent register out of |0> before it joins the
chi register (m amplitudes, not m**2), build the joint state with the chi
register divided by x raised to that exponent (which only kicks phases back
onto the exponent register), transform back, and read the exponent register.
The chi register survives and the handle carries its post-run state forward,
so reuse is observable rather than assumed. Resource counts are incremented at
the operation call sites, never hand-entered.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chi import FIDELITY_TOL, VERIFY_MAX_ORDER, ChiHandle, prepare_chi
from .errors import InvariantViolation, LayoutMismatch, UnverifiedChi
from .group import GroupSpec, dlog_oracle
from .qstate import (
    ExponentRegister,
    QState,
    RegisterLayout,
    basis_state,
    collapse,
    marginal_distribution,
    sample_index,
    _residual,
)
from .transforms import div_x_apply, qft_apply

__all__ = [
    "SHOR_EXACT_FOURIER_TRANSFORMS",
    "SHOR_EXACT_REGISTERS",
    "DlogResult",
    "ResourceLedger",
    "resource_report",
    "result_record",
    "run_dlog",
    "run_dlog_repeated",
]

# cited baseline for the exact-Shor discrete-log circuit; never simulated here
SHOR_EXACT_REGISTERS = 3
SHOR_EXACT_FOURIER_TRANSFORMS = 4


@dataclass
class ResourceLedger:
    """Per-run operation counts."""
    fourier_count: int = 0
    division_ops: int = 0
    registers_used: int = 0
    measurements: int = 0


@dataclass
class DlogResult:
    """Outcome of one run; marginal is kept in exhaustive mode only."""
    input_x: int
    oracle_p: int
    measured_p: int
    success_probability: float
    chi_post_fidelity: float
    resources: ResourceLedger
    marginal: np.ndarray | None = None


def _check_phase_kickback(joint: QState, fresh: np.ndarray, chi: np.ndarray,
                          p: int) -> None:
    """The division must leave the product state with column c kicked by its phase.

    Column c of the grid must equal phase_c * fresh[c] * chi, checked against
    that closed form one row block at a time, so no copy of the state is made.
    """
    m = len(fresh)
    kicked = np.exp(2j * np.pi * ((p * np.arange(m)) % m) / m) * fresh
    drift = _residual(chi, kicked, joint.amplitudes.reshape(-1, m))
    if not drift <= 1e-9:
        raise InvariantViolation(f"phase kick-back drifted by {drift:.3e}")


def run_dlog(spec: GroupSpec, chi: ChiHandle, x: int, mode: str = "exhaustive",
             seed=None, verify: bool | None = None) -> DlogResult:
    """Find the exponent of x using one chi handle verified at power 1 mod m.

    Both modes read the exponent-register marginal and collapse onto one
    index of it. Exhaustive mode takes the argmax and reports the probability
    mass sitting on the true answer; sampled mode draws the index with a
    seeded generator and reports the drawn index's mass.
    Either way the post-run chi register replaces the handle's state and is
    checked with ChiHandle.verify. A run whose chi register fails that check,
    or whose marginal mass on the true exponent is not within FIDELITY_TOL of
    1 (in either mode), raises InvariantViolation; a failed chi check also
    clears the handle's verified flag.
    """
    if mode not in ("sampled", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if not chi.verified or (chi.power - 1) % spec.order != 0:
        raise UnverifiedChi("run_dlog needs a handle verified at power 1")
    if chi.group != spec:
        raise LayoutMismatch("chi handle belongs to a different group")
    spec.index_of(x)
    m = spec.order
    check = (m <= VERIFY_MAX_ORDER) if verify is None else verify
    p_true = dlog_oracle(spec, x)
    ledger = ResourceLedger()

    # (F x I)(|0> x chi) = F|0> x chi: transform the fresh register alone,
    # then build the divided joint state from the two registers
    exp_zero = basis_state(RegisterLayout((ExponentRegister(m),)), (0,))
    fresh = qft_apply(exp_zero)
    ledger.fourier_count += 1
    joint = div_x_apply(fresh, chi.state, x)
    ledger.registers_used = len(joint.layout.registers)
    ledger.division_ops += 1
    if check:
        _check_phase_kickback(joint, fresh.amplitudes, chi.state.amplitudes, p_true)
    joint = qft_apply(joint, inverse=True)
    ledger.fourier_count += 1

    marginal = marginal_distribution(joint)
    true_mass = float(marginal[p_true])
    if mode == "exhaustive":
        outcome = collapse(joint, int(np.argmax(marginal)))
        success = true_mass
    else:
        outcome = collapse(joint, sample_index(marginal, seed))
        success = outcome.probability
        marginal = None
    ledger.measurements += 1

    chi.state = outcome.post_state
    chi_fid = chi.verify()
    if not chi.verified:
        raise InvariantViolation(f"chi register fidelity fell to {chi_fid:.3e} in the run")
    if not abs(true_mass - 1.0) <= FIDELITY_TOL:
        raise InvariantViolation(f"success mass {true_mass:.3e} on the true exponent")
    return DlogResult(x, p_true, outcome.observed, success, chi_fid, ledger, marginal)


def run_dlog_repeated(spec: GroupSpec, chi: ChiHandle, x_list, mode: str = "exhaustive",
                      seed=None, verify: bool | None = None) -> list[DlogResult]:
    """Run the procedure once per x, reusing the same chi handle throughout."""
    rng = np.random.default_rng(seed)
    results = []
    for x in x_list:
        results.append(run_dlog(spec, chi, x, mode=mode, seed=rng, verify=verify))
    return results


def resource_report(spec: GroupSpec) -> list[tuple[str, int, int | None]]:
    """One run's ledger on this group as (resource, count, baseline) rows."""
    handle, _ = prepare_chi(spec, seed=0, mode="exhaustive")
    measured = run_dlog(spec, handle, spec.generator, mode="exhaustive").resources
    return [
        ("registers", measured.registers_used, SHOR_EXACT_REGISTERS),
        ("fourier_transforms", measured.fourier_count, SHOR_EXACT_FOURIER_TRANSFORMS),
        ("division_ops", measured.division_ops, None),
        ("measurements", measured.measurements, None),
    ]


def result_record(spec: GroupSpec, result: DlogResult, seed: int | None) -> dict:
    """One run as a JSON-ready dict; key order is fixed for byte-stable output."""
    return {
        "n": spec.modulus,
        "g": spec.generator,
        "m": spec.order,
        "x": int(result.input_x),
        "p_oracle": int(result.oracle_p),
        "p_measured": int(result.measured_p),
        "success_mass": float(result.success_probability),
        "chi_fidelity": float(result.chi_post_fidelity),
        "fourier_count": int(result.resources.fourier_count),
        "seed": seed,
    }

