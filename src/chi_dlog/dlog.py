"""The two-register discrete-log procedure over a prepared chi handle.

One run: transform a fresh exponent register out of |0> before it joins the
chi register (m amplitudes, not m**2), divide the chi register by x raised to
that exponent (which only kicks phases back onto the exponent register),
transform back, and read the exponent register. The chi register survives and
the handle carries its post-run state forward, so reuse is observable rather
than assumed. Resource counts are incremented at the operation call sites,
never hand-entered.
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
    measure,
    tensor,
)
from .transforms import div_x_apply, qft_apply

__all__ = [
    "SHOR_EXACT_FOURIER_TRANSFORMS",
    "SHOR_EXACT_REGISTERS",
    "DlogResult",
    "ResourceComparison",
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
    """Per-run operation counts, summable across runs."""
    fourier_count: int = 0
    division_ops: int = 0
    registers_used: int = 0
    measurements: int = 0

    def __add__(self, other: "ResourceLedger") -> "ResourceLedger":
        if not isinstance(other, ResourceLedger):
            return NotImplemented
        return ResourceLedger(
            self.fourier_count + other.fourier_count,
            self.division_ops + other.division_ops,
            self.registers_used + other.registers_used,
            self.measurements + other.measurements,
        )


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


def _check_phase_kickback(m: int, before: np.ndarray, after: np.ndarray,
                           p: int) -> None:
    """The division must multiply each exponent column by its phase, only."""
    grid_before = before.reshape(-1, m)
    grid_after = after.reshape(-1, m)
    phases = np.exp(2j * np.pi * ((p * np.arange(m)) % m) / m)
    drift = float(np.max(np.abs(grid_after - grid_before * phases[np.newaxis, :])))
    if not drift <= 1e-9:
        raise InvariantViolation(f"phase kick-back drifted by {drift:.3e}")


def run_dlog(spec: GroupSpec, chi: ChiHandle, x: int, mode: str = "exhaustive",
             seed=None, verify: bool | None = None) -> DlogResult:
    """Find the exponent of x using one chi handle verified at power 1 mod m.

    Exhaustive mode reads off the exact exponent-register marginal, reports
    the probability mass sitting on the true answer, and collapses onto the
    argmax label. Sampled mode draws one measurement from a seeded generator.
    Either way the post-run chi register replaces the handle's state and is
    checked with ChiHandle.verify. A run whose chi register fails that check,
    or whose exhaustive success mass is not within FIDELITY_TOL of 1, raises
    InvariantViolation; a failed check also clears the handle's verified flag.
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

    # (F x I)(|0> x chi) = F|0> x chi: transform the fresh register alone
    exp_zero = basis_state(RegisterLayout((ExponentRegister(m),)), (0,))
    joint = tensor(qft_apply(exp_zero, 0), chi.state)
    ledger.fourier_count += 1
    ledger.registers_used = len(joint.layout.registers)

    before = joint.amplitudes.copy() if check else None
    joint = div_x_apply(joint, x)
    ledger.division_ops += 1
    if check:
        _check_phase_kickback(m, before, joint.amplitudes, p_true)
    joint = qft_apply(joint, 0, inverse=True)
    ledger.fourier_count += 1

    if mode == "exhaustive":
        marginal = marginal_distribution(joint, 0)
        outcome = collapse(joint, 0, int(np.argmax(marginal)))
        success = float(marginal[p_true])
    else:
        marginal = None
        outcome = measure(joint, 0, seed)
        success = float(outcome.probability)
    ledger.measurements += 1

    chi.state = outcome.post_state
    chi_fid = chi.verify()
    if not chi.verified:
        raise InvariantViolation(f"chi register fidelity fell to {chi_fid:.3e} in the run")
    if mode == "exhaustive" and not abs(success - 1.0) <= FIDELITY_TOL:
        raise InvariantViolation(f"success mass {success:.3e} on the true exponent")
    return DlogResult(x, p_true, outcome.observed, success, chi_fid, ledger, marginal)


def run_dlog_repeated(spec: GroupSpec, chi: ChiHandle, x_list, mode: str = "exhaustive",
                      seed=None, verify: bool | None = None) -> list[DlogResult]:
    """Run the procedure once per x, reusing the same chi handle throughout."""
    rng = np.random.default_rng(seed)
    results = []
    for x in x_list:
        results.append(run_dlog(spec, chi, x, mode=mode, seed=rng, verify=verify))
    return results


@dataclass(frozen=True)
class ResourceComparison:
    """Instrumented counts for this procedure next to the cited baseline."""
    measured: ResourceLedger

    def rows(self) -> list[tuple[str, int, int | None]]:
        return [
            ("registers", self.measured.registers_used, SHOR_EXACT_REGISTERS),
            ("fourier_transforms", self.measured.fourier_count, SHOR_EXACT_FOURIER_TRANSFORMS),
            ("division_ops", self.measured.division_ops, None),
            ("measurements", self.measured.measurements, None),
        ]


def resource_report(spec: GroupSpec) -> ResourceComparison:
    """Measure one run's ledger on this group and pair it with the baseline."""
    handle, _ = prepare_chi(spec, seed=0, mode="exhaustive")
    result = run_dlog(spec, handle, spec.generator, mode="exhaustive")
    return ResourceComparison(measured=result.resources)


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

