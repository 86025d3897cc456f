"""The two-register discrete-log procedure over a prepared chi handle.

One run: transform a fresh exponent register out of |0> before it joins the
chi register (m amplitudes, not m**2), build the joint state with the chi
register divided by x raised to that exponent (which only kicks phases back
onto the exponent register), transform back, and read the exponent register.
The division and the inverse transform are one pass over the joint state
(div_x_apply, the package's only division, with qft="inverse"), which also
adds up the exponent register's distribution (marginal=), so the run reads
the joint state no second time; the ledger still counts one division and
two Fourier transforms per run.
The chi register survives and the handle carries its post-run state forward,
so reuse is observable rather than assumed. Every run takes one checked
path: a run is correct exactly when the chi register comes back at fidelity
1 and the exponent register puts mass 1 on the answer, and both are checked
after every run at every order. From m >= 1449 the joint state is written
into the m x m buffer the handle keeps (see ChiHandle), so a run maps no new
state once the handle holds one; the post-run chi register is a copy and
shares no memory with that buffer. Resource counts are incremented at the
operation call sites, never hand-entered.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chi import FIDELITY_TOL, ChiHandle, prepare_chi
from .errors import InvariantViolation, LayoutMismatch, UnverifiedChi
from .group import GroupSpec, dlog_oracle
from .qstate import (
    ExponentRegister,
    RegisterLayout,
    basis_state,
    collapse,
    marginal_distribution,
    sample_index,
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


def run_dlog(spec: GroupSpec, chi: ChiHandle, x: int, mode: str = "exhaustive",
             seed=None) -> DlogResult:
    """Find the exponent of x using one chi handle verified at power 1 mod m.

    Both modes read the exponent-register marginal, which the division adds
    up as it builds the joint state, and collapse onto one index of it.
    Exhaustive mode takes the argmax and reports the probability mass
    sitting on the true answer, marginal_distribution's basis-order sum of
    that one column; sampled mode draws the index with a seeded generator
    and reports the drawn index's mass.
    Either way the post-run chi register replaces the handle's state and is
    checked with ChiHandle.verify. A run whose chi register fails that check,
    or whose marginal mass on the true exponent is not within FIDELITY_TOL of
    1 (in either mode), raises InvariantViolation; a failed chi check also
    clears the handle's verified flag. A NaN or zero-mass outcome raises
    DegenerateNorm in collapse or sample_index.
    """
    if mode not in ("sampled", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if not chi.verified or (chi.power - 1) % spec.order != 0:
        raise UnverifiedChi("run_dlog needs a handle verified at power 1")
    if chi.group != spec:
        raise LayoutMismatch("chi handle belongs to a different group")
    spec.index_of(x)
    m = spec.order
    p_true = dlog_oracle(spec, x)
    ledger = ResourceLedger()

    # (F x I)(|0> x chi) = F|0> x chi: transform the fresh register alone,
    # then build the divided joint state from the two registers
    exp_zero = basis_state(RegisterLayout((ExponentRegister(m),)), (0,))
    fresh = qft_apply(exp_zero)
    ledger.fourier_count += 1
    # the division hands each block of rows to the inverse transform as it
    # builds it and adds the block into the exponent register's marginal:
    # one pass over the joint state, counted as both operations
    marginal = np.empty(m)
    joint = div_x_apply(fresh, chi.state, x, out=chi._workspace(), qft="inverse",
                        marginal=marginal)
    ledger.registers_used = len(joint.layout.registers)
    ledger.division_ops += 1
    ledger.fourier_count += 1

    # the pass adds in walk order; the mass a record prints is read in
    # basis order from the true exponent's column alone
    true_mass = float(marginal_distribution(joint, slice(p_true, p_true + 1))[0])
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
                      seed=None) -> list[DlogResult]:
    """Run the procedure once per x, reusing the same chi handle throughout."""
    rng = np.random.default_rng(seed)
    results = []
    for x in x_list:
        results.append(run_dlog(spec, chi, x, mode=mode, seed=rng))
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

