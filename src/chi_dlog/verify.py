"""Invariant suites behind the CLI verify command.

Each suite sweeps orders up to a caller-set bound and tallies elementary
checks; a failure message names the identity that broke. Every sweep stops at
a fixed order, 64 at most, so no bound runs for long, and any bound past 64
checks what 64 checks. The suites lean on independent constructions
(definition-level formulas, brute-force counts) rather than on the code paths
they are checking.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .chi import (
    FIDELITY_TOL,
    ChiHandle,
    _superposed_round,
    chi_power_from,
    chi_reference,
    load_chi,
    prepare_chi,
)
from .dlog import ResourceLedger, run_dlog
from .errors import ChiDlogError
from .group import (
    GroupSpec,
    cyclic_group,
    cyclic_moduli,
    dlog_oracle,
    mod_inverse,
    multiplicative_order,
    primitive_root,
    validate_group,
)
from .qstate import (
    ExponentRegister,
    GroupRegister,
    QState,
    RegisterLayout,
    fidelity,
)
from .transforms import (
    div_alpha_permutation,
    div_x_apply,
    div_x_permutation,
    fourier_matrix,
    power_oracle_permutation,
    qft_apply,
)

__all__ = ["SuiteResult", "check_chi_file", "run_all_suites"]

TOL = 1e-9


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    @property
    def passed(self) -> bool:
        return not self.failures


def _unit_groups(max_order: int, n_limit: int | None = None) -> list[GroupSpec]:
    """Fully generated unit groups with order up to max_order."""
    limit = n_limit if n_limit is not None else 2 * max_order + 2
    groups = []
    for n in cyclic_moduli(limit):
        g = primitive_root(n)
        spec = validate_group(n, g, require_full_group=True)
        if spec.order <= max_order:
            groups.append(spec)
    return groups


def _table_groups(max_order: int) -> list[GroupSpec]:
    return [cyclic_group(m) for m in range(1, max_order + 1)]


def group_suite(max_m: int) -> SuiteResult:
    res = SuiteResult("group")
    for spec in _unit_groups(min(max_m, 64)) + _table_groups(min(max_m, 64)):
        for x in spec.elements:
            p = dlog_oracle(spec, x)
            res.add(spec.pow(spec.generator, p) == x,
                    f"pow(g, dlog(x)) != x for x={x} in {spec}")
    for spec in _table_groups(min(max_m, 12)) + _unit_groups(min(max_m, 12), n_limit=26):
        e = spec.elements
        for a in e:
            res.add(spec.mul(a, spec.inverse(a)) == spec.identity,
                    f"a * a^-1 != identity for a={a} in {spec}")
            for b in e:
                res.add(spec.mul(a, b) == spec.mul(b, a),
                        f"commutativity broke at ({a},{b}) in {spec}")
                for c in e:
                    res.add(spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c)),
                            f"associativity broke at ({a},{b},{c}) in {spec}")
    for n in range(2, min(max_m, 40) + 1):
        for g in range(1, n):
            if gcd(g, n) != 1:
                continue
            k, x = 1, g
            while x != 1:
                x = x * g % n
                k += 1
            res.add(multiplicative_order(g, n) == k,
                    f"order of {g} mod {n} disagrees with the linear scan ({k})")
    for m in range(1, min(max_m, 64) + 1):
        for s in range(m):
            if gcd(s, m) != 1:
                continue
            inv = mod_inverse(s, m)
            res.add(s * inv % m == 1 % m, f"mod_inverse({s}, {m}) = {inv} fails")
    return res


def fourier_suite(max_m: int) -> SuiteResult:
    res = SuiteResult("fourier")
    for m in range(1, min(max_m, 64) + 1):
        f = fourier_matrix(m)
        err = float(np.max(np.abs(f @ f.conj().T - np.eye(m))))
        res.add(err <= TOL, f"F({m}) unitarity error {err:.3e}")
        back = float(np.max(np.abs(fourier_matrix(m, inverse=True) - f.conj().T)))
        res.add(back <= 1e-15, f"inverse F({m}) is not the conjugate transpose")
    for m in range(1, min(max_m, 32) + 1):
        f = fourier_matrix(m)
        finv = fourier_matrix(m, inverse=True)
        layout = RegisterLayout((ExponentRegister(m),))
        for x in range(m):
            v = np.zeros(m, dtype=np.complex128)
            v[x] = 1.0
            err = float(np.max(np.abs(finv @ (f @ v) - v)))
            res.add(err <= TOL, f"F then F^-1 moved basis state {x} of {m} by {err:.3e}")
            # the FFT that runs the simulation against the dense oracle
            fwd = qft_apply(QState(layout, v.copy()))
            err = float(np.max(np.abs(fwd.amplitudes - f @ v)))
            res.add(err <= TOL, f"FFT differs from F on basis state {x} of {m} by {err:.3e}")
            back = qft_apply(fwd, inverse=True).amplitudes
            err = float(np.max(np.abs(back - v)))
            res.add(err <= TOL, f"FFT round trip moved basis state {x} of {m} by {err:.3e}")
    return res


def _random_state(layout: RegisterLayout, seed: int) -> QState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return QState(layout, amps / np.linalg.norm(amps))


def _relabel(state: QState, table: np.ndarray) -> QState:
    """Move each amplitude to its table image: new[table[i]] = old[i].

    An index no entry reaches stays NaN, so a table that is not a bijection
    never matches an operator's output.
    """
    new = np.full_like(state.amplitudes, np.nan)
    new[table] = state.amplitudes
    return QState(state.layout, new)


def _div_alpha(a: QState, b: QState, alpha: int) -> QState:
    """|x, y> -> |x, y * x**-alpha> on a (group, group) pair, as the preparation divides.

    The left register is written over exponents, k for g**k, and divided by
    div_x_apply with g**alpha; the joint state's columns then go back to the
    group's basis.
    """
    spec = b.layout.registers[0].group
    m = spec.order
    powers = QState(RegisterLayout((ExponentRegister(m),)), a.amplitudes[spec.power_indices])
    joint = div_x_apply(powers, b, spec.pow(spec.generator, alpha))
    grid = np.empty((m, m), dtype=np.complex128)
    grid[:, spec.power_indices] = joint.amplitudes.reshape(m, m)
    return QState(RegisterLayout(a.layout.registers + b.layout.registers), grid.ravel())


def _product(a: QState, b: QState) -> QState:
    """a x b as one joint state, built by np.kron as the oracle input."""
    layout = RegisterLayout(a.layout.registers + b.layout.registers)
    return QState(layout, np.kron(b.amplitudes, a.amplitudes))


def division_suite(max_m: int) -> SuiteResult:
    res = SuiteResult("division")
    for spec in _table_groups(min(max_m, 16)) + _unit_groups(min(max_m, 16), n_limit=20):
        m = spec.order
        ident = np.arange(m * m)
        group = RegisterLayout((GroupRegister(spec),))
        exponent = RegisterLayout((ExponentRegister(m),))
        # generic product inputs: every product of amplitudes is distinct, so
        # an exact match pins where each basis pair goes
        left, right = _random_state(group, m), _random_state(group, m + 1)
        fresh = _random_state(exponent, m + 2)
        pair, run = _product(left, right), _product(fresh, right)
        # the power oracle is the division by g**-1
        want = _relabel(run, power_oracle_permutation(spec))
        powers = div_x_apply(fresh, right, spec.inverse(spec.generator))
        res.add(bool(np.array_equal(powers.amplitudes, want.amplitudes)),
                f"power oracle disagrees with its table at m={m}")
        for x in spec.elements:
            want = _relabel(run, div_x_permutation(spec, x))
            res.add(bool(np.array_equal(div_x_apply(fresh, right, x).amplitudes,
                                        want.amplitudes)),
                    f"D_x disagrees with its table at m={m}, x={x}")
        for alpha in range(m):
            want = _relabel(pair, div_alpha_permutation(spec, alpha))
            res.add(bool(np.array_equal(_div_alpha(left, right, alpha).amplitudes,
                                        want.amplitudes)),
                    f"division by x^{alpha} disagrees with its table at m={m}")
            t = div_alpha_permutation(spec, alpha)
            t_neg = div_alpha_permutation(spec, -alpha % m)
            res.add(bool(np.array_equal(t_neg[t], ident)),
                    f"divide by x^{alpha} then x^-{alpha} is not identity at m={m}")
            for beta in range(m):
                lhs = div_alpha_permutation(spec, beta)[t]
                rhs = div_alpha_permutation(spec, (alpha + beta) % m)
                res.add(bool(np.array_equal(lhs, rhs)),
                        f"division composition broke at m={m}, alpha={alpha}, beta={beta}")
    for spec in _table_groups(min(max_m, 12)):
        m = spec.order
        ident = np.arange(m * m)
        # negating the exponent register between applications must undo D_x
        i1, i0 = np.divmod(np.arange(m * m), m)
        negate = (-i0 % m) + m * i1
        for x in spec.elements:
            t = div_x_permutation(spec, x)
            twice = negate[t[negate[t]]]
            res.add(bool(np.array_equal(twice, ident)),
                    f"D_x undo identity broke at m={m}, x={x}")
        res.add(bool(np.array_equal(np.sort(power_oracle_permutation(spec)), ident)),
                f"power oracle table is not bijective at m={m}")
    return res


def kickback_suite(max_m: int) -> SuiteResult:
    res = SuiteResult("kickback")
    bound = min(max_m, 24)
    for spec in _table_groups(bound) + _unit_groups(bound):
        m = spec.order
        # the uniform exponent register and chi, built from definitions
        uniform = np.full(m, 1 / np.sqrt(m), dtype=np.complex128)
        fresh = QState(RegisterLayout((ExponentRegister(m),)), uniform)
        chi = chi_reference(spec, 1)
        for x in spec.elements:
            p = dlog_oracle(spec, x)
            phases = np.exp(2j * np.pi * ((p * np.arange(m)) % m) / m)
            expected = np.kron(chi.amplitudes, uniform * phases)
            got = div_x_apply(fresh, chi, x).amplitudes
            err = float(np.max(np.abs(got - expected)))
            res.add(err <= TOL,
                    f"kick-back drifted {err:.3e} for x={x} (p={p}) at m={m}")
    return res


def chi_suite(max_m: int) -> SuiteResult:
    res = SuiteResult("chi")
    for spec in _table_groups(min(max_m, 24)):
        m = spec.order
        refs = [chi_reference(spec, a).amplitudes for a in range(m)]
        for a in range(m):
            for b in range(m):
                ip = abs(np.vdot(refs[a], refs[b]))
                want = 1.0 if a == b else 0.0
                res.add(abs(ip - want) <= TOL,
                        f"chi orthogonality broke at m={m}, powers ({a},{b})")
    for spec in _table_groups(min(max_m, 24)) + _unit_groups(min(max_m, 24)):
        # the round prepare_chi measures: column s must hold chi_s/sqrt(m)
        m = spec.order
        grid = _superposed_round(spec).amplitudes.reshape(m, m)
        for s in range(m):
            drift = float(np.max(np.abs(grid[:, s] - chi_reference(spec, s).amplitudes
                                        / np.sqrt(m))))
            res.add(drift <= TOL,
                    f"pre-measurement column {s} drifted {drift:.3e} from its chi "
                    f"state in {spec}")
    for m in range(1, min(max_m, 64) + 1):
        spec = cyclic_group(m)
        _, stats = prepare_chi(spec, mode="exhaustive")
        target = sum(1 for s in range(m) if gcd(s, m) == 1) / m
        got = stats.acceptance_probability
        res.add(abs(got - target) <= TOL,
                f"acceptance probability {got} != coprime fraction {target} at m={m}")
    for spec in _table_groups(min(max_m, 8)):
        m = spec.order
        for gamma in range(m):
            source = ChiHandle(power=gamma, state=chi_reference(spec, gamma))
            source.verify()
            for alpha in range(m):
                for beta in range(m):
                    out = chi_power_from(spec, source, alpha, start_power=beta)
                    fid = fidelity(out.state,
                                   chi_reference(spec, (beta + alpha * gamma) % m))
                    res.add(fid >= 1 - TOL,
                            f"power mapping broke at m={m}, a={alpha}, b={beta}, c={gamma}")
    return res


def dlog_suite(max_m: int) -> SuiteResult:
    res = SuiteResult("dlog")
    pairs: list[GroupSpec] = list(_table_groups(min(max_m, 16)))
    for n in range(2, min(max_m, 32) + 1):
        for g in range(1, n):
            if gcd(g, n) == 1:
                pairs.append(validate_group(n, g))
    for spec in pairs:
        handle, _ = prepare_chi(spec, mode="exhaustive")
        for x in spec.elements:
            result = run_dlog(spec, handle, x, mode="exhaustive")
            res.add(result.success_probability >= 1 - TOL,
                    f"success mass {result.success_probability} on x={x} in {spec}")
            res.add(result.measured_p == result.oracle_p,
                    f"measured {result.measured_p} != oracle {result.oracle_p} in {spec}")
            res.add(result.resources == ResourceLedger(2, 1, 2, 1),
                    f"ledger {result.resources} off for x={x} in {spec}")
        res.add(handle.verify() >= 1 - 1e-7,
                f"chi fidelity decayed after the sweep over {spec}")
    return res


def run_all_suites(max_m: int) -> list[SuiteResult]:
    if max_m < 1:
        raise ValueError("max-m must be at least 1")
    return [
        group_suite(max_m),
        fourier_suite(max_m),
        division_suite(max_m),
        kickback_suite(max_m),
        chi_suite(max_m),
        dlog_suite(max_m),
    ]


def check_chi_file(path) -> SuiteResult:
    """Validate a serialized chi register against its reference state."""
    res = SuiteResult("chi-file")
    try:
        spec, handle = load_chi(path)
    except ChiDlogError as exc:
        res.add(False, f"unreadable chi file: {exc}")
        return res
    norm = handle.state.norm()
    # the bound ChiHandle.verify applies, so this check and dlog --chi agree
    res.add(abs(norm ** 2 - 1.0) <= FIDELITY_TOL,
            f"chi norm {norm} is off unity (|norm^2 - 1| > {FIDELITY_TOL})")
    if norm > 0:
        # compare shapes even when the scale is off, so distortion is
        # reported as a fidelity failure rather than hidden behind the norm
        handle.state = QState(handle.state.layout, handle.state.amplitudes / norm)
    fid = handle.verify()
    res.add(handle.verified,
            f"chi fidelity {fid} against the power-{handle.power} reference "
            f"is below {1 - FIDELITY_TOL}")
    return res
