"""Acceptance gate: seven end-to-end criteria, one test and one verdict line each.

1. Exhaustive dlog puts mass >= 1 - 1e-9 on the true exponent for every x in
   every cyclic unit group with modulus up to 200.
2. One chi handle survives 100 consecutive runs (n=13, g=2) with every answer
   correct and final fidelity >= 1 - 1e-7.
3. Exhaustive preparation acceptance equals phi(m)/m within 1e-9 for every
   order m <= 100; sampled mean attempts over 1000 seeded runs sits within
   4 sigma of m/phi(m).
4. Dividing a chi pair by alpha shifts the left power by alpha*gamma, checked
   for all (alpha, beta, gamma) with m <= 12 and the copy case for m <= 64,
   fidelity >= 1 - 1e-9 on both registers.
5. Dividing by a known x multiplies each exponent basis state by exactly the
   phase of alpha * log_g(x), amplitude-wise within 1e-9, for m <= 24.
6. One run costs exactly 2 Fourier transforms, 1 division, 1 measurement on
   2 registers; the report table shows 2/2 against the cited 3/4 baseline.
7. Fourier matrices are unitary within 1e-9 up to m = 512, every permutation
   table is a bijection, and the brute-force exponent oracle inverts pow for
   every order m <= 64.
"""

import math

import numpy as np

from chi_dlog.chi import chi_reference, prepare_chi
from chi_dlog.dlog import ResourceLedger, resource_report, run_dlog, run_dlog_repeated
from chi_dlog.group import (
    cyclic_group,
    cyclic_moduli,
    dlog_oracle,
    primitive_root,
    totient,
    validate_group,
)
from chi_dlog.qstate import (
    ExponentRegister,
    RegisterLayout,
    basis_state,
    factor_out,
    fidelity,
)
from chi_dlog.transforms import (
    div_alpha_permutation,
    div_x_apply,
    div_x_permutation,
    fourier_matrix,
    power_oracle_permutation,
)
from chi_dlog.verify import _div_alpha

MASS_TOL = 1e-9
REUSE_TOL = 1e-7
RATE_TOL = 1e-9
FID_TOL = 1e-9
PHASE_TOL = 1e-9
UNITARY_TOL = 1e-9


def test_criterion_1_probability_one_correctness():
    worst_mass = 1.0
    for n in cyclic_moduli(200):
        spec = validate_group(n, primitive_root(n), require_full_group=True)
        handle, _ = prepare_chi(spec, mode="exhaustive")
        for result in run_dlog_repeated(spec, handle, spec.elements):
            assert result.measured_p == result.oracle_p, \
                f"n={n}, x={result.input_x}: got {result.measured_p}, " \
                f"want {result.oracle_p}"
            mass = float(result.marginal[result.oracle_p])
            worst_mass = min(worst_mass, mass)
            assert mass >= 1 - MASS_TOL, f"n={n}, x={result.input_x}: mass {mass}"
    print(f"criterion 1 (probability-one correctness, n <= 200): "
          f"PASS, worst mass {worst_mass:.15f}")


def test_criterion_2_chi_reuse_over_100_runs():
    spec = validate_group(13, 2)
    handle, _ = prepare_chi(spec, seed=0, mode="exhaustive")
    rng = np.random.default_rng(2024)
    for run in range(100):
        x = int(rng.choice(spec.elements))
        results = run_dlog_repeated(spec, handle, [x])
        assert results[0].measured_p == dlog_oracle(spec, x), f"run {run}, x={x}"
    final = handle.verify()
    assert final >= 1 - REUSE_TOL, f"final chi fidelity {final}"
    print(f"criterion 2 (chi reuse, 100 runs at n=13): PASS, "
          f"final fidelity {final:.12f}")


def test_criterion_3_preparation_success_rate():
    worst = 0.0
    for m in range(1, 101):
        spec = cyclic_group(m)
        _, stats = prepare_chi(spec, mode="exhaustive")
        drift = abs(stats.acceptance_probability - totient(m) / m)
        worst = max(worst, drift)
        assert drift <= RATE_TOL, f"m={m}: acceptance off by {drift}"
    for n in (5, 7, 9, 13, 25):  # unit-group backends agree
        spec = validate_group(n, primitive_root(n))
        _, stats = prepare_chi(spec, mode="exhaustive")
        m = spec.order
        assert abs(stats.acceptance_probability - totient(m) / m) <= RATE_TOL

    runs = 1000
    bands = []
    for m in (12, 15):
        spec = cyclic_group(m)
        q = totient(m) / m
        attempts = [prepare_chi(spec, seed=seed)[1].attempts
                    for seed in range(runs)]
        mean = sum(attempts) / runs
        # attempts are geometric with success rate q
        sigma_mean = math.sqrt((1 - q) / q ** 2 / runs)
        dev = abs(mean - 1 / q)
        assert dev <= 4 * sigma_mean, \
            f"m={m}: mean attempts {mean} vs {1 / q} (4 sigma = {4 * sigma_mean})"
        bands.append(f"m={m}: {mean:.3f} vs {1 / q:.3f} +- {4 * sigma_mean:.3f}")
    print(f"criterion 3 (preparation rate): PASS, worst exhaustive drift "
          f"{worst:.2e}; sampled {'; '.join(bands)}")


def power_shift_case(spec, alpha, beta, gamma):
    m = spec.order
    joint = _div_alpha(chi_reference(spec, beta), chi_reference(spec, gamma), alpha)
    left = factor_out(joint, 1, chi_reference(spec, gamma))
    right = factor_out(joint, 0, chi_reference(spec, (beta + alpha * gamma) % m))
    fid_left = fidelity(left, chi_reference(spec, (beta + alpha * gamma) % m))
    fid_right = fidelity(right, chi_reference(spec, gamma))
    return min(fid_left, fid_right)


def test_criterion_4_copy_and_power_identities():
    worst = 1.0
    specs = [cyclic_group(m) for m in range(1, 13)]
    specs += [validate_group(7, 3), validate_group(13, 2)]
    for spec in specs:
        m = spec.order
        for alpha in range(m):
            for beta in range(m):
                for gamma in range(m):
                    fid = power_shift_case(spec, alpha, beta, gamma)
                    worst = min(worst, fid)
                    assert fid >= 1 - FID_TOL, \
                        f"m={m}, alpha={alpha}, beta={beta}, gamma={gamma}: {fid}"
    copy_worst = 1.0
    for m in range(1, 65):
        fid = power_shift_case(cyclic_group(m), 1, 0, 1)
        copy_worst = min(copy_worst, fid)
        assert fid >= 1 - FID_TOL, f"copy case m={m}: {fid}"
    print(f"criterion 4 (copy and power identities): PASS, worst pair fidelity "
          f"{worst:.15f}, worst copy fidelity {copy_worst:.15f}")


def test_criterion_5_phase_kickback():
    worst = 0.0
    specs = [cyclic_group(m) for m in range(1, 25)]
    specs += [validate_group(7, 3), validate_group(13, 2),
              validate_group(23, 5), validate_group(25, 2)]
    for spec in specs:
        m = spec.order
        exp_layout = RegisterLayout((ExponentRegister(m),))
        chi = chi_reference(spec, 1)
        for x in spec.elements:
            p = dlog_oracle(spec, x)
            for alpha in range(m):
                control = basis_state(exp_layout, (alpha,))
                start = np.kron(chi.amplitudes, control.amplitudes)
                after = div_x_apply(control, chi, x)
                phase = np.exp(2j * np.pi * ((alpha * p) % m) / m)
                drift = float(np.max(np.abs(after.amplitudes - phase * start)))
                worst = max(worst, drift)
                assert drift <= PHASE_TOL, f"m={m}, x={x}, alpha={alpha}: {drift}"
    print(f"criterion 5 (phase kick-back, m <= 24): PASS, worst drift {worst:.2e}")


def test_criterion_6_resource_counts():
    spec = validate_group(13, 2)
    handle, _ = prepare_chi(spec, mode="exhaustive")
    result = run_dlog(spec, handle, 6)
    assert result.resources == ResourceLedger(
        fourier_count=2, division_ops=1, registers_used=2, measurements=1)
    rows = resource_report(spec)
    assert rows == [
        ("registers", 2, 3),
        ("fourier_transforms", 2, 4),
        ("division_ops", 1, None),
        ("measurements", 1, None),
    ]
    print("criterion 6 (resource counts): PASS, 2 transforms / 2 registers "
          "vs cited 4 / 3")


def test_criterion_7_unitarity_and_oracle_suites():
    worst_unitary = 0.0
    for m in range(1, 513):
        f = fourier_matrix(m)
        err = float(np.abs(f @ f.conj().T - np.eye(m)).max())
        worst_unitary = max(worst_unitary, err)
        assert err <= UNITARY_TOL, f"m={m}: unitarity error {err}"

    perm_specs = [cyclic_group(m) for m in range(1, 33)]
    perm_specs += [validate_group(5, 2), validate_group(7, 3),
                   validate_group(9, 2), validate_group(13, 2)]
    tables = 0
    for spec in perm_specs:
        m = spec.order
        full = np.arange(m * m)
        candidates = [power_oracle_permutation(spec)]
        candidates += [div_alpha_permutation(spec, a) for a in range(m)]
        candidates += [div_x_permutation(spec, x) for x in spec.elements]
        for table in candidates:
            assert np.array_equal(np.sort(table), full)
            tables += 1

    oracle_specs = [cyclic_group(m) for m in range(1, 65)]
    oracle_specs += [validate_group(7, 2), validate_group(8, 3),
                     validate_group(13, 2), validate_group(49, 3)]
    for spec in oracle_specs:
        y = spec.identity
        for r in range(spec.order):
            assert dlog_oracle(spec, y) == r, f"m={spec.order}, r={r}"
            y = spec.mul(y, spec.generator)
    print(f"criterion 7 (unitarity and oracles): PASS, worst unitarity error "
          f"{worst_unitary:.2e}, {tables} permutation tables checked")
