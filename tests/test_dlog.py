"""The discrete log procedure, its ledger, and the result record format."""

import hashlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import chi_dlog
from chi_dlog import chi, dlog, transforms
from chi_dlog.chi import ChiHandle, chi_power_from, chi_reference, prepare_chi
from chi_dlog.cli import main
from chi_dlog.dlog import (
    SHOR_EXACT_FOURIER_TRANSFORMS,
    SHOR_EXACT_REGISTERS,
    DlogResult,
    ResourceLedger,
    resource_report,
    result_record,
    run_dlog,
    run_dlog_repeated,
)
from chi_dlog.errors import (
    DegenerateNorm,
    InvariantViolation,
    LayoutMismatch,
    NotAProductState,
    NotInGroup,
    RetryLimitExceeded,
    UnverifiedChi,
)
from chi_dlog.group import GroupSpec, dlog_oracle, validate_group
from chi_dlog.qstate import QState, marginal_distribution
from chi_dlog.transforms import div_x_apply

# the order-3 subgroup modulo the prime 2**40 - 585, the largest modulus class
# the validator accepts; products of labels reach 2**80
P40 = 1099511627191
G40 = pow(2, (P40 - 1) // 3, P40)

Z5 = validate_group(5, 2)
Z7 = validate_group(7, 3)
Z13 = validate_group(13, 2)


def fresh_chi(spec):
    handle, _ = prepare_chi(spec, mode="exhaustive")
    return handle


def test_run_dlog_known_case():
    result = run_dlog(Z7, fresh_chi(Z7), 2)
    assert result.oracle_p == 2
    assert result.measured_p == 2
    assert result.success_probability >= 1 - 1e-9
    assert result.chi_post_fidelity >= 1 - 1e-9
    assert result.resources == ResourceLedger(
        fourier_count=2, division_ops=1, registers_used=2, measurements=1)
    assert result.marginal is not None
    assert result.marginal.shape == (6,)
    assert result.marginal.sum() == pytest.approx(1.0, abs=1e-9)


def test_run_dlog_identity_input():
    result = run_dlog(Z7, fresh_chi(Z7), 1)
    assert result.measured_p == 0


def test_run_dlog_sweep_matches_oracle():
    handle = fresh_chi(Z5)
    for x in Z5.elements:
        result = run_dlog(Z5, handle, x)
        assert result.measured_p == dlog_oracle(Z5, x)
        assert result.success_probability >= 1 - 1e-9


def test_run_dlog_sampled_mode():
    a = run_dlog(Z7, fresh_chi(Z7), 5, mode="sampled", seed=3)
    b = run_dlog(Z7, fresh_chi(Z7), 5, mode="sampled", seed=3)
    assert a.measured_p == b.measured_p == dlog_oracle(Z7, 5)
    assert a.success_probability == pytest.approx(1.0, abs=1e-9)
    assert a.marginal is None
    assert np.array_equal(a.chi_post_fidelity, b.chi_post_fidelity)


@pytest.mark.parametrize("n, g", [(1019, 2), (2003, 5)])
def test_an_exhaustive_run_reports_the_mass_summed_in_basis_order(monkeypatch, n, g):
    # the run reads its marginal from the division's pass, which adds in walk
    # order; the mass it reports is the true exponent's column added in basis
    # order, so it has the bits marginal_distribution gives that column
    spec = validate_group(n, g)
    handle = fresh_chi(spec)
    joints = []

    def kept(*args, **kwargs):
        joints.append(div_x_apply(*args, **kwargs))
        return joints[-1]
    monkeypatch.setattr(dlog, "div_x_apply", kept)
    for x in (spec.generator, 3, spec.pow(g, spec.order // 2 + 1)):
        result = run_dlog(spec, handle, x)
        basis_order = marginal_distribution(joints[-1])
        assert result.success_probability == basis_order[result.oracle_p]
        assert np.abs(result.marginal - basis_order).max() <= spec.order * 2.0 ** -52


def test_dlog_stdout_at_m_2002_is_pinned(capsys):
    # the golden recordings stop at m = 1018 and hold floats only within
    # their tolerance; these are the bytes recorded before the run's
    # marginal moved into its division
    argv = ["dlog", "--n", "2003", "--g", "5", "--x-count", "3", "--prepare",
            "--mode", "exhaustive"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "9afc7c4321fc2b8ff33c1bf0e5ca1b372c1db686d63e9ccb7d206ddcbba3a7ea"


def test_run_dlog_replaces_handle_state():
    handle = fresh_chi(Z7)
    before = handle.state
    run_dlog(Z7, handle, 3)
    assert handle.state is not before
    assert handle.power == 1


def test_run_dlog_rejects_bad_handles():
    stale = ChiHandle(power=1, state=chi_reference(Z7, 1), verified=False)
    with pytest.raises(UnverifiedChi):
        run_dlog(Z7, stale, 2)
    wrong_power = ChiHandle(power=2, state=chi_reference(Z7, 2))
    wrong_power.verify()
    with pytest.raises(UnverifiedChi):
        run_dlog(Z7, wrong_power, 2)
    with pytest.raises(LayoutMismatch):
        run_dlog(Z7, fresh_chi(Z5), 2)
    with pytest.raises(NotInGroup):
        run_dlog(Z7, fresh_chi(Z7), 0)
    with pytest.raises(ValueError):
        run_dlog(Z7, fresh_chi(Z7), 2, mode="bogus")


def test_run_dlog_repeated_reuses_one_handle():
    handle = fresh_chi(Z13)
    rng = np.random.default_rng(0)
    xs = [int(v) for v in rng.choice(Z13.elements, size=25)]
    results = run_dlog_repeated(Z13, handle, xs)
    assert [r.measured_p for r in results] == [dlog_oracle(Z13, x) for x in xs]
    assert handle.verify() >= 1 - 1e-7
    assert len(results) == 25
    assert all(r.resources == ResourceLedger(2, 1, 2, 1) for r in results)


def test_run_dlog_repeated_empty_list():
    handle = fresh_chi(Z7)
    before = handle.state.amplitudes.copy()
    assert run_dlog_repeated(Z7, handle, []) == []
    assert np.array_equal(handle.state.amplitudes, before)


def test_run_dlog_repeated_sampled_determinism():
    xs = list(Z7.elements)
    runs = []
    for _ in range(2):
        handle = fresh_chi(Z7)
        runs.append(run_dlog_repeated(Z7, handle, xs, mode="sampled", seed=11))
    assert [r.measured_p for r in runs[0]] == [r.measured_p for r in runs[1]]
    assert [r.success_probability for r in runs[0]] == \
        [r.success_probability for r in runs[1]]


def test_resource_report_rows():
    assert resource_report(Z13) == [
        ("registers", 2, 3),
        ("fourier_transforms", 2, 4),
        ("division_ops", 1, None),
        ("measurements", 1, None),
    ]
    assert SHOR_EXACT_REGISTERS == 3
    assert SHOR_EXACT_FOURIER_TRANSFORMS == 4


def test_result_record_key_order_and_values():
    result = run_dlog(Z7, fresh_chi(Z7), 4)
    record = result_record(Z7, result, seed=9)
    assert list(record) == ["n", "g", "m", "x", "p_oracle", "p_measured",
                            "success_mass", "chi_fidelity", "fourier_count", "seed"]
    assert record["n"] == 7
    assert record["g"] == 3
    assert record["m"] == 6
    assert record["x"] == 4
    assert record["p_oracle"] == record["p_measured"] == 4
    assert record["fourier_count"] == 2
    assert record["seed"] == 9


def test_run_dlog_sweep_near_the_modulus_cap():
    spec = validate_group(P40, G40)
    assert spec.order == 3
    handle, stats = prepare_chi(spec, mode="exhaustive")
    assert stats.acceptance_probability == pytest.approx(2 / 3, abs=1e-12)
    for x in spec.elements:
        result = run_dlog(spec, handle, x)
        assert pow(G40, result.measured_p, P40) == x
        assert result.measured_p == result.oracle_p
        assert result.success_probability >= 1 - 1e-9
        assert result.chi_post_fidelity >= 1 - 1e-9


def test_hot_path_never_calls_the_reference_oracles():
    oracles = (transforms.fourier_matrix, transforms.div_alpha_permutation,
               transforms.div_x_permutation, transforms.power_oracle_permutation)
    before = [fn.cache_info()[:2] for fn in oracles]
    spec = validate_group(19, 2)
    handle, _ = prepare_chi(spec, seed=4, mode="sampled")
    run_dlog(spec, handle, 7)
    run_dlog(spec, handle, 11, mode="sampled", seed=1)
    chi_power_from(spec, handle, 5)
    assert [fn.cache_info()[:2] for fn in oracles] == before


def test_invariant_checks_survive_python_O():
    # a handle corrupted after verify() must still be caught with asserts off
    script = textwrap.dedent("""
        import sys
        from chi_dlog.chi import chi_reference, prepare_chi
        from chi_dlog.dlog import run_dlog
        from chi_dlog.errors import InvariantViolation
        from chi_dlog.group import validate_group
        print("optimize", sys.flags.optimize)
        spec = validate_group(13, 2)
        handle, _ = prepare_chi(spec, seed=0, mode="exhaustive")
        handle.state = chi_reference(spec, 2)
        try:
            result = run_dlog(spec, handle, 6)
        except InvariantViolation as exc:
            print("raised", exc)
        else:
            print("returned p =", result.measured_p)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(chi_dlog.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith("raised chi register fidelity fell"), lines


def test_run_dlog_gates_a_handle_corrupted_after_verify():
    # the handle passed verify() and then changed, so the post-run chi
    # fidelity is what refuses the answer
    spec = validate_group(131, 2)
    handle, _ = prepare_chi(spec, seed=0, mode="exhaustive")
    handle.state = chi_reference(spec, 2)
    assert handle.verified
    with pytest.raises(InvariantViolation, match="chi register fidelity"):
        run_dlog(spec, handle, 73)
    assert not handle.verified
    with pytest.raises(UnverifiedChi):
        run_dlog(spec, handle, 73)


def divide_by_two(monkeypatch):
    """Make every run divide by 2, whatever x it was given."""
    monkeypatch.setattr(dlog, "div_x_apply",
                        lambda a, b, x, **kwargs: div_x_apply(a, b, 2, **kwargs))


def test_run_dlog_gates_exhaustive_success_mass(monkeypatch):
    # a division by the wrong x leaves the chi register intact but moves the
    # exponent marginal off the true answer
    handle = fresh_chi(Z13)
    divide_by_two(monkeypatch)
    with pytest.raises(InvariantViolation, match="success mass"):
        run_dlog(Z13, handle, 6)
    assert handle.verified


def test_run_dlog_gates_sampled_success_mass(monkeypatch):
    # the draw lands on the wrong exponent with mass 1, so only the mass on
    # the true answer, read before the marginal is dropped, shows the fault
    spec = validate_group(101, 2)
    handle = fresh_chi(spec)
    divide_by_two(monkeypatch)
    with pytest.raises(InvariantViolation, match="success mass"):
        run_dlog(spec, handle, 5, mode="sampled", seed=0)


FAULT_GROUPS = {12: Z13, 23: validate_group(47, 2), 1008: validate_group(1009, 11)}
SUCCESS_MASS = (InvariantViolation, "success mass ")
RESIDUAL = (NotAProductState, "residual ")
# fault: (exception, message prefix) in exhaustive mode, then in sampled mode
FAULTS = {
    "wrong-division": (SUCCESS_MASS, SUCCESS_MASS),
    "wrong-step": (SUCCESS_MASS, SUCCESS_MASS),
    "flipped-inverse-fft": (SUCCESS_MASS, SUCCESS_MASS),
    "corrupted-handle": ((InvariantViolation, "chi register fidelity fell"),) * 2,
    "nan-amplitude": ((DegenerateNorm, "index 0 carries probability nan"),
                      (DegenerateNorm, "total probability mass nan")),
    "flipped-second-fft": (RESIDUAL, RESIDUAL),
    # at even m, g**2 reaches half the group and no coprime s carries mass
    "power-oracle-g2-even": ((DegenerateNorm, "index 1 carries probability 0"),
                             (RetryLimitExceeded, "no coprime measurement")),
    "power-oracle-g2-odd": (RESIDUAL, RESIDUAL),
}
FLIPPED = {"forward": "inverse", "inverse": "forward"}
PREPARATION_FAULTS = ("flipped-second-fft", "power-oracle-g2-even", "power-oracle-g2-odd")
FAULT_CASES = [(fault, m) for fault in FAULTS for m in FAULT_GROUPS
               if not (fault == "power-oracle-g2-even" and m % 2
                       or fault == "power-oracle-g2-odd" and not m % 2)]


def inject(monkeypatch, fault, spec, handle=None):
    """Patch one fault into this group's preparation, or into its run on handle."""
    g = spec.generator

    def divide_by(step):
        monkeypatch.setattr(dlog, "div_x_apply",
                            lambda a, b, x, **kwargs: div_x_apply(a, b, step(x), **kwargs))

    def flipped(*args, qft, **kwargs):
        """The division followed by the other transform."""
        return transforms.div_x_apply(*args, qft=FLIPPED[qft], **kwargs)

    def in_the_round(fake):
        """Patch the preparation's round only: its division makes the forward transform."""
        monkeypatch.setattr(chi, "div_x_apply", lambda *args, qft=None, **kwargs: (
            fake if qft == "forward" else transforms.div_x_apply)(*args, qft=qft, **kwargs))

    def poisoned(a, b, x, out=None, qft=None, marginal=None):
        # the NaN lands between the division and its transform, and so in
        # the marginal the pass adds up after it
        joint = div_x_apply(a, b, x, out=out)
        joint.amplitudes[7] = np.nan
        joint = transforms.qft_apply(joint, inverse=qft == "inverse")
        if marginal is not None:
            marginal[...] = marginal_distribution(joint)
        return joint

    if fault == "wrong-division":
        divide_by(lambda x: spec.pow(g, 7))
    elif fault == "wrong-step":  # multiply by x instead of dividing
        divide_by(spec.inverse)
    elif fault == "flipped-inverse-fft":
        monkeypatch.setattr(dlog, "div_x_apply", flipped)
    elif fault == "corrupted-handle":
        handle.state = chi_reference(spec, 2)
    elif fault == "nan-amplitude":
        monkeypatch.setattr(dlog, "div_x_apply", poisoned)
    elif fault == "flipped-second-fft":
        # the round's second transform is the one its division makes
        in_the_round(flipped)
    else:
        # the round loads the powers of g by div_x_apply(., ., g**-1)
        in_the_round(lambda a, b, x, **kwargs:
                     transforms.controlled_product(a, b, spec.pow(g, 2), **kwargs))


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("fault, m", FAULT_CASES)
def test_every_fault_raises_with_no_flag(monkeypatch, fault, m, mode):
    # the checks every run and preparation make refuse each fault at small
    # and large m alike, so no wrong answer is returned
    spec = FAULT_GROUPS[m]
    error, prefix = FAULTS[fault][mode == "sampled"]
    expected = pytest.raises(error, match="^" + re.escape(prefix))
    if fault in PREPARATION_FAULTS:
        inject(monkeypatch, fault, spec)
        with expected:
            prepare_chi(spec, seed=0, mode=mode)
    else:
        handle, _ = prepare_chi(spec, seed=0, mode=mode)
        inject(monkeypatch, fault, spec, handle)
        with expected:
            run_dlog(spec, handle, spec.pow(spec.generator, 5), mode=mode, seed=0)


def test_run_dlog_gates_success_mass_above_one():
    # a handle scaled after verify() puts 1.0201 of mass on the true answer;
    # the post-run register is renormalized, so only the mass gate sees it
    handle = fresh_chi(Z13)
    handle.state = QState(handle.state.layout, handle.state.amplitudes * 1.01)
    with pytest.raises(InvariantViolation, match="success mass 1.020e"):
        run_dlog(Z13, handle, 6)


def test_run_dlog_accepts_a_power_congruent_to_one():
    handle = ChiHandle(power=Z13.order + 1, state=chi_reference(Z13, 1))
    handle.verify()
    assert run_dlog(Z13, handle, 6).measured_p == 5


def test_one_power_walk_per_operator(monkeypatch):
    # the group is multiplied only to build each controlled_product's step
    # permutation: two per preparation, one per run, m products each
    spec = validate_group(257, 3)
    real_mul = GroupSpec.mul
    calls = []

    def counted(self, a, b):
        calls.append(1)
        return real_mul(self, a, b)
    monkeypatch.setattr(GroupSpec, "mul", counted)
    handle, _ = prepare_chi(spec, seed=0)
    assert len(calls) == 2 * spec.order == 512
    calls.clear()
    run_dlog(spec, handle, 5, mode="sampled", seed=0)
    assert len(calls) == spec.order == 256


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_run_transforms_the_fresh_register_before_it_joins(monkeypatch, mode):
    # one m-amplitude transform of |0>, then the division makes the joint
    # inverse transform as it builds the state; the ledger still counts the
    # procedure's two transforms and two registers
    spec = validate_group(1009, 11)
    handle = fresh_chi(spec)
    registers, divisions = [], []
    real_qft, real_div = dlog.qft_apply, dlog.div_x_apply

    def counted(state, *args, **kwargs):
        registers.append(len(state.layout.registers))
        return real_qft(state, *args, **kwargs)

    def divided(*args, **kwargs):
        divisions.append(kwargs.get("qft"))
        return real_div(*args, **kwargs)
    monkeypatch.setattr(dlog, "qft_apply", counted)
    monkeypatch.setattr(dlog, "div_x_apply", divided)
    result = run_dlog(spec, handle, 5, mode=mode, seed=0)
    assert result.measured_p == dlog_oracle(spec, 5)
    assert registers == [1]
    assert divisions == ["inverse"]
    assert result.resources.fourier_count == 2
    assert result.resources.registers_used == 2
