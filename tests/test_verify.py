"""The self-check suites and the chi file checker."""

import pytest

from chi_dlog import chi, verify
from chi_dlog.chi import ChiHandle, chi_reference, save_chi
from chi_dlog.group import validate_group
from chi_dlog.qstate import QState
from chi_dlog.transforms import div_x_apply
from chi_dlog.verify import (
    check_chi_file,
    chi_suite,
    fourier_suite,
    group_suite,
    run_all_suites,
)

Z7 = validate_group(7, 3)


def test_all_suites_pass_at_small_order():
    suites = run_all_suites(6)
    assert [s.name for s in suites] == ["group", "fourier", "division",
                                        "kickback", "chi", "dlog"]
    for suite in suites:
        assert suite.passed, suite.failures
        assert suite.checks > 0


def test_suites_handle_degenerate_bound():
    assert all(s.passed for s in run_all_suites(1))


@pytest.mark.parametrize("suite", [group_suite, fourier_suite, chi_suite])
def test_a_suite_sweeps_no_further_than_its_cap(suite):
    # the largest order the amplitude cap admits, and one past it, check what
    # 64 checks
    assert suite(4097).checks == suite(4096).checks == suite(64).checks > suite(63).checks


def test_chi_suite_names_a_drifted_pre_measurement_column(monkeypatch):
    # a flipped second transform leaves chi_-s in column s, so column 0 (and
    # s = m/2) still match and every other column is named
    real_round = verify._superposed_round

    def flipped_round(spec):
        with monkeypatch.context() as patch:
            patch.setattr(chi, "div_x_apply", lambda *args, qft, **kwargs:
                          div_x_apply(*args, qft="inverse", **kwargs))
            return real_round(spec)
    monkeypatch.setattr(verify, "_superposed_round", flipped_round)
    failures = chi_suite(4).failures
    assert failures[0].startswith("pre-measurement column 1 drifted")
    assert failures[0].endswith("in GroupSpec(table, g=1, m=3)"), failures[0]
    assert all(message.startswith("pre-measurement column ") for message in failures)
    assert not any(message.startswith("pre-measurement column 0 ") for message in failures)


def test_check_chi_file_accepts_reference(tmp_path):
    path = tmp_path / "chi.txt"
    save_chi(ChiHandle(power=1, state=chi_reference(Z7, 1)), path)
    result = check_chi_file(path)
    assert result.passed
    assert result.checks == 2  # norm, then fidelity


def test_check_chi_file_names_the_norm(tmp_path):
    path = tmp_path / "chi.txt"
    save_chi(ChiHandle(power=1, state=chi_reference(Z7, 1)), path)
    lines = path.read_text().splitlines()
    scaled = [lines[0]]
    for line in lines[1:]:
        i, re_part, im_part = line.split()
        scaled.append(f"{i} {float(re_part) * 1.5} {float(im_part) * 1.5}")
    path.write_text("\n".join(scaled) + "\n")
    result = check_chi_file(path)
    assert not result.passed
    assert any("norm" in message for message in result.failures)
    # the shape is still a chi state, so the renormalized fidelity is clean
    assert not any("fidelity" in message for message in result.failures)


def test_check_chi_file_names_the_fidelity(tmp_path):
    # swapping two amplitudes keeps the norm but breaks the state
    amps = chi_reference(Z7, 1).amplitudes.copy()
    amps[0], amps[1] = amps[1], amps[0]
    handle = ChiHandle(power=1, state=QState(chi_reference(Z7, 1).layout, amps))
    path = tmp_path / "chi.txt"
    save_chi(handle, path)
    result = check_chi_file(path)
    assert not result.passed
    assert any("fidelity" in message for message in result.failures)
    assert not any("norm" in message for message in result.failures)
