"""The memory contract: a preparation and a run each hold one m x m state.

tracemalloc sees numpy's buffers, so its peak is the largest amount of traced
memory alive at once. Every stage transforms the one state in place, and the
readout and factor_out work in row blocks, so the peak is 16*m**2 bytes plus
O(m); the bound leaves a quarter of a state for the row blocks and vectors.
"""

import tracemalloc

import pytest

from chi_dlog.chi import prepare_chi
from chi_dlog.dlog import run_dlog
from chi_dlog.group import validate_group

SPEC = validate_group(1009, 11)  # m = 1008, one state is 16 MB
STATE_BYTES = 16 * SPEC.order ** 2


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_preparation_and_a_run_hold_one_state(mode):
    (handle, _), prepare = traced_peak(
        lambda: prepare_chi(SPEC, seed=1, mode=mode, verify=False))
    result, run = traced_peak(
        lambda: run_dlog(SPEC, handle, 5, mode=mode, seed=1, verify=False))
    assert result.measured_p == result.oracle_p
    for what, peak in (("prepare_chi", prepare), ("run_dlog", run)):
        # at least the state itself, so numpy's buffers are being traced
        assert STATE_BYTES <= peak <= 1.25 * STATE_BYTES, \
            f"{what} peaked at {peak / STATE_BYTES:.2f} states"
