"""The memory contract: a preparation and a run each hold one m x m state.

tracemalloc sees numpy's buffers, so its peak is the largest amount of traced
memory alive at once. The division builds the one state, every later stage
transforms it in place, and the readout, factor_out and the kick-back check
work in row blocks, so the peak is 16*m**2 bytes plus O(m); the bound leaves
a quarter of a state for the row blocks and vectors. Peak RSS also depends on
where the allocator places those buffers, which a fresh process shows.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import chi_dlog
from chi_dlog.chi import prepare_chi
from chi_dlog.dlog import run_dlog
from chi_dlog.group import validate_group
from chi_dlog.qstate import ExponentRegister, RegisterLayout, basis_state, marginal_distribution

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


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_a_checked_run_holds_one_state(mode):
    # the kick-back check compares the state against its closed form one row
    # block at a time, so it copies nothing the size of the state
    handle, _ = prepare_chi(SPEC, seed=1, mode=mode, verify=False)
    result, run = traced_peak(
        lambda: run_dlog(SPEC, handle, 5, mode=mode, seed=1, verify=True))
    assert result.measured_p == result.oracle_p
    assert STATE_BYTES <= run <= 1.25 * STATE_BYTES, \
        f"a checked run peaked at {run / STATE_BYTES:.2f} states"


@pytest.mark.parametrize("dims", [(2, 2), (12, 12), (5, 3)])
def test_readout_scratch_is_sized_by_the_state(dims):
    # the blocked readout holds at most one block of rows, and never more
    # rows than the state has
    layout = RegisterLayout((ExponentRegister(dims[0]), ExponentRegister(dims[1])))
    state = basis_state(layout, (1, 1))
    marginal, peak = traced_peak(lambda: marginal_distribution(state))
    assert marginal[1] == 1.0
    assert peak <= 4096, f"a {dims} readout peaked at {peak} bytes"


def test_repeated_preparations_keep_peak_rss_flat():
    # a fresh process makes the prepare-1008 benchmark's 20 sampled
    # preparations, each followed by one run; the m x m buffers must keep
    # reusing the same memory, so ru_maxrss may grow by at most a quarter of
    # a state after the first preparation
    script = textwrap.dedent("""
        import resource
        from chi_dlog.chi import prepare_chi
        from chi_dlog.dlog import run_dlog
        from chi_dlog.group import validate_group
        spec = validate_group(1009, 11)
        for seed in range(20):
            handle, _ = prepare_chi(spec, seed=seed, mode="sampled")
            run_dlog(spec, handle, 5, mode="sampled", seed=seed)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(chi_dlog.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rss_kb = [int(line) for line in proc.stdout.split()]
    assert len(rss_kb) == 20
    growth = rss_kb[-1] - rss_kb[0]
    assert growth * 1024 <= STATE_BYTES / 4, f"peak RSS by preparation (kB): {rss_kb}"
