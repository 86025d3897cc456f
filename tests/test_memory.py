"""The memory contract: a preparation and a run each hold one m x m state.

tracemalloc sees numpy's buffers, so its peak is the largest amount of traced
memory alive at once. The division builds the one state, transforming it one
block of rows at a time where a transform follows, and the readout and
factor_out, with its product check, work in row blocks. Each of these passes
shares one fixed scratch among its per-core ranges, at most 3 MiB on any core
count, so the peak is 16*m**2 bytes plus that scratch plus O(m); the bound
leaves a quarter of a state for the scratch and vectors. Every run takes the same
checked path, so one bound covers all of them. Peak RSS also depends on where
the allocator places those buffers, which a fresh process shows.

From m = 1449 on (2**21 joint amplitudes) a chi handle keeps its runs' buffer,
so a run on a handle that already holds it allocates only the division's
scratch, one readout block and O(m); below that size nothing is kept.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chi_dlog
from chi_dlog import dlog
from chi_dlog.chi import load_chi, prepare_chi, save_chi
from chi_dlog.dlog import run_dlog
from chi_dlog.errors import InvariantViolation
from chi_dlog.group import validate_group
from chi_dlog.qstate import (
    ExponentRegister,
    RegisterLayout,
    basis_state,
    collapse,
    marginal_distribution,
)
from chi_dlog.transforms import div_x_apply, qft_apply

SPEC = validate_group(1009, 11)  # m = 1008, one state is 16 MB
STATE_BYTES = 16 * SPEC.order ** 2
BIG = validate_group(1451, 2)  # m = 1450, one state is 33.6 MB, a kept buffer
BIG_BYTES = 16 * BIG.order ** 2


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
        lambda: prepare_chi(SPEC, seed=1, mode=mode))
    result, run = traced_peak(
        lambda: run_dlog(SPEC, handle, 5, mode=mode, seed=1))
    assert result.measured_p == result.oracle_p
    for what, peak in (("prepare_chi", prepare), ("run_dlog", run)):
        # at least the state itself, so numpy's buffers are being traced
        assert STATE_BYTES <= peak <= 1.25 * STATE_BYTES, \
            f"{what} peaked at {peak / STATE_BYTES:.2f} states"


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


def fresh_buffer_run(spec, chi_state, x):
    """An exhaustive run built by hand, dividing into a fresh buffer."""
    zero = basis_state(RegisterLayout((ExponentRegister(spec.order),)), (0,))
    marginal = np.empty(spec.order)
    joint = div_x_apply(qft_apply(zero), chi_state, x, qft="inverse", marginal=marginal)
    return marginal, collapse(joint, int(np.argmax(marginal))).post_state


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_a_preparation_that_keeps_its_buffer_holds_one_state(mode):
    (handle, _), peak = traced_peak(
        lambda: prepare_chi(BIG, seed=1, mode=mode))
    assert BIG_BYTES <= peak <= 1.25 * BIG_BYTES, \
        f"prepare_chi peaked at {peak / BIG_BYTES:.2f} states"
    assert handle._buffer.size == BIG.order ** 2
    assert not np.shares_memory(handle.state.amplitudes, handle._buffer)
    assert "_buffer" not in repr(handle)


def kept_buffer_run_bytes(m):
    """What a run on a handle that keeps its buffer may allocate, in bytes.

    The division's scratch, at most 3 MiB on any core count, which is freed
    before the readout's smaller block; and O(m) for the registers, the
    cycle walk with its tables, and the marginal: at most 256 bytes per
    basis state.
    """
    return 3 * 2 ** 20 + 256 * m


@pytest.mark.parametrize("origin", ["prepared", "loaded"])
def test_runs_divide_into_the_buffer_their_handle_keeps(origin, tmp_path):
    handle, _ = prepare_chi(BIG, seed=2, mode="exhaustive")
    if origin == "loaded":
        save_chi(handle, tmp_path / "chi.txt")
        _, handle = load_chi(tmp_path / "chi.txt")
        handle.verify()
        assert handle._buffer is None
    kept = handle._buffer
    for run, x in enumerate((3, 5, 7)):
        want_marginal, want_post = fresh_buffer_run(BIG, handle.state, x)
        result, peak = traced_peak(lambda: run_dlog(BIG, handle, x))
        assert result.measured_p == result.oracle_p
        if origin == "loaded" and run == 0:  # it makes its buffer on its first run
            assert peak >= BIG_BYTES
            kept = handle._buffer
        else:
            assert peak <= kept_buffer_run_bytes(BIG.order), \
                f"run {run + 1} peaked at {peak / 2 ** 20:.2f} MiB"
        assert kept is not None and handle._buffer is kept
        assert not np.shares_memory(handle.state.amplitudes, kept)
        assert np.array_equal(result.marginal, want_marginal)
        assert np.array_equal(handle.state.amplitudes, want_post.amplitudes)


@pytest.mark.parametrize("count", [8, 64])
def test_the_peak_does_not_grow_with_the_cores(see_cores, count):
    # every split pass shares one fixed scratch among its per-core ranges,
    # so on a many-core host the peak stays within the two-core bounds
    see_cores(count)
    (handle, _), prepare = traced_peak(
        lambda: prepare_chi(SPEC, seed=1, mode="exhaustive"))
    result, run = traced_peak(lambda: run_dlog(SPEC, handle, 5))
    assert result.measured_p == result.oracle_p
    for what, peak in (("prepare_chi", prepare), ("run_dlog", run)):
        assert STATE_BYTES <= peak <= 1.25 * STATE_BYTES, \
            f"{what} on {count} cores peaked at {peak / STATE_BYTES:.2f} states"
    (handle, _), prepare = traced_peak(
        lambda: prepare_chi(BIG, seed=1, mode="exhaustive"))
    assert BIG_BYTES <= prepare <= 1.25 * BIG_BYTES, \
        f"prepare_chi on {count} cores peaked at {prepare / BIG_BYTES:.2f} states"
    result, run = traced_peak(lambda: run_dlog(BIG, handle, 5))
    assert result.measured_p == result.oracle_p
    assert run <= kept_buffer_run_bytes(BIG.order), \
        f"a kept-buffer run on {count} cores peaked at {run / 2 ** 20:.2f} MiB"


def test_a_failed_run_leaves_the_kept_buffer_serving(monkeypatch):
    handle, _ = prepare_chi(BIG, seed=3, mode="exhaustive")
    kept = handle._buffer
    with monkeypatch.context() as patch:
        patch.setattr(dlog, "div_x_apply",
                      lambda a, b, x, **kwargs: div_x_apply(a, b, 2, **kwargs))
        with pytest.raises(InvariantViolation, match="success mass"):
            run_dlog(BIG, handle, 5)
    want_marginal, want_post = fresh_buffer_run(BIG, handle.state, 5)
    result = run_dlog(BIG, handle, 5)
    assert result.measured_p == result.oracle_p
    assert handle._buffer is kept
    assert np.array_equal(result.marginal, want_marginal)
    assert np.array_equal(handle.state.amplitudes, want_post.amplitudes)


def test_below_the_cutoff_a_handle_keeps_no_buffer():
    handle, _ = prepare_chi(SPEC, seed=1, mode="sampled")
    assert handle._buffer is None
    run_dlog(SPEC, handle, 5, mode="sampled", seed=1)
    assert handle._buffer is None
