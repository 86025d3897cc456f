"""The memory contract: a sampled preparation holds its round's coprime
columns, an exhaustive preparation and a run none of their joint states.

tracemalloc sees numpy's buffers, so its peak is the largest amount of traced
memory alive at once. The preparation's round transforms its state one block
of rows at a time and, in the same pass, adds up the whole marginal. A
sampled round draws from it and keeps the phi(m) coprime columns, 16*m*phi(m)
bytes, any of which its draw may accept; an exhaustive round sums the
marginal's coprime entries into the acceptance and keeps the one column it
collapses. factor_out, with its product check, works in row blocks and
builds the conversion's rows block by block as it reads them, after the
round's state is freed. Each of these passes shares one fixed scratch among
its per-core ranges, at most 3 MiB on any core count, so a sampled
preparation peaks at 16*m*phi(m) bytes plus 3 MiB plus O(m), and an
exhaustive one at 3 MiB plus O(m), as a run does. A run's pass keeps one
column of its joint state, so a run holds the division's scratch and O(m),
on its first run as on any other, and a live handle holds its register
alone. Peak RSS also depends on where the allocator places those buffers,
which a fresh process shows.
"""

import dataclasses
import itertools
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
from chi_dlog.group import totient, validate_group
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


def traced_memory(fn):
    """fn's result, the traced bytes still held when it returns, and their peak."""
    tracemalloc.start()
    try:
        result = fn()
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def traced_peak(fn):
    result, _, peak = traced_memory(fn)
    return result, peak


def preparation_bytes(spec, mode):
    """The least and the most a preparation may allocate at once, in bytes.

    A sampled round's phi(m) coprime columns are its least; its most adds
    what a run may hold beside them: the division's scratch, at most 3 MiB
    on any core count, and O(m). An exhaustive round keeps one column, its
    least, and holds no more than a run.
    """
    m = spec.order
    if mode == "exhaustive":
        return 16 * m, kept_column_run_bytes(m)
    return 16 * m * totient(m), 16 * m * totient(m) + kept_column_run_bytes(m)


def assert_preparation_peak(spec, mode, peak, what="prepare_chi"):
    least, most = preparation_bytes(spec, mode)
    assert least <= peak <= most, \
        f"{what} peaked at {peak / 2 ** 20:.2f} MiB, not in [{least / 2 ** 20:.2f}, " \
        f"{most / 2 ** 20:.2f}]"


def kept_column_run_bytes(m):
    """What a run may allocate, in bytes.

    The division's scratch, at most 3 MiB on any core count, which is freed
    before the readout's smaller block; and O(m) for the registers, the
    cycle walk with its tables, the marginal and the kept column: at most
    256 bytes per basis state.
    """
    return 3 * 2 ** 20 + 256 * m


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_preparation_and_a_run_hold_one_state(mode):
    (handle, _), prepare = traced_peak(
        lambda: prepare_chi(SPEC, seed=1, mode=mode))
    result, run = traced_peak(
        lambda: run_dlog(SPEC, handle, 5, mode=mode, seed=1))
    assert result.measured_p == result.oracle_p
    # at least the round's kept columns, so numpy's buffers are being traced
    assert_preparation_peak(SPEC, mode, prepare)
    assert run <= kept_column_run_bytes(SPEC.order), \
        f"run_dlog peaked at {run / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("dims", [(2, 2), (12, 12), (5, 3)])
def test_readout_scratch_is_sized_by_the_state(dims):
    # the blocked readout holds at most one block of rows, and never more
    # rows than the state has
    layout = RegisterLayout((ExponentRegister(dims[0]), ExponentRegister(dims[1])))
    state = basis_state(layout, (1, 1))
    marginal, peak = traced_peak(lambda: marginal_distribution(state))
    assert marginal[1] == 1.0
    assert peak <= 4096, f"a {dims} readout peaked at {peak} bytes"


# Linux carries a parent's peak RSS into its child's ru_maxrss across fork
# and exec, so a child started by a large test process would read that
# process's peak; VmHWM is the peak of the memory the child maps itself
PEAK_KB = """
def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""


def peak_rss_kb(script):
    """The lines a script prints, as ints, from a fresh process.

    The script's own peak RSS so far, in kB, is peak_kb().
    """
    env = dict(os.environ, PYTHONPATH=str(Path(chi_dlog.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", PEAK_KB + textwrap.dedent(script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [int(line) for line in proc.stdout.split()]


def test_repeated_preparations_keep_peak_rss_flat():
    # a fresh process makes the prepare-1008 benchmark's 20 sampled
    # preparations, each followed by one run; each round's coprime columns
    # must keep reusing the same memory, so the peak RSS may grow by at most a
    # quarter of a state after the first preparation
    rss_kb = peak_rss_kb("""
        from chi_dlog.chi import prepare_chi
        from chi_dlog.dlog import run_dlog
        from chi_dlog.group import validate_group
        spec = validate_group(1009, 11)
        for seed in range(20):
            handle, _ = prepare_chi(spec, seed=seed, mode="sampled")
            run_dlog(spec, handle, 5, mode="sampled", seed=seed)
            print(peak_kb())
    """)
    assert len(rss_kb) == 20
    growth = rss_kb[-1] - rss_kb[0]
    assert growth * 1024 <= STATE_BYTES / 4, f"peak RSS by preparation (kB): {rss_kb}"


def test_a_preparation_rebinding_a_live_handle_keeps_peak_rss_flat():
    # at m = 1450 a state is past glibc's mmap threshold, so a state a live
    # handle kept would sit beside the next preparation's; the handle keeps
    # none, and the peak RSS may grow by at most a quarter of a state after the
    # first preparation
    rss_kb = peak_rss_kb("""
        from chi_dlog.chi import prepare_chi
        from chi_dlog.dlog import run_dlog
        from chi_dlog.group import validate_group
        spec = validate_group(1451, 2)
        h, _ = prepare_chi(spec, seed=0, mode="exhaustive")
        print(peak_kb())
        run_dlog(spec, h, 5)
        h, _ = prepare_chi(spec, seed=1, mode="exhaustive")
        run_dlog(spec, h, 7)
        print(peak_kb())
    """)
    growth = rss_kb[-1] - rss_kb[0]
    assert growth * 1024 <= BIG_BYTES / 4, f"peak RSS (kB): {rss_kb}"


def assert_fresh_preparation_holds(mode, columns):
    # at m = 1450 the whole round would be 33.6 MB, and the conversion is
    # never held whole, so a preparation and a run raise the peak RSS over
    # what the imports take by the round's kept columns, columns bytes, and
    # at most a quarter of a state beside them. numpy loads numpy.random,
    # 5.6 MB of it, on a sampled draw's first call, so it is imported before
    # the first reading
    rss_kb = peak_rss_kb(f"""
        import numpy.random
        from chi_dlog.chi import prepare_chi
        from chi_dlog.dlog import run_dlog
        from chi_dlog.group import validate_group
        spec = validate_group(1451, 2)
        print(peak_kb())
        h, _ = prepare_chi(spec, seed=0, mode="{mode}")
        run_dlog(spec, h, 5, mode="{mode}", seed=0)
        print(peak_kb())
    """)
    growth = rss_kb[-1] - rss_kb[0]
    assert growth * 1024 <= columns + BIG_BYTES / 4, f"peak RSS (kB): {rss_kb}"


def test_an_exhaustive_preparation_holds_one_column_in_a_fresh_process():
    # the round keeps the one column it collapses, 23 KB, and reads the
    # acceptance from the marginal it adds up, so nothing of the 13.0 MB of
    # coprime columns is held
    assert_fresh_preparation_holds("exhaustive", 0)


def test_a_sampled_preparation_holds_its_coprime_columns_in_a_fresh_process():
    # its draw may accept any of the 560 coprime columns, 13.0 MB, which the
    # round keeps as it adds up the whole marginal the draw reads
    assert_fresh_preparation_holds("sampled", preparation_bytes(BIG, "sampled")[0])


def fresh_buffer_run(spec, chi_state, x):
    """An exhaustive run built by hand, from the whole joint state in a fresh buffer."""
    zero = basis_state(RegisterLayout((ExponentRegister(spec.order),)), (0,))
    marginal = np.empty(spec.order)
    joint = div_x_apply(qft_apply(zero), chi_state, x, qft="inverse", marginal=marginal)
    return marginal, collapse(joint, int(np.argmax(marginal))).post_state


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("spec", [SPEC, BIG], ids=["m=1008", "m=1450"])
def test_a_live_handle_holds_its_register_alone(spec, mode):
    # a preparation peaks at its round's kept columns, and what is still
    # traced once it and a run return, with the handle alive, is O(m): those
    # columns are freed
    (handle, _), prepare, peak = traced_memory(
        lambda: prepare_chi(spec, seed=1, mode=mode))
    assert_preparation_peak(spec, mode, peak)
    _, run, _ = traced_memory(lambda: run_dlog(spec, handle, 5, mode=mode, seed=1))
    for what, held in (("prepare_chi", prepare), ("run_dlog", run)):
        assert held <= 256 * spec.order, f"{what} left {held} bytes traced"
    assert [f.name for f in dataclasses.fields(handle)] == ["power", "state", "verified"]


@pytest.mark.parametrize("origin", ["prepared", "loaded"])
@pytest.mark.parametrize("spec", [SPEC, BIG], ids=["m=1008", "m=1450"])
def test_a_run_holds_one_column(spec, origin, tmp_path):
    handle, _ = prepare_chi(spec, seed=2, mode="exhaustive")
    if origin == "loaded":
        save_chi(handle, tmp_path / "chi.txt")
        _, handle = load_chi(tmp_path / "chi.txt")
        handle.verify()
    for run, x in enumerate((3, 5, 7)):
        want_marginal, want_post = fresh_buffer_run(spec, handle.state, x)
        result, peak = traced_peak(lambda: run_dlog(spec, handle, x))
        assert result.measured_p == result.oracle_p
        assert peak <= kept_column_run_bytes(spec.order), \
            f"run {run + 1} peaked at {peak / 2 ** 20:.2f} MiB"
        assert np.array_equal(result.marginal, want_marginal)
        assert np.array_equal(handle.state.amplitudes, want_post.amplitudes)


@pytest.mark.parametrize("count", [1, 2, 8, 64])
def test_the_peak_does_not_grow_with_the_cores(see_cores, count):
    # every split pass shares one fixed scratch among its per-core ranges,
    # so on a many-core host the peak stays within the bounds of one core,
    # and an exhaustive preparation within those of a run;
    # a correct handle puts all of a run's mass on the true exponent, so a
    # sampled run measures the index the exhaustive run by hand does, though
    # it returns no marginal
    see_cores(count)
    for spec, mode in itertools.product((SPEC, BIG), ("exhaustive", "sampled")):
        (handle, _), prepare = traced_peak(
            lambda: prepare_chi(spec, seed=1, mode=mode))
        assert_preparation_peak(spec, mode, prepare, f"{mode} prepare_chi on {count} cores")
        want_marginal, want_post = fresh_buffer_run(spec, handle.state, 5)
        result, run = traced_peak(lambda: run_dlog(spec, handle, 5, mode=mode, seed=1))
        assert result.measured_p == result.oracle_p
        assert run <= kept_column_run_bytes(spec.order), \
            f"run_dlog on {count} cores peaked at {run / 2 ** 20:.2f} MiB"
        if mode == "exhaustive":
            assert np.array_equal(result.marginal, want_marginal)
        assert np.array_equal(handle.state.amplitudes, want_post.amplitudes)


def test_a_run_that_makes_its_pass_again_holds_one_column(monkeypatch):
    # a wrong division moves the mass off the true exponent, so the run
    # makes its pass twice before the mass gate refuses it; the passes
    # follow one another, and the next correct run has the fresh bits
    handle, _ = prepare_chi(BIG, seed=3, mode="exhaustive")
    with monkeypatch.context() as patch:
        patch.setattr(dlog, "div_x_apply",
                      lambda a, b, x, **kwargs: div_x_apply(a, b, 2, **kwargs))
        tracemalloc.start()
        try:
            with pytest.raises(InvariantViolation, match="success mass"):
                run_dlog(BIG, handle, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= kept_column_run_bytes(BIG.order), \
        f"a run that made its pass twice peaked at {peak / 2 ** 20:.2f} MiB"
    want_marginal, want_post = fresh_buffer_run(BIG, handle.state, 5)
    result = run_dlog(BIG, handle, 5)
    assert result.measured_p == result.oracle_p
    assert np.array_equal(result.marginal, want_marginal)
    assert np.array_equal(handle.state.amplitudes, want_post.amplitudes)
