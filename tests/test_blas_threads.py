"""Output does not depend on the BLAS thread count.

Each case runs in a fresh process under OPENBLAS_NUM_THREADS=1 and =2, since
OpenBLAS reads the variable once, when numpy loads it. The chi files, stdout,
and the fidelity, the norms of a chi register and of a joint state, and the
powered amplitudes at m = 1008 must be the same bytes both times.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import chi_dlog

SRC = str(Path(chi_dlog.__file__).parents[1])
THREAD_COUNTS = ("1", "2")

# fidelity and norm as the handle check reads them, the norm of a run's joint
# state, and chi_power_from, which also projects onto register 0. The norm is
# the marginal's row sum, not a BLAS dot product, which a two-register state
# is long enough to split over the threads
PROBE = textwrap.dedent("""
    import hashlib
    from chi_dlog.chi import chi_power_from, chi_reference, prepare_chi
    from chi_dlog.group import validate_group
    from chi_dlog.qstate import ExponentRegister, RegisterLayout, basis_state, fidelity
    from chi_dlog.transforms import div_x_apply, qft_apply
    spec = validate_group(1009, 11)
    handle, _ = prepare_chi(spec, seed=3)
    print(fidelity(handle.state, chi_reference(spec, handle.power)).hex())
    print(handle.state.norm().hex())
    fresh = qft_apply(basis_state(RegisterLayout((ExponentRegister(spec.order),)), (0,)))
    print(div_x_apply(fresh, handle.state, 5).norm().hex())
    powered = chi_power_from(spec, handle, alpha=5)
    print(hashlib.sha256(powered.state.amplitudes.tobytes()).hexdigest())
""")


# register 0 split off a joint state at m = 1008, as chi_power_from's drift
# check does: long enough that a BLAS matrix-vector product would thread
PROJECT = textwrap.dedent("""
    import hashlib
    from chi_dlog.chi import chi_reference
    from chi_dlog.group import validate_group
    from chi_dlog.qstate import factor_out
    from chi_dlog.verify import _div_alpha
    spec = validate_group(1009, 11)
    joint = _div_alpha(chi_reference(spec, 3), chi_reference(spec, 1), 5)
    kept = factor_out(joint, 0, chi_reference(spec, 8))
    print(hashlib.sha256(kept.amplitudes.tobytes()).hexdigest())
""")


def run(args, threads, cwd):
    """stdout of python args under OPENBLAS_NUM_THREADS=threads; None unsets it."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads or "")
    if threads is None:
        del env["OPENBLAS_NUM_THREADS"]
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def cli(*argv):
    return ["-m", "chi_dlog.cli", *argv]


def test_dlog_prepare_stdout_is_the_same_on_any_thread_count(tmp_path):
    args = cli("dlog", "--n", "2003", "--g", "5", "--x-count", "3", "--prepare",
               "--mode", "exhaustive")
    one, two = (run(args, threads, tmp_path) for threads in THREAD_COUNTS)
    assert one.count(b"\n") == 3
    assert one == two


def test_a_saved_chi_register_and_its_runs_are_the_same_on_any_thread_count(tmp_path):
    out = {}
    for threads in THREAD_COUNTS:
        chi_file = tmp_path / f"chi-{threads}.txt"
        prepared = run(cli("prepare-chi", "--n", "101", "--g", "2", "--seed", "0",
                           "--output", str(chi_file)), threads, tmp_path)
        runs = run(cli("dlog", "--n", "101", "--g", "2", "--x-count", "3",
                       "--chi", str(chi_file), "--mode", "sampled"), threads, tmp_path)
        out[threads] = (prepared, chi_file.read_bytes(), runs)
    assert out["1"][2].count(b"\n") == 3
    assert out["1"] == out["2"]


def test_fidelity_norm_and_powering_are_the_same_on_any_thread_count(tmp_path):
    one, two = (run(["-c", PROBE], threads, tmp_path) for threads in THREAD_COUNTS)
    assert len(one.split()) == 4
    assert one == two


def test_splitting_off_register_0_is_the_same_on_one_thread_and_the_default(tmp_path):
    one, default = (run(["-c", PROJECT], threads, tmp_path) for threads in ("1", None))
    assert len(one.split()) == 1
    assert one == default
