"""Output does not depend on the core count.

A division with the transform that follows it, the marginal and factor_out
split their passes over the cores in the affinity mask. Each case runs the
CLI in a fresh process on every core and again in one that first narrows its
own mask to one core, before numpy loads, so OpenBLAS sizes its pool from
that core too. stdout and the saved chi file must be the same bytes both
times.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import chi_dlog

SRC = str(Path(chi_dlog.__file__).parents[1])

# argv[1] is "one" or "all"; the rest is the CLI's argv
CHILD = textwrap.dedent("""
    import os, sys
    if sys.argv[1] == "one":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from chi_dlog.cli import main
    sys.exit(main(sys.argv[2:]))
""")

pytestmark = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs an affinity mask of two or more cores")


def run(cores, argv, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", CHILD, cores, *argv], env=env,
                          cwd=cwd, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha256(proc.stdout).hexdigest()


def test_dlog_prepare_stdout_is_the_same_on_one_core_and_all(tmp_path):
    argv = ["dlog", "--n", "2003", "--g", "5", "--x-count", "3", "--prepare",
            "--mode", "exhaustive"]
    assert run("one", argv, tmp_path) == run("all", argv, tmp_path)


def test_dlog_prepare_stdout_at_m_4000_is_the_same_on_one_core_and_all(tmp_path):
    # near the largest order the cap admits, where each division hands the
    # most blocks of rows to its transform on every core
    argv = ["dlog", "--n", "4001", "--g", "3", "--x-count", "3", "--prepare",
            "--mode", "exhaustive"]
    assert run("one", argv, tmp_path) == run("all", argv, tmp_path)


def test_a_saved_chi_file_is_the_same_on_one_core_and_all(tmp_path):
    out = {}
    for cores in ("one", "all"):
        chi_file = tmp_path / f"chi-{cores}.txt"
        printed = run(cores, ["prepare-chi", "--n", "2003", "--g", "5", "--seed", "0",
                              "--output", str(chi_file)], tmp_path)
        out[cores] = (printed, hashlib.sha256(chi_file.read_bytes()).hexdigest())
    assert out["one"] == out["all"]
