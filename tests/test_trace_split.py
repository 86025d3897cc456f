"""The benchmark's tracer under the passes split over the cores.

perfbench's Tracer wraps every public chi_dlog function with one span stack
that is not thread-safe, so the threads the split passes start (every
division, with the transform that follows it where one does, the marginal,
factor_out's row sum and its residual, which build the preparation's
conversion as they go) must call numpy only: a traced run records one
transforms.qft_apply span per lone-register transform and one
transforms.div_x_apply span per division, the joint transforms' FFT calls run
on both threads, and every span comes from the calling thread.
"""

import functools
import importlib.util
import threading
from pathlib import Path

import numpy as np

import chi_dlog
from chi_dlog import transforms
from chi_dlog.group import validate_group

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def thread_tracer(span_threads):
    """A Tracer that also notes the thread that opens every span."""
    class ThreadTracer(load_tracer_class()):
        def _wrap(self, name, fn, cache=None):
            traced = super()._wrap(name, fn, cache)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_threads.append(threading.get_ident())
                return traced(*args, **kwargs)
            return wrapper
    return ThreadTracer()


def test_a_traced_run_records_one_qft_span_per_lone_register_transform(
        monkeypatch, see_cores):
    see_cores(2)  # so the joint transforms split on any host
    caller = threading.get_ident()
    fft_threads = []  # the thread of every numpy FFT call
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def recorded(*args, real=real, **kwargs):
            fft_threads.append(threading.get_ident())
            return real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, recorded)

    span_threads = []  # the thread that opened every span
    spec = validate_group(1009, 11)  # m = 1008, above the split threshold
    m = spec.order
    tracer = thread_tracer(span_threads)
    tracer.install()
    try:
        handle, _ = chi_dlog.prepare_chi(spec, seed=0, mode="exhaustive")
        chi_dlog.run_dlog(spec, handle, 3, mode="exhaustive")
    finally:
        tracer.uninstall()

    # each lone register's transform is one FFT call on the calling thread;
    # each joint transform is one call per block of rows its division builds:
    # on two cores, six segments of 84 rows a core, each in blocks of at
    # most 32, so 18 blocks on the calling thread and 18 on a second
    bounds, cuts, size = transforms._blocks(m)
    assert m == 1008 and bounds == list(range(0, 1009, 84))
    assert (cuts, size) == ([0, 6, 12], 32)
    # two divisions, the round's and the run's, each with its transform: the
    # preparation's conversion is built row block by row block inside
    # factor_out and makes no FFT call
    assert tracer.count("transforms.qft_apply") == 2
    assert tracer.count("transforms.div_x_apply") == 2
    assert tracer.count("qstate.factor_out") == 1
    assert fft_threads.count(caller) == 2 + 2 * 18
    assert len(fft_threads) == 2 + 2 * 36
    assert len(span_threads) == len(tracer.spans)
    assert set(span_threads) == {caller}


def test_a_traced_preparation_records_every_span_on_the_calling_thread(
        see_cores, started):
    # the exhaustive preparation's four split passes, its division with the
    # transform, which keeps the coprime columns, the acceptance's row sum
    # over them, and factor_out's row sum and residual, which build the
    # conversion's rows as they go, each run one part on the calling thread
    # and one on each other core
    cores = 2
    see_cores(cores)
    span_threads = []
    tracer = thread_tracer(span_threads)
    tracer.install()
    try:
        chi_dlog.prepare_chi(validate_group(1009, 11), seed=0, mode="exhaustive")
    finally:
        tracer.uninstall()
    assert len(started) == 4 * (cores - 1)
    assert tracer.count("qstate.factor_out") == 1
    assert len(span_threads) == len(tracer.spans)
    assert set(span_threads) == {threading.get_ident()}
