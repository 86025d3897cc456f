"""The benchmark's tracer under the row-split Fourier transform.

perfbench's Tracer wraps every public chi_dlog function with one span stack
that is not thread-safe, so the threads qft_apply starts must call numpy only:
a traced run records exactly one transforms.qft_apply span per transform, and
every span comes from the calling thread.
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


def test_a_traced_run_records_one_qft_span_per_transform(monkeypatch):
    # two cores, so the joint transforms split on any host
    monkeypatch.setattr(transforms.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    caller = threading.get_ident()
    fft_threads = []  # the thread of every numpy FFT call
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def recorded(*args, real=real, **kwargs):
            fft_threads.append(threading.get_ident())
            return real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, recorded)

    span_threads = []  # the thread that opened every span

    class ThreadTracer(load_tracer_class()):
        def _wrap(self, name, fn, cache=None):
            traced = super()._wrap(name, fn, cache)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_threads.append(threading.get_ident())
                return traced(*args, **kwargs)
            return wrapper

    spec = validate_group(1009, 11)  # m = 1008, above the split threshold
    tracer = ThreadTracer()
    tracer.install()
    try:
        handle, _ = chi_dlog.prepare_chi(spec, seed=0, mode="exhaustive")
        chi_dlog.run_dlog(spec, handle, 3, mode="exhaustive")
    finally:
        tracer.uninstall()

    # each transform makes one FFT call on the calling thread; the two joint
    # transforms also make one on a second thread
    on_caller = fft_threads.count(caller)
    assert on_caller == 4
    assert len(fft_threads) - on_caller == 2
    assert tracer.count("transforms.qft_apply") == on_caller
    assert len(span_threads) == len(tracer.spans)
    assert set(span_threads) == {caller}
