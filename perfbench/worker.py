"""One benchmark repetition, run in a fresh process so every cache starts cold.

Reads a job as JSON from stdin, times the set-up and every run through the
public chi_dlog API, checks each answer independently of the program, and
prints one JSON object. ru_maxrss then belongs to this repetition alone.

Checks made here, none of which call into chi_dlog:
- every set-up yields a power-1 handle whose state matches a closed-form chi
  state built from pow(g, r, n) to fidelity 1 - 1e-9;
- every run satisfies pow(g, p_measured, n) == x and keeps chi fidelity at
  least 1 - 1e-9; exhaustive runs also put mass 1 - 1e-9 on the answer.
"""
from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

TOL = 1e-9


def closed_form_chi(n: int, g: int) -> np.ndarray:
    """Power-1 chi amplitudes over the subgroup <g> mod n, ascending labels."""
    labels, x = [1], g % n
    while x != 1:
        labels.append(x)
        x = x * g % n
    # basis index i holds the i-th smallest label, g**order[i]
    order = np.argsort(labels, kind="stable")
    return np.exp(2j * np.pi * order / len(labels)) / np.sqrt(len(labels))


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Rep:
    """Accumulates one repetition's timings, counts and check failures."""

    def __init__(self, job: dict, cd):
        self.cd = cd
        self.n, self.g = job["n"], job["g"]
        self.setup_s: list[float] = []
        self.setup_attempts: list[int] = []
        self.run_s: list[float] = []
        self.attempted = 0
        self.ok_runs = 0
        self.failed = 0
        self.errors: list[str] = []
        self.mass_defect = 0.0
        self.fidelity_loss = 0.0
        self.reference = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check_handle(self, handle) -> bool:
        if self.reference is None:
            self.reference = closed_form_chi(self.n, self.g)
        amps = handle.state.amplitudes
        fid = abs(np.vdot(self.reference, amps)) ** 2 \
            if amps.shape == self.reference.shape else 0.0
        if handle.power != 1 or not handle.verified or fid < 1 - TOL:
            self.fail(f"handle power={handle.power} verified={handle.verified} "
                      f"closed-form fidelity={fid!r}")
            return False
        return True

    def run(self, got, x: int, mode: str, rng) -> None:
        """Time one run_dlog on got = (spec, handle) and check its answer."""
        self.attempted += 1
        if got is None:
            self.fail(f"run x={x}: no handle")
            return
        try:
            t0 = time.perf_counter()
            res = self.cd.run_dlog(*got, x, mode=mode, seed=rng)
            self.run_s.append(time.perf_counter() - t0)
        except Exception as exc:  # counted, reported, and the run goes on
            self.fail(f"run x={x}: {type(exc).__name__}: {exc}")
            return
        self.mass_defect = max(self.mass_defect, 1.0 - res.success_probability)
        self.fidelity_loss = max(self.fidelity_loss, 1.0 - res.chi_post_fidelity)
        p = int(res.measured_p)
        if pow(self.g, p, self.n) != x:
            self.fail(f"run x={x}: g^{p} mod n = {pow(self.g, p, self.n)}")
        elif res.chi_post_fidelity < 1 - TOL:
            self.fail(f"run x={x}: chi fidelity {res.chi_post_fidelity!r}")
        elif mode == "exhaustive" and res.success_probability < 1 - TOL:
            self.fail(f"run x={x}: success mass {res.success_probability!r}")
        else:
            self.ok_runs += 1

    def setup(self, make):
        """Time make() -> (spec, handle, PrepStats or None); returns (spec,
        handle), or None when it raised or failed a check."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            spec, handle, stats = make()
            self.setup_s.append(time.perf_counter() - t0)
            self.setup_attempts.append(stats.attempts if stats else 0)
        except Exception as exc:  # counted, reported, and the rep goes on
            self.fail(f"set-up: {type(exc).__name__}: {exc}")
            return None
        return (spec, handle) if self.check_handle(handle) else None


def sweep(rep: Rep, job: dict) -> None:
    """One exhaustive preparation, then each distinct x on that handle."""
    cd = rep.cd
    spec = cd.validate_group(rep.n, rep.g)
    got = rep.setup(lambda: (spec, *cd.prepare_chi(spec, seed=job["seed"],
                                                   mode="exhaustive")))
    for x in job["xs"]:
        rep.run(got, x, "exhaustive", None)


def reuse(rep: Rep, job: dict) -> None:
    """Load and verify a saved chi file, then many sampled runs on one handle.

    The further loads are spread between the runs, so the set-up time samples
    the same stretch of time as the runs do; each is timed and checked, and
    the runs keep the first handle.
    """
    cd = rep.cd

    def load():
        spec, handle = cd.load_chi(job["chi_file"])
        handle.verify()
        return spec, handle, None
    got = rep.setup(load)
    xs = job["xs"]
    stride = max(len(xs) // max(job["loads"] - 1, 1), 1)
    loads = 1
    rng = np.random.default_rng(job["seed"])
    for i, x in enumerate(xs):
        if i % stride == stride - 1 and loads < job["loads"]:
            rep.setup(load)
            loads += 1
        rep.run(got, x, "sampled", rng)


def prepare(rep: Rep, job: dict) -> None:
    """Fresh sampled preparations with consecutive seeds, a few runs after each."""
    cd = rep.cd
    spec = cd.validate_group(rep.n, rep.g)
    rng = np.random.default_rng(job["seed"])
    for seed, xs in zip(job["prep_seeds"], job["xs"]):
        got = rep.setup(lambda seed=seed: (spec, *cd.prepare_chi(spec, seed=seed,
                                                                 mode="sampled")))
        for x in xs:
            rep.run(got, x, "sampled", rng)


SHAPES = {"sweep": sweep, "reuse": reuse, "prepare": prepare}


def layer_metrics(tr, m: int) -> dict[str, float]:
    """Per-layer numbers of one traced repetition, from spans and cache_info()."""
    from tracer import TABLES
    stats = tr.cache_stats()
    fhit, fmiss, fsize = stats["fourier_matrix"]
    thit = sum(stats[t][0] for t in TABLES)
    tmiss = sum(stats[t][1] for t in TABLES)
    tsize = sum(stats[t][2] for t in TABLES)
    return {
        "transforms.qft_s": tr.outer_s("transforms.qft_apply"),
        "transforms.qft_calls": tr.count("transforms.qft_apply"),
        "qstate.unitary_s": tr.outer_s("qstate.apply_register_unitary"),
        "transforms.fourier_build_s": tr.build_s("transforms.fourier_matrix"),
        "transforms.fourier_calls": fhit + fmiss,
        "transforms.fourier_hit_ratio": fhit / max(fhit + fmiss, 1),
        "transforms.divide_s": tr.outer_s("transforms.div_alpha_apply",
                                          "transforms.div_x_apply",
                                          "transforms.power_oracle_apply"),
        "transforms.table_build_s": tr.build_s(*(f"transforms.{t}" for t in TABLES)),
        "transforms.table_calls": thit + tmiss,
        "transforms.table_hit_ratio": thit / max(thit + tmiss, 1),
        "group.mul_calls": tr.mul_calls,
        "qstate.permute_s": tr.outer_s("qstate.apply_basis_permutation"),
        # computed, not measured: entries held x bytes per entry
        "transforms.cache_bytes": fsize * m * m * 16 + tsize * m * m * 8,
        "qstate.factor_out_s": tr.outer_s("qstate.factor_out"),
        "qstate.readout_s": tr.outer_s("qstate.marginal_distribution",
                                       "qstate.collapse", "qstate.measure"),
        "qstate.tensor_s": tr.outer_s("qstate.tensor"),
        "chi.reference_s": tr.outer_s("chi.chi_reference"),
        "group.oracle_s": tr.outer_s("group.dlog_oracle"),
        "dlog.self_s": tr.self_s("dlog.run_dlog"),
        "chi.load_s": tr.outer_s("chi.load_chi"),
        "qstate.parse_s": tr.outer_s("qstate.parse_amplitudes"),
        "chi.verify_s": tr.outer_s("chi.ChiHandle.verify"),
        "chi.prepare_s": tr.outer_s("chi.prepare_chi"),
        "group.validate_s": tr.outer_s("group.validate_group"),
    }


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["root"], "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import chi_dlog as cd
    if not Path(cd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"chi_dlog imported from {cd.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    rep = Rep(job, cd)
    t0 = time.perf_counter()
    SHAPES[job["shape"]](rep, job)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    out = {
        "wall_s": wall,
        "setup_s": rep.setup_s,
        "run_s": rep.run_s,
        "attempted": rep.attempted,
        "ok_runs": rep.ok_runs,
        "failed": rep.failed,
        "errors": rep.errors,
        "setup_attempts": rep.setup_attempts,
        "max_mass_defect": rep.mass_defect,
        "max_fidelity_loss": rep.fidelity_loss,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, cd.validate_group(rep.n, rep.g).order)
        if job.get("spans_path"):
            tracer.write_jsonl(job["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
