"""chi-dlog benchmark: three closed-loop workloads through the public chi_dlog API.

    python3 perfbench/run.py --workload sweep-2002 --seed 1 --seconds 30 --trace 0

One caller, one process per repetition, each run issued after the previous one
returns. Repetitions of the seed's fixed input set repeat while another one
fits in --seconds (at least one always runs); every metric is then taken over
all repetitions of the run. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of wrapped
repetitions (alternated with plain ones, which give trace.overhead_ratio).
The last line of stdout is one JSON object; a full record with the machine and
software versions goes to perfbench/out/. Exit 1 if any answer is wrong, 2 if
the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP_TIMEOUT_S = 170   # limit for one repetition's worker process


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str            # worker.SHAPES key
    n: int
    g: int
    xs: int               # sweep: distinct x; reuse: runs; prepare: runs per preparation
    preps: int = 1        # prepare: preparations per repetition
    loads: int = 1        # reuse: chi-file loads per repetition


WORKLOADS = {w.name: w for w in (
    # dense QFT is ~85% of a run; distinct x never hit the div_x cache; each
    # distinct x adds a 32 MB table to peak RSS
    Workload("sweep-2002", "sweep", n=2003, g=5, xs=3),
    # short runs, no dominant layer; x drawn with replacement hits the
    # 128-entry div_x cache ~40% of the time; never calls prepare_chi;
    # 400 loads of ~1 ms each so set-up time is measured over ~0.4 s
    Workload("reuse-256", "reuse", n=257, g=3, xs=400, loads=400),
    # sampled preparations (acceptance 288/1008) dominate; one run after each
    Workload("prepare-1008", "prepare", n=1009, g=11, xs=1, preps=20),
)}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("runs_per_s", "1/s"),
              ("run_p50_s", "s"), ("run_tail_s", "s"), ("peak_rss_mb", "MB"),
              ("fail_frac", "ratio"))
# the end-to-end metrics that are never 0 and steady across seeds; the others
# are printed but not in the JSON line (see perfbench/README.md)
GATED = ("setup_s", "wall_s", "runs_per_s", "run_p50_s", "peak_rss_mb")

PER_LAYER = (
    ("transforms.qft_s", "s"), ("transforms.qft_calls", "count"),
    ("qstate.unitary_s", "s"), ("transforms.fourier_build_s", "s"),
    ("transforms.fourier_hit_ratio", "ratio"), ("transforms.divide_s", "s"),
    ("transforms.table_build_s", "s"), ("transforms.table_hit_ratio", "ratio"),
    ("group.mul_calls", "count"), ("qstate.permute_s", "s"),
    ("transforms.cache_bytes", "B"), ("qstate.factor_out_s", "s"),
    ("qstate.readout_s", "s"), ("qstate.tensor_s", "s"), ("chi.reference_s", "s"),
    ("group.oracle_s", "s"), ("dlog.self_s", "s"), ("chi.load_s", "s"),
    ("qstate.parse_s", "s"), ("chi.verify_s", "s"), ("chi.prepare_s", "s"),
    ("chi.prepare_attempts", "count"), ("chi.accept_ratio", "ratio"),
    ("group.validate_s", "s"), ("dlog.max_mass_defect", "ratio"),
    ("dlog.max_fidelity_loss", "ratio"), ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run: no program, a crashed or hung worker."""


def group_elements(n: int, g: int) -> list[int]:
    """Ascending elements of <g> mod n, by plain integer arithmetic."""
    out, x = [1], g % n
    while x != 1:
        out.append(x)
        x = x * g % n
    return sorted(out)


def make_inputs(w: Workload, seed: int) -> dict:
    """Everything the program receives, fixed by the workload seed alone."""
    elems = group_elements(w.n, w.g)
    rng = np.random.default_rng([seed, 17])
    if w.shape == "sweep":
        xs = [int(v) for v in rng.choice(elems, size=w.xs, replace=False)]
        return {"seed": seed, "xs": xs}
    if w.shape == "reuse":
        xs = [int(v) for v in rng.choice(elems, size=w.xs)]
        return {"seed": seed, "xs": xs, "loads": w.loads}
    # the preparation seeds are 0..preps-1 for every workload seed: attempt
    # counts are geometric, and a seed-dependent set of 20 would move set-up
    # time by ~13% (sd) from seed to seed with no change in the program
    xs = [[int(v) for v in rng.choice(elems, size=w.xs)] for _ in range(w.preps)]
    return {"seed": seed, "prep_seeds": list(range(w.preps)), "xs": xs}


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(job: dict, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON result."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              env=worker_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def save_chi_file(root: Path, w: Workload, seed: int, out: Path) -> str:
    """Save the reuse workload's chi file with `chi-dlog prepare-chi`, untimed."""
    path = out / f"chi-{w.n}-{w.g}-seed{seed}.txt"
    env = worker_env() | {"PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "chi_dlog.cli", "prepare-chi",
                           "--n", str(w.n), "--g", str(w.g), "--seed", str(seed),
                           "--output", str(path)],
                          capture_output=True, text=True, env=env, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"could not save the chi file:\n{proc.stderr.strip()}")
    return str(path)


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value) at the highest of a few percentiles that leaves at
    least ten samples beyond it; (None, None) when there are too few."""
    s = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100 * len(s))
        if len(s) - rank >= 10:
            return pct, s[rank - 1]
    return None, None


def end_to_end(reps: list[dict]) -> dict:
    runs = [t for r in reps for t in r["run_s"]]
    pct, tail_s = tail(runs)
    attempted = sum(r["attempted"] for r in reps)
    setups = [statistics.fmean(r["setup_s"]) for r in reps if r["setup_s"]]
    return {
        "setup_s": statistics.median(setups) if setups else math.nan,
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "runs_per_s": sum(r["ok_runs"] for r in reps) / sum(runs) if runs else 0.0,
        "run_p50_s": statistics.median(runs) if runs else math.nan,
        "run_tail_s": tail_s,
        "run_tail_pct": pct,
        "run_samples": len(runs),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reps) / 1024,
        "fail_frac": sum(r["failed"] for r in reps) / max(attempted, 1),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Medians over traced repetitions, plus drift maxima and trace overhead.

    The lower median keeps counts whole when there are two traced repetitions.
    """
    out = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.median_low(r["layers"][key] for r in traced)
    attempts = statistics.median_low(sum(r["setup_attempts"]) for r in traced)
    preps = statistics.median_low(sum(map(bool, r["setup_attempts"])) for r in traced)
    out["chi.prepare_attempts"] = attempts
    out["chi.accept_ratio"] = preps / attempts if attempts else 0.0
    out["dlog.max_mass_defect"] = max(r["max_mass_defect"] for r in traced + plain)
    out["dlog.max_fidelity_loss"] = max(r["max_fidelity_loss"] for r in traced + plain)
    out["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                   / statistics.median(r["wall_s"] for r in plain))
    return out


def environment(root: Path, reps: list[dict]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": reps[0]["blas_threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(w: Workload, seed: int, trace: bool, e2e: dict, layers: dict | None,
           reps: list[dict]) -> dict:
    """Print every metric by name and unit; return the contract's JSON line."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"# {w.name} seed={seed} trace={int(trace)} repetitions={len(reps)}")
    if layers is None:
        for name, unit in END_TO_END:
            note = ""
            if name == "run_tail_s":
                note = (f"  (p{e2e['run_tail_pct']:g} of {e2e['run_samples']} runs)"
                        if e2e["run_tail_pct"] else
                        f"  (not applicable: {e2e['run_samples']} runs)")
            if name == "fail_frac":
                note = f"  ({failed} of {attempted} operations)"
            print(f"{name:32s} {fmt(e2e[name]):>14s} {unit}{note}")
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END if k in GATED}
    else:
        bases = {
            "transforms.cache_bytes": "(computed: entries x bytes per entry)",
            "transforms.fourier_hit_ratio": f"(of {layers['transforms.fourier_calls']} calls)",
            "transforms.table_hit_ratio": f"(of {layers['transforms.table_calls']} calls)",
            "chi.accept_ratio": f"(of {layers['chi.prepare_attempts']} attempts)",
            "trace.overhead_ratio": "(traced / untraced wall_s)",
        }
        for name, unit in PER_LAYER:
            print(f"{name:32s} {fmt(layers[name]):>14s} {unit}  {bases.get(name, '')}".rstrip())
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}
    for r in reps:
        for err in r["errors"]:
            print(f"FAILED: {err}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_benchmark(w: Workload, seed: int, seconds: float, trace: bool,
                  root: Path = ROOT) -> tuple[dict, dict | None, list[dict], list[dict]]:
    """Repeat the seed's repetition while another fits in `seconds`; returns
    (end-to-end, per-layer or None, plain reps, traced reps)."""
    if not (root / "src" / "chi_dlog" / "__init__.py").is_file():
        raise BenchError(f"no chi_dlog package under {root / 'src'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    job = {"root": str(root), "shape": w.shape, "n": w.n, "g": w.g,
           "trace": False} | make_inputs(w, seed)
    if w.shape == "reuse":
        job["chi_file"] = save_chi_file(root, w, seed, out)
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        if trace and len(plain) > len(traced):
            spans = out / f"spans-{w.name}-seed{seed}-rep{len(traced)}.jsonl"
            traced.append(spawn(job | {"trace": True, "spans_path": str(spans)},
                                REP_TIMEOUT_S))
        else:
            plain.append(spawn(job, REP_TIMEOUT_S))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds and (traced or not trace):
            break
    e2e = end_to_end(plain)
    layers = per_layer(traced, plain) if trace else None
    return e2e, layers, plain, traced


def main(argv=None, root: Path = ROOT, workloads: dict = WORKLOADS) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = workloads[args.workload]
    try:
        e2e, layers, plain, traced = run_benchmark(w, args.seed, args.seconds,
                                                   bool(args.trace), root)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    reps = plain + traced
    line = report(w, args.seed, bool(args.trace), e2e, layers, reps)
    record = {"workload": w.name, "params": asdict(w),
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(root, reps), "end_to_end": e2e,
              "per_layer": layers, "repetitions": reps, "result": line}
    (HERE / "out" / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
