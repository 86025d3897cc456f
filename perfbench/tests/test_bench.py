"""Tests of the benchmark itself, on tiny groups so they run in seconds.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

TINY = {w.name: w for w in (
    run.Workload("sweep-12", "sweep", n=13, g=2, xs=3),
    run.Workload("reuse-12", "reuse", n=13, g=2, xs=40, loads=3),
    run.Workload("prepare-12", "prepare", n=13, g=2, xs=2, preps=3),
)}


def bench(capsys, name, seed=1, trace=0, root=run.ROOT):
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)], root=root, workloads=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_prints_every_metric_with_its_unit(capsys, name):
    code, lines = bench(capsys, name)
    assert code == 0
    for metric, unit in run.END_TO_END:
        row = next(ln for ln in lines if ln.split()[0] == metric)
        assert f" {unit}" in row
    assert next(ln for ln in lines if ln.startswith("fail_frac")).split()[1] == "0"
    line = json.loads(lines[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(run.GATED)

    code, lines = bench(capsys, name, trace=1)
    assert code == 0
    for metric, unit in run.PER_LAYER:
        assert any(ln.split()[0] == metric and f" {unit}" in ln for ln in lines)
    line = json.loads(lines[-1])
    assert set(line["metrics"]) == {m for m, _ in run.PER_LAYER}


def stubbed_checkout(tmp_path, module: str, patch: str) -> Path:
    """A copy of src/ whose chi_dlog.<module> ends with `patch`."""
    shutil.copytree(run.ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "chi_dlog" / f"{module}.py"
    path.write_text(path.read_text() + "\n\n" + patch)
    return tmp_path


def test_wrong_answers_count_and_fail_the_command(capsys, tmp_path):
    root = stubbed_checkout(tmp_path, "dlog", (
        "_unstubbed_run_dlog = run_dlog\n\n\n"
        "def run_dlog(spec, chi, x, *args, **kwargs):\n"
        "    result = _unstubbed_run_dlog(spec, chi, x, *args, **kwargs)\n"
        "    result.measured_p = (result.measured_p + 1) % spec.order\n"
        "    return result\n"))
    code, lines = bench(capsys, "sweep-12", root=root)
    assert code == 1
    line = json.loads(lines[-1])
    assert not line["correct"]
    assert line["failed"] == 3 and line["attempted"] == 4  # 3 runs, 1 set-up
    frac = next(ln for ln in lines if ln.startswith("fail_frac")).split()[1]
    assert float(frac) == 0.75


def test_a_wrong_chi_state_fails_the_closed_form_check(capsys, tmp_path):
    # the handle claims power 1 and verified, but holds the power-2 state
    root = stubbed_checkout(tmp_path, "chi", (
        "def prepare_chi(spec, *args, **kwargs):\n"
        "    handle = ChiHandle(power=1, state=chi_reference(spec, 2), verified=True)\n"
        "    return handle, PrepStats(attempts=1)\n"))
    code, lines = bench(capsys, "sweep-12", root=root)
    assert code == 1
    line = json.loads(lines[-1])
    assert line["failed"] == 4 and line["attempted"] == 4


def test_without_the_program_exits_nonzero_and_prints_no_result(capsys, tmp_path):
    code, lines = bench(capsys, "reuse-12", root=tmp_path)
    assert code == 2 and lines == []


@pytest.mark.parametrize("name", ["sweep-12", "prepare-12"])
def test_same_seed_same_inputs_and_counts(capsys, name):
    w = TINY[name]
    assert run.make_inputs(w, 5) == run.make_inputs(w, 5)
    assert run.make_inputs(w, 5) != run.make_inputs(w, 6)
    counts = []
    for _ in range(2):
        code, lines = bench(capsys, name, seed=5, trace=1)
        assert code == 0
        metrics = json.loads(lines[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in
                       ("transforms.qft_calls", "group.mul_calls", "chi.prepare_attempts")})
    assert counts[0] == counts[1]
    assert counts[0]["group.mul_calls"] > 0 and counts[0]["chi.prepare_attempts"] > 0


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(15))) == (None, None)
    assert run.tail([float(v) for v in range(20)]) == (50.0, 9.0)
    assert run.tail([float(v) for v in range(1000)])[0] == 99.0


def test_gated_times_are_raw_measurements():
    # a repetition whose preparations retried more reads slower, not corrected
    reps = [{"setup_s": [1.0, 3.0], "wall_s": 5.0, "run_s": [0.5], "ok_runs": 1,
             "attempted": 3, "failed": 0, "maxrss_kb": 1024},
            {"setup_s": [2.0, 6.0], "wall_s": 9.0, "run_s": [0.5], "ok_runs": 1,
             "attempted": 3, "failed": 0, "maxrss_kb": 1024},
            {"setup_s": [3.0, 9.0], "wall_s": 13.0, "run_s": [0.5], "ok_runs": 1,
             "attempted": 3, "failed": 0, "maxrss_kb": 1024}]
    e2e = run.end_to_end(reps)
    assert e2e["setup_s"] == 4.0  # median of the per-repetition means 2, 4, 6
    assert e2e["wall_s"] == 9.0
