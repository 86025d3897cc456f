"""CLI surface: records, exit codes, file flows, and byte stability."""

import json
import os

import pytest

from chi_dlog import __version__, cli, dlog
from chi_dlog.chi import load_chi
from chi_dlog.cli import main
from chi_dlog.errors import InvariantViolation
from chi_dlog.group import validate_group
from chi_dlog.qstate import DIM_CAP, ExponentRegister, GroupRegister, RegisterLayout


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prepare_chi_record(capsys):
    code, out, _ = run_cli(capsys, ["prepare-chi", "--n", "7", "--g", "3", "--seed", "1"])
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["n", "g", "m", "seed", "version", "command", "mode",
                            "attempts", "observed_s", "success_s",
                            "acceptance_probability", "fidelity"]
    assert (record["n"], record["g"], record["m"]) == (7, 3, 6)
    assert record["command"] == "prepare-chi"
    assert record["mode"] == "sampled"
    assert record["version"] == __version__
    assert record["attempts"] == len(record["observed_s"])
    assert record["fidelity"] >= 1 - 1e-9


def test_prepare_chi_exhaustive_acceptance(capsys):
    code, out, _ = run_cli(capsys, ["prepare-chi", "--n", "5", "--g", "2",
                                    "--mode", "exhaustive"])
    assert code == 0
    record = json.loads(out)
    assert record["acceptance_probability"] == pytest.approx(0.5, abs=1e-12)
    assert record["attempts"] == 1


def test_prepare_chi_writes_loadable_file(capsys, tmp_path):
    path = tmp_path / "chi.txt"
    code, _, _ = run_cli(capsys, ["prepare-chi", "--n", "5", "--g", "2",
                                  "--mode", "exhaustive", "--output", str(path)])
    assert code == 0
    spec, handle = load_chi(path)
    assert (spec.modulus, spec.generator) == (5, 2)
    assert handle.verify() >= 1 - 1e-9


@pytest.mark.parametrize("argv", [
    ["prepare-chi", "--n", "5", "--g", "2"],
    ["dlog", "--n", "5", "--g", "2", "--x", "3", "--prepare"],
], ids=["prepare-chi", "dlog"])
def test_unwritable_output_exits_2(capsys, tmp_path, monkeypatch, argv):
    # a missing directory is refused before the group is even validated
    def never(*args, **kwargs):
        raise AssertionError("the group was validated")
    monkeypatch.setattr(cli, "validate_group", never)
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, argv + ["--output", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


@pytest.mark.parametrize("argv", [
    ["prepare-chi", "--n", "5", "--g", "2"],
    ["dlog", "--n", "5", "--g", "2", "--x", "3", "--prepare"],
], ids=["prepare-chi", "dlog"])
def test_output_naming_a_directory_exits_2(capsys, tmp_path, argv):
    # only the final write can find this one
    code, _, err = run_cli(capsys, argv + ["--output", str(tmp_path)])
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path}: ")


def test_prepare_chi_reruns_are_byte_identical(capsys):
    argv = ["prepare-chi", "--n", "13", "--g", "2", "--seed", "4"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_bad_group_exits_2(capsys):
    assert run_cli(capsys, ["prepare-chi", "--n", "8", "--g", "3"])[0] == 2
    assert run_cli(capsys, ["prepare-chi", "--n", "8", "--g", "2"])[0] == 2
    assert run_cli(capsys, ["dlog", "--n", "12", "--g", "5", "--x", "5",
                            "--prepare"])[0] == 2


def test_allow_subgroup(capsys):
    code, out, _ = run_cli(capsys, ["prepare-chi", "--n", "7", "--g", "2",
                                    "--allow-subgroup"])
    assert code == 0
    assert json.loads(out)["m"] == 3


def test_trivial_group(capsys):
    code, out, _ = run_cli(capsys, ["prepare-chi", "--n", "2", "--g", "1"])
    assert code == 0
    assert json.loads(out)["m"] == 1


def test_dlog_single_x(capsys):
    code, out, _ = run_cli(capsys, ["dlog", "--n", "7", "--g", "3", "--x", "2",
                                    "--prepare"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert list(record) == ["n", "g", "m", "x", "p_oracle", "p_measured",
                            "success_mass", "chi_fidelity", "fourier_count",
                            "seed", "version"]
    assert record["x"] == 2
    assert record["p_measured"] == record["p_oracle"] == 2
    assert record["success_mass"] >= 1 - 1e-9
    assert record["fourier_count"] == 2
    assert record["version"] == __version__


def test_dlog_sweep_all_x(capsys):
    code, out, _ = run_cli(capsys, ["dlog", "--n", "13", "--g", "2",
                                    "--sweep-all-x", "--prepare"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["x"] for r in records] == list(range(1, 13))  # ascending labels
    assert all(r["p_measured"] == r["p_oracle"] for r in records)


def test_dlog_reruns_are_byte_identical(capsys):
    argv = ["dlog", "--n", "13", "--g", "2", "--x-count", "3", "--prepare",
            "--mode", "sampled", "--seed", "9"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    assert len(first.splitlines()) == 3


def test_dlog_trials_shift_the_seed(capsys):
    code, out, _ = run_cli(capsys, ["dlog", "--n", "7", "--g", "3", "--x", "4",
                                    "--prepare", "--trials", "2", "--seed", "5"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["seed"] for r in records] == [5, 6]


def test_dlog_output_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "runs.jsonl"
    _, out, _ = run_cli(capsys, ["dlog", "--n", "5", "--g", "2", "--sweep-all-x",
                                 "--prepare", "--output", str(path)])
    assert path.read_text() == out


def test_dlog_from_chi_file(capsys, tmp_path):
    path = tmp_path / "chi.txt"
    run_cli(capsys, ["prepare-chi", "--n", "7", "--g", "3", "--mode", "exhaustive",
                     "--output", str(path)])
    code, out, _ = run_cli(capsys, ["dlog", "--n", "7", "--g", "3", "--x", "6",
                                    "--chi", str(path)])
    assert code == 0
    assert json.loads(out)["p_measured"] == 3  # 3^3 = 27 = 6 mod 7


def test_dlog_chi_file_group_mismatch_exits_4(capsys, tmp_path):
    path = tmp_path / "chi.txt"
    run_cli(capsys, ["prepare-chi", "--n", "5", "--g", "2", "--mode", "exhaustive",
                     "--output", str(path)])
    code, _, err = run_cli(capsys, ["dlog", "--n", "7", "--g", "3", "--x", "2",
                                    "--chi", str(path)])
    assert code == 4
    assert "error" in err


def test_dlog_corrupted_chi_exits_4(capsys, tmp_path):
    path = tmp_path / "chi.txt"
    run_cli(capsys, ["prepare-chi", "--n", "7", "--g", "3", "--mode", "exhaustive",
                     "--output", str(path)])
    lines = path.read_text().splitlines()
    index, re_part, im_part = lines[1].split()
    lines[1] = f"{index} {float(re_part) * 3 + 0.5} {im_part}"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, ["dlog", "--n", "7", "--g", "3", "--x", "2",
                                    "--chi", str(path)])
    assert code == 4
    assert "error" in err


def test_dlog_mislabeled_chi_power_exits_4(capsys, tmp_path):
    # normalized state, but the header claims a power the amplitudes are not
    from chi_dlog.chi import ChiHandle, chi_reference, save_chi
    from chi_dlog.group import validate_group

    z7 = validate_group(7, 3)
    path = tmp_path / "chi.txt"
    save_chi(ChiHandle(power=2, state=chi_reference(z7, 2)), path)
    body = path.read_text().splitlines()[1:]
    path.write_text("chi m=6 power=1 n=7 g=3\n" + "\n".join(body) + "\n")
    code, _, err = run_cli(capsys, ["dlog", "--n", "7", "--g", "3", "--x", "2",
                                    "--chi", str(path)])
    assert code == 4
    assert "fidelity" in err


def test_dlog_reads_a_trivial_group_chi_file(capsys, tmp_path):
    # m = 1 stores power 1 as its residue 0, which still counts as power 1
    path = tmp_path / "chi.txt"
    assert run_cli(capsys, ["prepare-chi", "--n", "2", "--g", "1",
                            "--output", str(path)])[0] == 0
    assert path.read_text().startswith("chi m=1 power=0 n=2 g=1\n")
    code, out, _ = run_cli(capsys, ["dlog", "--n", "2", "--g", "1", "--x", "1",
                                    "--chi", str(path)])
    assert code == 0
    assert json.loads(out)["p_measured"] == 0


def test_chi_header_power_must_be_a_residue(capsys, tmp_path):
    path = tmp_path / "chi.txt"
    run_cli(capsys, ["prepare-chi", "--n", "13", "--g", "2", "--output", str(path)])
    body = path.read_text().splitlines()[1:]
    path.write_text("chi m=12 power=13 n=13 g=2\n" + "\n".join(body) + "\n")
    code, out, err = run_cli(capsys, ["dlog", "--n", "13", "--g", "2", "--x", "6",
                                      "--chi", str(path)])
    assert (code, out) == (4, "")
    assert "power 13" in err


def unreadable_chi_file(tmp_path, case):
    """A chi file load_chi cannot turn into a group and a state."""
    path = tmp_path / f"{case}.txt"
    if case == "not-utf8":
        path.write_bytes(b"chi m=12 power=1 n=13 g=2\n0 0.28 \xff\n")
    elif case == "n=1":
        path.write_text("chi m=1 power=0 n=1 g=1\n0 1 0\n")
    elif case == "shared-factor":
        path.write_text("chi m=1 power=0 n=4 g=2\n0 1 0\n")
    return path  # "missing" is never written


UNREADABLE = ["missing", "not-utf8", "n=1", "shared-factor"]


@pytest.mark.parametrize("case", UNREADABLE)
def test_dlog_unreadable_chi_file_exits_4(capsys, tmp_path, case):
    path = unreadable_chi_file(tmp_path, case)
    code, out, err = run_cli(capsys, ["dlog", "--n", "13", "--g", "2", "--x", "6",
                                      "--chi", str(path)])
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("case", UNREADABLE)
def test_verify_reports_an_unreadable_chi_file(capsys, tmp_path, case):
    path = unreadable_chi_file(tmp_path, case)
    code, out, _ = run_cli(capsys, ["verify", "--max-m", "2", "--chi", str(path)])
    assert code == 1
    failures = [line for line in out.splitlines() if "FAIL" in line]
    assert len(failures) == 1 and failures[0].startswith("  FAIL chi-file: ")
    assert str(path) in failures[0]


def test_dim_cap_flag_exits_3(capsys):
    code, _, _ = run_cli(capsys, ["dlog", "--n", "13", "--g", "2", "--x", "2",
                                  "--prepare", "--dim-cap", "100"])
    assert code == 3


def test_dim_cap_flag_is_scoped_to_the_command(capsys):
    before = dict(os.environ)
    # the cap passes (exit 0), is rejected (exit 2), or is hit (exit 3);
    # the flag can only lower the cap
    for cap, expected in (("144", 0), ("0", 2), (str(DIM_CAP + 1), 2), ("100", 3)):
        code, _, _ = run_cli(capsys, ["prepare-chi", "--n", "13", "--g", "2",
                                      "--dim-cap", cap])
        assert code == expected
        assert dict(os.environ) == before
    # joint dimension 144 is above the flag's last accepted cap of 100
    layout = RegisterLayout((ExponentRegister(12), GroupRegister(validate_group(13, 2))))
    assert layout.total_dim == 144


def test_dim_cap_flag_below_one_exits_2(capsys):
    code, out, err = run_cli(capsys, ["dlog", "--n", "13", "--g", "2", "--x", "2",
                                      "--prepare", "--dim-cap", "0"])
    assert code == 2
    assert out == ""
    assert "--dim-cap must be at least 1" in err


def test_invariant_violation_exits_1(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("phase kick-back drifted by 1.000e+00")
    monkeypatch.setattr(cli, "run_dlog_repeated", broken)
    code, out, err = run_cli(capsys, ["dlog", "--n", "13", "--g", "2", "--x", "2",
                                      "--prepare"])
    assert code == 1
    assert out == ""
    assert "phase kick-back" in err


def test_sampled_dlog_with_a_wrong_division_exits_1(capsys, monkeypatch):
    # the run divides by 2x: the drawn exponent is wrong with mass 1 and chi
    # stays an eigenstate, so only the mass on the true answer shows it
    real = dlog.div_x_apply
    monkeypatch.setattr(dlog, "div_x_apply",
                        lambda *args: real(*args[:-1], args[-1] * 2 % 101))
    code, out, err = run_cli(capsys, ["dlog", "--n", "101", "--g", "2", "--x", "5",
                                      "--prepare", "--mode", "sampled"])
    assert code == 1 and out == ""
    assert "success mass" in err


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--max-m", "6"])
    assert code == 0
    assert "checks passed" in out
    code, out, _ = run_cli(capsys, ["verify", "--max-m", "1"])
    assert code == 0


def test_verify_flags_corrupted_chi_file(capsys, tmp_path):
    path = tmp_path / "chi.txt"
    run_cli(capsys, ["prepare-chi", "--n", "13", "--g", "2", "--mode", "exhaustive",
                     "--output", str(path)])
    lines = path.read_text().splitlines()
    index, re_part, im_part = lines[1].split()
    lines[1] = f"{index} {float(re_part) * 2 + 0.3} {im_part}"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, ["verify", "--max-m", "4", "--chi", str(path)])
    assert code == 1
    assert "fidelity" in out


def test_verify_and_dlog_judge_a_chi_file_alike(capsys, tmp_path):
    # a scale of 1 + 1e-7 moves the squared norm by 2e-7, outside the 1e-9
    # bound ChiHandle.verify puts on it, while the shape stays a chi state
    path = tmp_path / "chi.txt"
    run_cli(capsys, ["prepare-chi", "--n", "101", "--g", "2", "--output", str(path)])
    verify = ["verify", "--max-m", "2", "--chi", str(path)]
    dlog = ["dlog", "--n", "101", "--g", "2", "--x", "5", "--chi", str(path)]
    assert run_cli(capsys, verify)[0] == 0
    assert run_cli(capsys, dlog)[0] == 0
    lines = path.read_text().splitlines()
    scaled = [lines[0]]
    for line in lines[1:]:
        index, re_part, im_part = line.split()
        scaled.append(f"{index} {float(re_part) * (1 + 1e-7)!r} "
                      f"{float(im_part) * (1 + 1e-7)!r}")
    path.write_text("\n".join(scaled) + "\n")
    code, out, _ = run_cli(capsys, verify)
    assert code == 1
    assert "FAIL chi-file: chi norm" in out
    assert "fidelity" not in out
    code, _, err = run_cli(capsys, dlog)
    assert code == 4
    assert "norm" in err


def test_resources_table(capsys):
    code, out, _ = run_cli(capsys, ["resources"])
    assert code == 0
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:]}
    assert rows["registers"] == ["2", "3"]
    assert rows["fourier_transforms"] == ["2", "4"]
    assert rows["division_ops"] == ["1", "-"]
    assert rows["measurements"] == ["1", "-"]


def test_argparse_rejects_conflicting_selectors():
    with pytest.raises(SystemExit) as exc:
        main(["dlog", "--n", "7", "--g", "3", "--x", "2", "--sweep-all-x",
              "--prepare"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["dlog", "--n", "7", "--g", "3", "--x", "2"])  # no chi source
    assert exc.value.code == 2
