"""CLI stdout against recorded output (tests/data/golden_cli.json).

Each recorded case holds a command line and the lines it printed. Key order,
integers, strings and lists must match exactly; floats may move by at most
FLOAT_TOL, the rounding a reordered FFT or reduction is allowed to cause.
"""

import json
from pathlib import Path

import pytest

from chi_dlog.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"
CASES = json.loads(GOLDEN.read_text())
FLOAT_TOL = 2e-15


def _same(got, want, where: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), \
            f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_stdout_matches_the_recording(capsys, case):
    assert main(case["argv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(case["stdout"])
    for i, (got, want) in enumerate(zip(lines, case["stdout"])):
        _same(json.loads(got), json.loads(want), f"line {i}")
