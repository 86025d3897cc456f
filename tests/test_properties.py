"""Property tests over random cyclic groups of order <= 64 and random seeds,
and over small subgroups modulo primes just below the 2**40 modulus cap."""

import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chi_dlog.chi import FIDELITY_TOL, chi_reference, load_chi, prepare_chi, save_chi
from chi_dlog.cli import main
from chi_dlog.dlog import run_dlog
from chi_dlog.errors import ArtifactMismatch
from chi_dlog.group import cyclic_group, multiplicative_order, validate_group
from chi_dlog import qstate
from chi_dlog.qstate import (
    NORM_TOL,
    ExponentRegister,
    QState,
    RegisterLayout,
    basis_state,
    dump_amplitudes,
    fidelity,
    parse_amplitudes,
)
from chi_dlog.transforms import div_x_apply, qft_apply
from chi_dlog.verify import _product

MAX_ORDER = 64
MAX_MODULUS = 10 ** 6  # keeps the trial-division factoring in each draw cheap

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def modulus_groups(draw):
    """The subgroup mod n of a random order d <= 64 dividing a unit's order."""
    n = draw(st.integers(2, MAX_MODULUS))
    unit = draw(st.integers(1, n - 1).filter(lambda h: math.gcd(h, n) == 1))
    order = multiplicative_order(unit, n)
    d = draw(st.sampled_from([d for d in range(1, min(order, MAX_ORDER) + 1)
                              if order % d == 0]))
    return validate_group(n, pow(unit, order // d, n))


any_groups = st.one_of(modulus_groups(),
                       st.integers(1, MAX_ORDER).map(cyclic_group))


@settings(max_examples=50, deadline=None)
@given(spec=any_groups, seed=seeds)
def test_sampled_preparation_accepts_only_coprime_draws(spec, seed):
    handle, stats = prepare_chi(spec, seed=seed)
    m = spec.order
    assert handle.power == 1
    assert handle.verified
    assert fidelity(handle.state, chi_reference(spec, 1)) >= 1 - FIDELITY_TOL
    assert stats.attempts == len(stats.observed_s)
    assert all(math.gcd(s, m) > 1 for s in stats.observed_s[:-1])
    assert math.gcd(stats.success_s, m) == 1
    assert stats.observed_s[-1] == stats.success_s


@settings(max_examples=50, deadline=None)
@given(spec=modulus_groups(), seed=seeds)
def test_chi_file_round_trip_is_bit_identical(spec, seed):
    handle, _ = prepare_chi(spec, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chi.txt"
        save_chi(handle, path)
        loaded_spec, loaded = load_chi(path)
    assert loaded_spec == spec
    assert loaded.power == handle.power % spec.order  # the header stores power mod m
    assert loaded.state.layout == handle.state.layout
    assert loaded.state.amplitudes.tobytes() == handle.state.amplitudes.tobytes()


def _both_orders(spec, power):
    """The joint state after the first transform: fresh register first, then joined."""
    def zero():
        return basis_state(RegisterLayout((ExponentRegister(spec.order),)), (0,))
    chi = chi_reference(spec, power)
    # dividing by the identity joins the registers and does nothing else
    early = div_x_apply(qft_apply(zero()), chi, spec.identity).amplitudes
    # the joint transform of |0> x chi is kept here only as an oracle
    joint = qft_apply(_product(zero(), chi)).amplitudes
    return early, joint


@settings(max_examples=50, deadline=None)
@given(spec=any_groups, power=st.integers(0, MAX_ORDER - 1))
def test_transforming_the_fresh_register_first_is_exact(spec, power):
    early, joint = _both_orders(spec, power)
    assert np.array_equal(early, joint)


# m = 1018 = 2 * 509 takes pocketfft's Bluestein path, which rounds the two
# orders apart
@pytest.mark.parametrize("n, g, exact", [(257, 3, True), (1009, 11, True),
                                         (1019, 2, False)])
def test_transforming_the_fresh_register_first_at_size(n, g, exact):
    early, joint = _both_orders(validate_group(n, g), 1)
    assert np.array_equal(early, joint) == exact
    assert np.max(np.abs(early - joint)) <= 2e-15


# primes n = 2**40 - d (Miller-Rabin) with m | n - 1, and g = h**((n - 1) / m)
# for the smallest h that makes g of order m: m = 32 and 36 are smooth, 61 is
# prime (pocketfft's Bluestein path), 60 has four prime factors
NEAR_CAP = [(2 ** 40 - 87, 13, 36), (2 ** 40 - 195, 2, 60),
            (2 ** 40 - 479, 3, 32), (2 ** 40 - 1049, 2, 61)]


@cache
def near_cap_group(n, h, m):
    """Built once per session: validate_group factors n, about 0.1 s each."""
    spec = validate_group(n, pow(h, (n - 1) // m, n))
    assert spec.order == m
    return spec


@st.composite
def near_cap_elements(draw):
    """A pool group and an element drawn from its subgroup."""
    spec = near_cap_group(*draw(st.sampled_from(NEAR_CAP)))
    return spec, spec.elements[draw(st.integers(0, spec.order - 1))]


@settings(max_examples=30, deadline=None)
@given(case=near_cap_elements(), seed=seeds)
def test_runs_near_the_modulus_cap_find_the_exponent(case, seed):
    spec, x = case
    for mode in ("exhaustive", "sampled"):
        handle, _ = prepare_chi(spec, seed=seed, mode=mode)
        result = run_dlog(spec, handle, x, mode=mode, seed=seed)
        assert pow(spec.generator, result.measured_p, spec.modulus) == x
        assert result.measured_p == result.oracle_p
        assert result.chi_post_fidelity >= 1 - FIDELITY_TOL


@settings(max_examples=5, deadline=None)
@given(case=near_cap_elements(), mode=st.sampled_from(["exhaustive", "sampled"]),
       seed=st.integers(0, 2 ** 31))
def test_cli_dlog_near_the_modulus_cap(case, mode, seed):
    spec, x = case
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["dlog", "--n", str(spec.modulus), "--g", str(spec.generator),
                     "--allow-subgroup", "--x", str(x), "--prepare", "--mode", mode,
                     "--seed", str(seed)])
    assert code == 0
    record = json.loads(out.getvalue())
    assert (record["n"], record["g"], record["m"], record["x"]) == \
        (spec.modulus, spec.generator, spec.order, x)
    assert record["p_measured"] == record["p_oracle"]
    assert pow(spec.generator, record["p_measured"], spec.modulus) == x


# zeros of both signs, the smallest subnormal, the smallest normal and the
# largest finite float64, each with both signs
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308]


@st.composite
def shuffled_dumps(draw):
    """A one- or two-register layout, finite amplitudes and a line order."""
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    layout = RegisterLayout(tuple(ExponentRegister(d) for d in dims))
    parts = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    floats = draw(st.lists(parts, min_size=2 * layout.total_dim,
                           max_size=2 * layout.total_dim))
    order = draw(st.permutations(range(layout.total_dim)))
    return layout, np.array(floats).view(np.complex128), order


@settings(max_examples=100, deadline=None)
@given(case=shuffled_dumps())
@example(case=(RegisterLayout((ExponentRegister(2), ExponentRegister(4))),
               np.array(EDGE_FLOATS * 2).view(np.complex128), list(range(7, -1, -1))))
def test_dump_shuffle_parse_is_bit_identical(case):
    layout, amplitudes, order = case
    lines = dump_amplitudes(QState(layout, amplitudes)).splitlines()
    back = parse_amplitudes("\n".join(lines[k] for k in order) + "\n", layout)
    assert back.amplitudes.tobytes() == amplitudes.tobytes()


def _parse_line_by_line(text, layout):
    """The reference parser: one line at a time, each check as the line is read."""
    amps = np.full(layout.total_dim, np.nan + 0j, dtype=np.complex128)
    filled = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ArtifactMismatch(f"line {lineno}: expected 'index re im', got {line!r}")
        try:
            i = int(parts[0])
            re, im = float(parts[1]), float(parts[2])
        except ValueError:
            raise ArtifactMismatch(f"line {lineno}: unparseable values in {line!r}") from None
        if not 0 <= i < layout.total_dim:
            raise ArtifactMismatch(f"line {lineno}: index {i} out of range")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ArtifactMismatch(f"line {lineno}: non-finite amplitude")
        if not np.isnan(amps[i].real):
            raise ArtifactMismatch(f"line {lineno}: duplicate index {i}")
        amps[i] = complex(re, im)
        filled += 1
    if filled != layout.total_dim:
        raise ArtifactMismatch(
            f"dump holds {filled} amplitudes, layout needs {layout.total_dim}")
    return QState(layout, amps)


def _parse_outcome(parse, text, layout):
    """The parsed bits, or the refusal message."""
    try:
        return parse(text, layout).amplitudes.tobytes()
    except ArtifactMismatch as exc:
        return str(exc)


ODD_INDICES = ["+1", "1_0", "1.0", "0x1", "-1", "10**30", str(10 ** 30), "x"]
ODD_VALUES = ["0", "-0", "5e-324", "nan", "inf", "-inf", "1e999", "zero"]


@st.composite
def edited_dumps(draw):
    """A shuffled dump of up to 12 amplitudes with up to four lines edited."""
    m = draw(st.integers(1, 12))
    lines = draw(st.permutations([f"{k} {k / 8:.17g} {-k / 4:.17g}" for k in range(m)]))
    for _ in range(draw(st.integers(0, 4))):
        line = draw(st.one_of(
            st.sampled_from(["", "  \t", "0 0", "0 0 0 0", f"{m} 0 0"] + lines),
            st.sampled_from(ODD_INDICES).map(lambda i: f"{i} 0 0"),
            st.tuples(st.sampled_from(ODD_VALUES), st.sampled_from(ODD_VALUES))
            .map(lambda v: f"0 {v[0]} {v[1]}"),
        ))
        k = draw(st.integers(0, len(lines)))
        if k < len(lines) and draw(st.booleans()):
            lines[k] = line
        else:
            lines.insert(k, line)
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return RegisterLayout((ExponentRegister(m),)), sep.join(lines) + sep


@settings(max_examples=300, deadline=None)
@given(case=edited_dumps())
def test_parse_matches_the_line_by_line_reference(case):
    layout, text = case
    assert _parse_outcome(parse_amplitudes, text, layout) == \
        _parse_outcome(_parse_line_by_line, text, layout)


# 300 rows of 300 amplitudes make two blocks of the product check
RESIDUAL_SIDE = 300
# deviations whose parts straddle the screen, 2 * max(|Re d|, |Im d|) <=
# NORM_TOL, and the tolerance itself
near_tolerance = st.floats(-1.5 * NORM_TOL, 1.5 * NORM_TOL)
deviations = st.lists(st.tuples(st.integers(0, RESIDUAL_SIDE ** 2 - 1),
                                near_tolerance, near_tolerance), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(moved=deviations, seed=seeds)
@example(moved=[(17, 0.75 * NORM_TOL, 0.75 * NORM_TOL)], seed=0)
@example(moved=[(65536, 0.99 * NORM_TOL, 0.0)], seed=0)
@example(moved=[(5, 0.5 * NORM_TOL, -0.5 * NORM_TOL), (89999, 0.71 * NORM_TOL, 0.71 * NORM_TOL)],
         seed=1)
def test_the_residual_screen_decides_as_the_magnitudes_do(moved, seed):
    # a block that passes the screen takes no magnitudes; the check must
    # still pass or fail exactly as the largest |d| does, and report that
    # largest |d| when it fails
    rng = np.random.default_rng(seed)
    column, row = rng.normal(size=(2, RESIDUAL_SIDE)) + 1j * rng.normal(
        size=(2, RESIDUAL_SIDE))
    grid = np.multiply.outer(column, row)
    for flat, re, im in moved:
        grid.flat[flat] += complex(re, im)
    exact = float(np.abs(np.multiply.outer(column, row) - grid).max())
    got = qstate._residual(column, row, grid)
    assert (got <= NORM_TOL) == (exact <= NORM_TOL)
    if exact > NORM_TOL:
        assert got == exact
    else:
        assert exact <= got
