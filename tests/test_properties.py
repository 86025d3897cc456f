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
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_dlog.chi import FIDELITY_TOL, chi_reference, load_chi, prepare_chi, save_chi
from chi_dlog.cli import main
from chi_dlog.dlog import run_dlog
from chi_dlog.group import cyclic_group, multiplicative_order, validate_group
from chi_dlog.qstate import ExponentRegister, RegisterLayout, basis_state, fidelity
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
