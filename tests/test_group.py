"""Number theory helpers and group construction, checked against slow references."""

import math

import numpy as np
import pytest

from chi_dlog import group
from chi_dlog.cli import main
from chi_dlog.errors import (
    CapExceeded,
    NoInverse,
    NotAGenerator,
    NotCoprime,
    NotInGroup,
)
from chi_dlog.group import (
    cyclic_group,
    cyclic_moduli,
    dlog_oracle,
    group_from_mul,
    is_cyclic_modulus,
    mod_inverse,
    multiplicative_order,
    prime_factors,
    primitive_root,
    totient,
    validate_group,
)
from chi_dlog.qstate import DIM_CAP


def brute_totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_order(g, n):
    x, r = g % n, 1
    while x != 1:
        x = x * g % n
        r += 1
    return r


def test_prime_factors_small():
    assert prime_factors(1) == {}
    assert prime_factors(2) == {2: 1}
    assert prime_factors(12) == {2: 2, 3: 1}
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(97) == {97: 1}


def test_prime_factors_recompose():
    for n in range(1, 500):
        product = 1
        for p, k in prime_factors(n).items():
            product *= p ** k
        assert product == n


def test_totient_known_values():
    assert totient(1) == 1
    assert totient(4) == 2
    assert totient(12) == 4
    assert totient(97) == 96


def test_totient_matches_gcd_count():
    for n in range(1, 200):
        assert totient(n) == brute_totient(n)


def test_mod_inverse():
    assert mod_inverse(5, 6) == 5
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(0, 1) == 0  # trivial group convention
    for m in range(1, 60):
        for s in range(m):
            if math.gcd(s, m) == 1 or m == 1:
                assert mod_inverse(s, m) * max(s, 1) % m == 1 % m
            else:
                with pytest.raises(NoInverse):
                    mod_inverse(s, m)


def test_multiplicative_order_known():
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(1, 5) == 1


def test_multiplicative_order_matches_linear_scan():
    for n in range(2, 41):
        for g in range(1, n):
            if math.gcd(g, n) != 1:
                continue
            assert multiplicative_order(g, n) == brute_order(g, n)


def test_is_cyclic_modulus_matches_brute_force():
    for n in range(2, 80):
        has_generator = any(
            math.gcd(g, n) == 1 and brute_order(g, n) == brute_totient(n)
            for g in range(1, n)
        )
        assert is_cyclic_modulus(n) == has_generator, n


def test_cyclic_moduli_prefix():
    assert cyclic_moduli(20) == [2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 17, 18, 19]


def test_primitive_root_values():
    assert primitive_root(2) == 1
    assert primitive_root(4) == 3
    assert primitive_root(7) == 3
    assert primitive_root(9) == 2
    assert primitive_root(8) is None
    assert primitive_root(12) is None


def test_primitive_root_is_smallest_and_generates():
    for n in cyclic_moduli(60):
        g = primitive_root(n)
        phi = brute_totient(n)
        assert brute_order(g, n) == phi
        for smaller in range(1, g):
            assert math.gcd(smaller, n) != 1 or brute_order(smaller, n) < phi


def test_validate_group_full():
    spec = validate_group(5, 2)
    assert spec.modulus == 5
    assert spec.generator == 2
    assert spec.order == 4
    assert spec.elements == (1, 2, 3, 4)
    assert spec.identity == 1
    assert validate_group(7, 3).order == 6


def test_validate_group_normalizes_generator():
    assert validate_group(5, 7) == validate_group(5, 2)


def test_validate_group_trivial():
    spec = validate_group(2, 1)
    assert spec.order == 1
    assert spec.elements == (1,)


def test_validate_group_subgroup():
    # 2 only generates a third of the units mod 7
    sub = validate_group(7, 2)
    assert sub.order == 3
    assert sub.elements == (1, 2, 4)
    with pytest.raises(NotAGenerator):
        validate_group(7, 2, require_full_group=True)
    with pytest.raises(NotAGenerator):
        validate_group(8, 3, require_full_group=True)


def test_validate_group_rejects_bad_input():
    with pytest.raises(NotCoprime):
        validate_group(8, 2)
    with pytest.raises(NotCoprime):
        validate_group(6, 3)
    with pytest.raises(NotCoprime):
        validate_group(5, 0)
    with pytest.raises(ValueError):
        validate_group(1, 0)
    with pytest.raises(ValueError):
        validate_group(0, 1)


def test_validate_group_factor_cap():
    with pytest.raises(CapExceeded):
        validate_group(2 ** 40 + 1, 2)


def test_group_ops():
    spec = validate_group(7, 3)
    assert spec.mul(3, 5) == 1
    assert spec.pow(3, 2) == 2
    assert spec.pow(3, 0) == 1
    assert spec.pow(3, -1) == 5
    assert spec.inverse(3) == 5
    for x in spec.elements:
        for r in range(-7, 14):
            assert spec.pow(x, r) == pow(x, r % 6, 7)


def test_index_roundtrip_and_membership():
    spec = validate_group(13, 2)
    for i, label in enumerate(spec.elements):
        assert spec.index_of(label) == i
        assert spec.element(i) == label
        assert label in spec
    assert 0 not in spec
    assert 13 not in spec
    with pytest.raises(NotInGroup):
        spec.index_of(0)
    sub = validate_group(7, 2)
    with pytest.raises(NotInGroup):
        sub.index_of(3)


def test_spec_equality_and_hash():
    a = validate_group(7, 3)
    b = validate_group(7, 3)
    assert a == b
    assert hash(a) == hash(b)
    assert a != validate_group(7, 5)
    table = group_from_mul(3, lambda u, v: u * v % 7)
    assert table == table
    # table-backed specs have no modulus, so value equality never applies
    assert table != group_from_mul(3, lambda u, v: u * v % 7)
    assert a != table


def test_group_from_mul_table_backend():
    spec = group_from_mul(3, lambda a, b: a * b % 7)
    assert spec.modulus is None
    assert spec.order == 6
    assert spec.elements == (1, 2, 3, 4, 5, 6)
    assert spec.identity == 1
    assert spec.pow(3, 6) == 1


@pytest.mark.parametrize("spec", [validate_group(13, 2), validate_group(7, 2),
                                  validate_group(2, 1), cyclic_group(9),
                                  group_from_mul(3, lambda a, b: a * b % 7)],
                         ids=repr)
def test_power_indices_follow_the_power_walk(spec):
    want = [spec.index_of(spec.pow(spec.generator, k)) for k in range(spec.order)]
    assert spec.power_indices.tolist() == want
    assert spec.identity == spec.element(spec.power_indices[0])
    with pytest.raises(ValueError):
        spec.power_indices[0] = 1


def test_group_walks_stop_at_the_dim_cap():
    # no group above the cap is walked: 4098**2 > 2**24 is refused from the
    # order alone, and the callback walk stops once its length squared passes
    with pytest.raises(CapExceeded, match="order 4098") as exc:
        validate_group(4099, 2)
    assert f"above the cap {DIM_CAP}" in str(exc.value)
    calls = []

    def add(a, b):
        calls.append(1)
        return (a + b) % 5000
    with pytest.raises(CapExceeded):
        group_from_mul(1, add)
    assert len(calls) <= 4097
    # the largest order that fits, 4096**2 = 2**24, still builds
    assert cyclic_group(4096).order == 4096
    with pytest.raises(CapExceeded):
        cyclic_group(4097)


def test_cap_refusal_names_the_state_bytes(capsys):
    with pytest.raises(CapExceeded, match=r"16793604 amplitudes \(268697664 bytes\)"):
        validate_group(4099, 2)
    # a lowered --dim-cap refuses with the same counts
    assert main(["prepare-chi", "--n", "1009", "--g", "11", "--dim-cap", "1000"]) == 3
    assert "1016064 amplitudes (16257024 bytes), above the cap 1000" in \
        capsys.readouterr().err


def test_validate_group_factors_the_modulus_once(monkeypatch):
    # near the 2**40 cap one trial-division factoring of n takes about 0.1 s
    n = 1099511627191
    factored = []
    real = group.prime_factors

    def counted(k):
        factored.append(k)
        return real(k)
    monkeypatch.setattr(group, "prime_factors", counted)
    spec = validate_group(n, pow(2, (n - 1) // 3, n))
    assert spec.order == 3
    assert factored.count(n) == 1
    factored.clear()
    assert multiplicative_order(spec.generator, n) == 3
    assert factored.count(n) == 1


def test_group_from_mul_rejects_broken_mul():
    # 2 is a zero divisor mod 4: the walk hits 0 and never closes
    with pytest.raises(NotAGenerator):
        group_from_mul(2, lambda a, b: a * b % 4)


def test_cyclic_group():
    spec = cyclic_group(6)
    assert spec.order == 6
    assert spec.elements == (0, 1, 2, 3, 4, 5)
    assert spec.identity == 0
    assert spec.generator == 1
    assert spec.mul(4, 5) == 3
    assert spec.pow(1, 11) == 5
    one = cyclic_group(1)
    assert one.order == 1
    assert one.elements == (0,)


def test_dlog_oracle_examples():
    spec = validate_group(7, 3)
    assert dlog_oracle(spec, 2) == 2
    assert dlog_oracle(spec, 1) == 0
    with pytest.raises(NotInGroup):
        dlog_oracle(spec, 0)


@pytest.mark.parametrize("n,g", [(5, 2), (7, 3), (13, 2), (9, 2), (2, 1)])
def test_dlog_oracle_inverts_pow(n, g):
    spec = validate_group(n, g)
    for r in range(spec.order):
        assert dlog_oracle(spec, spec.pow(spec.generator, r)) == r
