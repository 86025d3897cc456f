"""Exact arithmetic in finite cyclic groups, plus the supporting number theory.

Two backends share one interface: the unit group of integers modulo n,
addressed by (n, g), and an explicit backend built from a generator and a
multiplication callback so any other finite cyclic group can be plugged in.
Element labels are canonical non-negative integers and the basis order used
by state vectors is ascending label order, so layouts are stable across runs.
"""
from __future__ import annotations

from math import gcd, isqrt
from typing import Callable, Sequence

import numpy as np

from .errors import CapExceeded, NoInverse, NotAGenerator, NotCoprime, NotInGroup
from .qstate import DIM_CAP

__all__ = [
    "FACTOR_CAP",
    "GroupSpec",
    "cyclic_group",
    "cyclic_moduli",
    "dlog_oracle",
    "gcd",
    "group_from_mul",
    "is_cyclic_modulus",
    "mod_inverse",
    "multiplicative_order",
    "prime_factors",
    "primitive_root",
    "totient",
    "validate_group",
]

FACTOR_CAP = 2 ** 40  # trial division beyond this is not worth the wait


def prime_factors(n: int) -> dict[int, int]:
    """Factor n by trial division. Returns {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n > FACTOR_CAP:
        raise CapExceeded(f"{n} exceeds the factorization cap {FACTOR_CAP}")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def totient(n: int) -> int:
    """Euler's totient of n."""
    phi = 1
    for p, k in prime_factors(n).items():
        phi *= p ** (k - 1) * (p - 1)
    return phi


def mod_inverse(s: int, m: int) -> int:
    """Inverse of s modulo m, or NoInverse when gcd(s, m) != 1."""
    if m < 1:
        raise ValueError(f"modulus {m} must be positive")
    if m == 1:
        return 0
    s %= m
    if gcd(s, m) != 1:
        raise NoInverse(f"{s} has no inverse mod {m} (gcd {gcd(s, m)})")
    return pow(s, -1, m)


def _order_from_totient(g: int, n: int, phi: int) -> int:
    """Order of the unit g mod n, reduced from phi = totient(n)."""
    order = phi
    for p in prime_factors(order):
        while order % p == 0 and pow(g, order // p, n) == 1:
            order //= p
    return order


def multiplicative_order(g: int, n: int) -> int:
    """Order of g in the unit group mod n (g must be coprime to n)."""
    if gcd(g % n, n) != 1:
        raise NotCoprime(f"gcd({g % n}, {n}) != 1")
    return _order_from_totient(g, n, totient(n))


def is_cyclic_modulus(n: int) -> bool:
    """True when the unit group mod n is cyclic (n = 2, 4, p^k or 2*p^k)."""
    if n < 2:
        return False
    if n in (2, 4):
        return True
    factors = prime_factors(n)
    odd = [p for p in factors if p != 2]
    return len(odd) == 1 and factors.get(2, 0) <= 1


def primitive_root(n: int) -> int | None:
    """Smallest generator of the full unit group mod n, or None."""
    if n == 2:
        return 1
    if not is_cyclic_modulus(n):
        return None
    phi = totient(n)
    checks = list(prime_factors(phi))
    for g in range(2, n):
        if gcd(g, n) != 1:
            continue
        if all(pow(g, phi // p, n) != 1 for p in checks):
            return g
    return None


def cyclic_moduli(limit: int) -> list[int]:
    """All n in [2, limit] whose unit group is cyclic."""
    return [n for n in range(2, limit + 1) if is_cyclic_modulus(n)]


class GroupSpec:
    """A validated presentation of a finite cyclic group generated by one element.

    Built from the checked power walk walk[k] = g**k, k = 0..m-1. Holds the
    element list (ascending labels), the label->index map used by register
    layouts, the read-only power_indices (basis index of g**k at position k)
    and the multiplication callback.
    """

    __slots__ = ("modulus", "generator", "order", "elements", "identity",
                 "power_indices", "_index", "_mul")

    def __init__(self, modulus: int | None, generator: int, walk: Sequence[int],
                 mul: Callable[[int, int], int]):
        self.modulus = modulus
        self.generator = generator
        self.order = len(walk)
        self.elements = tuple(sorted(walk))
        self.identity = walk[0]
        self._index = {label: i for i, label in enumerate(self.elements)}
        self.power_indices = np.fromiter((self._index[x] for x in walk),
                                         dtype=np.intp, count=self.order)
        self.power_indices.setflags(write=False)
        self._mul = mul

    def mul(self, a: int, b: int) -> int:
        return self._mul(a, b)

    def pow(self, x: int, r: int) -> int:
        """x**r by square-and-multiply; negative r goes through the inverse."""
        self.index_of(x)
        r %= self.order
        result = self.identity
        base = x
        while r:
            if r & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            r >>= 1
        return result

    def inverse(self, x: int) -> int:
        return self.pow(x, self.order - 1)

    def index_of(self, label: int) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise NotInGroup(f"{label!r} is not an element of {self}") from None

    def element(self, index: int) -> int:
        return self.elements[index]

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object):
        if self is other:
            return True
        if not isinstance(other, GroupSpec):
            return NotImplemented
        if self.modulus is None or other.modulus is None:
            return False  # table-backed groups compare by identity only
        return (self.modulus, self.generator, self.order) == \
               (other.modulus, other.generator, other.order)

    def __hash__(self):
        return hash((self.modulus, self.generator, self.order))

    def __repr__(self):
        if self.modulus is not None:
            return f"GroupSpec(n={self.modulus}, g={self.generator}, m={self.order})"
        return f"GroupSpec(table, g={self.generator}, m={self.order})"


def _check_cap(g: int, n: int, order: int, cap: int = DIM_CAP) -> None:
    """CapExceeded when g's two-register state, order**2 amplitudes, exceeds cap."""
    if order * order > cap:
        raise CapExceeded(f"{g} has order {order} mod {n}; its two-register state "
                          f"holds {order * order} amplitudes ({16 * order * order} "
                          f"bytes), above the cap {cap}")


def validate_group(n: int, g: int, require_full_group: bool = False) -> GroupSpec:
    """Validate (n, g) and return the cyclic group generated by g mod n.

    The order of g is computed and checked against DIM_CAP for a
    two-register state, then its powers are enumerated. With
    require_full_group the order must equal phi(n), otherwise NotAGenerator.
    """
    if n < 2:
        raise ValueError(f"modulus {n} must be at least 2")
    if n > FACTOR_CAP:
        raise CapExceeded(f"modulus {n} exceeds the factorization cap {FACTOR_CAP}")
    g %= n
    if gcd(g, n) != 1:
        raise NotCoprime(f"gcd({g}, {n}) = {gcd(g, n)}, so {g} is not a unit mod {n}")
    phi = totient(n)
    order = _order_from_totient(g, n, phi)
    _check_cap(g, n, order)
    if require_full_group and order != phi:
        raise NotAGenerator(
            f"{g} has order {order} mod {n}, less than phi({n}) = {phi}")
    powers = []
    x = 1
    for _ in range(order):
        powers.append(x)
        x = x * g % n
    if x != 1 or len(set(powers)) != order:
        raise NotAGenerator(f"power walk of {g} mod {n} is not a clean cycle")
    return GroupSpec(n, g, powers, lambda a, b, _n=n: a * b % _n)


def group_from_mul(generator: int, mul: Callable[[int, int], int]) -> GroupSpec:
    """Build a cyclic group from a generator and a multiplication callback.

    Walks successive powers of the generator until the walk cycles back; the
    last element before the cycle closes is the identity. The walk must stay
    injective, otherwise mul does not define a group on the orbit. It stops
    with CapExceeded once the order is too large for DIM_CAP.
    """
    if not isinstance(generator, int) or generator < 0:
        raise ValueError("element labels must be non-negative integers")
    max_order = isqrt(DIM_CAP)
    powers = [generator]
    seen = {generator}
    x = mul(generator, generator)
    while x != generator:
        if x in seen:
            raise NotAGenerator(f"power walk revisits {x} before closing the cycle")
        if not isinstance(x, int) or x < 0:
            raise ValueError("element labels must be non-negative integers")
        if len(powers) >= max_order:
            raise CapExceeded(f"generator order exceeds {max_order}, so its two-register "
                              f"state holds more than the cap of {DIM_CAP} amplitudes")
        powers.append(x)
        seen.add(x)
        x = mul(x, generator)
    identity = powers[-1]
    for e in powers:
        if mul(identity, e) != e:
            raise NotAGenerator(f"walk-derived identity {identity} fails on {e}")
    # the walk found g, g**2, ..., g**m = identity; GroupSpec wants g**0 first
    return GroupSpec(None, generator, powers[-1:] + powers[:-1], mul)


def cyclic_group(m: int) -> GroupSpec:
    """The cyclic group of order m with labels 0..m-1 under addition mod m."""
    if m < 1:
        raise ValueError(f"order {m} must be positive")
    return group_from_mul(1 % m, lambda a, b, _m=m: (a + b) % _m)


def dlog_oracle(spec: GroupSpec, x: int) -> int:
    """Brute-force discrete log: the unique p in [0, m) with g**p = x.

    Searches power_indices; verification-only, the simulation never consults it.
    """
    return int(np.flatnonzero(spec.power_indices == spec.index_of(x))[0])
