"""Exact arithmetic in small finite fields, on element indices.

Fields F_{p^k} use a polynomial basis modulo a deterministic irreducible:
the lexicographically least monic irreducible of degree k over F_p, where
coefficient tuples are compared constant term first.  A field element is
its integer index in [0, p^k), ``index = sum(c_i * p**i)``, and the field
is its dense index tables, built by F_p-linearity; one walk of the least
primitive element g gives the exp and log tables, from which inverses,
Frobenius images and powers are read.  The irreducibility test of the
moduli is trial division by every monic polynomial of at most half the
degree, by the long division of :mod:`srgkit.base`, as integer
arithmetic reduced mod p.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import floordiv, getitem
from typing import Sequence

from .base import ScaleGuardError, _long_division

__all__ = ["Field", "field_of_order", "is_prime_power", "make_field"]

# Largest field order for which dense multiplication tables are built.
_TABLE_CAP = 1024


def _prime_divisors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Whether a monic polynomial of degree k over F_p is irreducible: no
    monic polynomial of degree 1 .. k // 2 divides it, as a reducible one
    has a factor of at most half its degree.  The remainder by a monic
    divisor is unique in Z[t], so it is reduced mod p after the division."""
    k = len(modulus) - 1
    divisors = (
        (*lower, 1)
        for d in range(1, k // 2 + 1)
        for lower in itertools.product(range(p), repeat=d)
    )
    return all(
        any(c % p for c in _long_division(modulus, divisor, floordiv)[1])
        for divisor in divisors
    )


class Field:
    """The finite field F_{p^k} with dense index-based arithmetic tables.

    Element ``i`` has the base-p digits of ``i`` as its coefficient vector
    (constant term first).  Do not instantiate directly: use
    :func:`make_field`, which caches one canonical instance per (p, k).

    Public index tables (lists indexed by element index) are exposed for
    bulk consumers: ``add_table`` and ``mul_table``, whose rows are tuples,
    ``neg_table``, ``inv_table`` (0 maps to 0), ``frob_table`` (x -> x^p),
    and the discrete-logarithm pair of ``primitive``, the least index g of
    multiplicative order q - 1 (g = 1 when q = 2): ``exp_table[e]`` is g^e
    for 0 <= e < q - 1, and ``log_table`` inverts it (``log_table[0]`` is
    None: zero has no logarithm).  Tuple rows hold only ints, so the cyclic
    garbage collector untracks them: the 2q rows of every field that
    :func:`make_field` keeps are not traversed at each collection.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        if self.q > _TABLE_CAP:
            raise ScaleGuardError(f"GF({self.q})", self.q, _TABLE_CAP)
        self._build_tables()
        self._subfields: dict[int, tuple[Field, list[int]]] = {}
        if len(self.mul_table) != self.q:
            raise AssertionError("element count does not equal p^k")

    # -- construction of the index tables ----------------------------------

    def coeffs_of(self, index: int) -> list[int]:
        """Base-p digits of an element index, constant term first."""
        out = []
        for _ in range(self.k):
            index, r = divmod(index, self.p)
            out.append(r)
        return out

    def index_of(self, coeffs: list[int]) -> int:
        """Inverse of :meth:`coeffs_of`; accepts short coefficient lists."""
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + (c % self.p)
        return idx

    def _build_tables(self) -> None:
        """Addition digit by digit mod p; multiplication by F_p-linearity;
        exp and log by one walk of the least primitive element g (F_q^* is
        cyclic: Lidl and Niederreiter, *Finite Fields*, 1997, ch. 2).

        Index a is a % p + p (a // p).  If p does not divide a, a is
        (a - 1) + 1: row a is row a - 1 plus 1, or plus the column.  Else a
        is t (a // p): row a of the sums shifts row a // p up one digit,
        and row a of the products is t times row a // p, where t x shifts
        the digits of x up and subtracts the top digit times the modulus.
        """
        p, q, k = self.p, self.q, self.k
        one = [b + 1 if (b + 1) % p else b + 1 - p for b in range(q)]
        add = [tuple(range(q))]
        for a in range(1, q):
            if a % p:
                add.append(tuple(map(one.__getitem__, add[a - 1])))
            else:
                row = add[a // p]
                add.append(tuple([b % p + p * row[b // p] for b in range(q)]))
        top = p ** (k - 1)
        minus = [self.index_of([-d * c for c in self.modulus[:k]]) for d in range(p)]
        times_t = [add[p * (x % top)][minus[x // top]] for x in range(q)]
        mul = [(0,) * q]
        for a in range(1, q):
            if a % p:  # add[b][mul[a - 1][b]] for each column b
                mul.append(tuple(map(getitem, add, mul[a - 1])))
            else:
                mul.append(tuple(map(times_t.__getitem__, mul[a // p])))
        for g in range(1, q):
            exp, row = [1], mul[g]
            while row[exp[-1]] != 1:
                exp.append(row[exp[-1]])
            if len(exp) == q - 1:
                break
        log = [None] * q
        for e, x in enumerate(exp):
            log[x] = e
        self.add_table, self.mul_table, self.neg_table = add, mul, list(mul[p - 1])
        self.primitive, self.exp_table, self.log_table = g, exp, log
        self.inv_table = [0] + [self.pow_index(a, -1) for a in range(1, q)]
        self.frob_table = [self.pow_index(a, p) for a in range(q)]

    def pow_index(self, a: int, e: int) -> int:
        """a**e on element indices, read from the logs: 0**0 = 1, and e
        may be negative for nonzero a."""
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return 0 if e else 1
        return self.exp_table[e * self.log_table[a] % (self.q - 1)]

    # -- subfields -----------------------------------------------------------

    def subfield(self, k_sub: int) -> tuple[Field, list[int]]:
        """The canonical copy of F_{p^k_sub} inside this field.

        Returns ``(S, embed)`` where ``embed[i]`` is the index in this field
        of the image of element ``i`` of S.  The embedding sends the
        polynomial generator of S to the least root (in index order) of
        S.modulus in this field; the result is cached.
        """
        if not isinstance(k_sub, int) or k_sub < 1:
            raise ValueError(f"k_sub must be a positive integer, not {k_sub!r}")
        if self.k % k_sub:
            raise ValueError(f"{k_sub} does not divide the field degree {self.k}")
        cached = self._subfields.get(k_sub)
        if cached is not None:
            return cached
        sub = make_field(self.p, k_sub)
        root = next(
            a for a in range(self.q) if self._eval_prime_poly(sub.modulus, a) == 0
        )
        embed = [self._eval_prime_poly(sub.coeffs_of(i), root) for i in range(sub.q)]
        if len(set(embed)) != sub.q:
            raise AssertionError("subfield embedding is not injective")
        self._subfields[k_sub] = (sub, embed)
        return sub, embed

    def _eval_prime_poly(self, coeffs: Sequence[int], a: int) -> int:
        """Evaluate a prime-field polynomial at element index a (Horner)."""
        add, mul = self.add_table, self.mul_table
        acc = 0
        for c in reversed(coeffs):
            acc = add[mul[acc][a]][c % self.p]
        return acc

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> Field:
    """F_{p^k} with the lexicographically least monic irreducible modulus.

    Coefficient tuples are compared constant term first, so the scan order
    is itertools.product over the k lower coefficients.  The result is
    cached: repeated calls return the identical Field object.
    """
    if not isinstance(p, int) or _prime_divisors(p) != [p]:
        raise ValueError(f"{p!r} is not a prime")
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    for lower in itertools.product(range(p), repeat=k):
        modulus = (*lower, 1)
        if _is_irreducible(modulus, p):
            return Field(p, k, modulus)
    raise RuntimeError(
        f"no irreducible of degree {k} over F_{p} (impossible for prime p)"
    )


def is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and an exponent k >= 1."""
    return isinstance(q, int) and q >= 2 and len(_prime_divisors(q)) == 1


@lru_cache(maxsize=None)
def field_of_order(q: int) -> Field:
    """F_q for a prime power q = p^k (canonical modulus, cached)."""
    if not is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    p = _prime_divisors(q)[0]
    k = 0
    while q > 1:
        q //= p
        k += 1
    return make_field(p, k)
