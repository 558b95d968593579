"""Exact arithmetic in small finite fields, plus exact counting utilities.

Fields F_{p^k} use a polynomial basis modulo a deterministic irreducible:
the lexicographically least monic irreducible of degree k over F_p, where
coefficient tuples are compared constant term first.  Every element has an
integer index in [0, p^k) via ``index = sum(c_i * p**i)``, which allows
dense index-based arithmetic tables, built by F_p-linearity; one walk of
the least primitive element g gives the exp and log tables, from which
inverses, Frobenius images, powers and the quadratic character are read.
:class:`FieldElement` wraps an index for ergonomic exact arithmetic.

Beyond field arithmetic, the module provides the relative norm and absolute
trace, the quadratic character, and the closed-form solution counts of
hermitian norm equations and hyperbolic bilinear equations.  The
irreducibility test of the moduli is trial division by every monic
polynomial of at most half the degree, by the long division of
:mod:`srgkit.base`, as integer arithmetic reduced mod p.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import floordiv, getitem
from typing import Sequence

from .base import ScaleGuardError, _long_division, _setattr

__all__ = [
    "CharacterValue",
    "Field",
    "FieldElement",
    "field_of_order",
    "hermitian_count_closed",
    "hyperbolic_count_closed",
    "is_prime_power",
    "make_field",
    "norm",
    "quadratic_character",
    "trace_to_prime",
]

# A quadratic-character or trace-indicator value: one of -1, 0, +1.
CharacterValue = int

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


# ---------------------------------------------------------------------------
# Field and FieldElement
# ---------------------------------------------------------------------------


class Field:
    """The finite field F_{p^k} with dense index-based arithmetic tables.

    Element ``i`` has the base-p digits of ``i`` as its coefficient vector
    (constant term first).  Do not instantiate directly: use
    :func:`make_field`, which caches one canonical instance per (p, k) so
    that element equality can compare fields by identity.

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

    # -- element construction ----------------------------------------------

    def from_index(self, index: int) -> FieldElement:
        return FieldElement(self, index)

    def __call__(self, value) -> FieldElement:
        """Build an element from an int (a prime-subfield constant, reduced
        mod p), a coefficient list (constant term first), or pass through an
        element of this field."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        coeffs = list(value)
        if len(coeffs) > self.k:
            raise ValueError("coefficient list longer than the field degree")
        return FieldElement(self, self.index_of(coeffs))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def elements(self) -> list[FieldElement]:
        """All field elements in index order (deterministic)."""
        return [FieldElement(self, i) for i in range(self.q)]

    # -- subfields -----------------------------------------------------------

    def subfield(self, k_sub: int) -> tuple[Field, list[int]]:
        """The canonical copy of F_{p^k_sub} inside this field.

        Returns ``(S, embed)`` where ``embed[i]`` is the index in this field
        of the image of ``S.from_index(i)``.  The embedding sends the
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


class FieldElement:
    """An element of a :class:`Field`, identified by its index in [0, q).
    Immutable, as its hash requires."""

    __slots__ = ("field", "index")

    def __init__(self, field: Field, index: int):
        if not 0 <= index < field.q:
            raise ValueError(f"index {index} out of range for {field!r}")
        _setattr(self, "field", field)
        _setattr(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self) -> list[int]:
        return self.field.coeffs_of(self.index)

    def _coerce(self, other) -> FieldElement:
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return FieldElement(self.field, other % self.field.p)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_table[self.index][o.index])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_table[self.index])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        neg = self.field.neg_table[o.index]
        return FieldElement(self.field, self.field.add_table[self.index][neg])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_table[self.index][o.index])

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if self.index == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return FieldElement(self.field, self.field.inv_table[self.index])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_index(self.index, e))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field is other.field and self.index == other.index
        if isinstance(other, int):
            return self.index == other % self.field.p and self.index < self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.field), self.index))

    def __bool__(self) -> bool:
        return self.index != 0

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}t" if i == 1 else f"{head}t^{i}")
        poly = " + ".join(terms) if terms else "0"
        return f"GF({self.field.q})({poly})"


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


# ---------------------------------------------------------------------------
# Norm, trace, character
# ---------------------------------------------------------------------------


def norm(a: FieldElement) -> FieldElement:
    """Relative norm to the index-2 subfield: a -> a * a_bar = a^(q0+1).

    Requires a field of square order q0^2; the result is checked to be
    fixed by x -> x^q0 and returned as an element of the subfield.
    """
    field = a.field
    if field.k % 2:
        raise ValueError("norm requires a field of square order")
    q0 = field.p ** (field.k // 2)
    sub, embed = field.subfield(field.k // 2)
    b = field.pow_index(a.index, q0 + 1)
    if field.pow_index(b, q0) != b:
        raise AssertionError("norm image is not fixed by the subfield Frobenius")
    return sub.from_index(embed.index(b))


def trace_to_prime(a: FieldElement) -> int:
    """Absolute trace sum(a^(2^i)) -> F_2, as an int in {0, 1} (char 2 only)."""
    field = a.field
    if field.p != 2:
        raise ValueError("trace_to_prime requires characteristic 2")
    acc, t = 0, a.index
    for _ in range(field.k):
        acc = field.add_table[acc][t]
        t = field.frob_table[t]
    if acc not in (0, 1):
        raise AssertionError("trace landed outside the prime subfield")
    return acc


def quadratic_character(a: FieldElement) -> CharacterValue:
    """chi(a) = a^((q-1)/2) read in {-1, 0, +1}: +1 when log a is even,
    -1 when it is odd; chi(0) = 0.  Odd q only."""
    field = a.field
    if field.p == 2:
        raise ValueError("quadratic character requires odd q")
    if a.index == 0:
        return 0
    return -1 if field.log_table[a.index] % 2 else 1


# ---------------------------------------------------------------------------
# Closed-form solution counts
# ---------------------------------------------------------------------------


def hermitian_count_closed(n: int, q: int, zero: bool) -> int:
    """#{(a_1..a_n) in (F_{q^2})^n : sum of a_i^(q+1) = c}, for c = 0 when
    ``zero`` and for any c != 0 otherwise (n >= 1):

        c = 0:   q^(2n-1) + (-1)^n (q-1) q^(n-1)
        c != 0:  q^(2n-1) - (-1)^n q^(n-1)
    """
    if n == 0:
        return 1 if zero else 0
    s = (-1) ** n
    if zero:
        return q ** (2 * n - 1) + s * (q - 1) * q ** (n - 1)
    return q ** (2 * n - 1) - s * q ** (n - 1)


def hyperbolic_count_closed(k: int, q: int, zero: bool) -> int:
    """#{(a_1,b_1,..,a_k,b_k) in F_q^(2k) : sum of a_i b_i = c}, for c = 0
    when ``zero`` and for any c != 0 otherwise (k >= 1):

        c = 0:   q^(2k-1) + q^k - q^(k-1)
        c != 0:  q^(2k-1) - q^(k-1)
    """
    if k == 0:
        return 1 if zero else 0
    if zero:
        return q ** (2 * k - 1) + q**k - q ** (k - 1)
    return q ** (2 * k - 1) - q ** (k - 1)
