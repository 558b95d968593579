"""Exact intersection-number calculus.

Three layers:

* exact scalar arithmetic — one dense polynomial type over two coefficient
  rings: polynomials over Q (:class:`RatPoly`, integral coefficients held
  as ``int``) and polynomials in a second variable X over their quotients
  (:class:`XPoly` over :class:`RatFunc`), sharing one implementation of
  the ring operations and of Horner evaluation, on the product and long
  division of :mod:`srgkit.base`.  A :class:`RatFunc` is a
  pair of coprime integer polynomials, reduced by one gcd (:func:`poly_gcd`,
  GCDHEU certified by exact division, with Euclid over Q as fallback);
* the recursion that rebuilds the full tensor p_ij^h from an intersection
  array, generic over those scalars (:func:`tensor_from_array` and friends),
  its seven-relation audit on integer forms over one common denominator
  (:meth:`IntersectionTensor.validate`, run by :mod:`srgkit.audit`), and
  the strongly regular unions of its classes (:func:`srg_fusions`);
* the three symbolic verifications: the G_2-type array, the rank-3 dual
  polar arrays with parameter e, and the Grassmann J(n,3) difference
  f_2 = p_22^1 - p_22^3 as a quadratic in X = q^n.

No floating point is used anywhere; every identity is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import floordiv
from typing import TYPE_CHECKING, Sequence

from .base import IntersectionArray, ScaleGuardError, _convolve, _integer
from .base import _long_division, _record

if TYPE_CHECKING:
    from .graphcore import Graph

__all__ = [
    "DualPolarSymbolic",
    "G2Symbolic",
    "GrassmannF2",
    "InfeasibleArrayError",
    "IntersectionTensor",
    "RatFunc",
    "RatPoly",
    "XPoly",
    "dual_polar_symbolic",
    "fraction_json",
    "g2_symbolic",
    "grassmann_f2",
    "instantiate_tensor",
    "poly_str",
    "ratfunc_str",
    "srg_fusions",
    "tensor_from_array",
    "tensor_from_graph",
    "tensor_from_orbital_partition",
    "tensor_to_json",
]


class InfeasibleArrayError(ValueError):
    """A computed tensor violates one of the defining relations."""

    def __init__(self, relation: str, detail: str = ""):
        self.relation = relation
        message = f"infeasible array: relation {relation} violated"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Dense polynomials: one arithmetic core, two coefficient rings
# ---------------------------------------------------------------------------


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


def _rational(x) -> int | Fraction:
    """An exact rational, as ``int`` when it is integral."""
    if type(x) is int:
        return x
    x = _as_fraction(x)
    return x.numerator if x.denominator == 1 else x


class _DensePoly:
    """Dense univariate polynomial over a coefficient ring, normalized so
    the coefficient tuple never ends in zero (the zero polynomial is the
    empty tuple).

    A subclass names its ring: ``_coeff`` coerces one coefficient,
    ``_scalars`` are the types read as constant polynomials, and ``_zero``
    is the ring's zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        coerce = self._coeff
        cs = [coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def gen(cls):
        """The polynomial equal to the indeterminate."""
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _coerced(self, other):
        # the exact type: a RatPoly must not take an XPoly as its own kind
        if type(other) is type(self):
            return other
        if isinstance(other, self._scalars):
            return type(self)((other,))
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return type(self)()
        return type(self)(_convolve(self.coeffs, other.coeffs, self._zero))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = type(self)((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def _horner(coeffs: Sequence, value, acc):
        """sum_i coeffs[i] value^i by Horner's rule from the zero ``acc``."""
        for c in reversed(coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other) -> bool:
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its coefficient, so it hashes like it
        if len(self.coeffs) < 2:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)


class RatPoly(_DensePoly):
    """Dense univariate polynomial with rational coefficients; an integral
    coefficient is held as an ``int``, any other as a ``Fraction``."""

    __slots__ = ()
    _coeff = staticmethod(_rational)
    _scalars = (int, Fraction)
    _zero = 0

    @classmethod
    def const(cls, c) -> "RatPoly":
        return cls((c,))

    def divmod(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _long_division(self.coeffs, other.coeffs, Fraction)
        return RatPoly(quot), RatPoly(rem)

    def evaluate(self, value: Fraction | int) -> Fraction:
        return self._horner(self.coeffs, _as_fraction(value), Fraction(0))

    def monic(self) -> "RatPoly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        lead = self.coeffs[-1]
        return RatPoly([Fraction(c, lead) for c in self.coeffs])

    def __repr__(self):
        return f"RatPoly({poly_str(self)})"


def _primitive(*polys: RatPoly) -> list[list[int]]:
    """The coefficient lists of ``polys`` times the one positive rational
    that makes them integers with no common factor."""
    # star arguments from lists, not generators: CPython resizes a
    # generator's argument tuple, and its free lists then hoard such tuples
    scale = math.lcm(
        *[c.denominator for p in polys for c in p.coeffs if type(c) is not int]
    )
    lists = [[int(c * scale) for c in p.coeffs] for p in polys]
    content = math.gcd(*[c for cs in lists for c in cs])
    if content > 1:
        lists = [[c // content for c in cs] for cs in lists]
    return lists


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """The monic gcd of two polynomials over Q (zero only for two zeros).

    With denominators and contents cleared, GCDHEU (Char, Geddes and
    Gonnet, J. Symbolic Comput. 7, 1989) reads a candidate off the balanced
    base-xi digits of gcd(a(xi), b(xi)), xi >= 2 min(|a|_inf, |b|_inf) + 2,
    and accepts its primitive part only if it divides both exactly in Z[q]:
    by their theorem it is then the gcd, so the answer is certified, not
    sampled.  After six rejected xi, Euclid over Q decides."""
    if a.is_zero() or b.is_zero():
        return (a + b).monic()
    (pa,), (pb,) = _primitive(a), _primitive(b)
    if len(pa) == 1 or len(pb) == 1:
        return RatPoly((1,))
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 2
    for _ in range(6):
        h = math.gcd(_DensePoly._horner(pa, xi, 0), _DensePoly._horner(pb, xi, 0))
        digits = []
        while h:
            digits.append((h + xi // 2) % xi - xi // 2)
            h = (h - digits[-1]) // xi
        (candidate,) = _primitive(RatPoly(digits))
        if not any(any(_long_division(p, candidate, floordiv)[1]) for p in (pa, pb)):
            return RatPoly(candidate).monic()
        xi = xi * 73794 // 27011
    return _euclid_gcd(a, b)


def _euclid_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Euclid's algorithm over Q: the fallback of :func:`poly_gcd`."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def poly_str(p: RatPoly, var: str = "q") -> str:
    """Human-readable form, highest power first: "q^4 - 2*q + 1/2"."""
    if p.is_zero():
        return "0"
    parts = []
    for power in range(p.degree, -1, -1):
        c = p.coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            x = var if power == 1 else f"{var}^{power}"
            body = x if mag == 1 else f"{mag}*{x}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# Rational functions in one variable
# ---------------------------------------------------------------------------


class RatFunc:
    """Quotient of two polynomials in q, held as coprime integer
    polynomials with no common content and a denominator whose leading
    coefficient is positive.  That form is canonical, so equal quotients
    hold equal pairs; ``num`` and ``den`` give the same quotient over a
    monic denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, RatPoly) else RatPoly.const(num)
        den = RatPoly.const(1) if den is None else den
        den = den if isinstance(den, RatPoly) else RatPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = RatPoly.const(1)
        else:
            top, bottom = _primitive(num, den)
            if len(top) > 1 and len(bottom) > 1:
                (g,) = _primitive(poly_gcd(num, den))
                if len(g) > 1:
                    top = _long_division(top, g, floordiv)[0]
                    bottom = _long_division(bottom, g, floordiv)[0]
            num, den = RatPoly(top), RatPoly(bottom)
            if bottom[-1] < 0:
                num, den = -num, -den
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @property
    def num(self) -> RatPoly:
        """The numerator over the monic denominator :attr:`den`."""
        lead = self._den.coeffs[-1]
        return RatPoly([Fraction(c, lead) for c in self._num.coeffs])

    @property
    def den(self) -> RatPoly:
        return self._den.monic()

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def __delattr__(self, name):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def gen(cls) -> "RatFunc":
        return cls(RatPoly.gen())

    def _coerced(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, RatPoly)):
            return RatFunc(other)
        return None

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def __bool__(self):
        return not self._num.is_zero()

    @property
    def is_polynomial(self) -> bool:
        return self._den.degree == 0

    def as_poly(self) -> RatPoly:
        if not self.is_polynomial:
            raise ValueError(f"{self!r} is not a polynomial")
        return self.num

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return RatFunc(
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self._num, self._den)

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return RatFunc(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc(self._den**-n, self._num**-n)
        return RatFunc(self._num**n, self._den**n)

    def evaluate(self, value: Fraction | int) -> Fraction:
        bottom = self._den.evaluate(value)
        if bottom == 0:
            raise ZeroDivisionError(f"denominator vanishes at {value}")
        return self._num.evaluate(value) / bottom

    def __eq__(self, other) -> bool:
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # a polynomial equals its numerator, so it hashes like it
        if self.is_polynomial:
            return hash(self.num)
        return hash((self._num, self._den))

    def __repr__(self):
        return f"RatFunc({ratfunc_str(self)})"


def ratfunc_str(f: RatFunc, var: str = "q") -> str:
    if f.is_polynomial:
        return poly_str(f.num, var)
    return f"({poly_str(f.num, var)}) / ({poly_str(f.den, var)})"


# ---------------------------------------------------------------------------
# Polynomials in X over rational functions of q
# ---------------------------------------------------------------------------


class XPoly(_DensePoly):
    """Dense polynomial in a second indeterminate X whose coefficients are
    RatFuncs in q.  Division is only defined by X-free values."""

    __slots__ = ()
    _scalars = (int, Fraction, RatPoly, RatFunc)
    _zero = RatFunc(0)

    @staticmethod
    def _coeff(c) -> RatFunc:
        return c if isinstance(c, RatFunc) else RatFunc(c)

    def coefficient(self, i: int) -> RatFunc:
        return self.coeffs[i] if i <= self.degree else self._zero

    def __truediv__(self, other):
        if isinstance(other, XPoly):
            if other.degree > 0:
                raise ValueError("XPoly division only by X-free values")
            other = other.coefficient(0)
        if not isinstance(other, self._scalars):
            return NotImplemented
        other = self._coeff(other)
        return XPoly([c / other for c in self.coeffs])

    def substitute_x(self, value: RatFunc) -> RatFunc:
        return self._horner(self.coeffs, value, self._zero)

    def evaluate(self, q0: Fraction | int, x0: Fraction | int) -> Fraction:
        values = [c.evaluate(q0) for c in self.coeffs]
        return self._horner(values, _as_fraction(x0), Fraction(0))

    def __repr__(self):
        if self.is_zero():
            return "XPoly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c.is_zero():
                continue
            xpart = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
            terms.append(f"({ratfunc_str(c)}){'*' if xpart else ''}{xpart}")
        return "XPoly(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# The tensor and its relations
# ---------------------------------------------------------------------------


@_record
class IntersectionTensor:
    """Full intersection-number tensor p[h][i][j] with valencies k and
    degree v = sum of valencies, checked against the seven defining
    relations on construction (:meth:`validate`).  Entries may be rationals
    (numeric) or symbolic scalars; ``realizable`` is True when every entry
    is a nonnegative integer, and None for symbolic tensors."""

    _derived = ("realizable",)

    k: tuple
    p: tuple
    v: object
    realizable: bool | None

    def __post_init__(self):
        self.validate()
        entries = [*self.k, *(x for table in self.p for row in table for x in row)]
        realizable = None
        if all(isinstance(x, (int, Fraction)) for x in entries):
            realizable = all(x.denominator == 1 and x >= 0 for x in entries)
        object.__setattr__(self, "realizable", realizable)

    @property
    def rank(self) -> int:
        return len(self.k)

    def validate(self) -> None:
        """Assert the seven defining relations; raise InfeasibleArrayError
        naming the first violated one.  Before any relation, raise
        ValueError at the first index where p is not r x r x r for
        r = len(k), and TypeError on an entry that is not an int, Fraction,
        RatFunc or XPoly.

        The audit runs on integers.  Every entry times D, the lcm in Z[q] of
        the denominators of v, k and p (of every X-coefficient of an XPoly),
        is a polynomial in Z[q][X], and relation 1's constant 1 becomes D.
        Each relation equates sums of entries or of products of two, so
        multiplying its sides by D or D^2, nonzero in the domain Z[q][X],
        keeps it true or false.  X = q^B maps Z[q][X] into Z[q], a ring
        homomorphism; with B greater than twice the largest q-degree of a
        cleared X-coefficient, every side of a relation has X-coefficients
        of q-degree below B, so its blocks of B coefficients do not overlap
        and the images of two sides are equal exactly when the sides are.
        Each entry is thus compared as one tuple of integer coefficients,
        with no gcd after D.  :func:`srgkit.audit.audit` runs the audit."""
        # imported on first use, so a process that audits no tensor (gen,
        # verify, orbitals) does not compile the audit
        from .audit import audit

        audit(self.k, self.p, self.v)


def _tensor_recursion(b: list, c: list, one):
    """Rebuild valencies and the full tensor from array entries b_0..b_{d-1}
    and c_1..c_d over any exact scalar domain containing ``one``.

    Out-of-range indices contribute zero.  For a pair at distance h, the
    neighbours of the first vertex split into c_h at distance h-1 from the
    second vertex, a_h at h, and b_h at h+1 — that seeds level 1; level
    i+1 then follows from levels i and i-1 by the linear recursion obtained
    by counting neighbours of intermediate vertices two ways.
    """
    d = len(b)
    zero = one - one
    b_full = list(b) + [zero]  # b_d = 0
    c_full = [zero] + list(c)  # c_0 = 0
    k = [one]
    for j in range(d):
        k.append(k[-1] * b[j] / c[j])
    a = [b[0] - b_full[j] - c_full[j] for j in range(d + 1)]

    p = []
    for h in range(d + 1):
        table = [[zero] * (d + 1) for _ in range(d + 1)]
        table[0][h] = one
        if d >= 1:
            if h >= 1:
                table[1][h - 1] = c_full[h]
            table[1][h] = a[h]
            if h + 1 <= d:
                table[1][h + 1] = b_full[h]
        for i in range(1, d):
            for j in range(d + 1):
                term = table[i][j] * (a[j] - a[i])
                if j >= 1:
                    term = term + table[i][j - 1] * b_full[j - 1]
                if j + 1 <= d:
                    term = term + table[i][j + 1] * c_full[j + 1]
                term = term - table[i - 1][j] * b_full[i - 1]
                table[i + 1][j] = term / c_full[i + 1]
        p.append(tuple(tuple(row) for row in table))
    return tuple(k), tuple(p), sum(k, zero)


_ARRAY_RANK_CAP = 15  # tensor_from_array: rank 15 takes about 0.3 s, rank 21 1.3 s


def tensor_from_array(array: IntersectionArray) -> IntersectionTensor:
    """Numeric tensor from an intersection array, validated against every
    relation; ``realizable`` records whether all entries are nonnegative
    integers.  Past rank ``_ARRAY_RANK_CAP`` raises ScaleGuardError before
    building: the recursion and the audit grow about as rank^5."""
    rank = array.diameter + 1
    if rank > _ARRAY_RANK_CAP:
        raise ScaleGuardError(
            f"the intersection tensor of a rank-{rank} array", rank, _ARRAY_RANK_CAP
        )
    b = [Fraction(x) for x in array.b]
    c = [Fraction(x) for x in array.c]
    return IntersectionTensor(*_tensor_recursion(b, c, Fraction(1)))


def symbolic_tensor_from_array(b: list, c: list, one) -> IntersectionTensor:
    """Tensor over symbolic scalars (RatFunc or XPoly); realizable is None."""
    return IntersectionTensor(*_tensor_recursion(b, c, one))


def tensor_from_graph(g: Graph) -> IntersectionTensor:
    """Direct pair-counting tensor of a distance-regular graph's distance
    partition.

    :func:`srgkit.graphcore.check_drg` certifies the graph first, and a
    graph it refuses raises ValueError naming its failure.  In a
    distance-regular graph p_ij^h depends only on h, i and j (Brouwer,
    Cohen & Neumaier, 4.1), so counting it at one pair (0, y) per distance
    h is exhaustive: p_ij^h = |D_i(0) & D_j(y)|.
    """
    from .graphcore import check_drg, distance_masks

    verdict = check_drg(g)
    if not isinstance(verdict, IntersectionArray):
        raise ValueError(f"graph is not distance-regular: {verdict}")
    base = distance_masks(g, 0)

    def counts(y):  # the table p_ij^h for h = d(0, y)
        masks = distance_masks(g, y)
        return tuple(tuple(Fraction((a & b).bit_count()) for b in masks) for a in base)

    p = tuple(counts((mask & -mask).bit_length() - 1) for mask in base)
    k = tuple(Fraction(m.bit_count()) for m in base)
    return IntersectionTensor(k=k, p=p, v=Fraction(g.n))


def tensor_from_orbital_partition(partition) -> IntersectionTensor:
    """Tensor of a symmetric orbital partition by direct counting."""
    from .orbitals import intersection_number_direct

    r = partition.rank
    if any(partition.paired[c] != c for c in range(r)):
        raise ValueError("partition has non-self-paired classes")
    p = tuple(
        tuple(
            tuple(
                Fraction(intersection_number_direct(partition, h, i, j))
                for j in range(r)
            )
            for i in range(r)
        )
        for h in range(r)
    )
    k = tuple(Fraction(x) for x in partition.suborbit_lengths)
    return IntersectionTensor(k=k, p=p, v=Fraction(partition.degree))


def instantiate_tensor(tensor: IntersectionTensor, value) -> IntersectionTensor:
    """Evaluate a symbolic tensor at a numeric point."""
    value = _as_fraction(value)
    k = tuple(x.evaluate(value) for x in tensor.k)
    p = tuple(
        tuple(tuple(x.evaluate(value) for x in row) for row in table)
        for table in tensor.p
    )
    return IntersectionTensor(k=k, p=p, v=tensor.v.evaluate(value))


_UNION_CAP = 2**12 - 2  # unions srg_fusions examines: rank 13, under 1 s


def _union_counts(tensor: IntersectionTensor, union):
    """c_h = sum of p_ij^h over i, j in ``union`` for h = 1, 2, ..., lazily:
    the coefficient of A_h in A_S^2, A_S the sum of the union's classes."""
    for table in tensor.p[1:]:
        yield sum(table[i][j] for i in union for j in union)


def srg_fusions(tensor: IntersectionTensor) -> list[tuple[tuple[int, ...], tuple]]:
    """Every proper union S of non-diagonal classes whose graph is strongly
    regular, with (v, k_S, lambda, mu), smallest S first.  By the identity
    A_S^2 = k_S I + sum_h c_h A_h (Brouwer, Cohen & Neumaier, 2.1), that
    holds exactly when c_h is one value lambda on S and one nonzero value
    mu off it.  Equality is exact, so on rational functions it holds
    identically in q.  Past ``_UNION_CAP`` unions raises ScaleGuardError."""
    classes = range(1, tensor.rank)
    unions = 2 ** len(classes) - 2
    if unions > _UNION_CAP:
        raise ScaleGuardError(
            f"the class-union search of a rank-{tensor.rank} scheme", unions, _UNION_CAP
        )
    fusions = []
    for size in range(1, len(classes)):
        for union in combinations(classes, size):
            value = {}  # True: lambda, on the union; False: mu, off it
            for h, c in enumerate(_union_counts(tensor, union), 1):
                if value.setdefault(h in union, c) != c:
                    break
            else:
                if value[False]:
                    k = sum(tensor.k[i] for i in union)
                    fusions.append((union, (tensor.v, k, value[True], value[False])))
    return fusions


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def fraction_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def tensor_to_json(tensor: IntersectionTensor) -> dict:
    if tensor.realizable is None:
        raise ValueError("only numeric tensors serialize to JSON")
    return {
        "rank": tensor.rank,
        "v": fraction_json(tensor.v),
        "k": [fraction_json(x) for x in tensor.k],
        "p": [
            [[fraction_json(x) for x in row] for row in table]
            for table in tensor.p
        ],
        "realizable": tensor.realizable,
    }


# ---------------------------------------------------------------------------
# Symbolic jobs
# ---------------------------------------------------------------------------


def _gaussian_1(q, i: int):
    """[i]_q = (q^i - 1)/(q - 1) at an exact scalar q."""
    return (q**i - 1) / (q - 1)


def _integer_array(b, c) -> IntersectionArray:
    """The intersection array of closed-form entries at a Fraction q."""
    return IntersectionArray(tuple(map(_integer, b)), tuple(map(_integer, c)))


def _g2_array(q) -> tuple[tuple, tuple]:
    """{q(q+1), q^2, q^2; 1, 1, q+1} at an exact scalar q (q**0: its one)."""
    return (q * (q + 1), q**2, q**2), (q**0, q**0, q + 1)


def _grassmann_array(q, x) -> tuple[tuple, tuple]:
    """The 3-subspace Grassmann array b_i = q^(2i+1) [3-i]_q [n-3-i]_q,
    c_i = [i]_q^2 at exact scalars q and x = q^n (Fractions, or a RatFunc
    and an XPoly), with [n-3-i]_q = (x / q^(3+i) - 1)/(q - 1)."""
    b = tuple(
        q ** (2 * i + 1) * _gaussian_1(q, 3 - i) * (x / q ** (3 + i) - 1) / (q - 1)
        for i in range(3)
    )
    return b, tuple(_gaussian_1(q, i) ** 2 for i in (1, 2, 3))


@_record
class G2Symbolic:
    """Report of the symbolic computation on {q(q+1), q^2, q^2; 1, 1, q+1}."""

    tensor: IntersectionTensor
    params: tuple  # (v, k, lambda, mu) polynomials for the distance-3 graph
    p33: tuple  # (p_33^1, p_33^2, p_33^3)
    p22: tuple  # (p_22^1, p_22^3)
    gamma3_criterion: tuple  # (bool, values)
    gamma2_criterion: tuple
    instantiated_qs: tuple


def g2_symbolic() -> G2Symbolic:
    """Symbolic tensor of the array {q(q+1), q^2, q^2; 1, 1, q+1} and the
    induced parameters of its distance-3 graph, cross-checked numerically
    at q in {2, 3, 4, 5}."""
    q = RatFunc.gen()
    tensor = symbolic_tensor_from_array(*_g2_array(q), RatFunc(1))
    p = tensor.p

    if p[1][2][2] != q**2 * (q - 1):
        raise AssertionError("p_22^1 = q^2(q-1) fails")
    if p[3][2][2] != (q + 1) * (q**2 - 1):
        raise AssertionError("p_22^3 = (q+1)(q^2-1) fails")
    fusions = dict(srg_fusions(tensor))
    if list(fusions) != [(3,), (1, 2)]:
        raise AssertionError("the strongly regular unions are not {3} and {1, 2}")
    params = fusions[(3,)]
    mu = q**4 * (q - 1)  # p_33^1 = p_33^2 = p_33^3
    if params != ((q**6 - 1) / (q - 1), q**5, mu, mu):
        raise AssertionError("Gamma_3 is not ((q^6-1)/(q-1), q^5, q^4(q-1), q^4(q-1))")
    gamma3 = ((3,) in fusions, tuple(_union_counts(tensor, (3,))))
    gamma2 = ((2,) in fusions, tuple(_union_counts(tensor, (2,))))

    qs = (2, 3, 4, 5)
    for q0 in qs:
        numeric = tensor_from_array(_integer_array(*_g2_array(Fraction(q0))))
        if instantiate_tensor(tensor, q0) != numeric:
            raise AssertionError(f"instantiation at q={q0} disagrees")
    return G2Symbolic(
        tensor=tensor,
        params=params,
        p33=(p[1][3][3], p[2][3][3], p[3][3][3]),
        p22=(p[1][2][2], p[3][2][2]),
        gamma3_criterion=gamma3,
        gamma2_criterion=gamma2,
        instantiated_qs=qs,
    )


@_record
class DualPolarSymbolic:
    """Report for the rank-3 dual polar array with parameter e."""

    __hash__ = None  # ``displayed`` is a dict

    e: Fraction
    tensor: IntersectionTensor
    displayed: dict  # the four displayed polynomials, reproduced exactly
    p33_equal: bool
    p22_difference_values: tuple  # (r0, value) pairs, all nonzero
    graph_checked_qs: tuple


_DUAL_POLAR_EXPONENTS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))


def dual_polar_symbolic(e) -> DualPolarSymbolic:
    """Tensor of the array b_i = q^(i+e) [3-i]_q, c_i = [i]_q, symbolically.

    For 2e odd everything is computed in a variable r with q = r^2, so
    q^e is a genuine polynomial; for e = 1 the variable is q itself.
    The four displayed intersection-number polynomials must be reproduced
    exactly; p_33^1 = p_33^2 identically iff e = 1.  For e = 1 the tensor
    at q = 2 must also equal the counted tensor of the constructed
    symplectic dual polar graph of Sp_6(2) (:func:`tensor_from_graph`).
    """
    e = Fraction(e)
    if e not in _DUAL_POLAR_EXPONENTS:
        raise ValueError("e must be 1/2, 1 or 3/2")
    graph_qs = (2,) if e == 1 else ()
    if graph_qs:
        # the graph layers are compiled only for a graph check, and before
        # the algebra grows the heap
        from .families import build_dual_polar_sp6
    r = RatFunc.gen()
    if e.denominator == 2:
        q = r**2
        qe = r ** int(2 * e)
    else:
        q = r
        qe = r

    b = [q**i * qe * _gaussian_1(q, 3 - i) for i in range(3)]
    c = [_gaussian_1(q, i) for i in (1, 2, 3)]
    tensor = symbolic_tensor_from_array(b, c, RatFunc(1))
    p = tensor.p

    displayed = {
        "p22_1": qe * q * (q + 1) * (qe - 1),
        "p22_3": ((q**2 + q + 1) / (q + 1))
        * (
            (q**2 + q + 1) * (qe - 1)
            + (q + 1) * (qe * q - 1)
            - qe * q**2
            + 1
        ),
        "p33_1": qe**2 * q**3 * (qe - 1),
        "p33_2": (qe * q**2 / (q + 1))
        * (qe * (q**2 - 1) + (qe - 1) * (qe * q**2 + qe * q - q**2 - q)),
    }
    found = {
        "p22_1": p[1][2][2],
        "p22_3": p[3][2][2],
        "p33_1": p[1][3][3],
        "p33_2": p[2][3][3],
    }
    for name, want in displayed.items():
        if found[name] != want:
            raise AssertionError(f"computed {name} differs from the display")

    p33_equal = displayed["p33_1"] == displayed["p33_2"]
    if p33_equal != (e == 1):
        raise AssertionError("p_33^1 = p_33^2 must hold exactly when e = 1")

    difference = displayed["p22_1"] - displayed["p22_3"]
    cert = []
    for r0 in (2, 3, 4, 5):
        value = difference.evaluate(r0)
        if value == 0:
            raise AssertionError(f"p_22^1 - p_22^3 vanishes at r={r0}")
        cert.append((r0, value))

    for q0 in graph_qs:
        counted = tensor_from_graph(build_dual_polar_sp6(q0))
        if instantiate_tensor(tensor, q0) != counted:
            raise AssertionError(
                f"symbolic tensor at q={q0} differs from the built graph"
            )
    return DualPolarSymbolic(
        e=e,
        tensor=tensor,
        displayed=displayed,
        p33_equal=p33_equal,
        p22_difference_values=tuple(cert),
        graph_checked_qs=graph_qs,
    )


@_record
class GrassmannF2:
    """Report for f_2 = p_22^1 - p_22^3 on J(n, 3) as a quadratic in
    X = q^n."""

    __hash__ = None  # ``positivity`` is a dict

    alphas: tuple  # the three X-coefficients of b_0, b_1, b_2
    betas: tuple
    A: RatFunc
    B: RatFunc
    C: RatFunc
    f2: XPoly
    tensor: IntersectionTensor
    scan_qs: tuple
    scan_ns: tuple
    scan_all_nonzero: bool
    positivity: dict  # per q: (A > 0, vertex <= q^6, f2(q^6) > 0)


_PRIME_POWERS_16 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def grassmann_f2() -> GrassmannF2:
    """Symbolic f_2 for the Grassmann array b_i = q^(2i+1) [3-i]_q [n-3-i]_q,
    c_i = [i]_q^2, in the ring of polynomials in X = q^n over rational
    functions of q.

    Matches the three displayed coefficients A, B, C exactly, then
    certifies f_2 != 0 on a finite scan (the prime powers q <= 16 and
    6 <= n <= 12) plus a positivity argument: A > 0, the parabola's vertex
    lies at or below X = q^6, and f_2(q^6) > 0 — hence f_2 > 0 for all
    X >= q^6 at each scanned q.
    """
    q = RatFunc.gen()
    b, c = _grassmann_array(q, XPoly.gen())
    alphas = tuple(b_i.coefficient(1) for b_i in b)
    betas = tuple(b_i.coefficient(0) for b_i in b)
    displayed_alphas = (
        (q**2 + q + 1) / (q**2 * (q - 1)),
        (q + 1) / (q * (q - 1)),
        1 / (q - 1),
    )
    displayed_betas = (
        -(q**3 + q**2 + q) / (q - 1),
        -(q**4 + q**3) / (q - 1),
        -(q**5) / (q - 1),
    )
    for i in range(3):
        if alphas[i] != displayed_alphas[i] or betas[i] != displayed_betas[i]:
            raise AssertionError(f"alpha_{i}/beta_{i} differ from the display")

    c = [XPoly((c_i,)) for c_i in c]
    tensor = symbolic_tensor_from_array(b, c, XPoly((RatFunc(1),)))
    f2 = tensor.p[1][2][2] - tensor.p[3][2][2]
    if f2.degree != 2:
        raise AssertionError("f_2 is not quadratic in X")
    A, B, C = f2.coefficient(2), f2.coefficient(1), f2.coefficient(0)

    displayed_A = 1 / (q**3 * (q - 1) ** 2)
    displayed_B = RatFunc(
        RatPoly((1, 4, 5, -1, -8, -7, -2))
    ) / ((q**2) * (q - 1) ** 2 * (q + 1) ** 2)
    displayed_C = RatFunc(
        RatPoly((1, 3, 2, -5, -11, -6, 5, 9, 5, 1))
    ) / ((q - 1) ** 2 * (q + 1) ** 2)
    if A != displayed_A:
        raise AssertionError("A(q) differs from the display")
    if B != displayed_B:
        raise AssertionError("B(q) differs from the display")
    if C != displayed_C:
        raise AssertionError("C(q) differs from the display")

    qs, ns = _PRIME_POWERS_16, tuple(range(6, 13))
    all_nonzero = True
    positivity = {}
    for q0 in qs:
        # C, B and A at q0, evaluated once: f2.evaluate(q0, x) for every x
        values = [c.evaluate(q0) for c in f2.coeffs]
        _, b0, a0 = values
        for n0 in ns:
            if f2._horner(values, Fraction(q0) ** n0, Fraction(0)) == 0:
                all_nonzero = False
        x6 = Fraction(q0) ** 6
        positivity[q0] = (
            a0 > 0,
            2 * a0 * x6 + b0 >= 0,
            f2._horner(values, x6, Fraction(0)) > 0,
        )
    if not all_nonzero:
        raise AssertionError("f_2 vanished inside the certified range")
    if not all(all(flags) for flags in positivity.values()):
        raise AssertionError("positivity certificate failed")
    return GrassmannF2(
        alphas=alphas,
        betas=betas,
        A=A,
        B=B,
        C=C,
        f2=f2,
        tensor=tensor,
        scan_qs=qs,
        scan_ns=ns,
        scan_all_nonzero=all_nonzero,
        positivity=positivity,
    )
