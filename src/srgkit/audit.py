"""The seven-relation audit of an intersection tensor, on integer forms.

:meth:`srgkit.schemes.IntersectionTensor.validate` runs :func:`audit`; its
docstring states why the integer forms decide each relation exactly.  Every
entry is multiplied by D, the lcm in Z[q] of all denominators, and an XPoly
is mapped into Z[q] by X = q^B, so each entry becomes one tuple of integer
coefficients (constant term first, no trailing zero) and the relations are
checked with two helpers, :func:`_int_sum` and :func:`_int_mul`.

``validate`` imports this module on first use.  Without cached bytecode,
compiling srgkit at import sets the start-up time and the peak memory of a
short command, and ``gen``, ``verify`` and ``orbitals`` audit no tensor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import product, zip_longest
from operator import floordiv

from . import schemes
from .base import _convolve, _long_division
from .schemes import InfeasibleArrayError, RatFunc, RatPoly, XPoly, _primitive

__all__ = ["audit"]


def _int_sum(polys: list) -> tuple:
    """Sum of integer coefficient tuples with no trailing zero, so that
    equal polynomials have equal tuples."""
    out = [*map(sum, zip_longest(*polys, fillvalue=0))]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _int_mul(a: tuple, b: tuple) -> tuple:
    """Product of two integer coefficient tuples with no trailing zero; Z
    has no zero divisors, so neither has the product."""
    return tuple(_convolve(a, b, 0)) if a and b else ()


def _quotients(x) -> list:
    """x as (numerator, denominator) coefficient tuples in Z[q], one pair
    per power of X.  Only exact scalars have this form."""
    if isinstance(x, (int, Fraction)):
        return [((x.numerator,) if x else (), (x.denominator,))]
    if not isinstance(x, (RatFunc, XPoly)):
        raise TypeError(
            f"{type(x).__name__} entry: an intersection number must be "
            "an int, Fraction, RatFunc or XPoly"
        )
    coeffs = x.coeffs if isinstance(x, XPoly) else [x]
    return [(c._num.coeffs, c._den.coeffs) for c in coeffs]


def _exact_quotient(a: tuple, b) -> tuple:
    """a / b in Z[q], for b dividing a."""
    return tuple(_long_division(a, b, floordiv)[0])


def _lcm(a: tuple, b: tuple) -> tuple:
    """The lcm in Z[q] of two polynomials with positive leading
    coefficients, contents included: by Gauss's lemma their gcd in Z[q] is
    the gcd of the contents times the primitive part of their gcd over Q,
    which takes one ``poly_gcd`` call when both have positive degree."""
    g = [math.gcd(math.gcd(*a), math.gcd(*b))]
    if len(a) > 1 < len(b):
        # looked up at each call, so a counter put on schemes.poly_gcd sees it
        gcd = schemes.poly_gcd(RatPoly(a), RatPoly(b))
        g = [g[0] * c for c in _primitive(gcd)[0]]
    return _int_mul(a, _exact_quotient(b, g))


def _integer_forms(entries: list) -> list:
    """The entries times the lcm of their denominators, each one integer
    coefficient tuple under X = q^B."""
    quotients = [_quotients(x) for x in entries]
    dens = dict.fromkeys(den for parts in quotients for _, den in parts)
    common = reduce(_lcm, dens, (1,))
    cofactor = {den: _exact_quotient(common, den) for den in dens}
    cleared = [[_int_mul(n, cofactor[d]) for n, d in parts] for parts in quotients]
    # B = 2 * (largest q-degree) + 1; X^e moves a form up by e * B places
    width = 2 * max((len(f) for forms in cleared for f in forms), default=1) - 1
    return [
        _int_sum([(0,) * (e * width) + f for e, f in enumerate(forms)])
        for forms in cleared
    ]


def _check_shape(part, r: int, depth: int = 3, name: str = "p") -> None:
    """Raise ValueError at the first index, in lexicographic order, where
    ``part`` (p, a table of p or a row: ``depth`` 3, 2 or 1) or a part of
    it is not r long."""
    for i, sub in enumerate(part[:r] if depth > 1 else ()):
        _check_shape(sub, r, depth - 1, f"{name}[{i}]")
    if len(part) != r:
        state = "missing" if len(part) < r else "extra"
        raise ValueError(
            f"p must have shape {r}x{r}x{r} (r = len(k)): "
            f"{name}[{min(len(part), r)}] is {state}"
        )


def audit(k, p, v) -> None:
    """The audit of :meth:`srgkit.schemes.IntersectionTensor.validate`,
    which documents what it raises."""
    r = len(k)
    if not r:
        raise ValueError("k[0] is missing: a tensor has rank r = len(k) >= 1")
    _check_shape(p, r)
    entries = [v, 1, *k, *(x for table in p for row in table for x in row)]
    v, one, *forms = _integer_forms(entries)
    k, flat = forms[:r], forms[r:]
    R = range(r)
    p = [[flat[r * (r * h + i) : r * (r * h + i + 1)] for i in R] for h in R]
    zero = ()
    for h, j in product(R, R):
        if p[h][0][j] != (one if j == h else zero):
            raise InfeasibleArrayError("p_0j^h = delta_jh", f"h={h} j={j}")
    for i, j in product(R, R):
        if p[0][i][j] != (k[j] if i == j else zero):
            raise InfeasibleArrayError("p_ij^0 = delta_ij k_j", f"i={i} j={j}")
    for h, i, j in product(R, R, R):
        if p[h][i][j] != p[h][j][i]:
            raise InfeasibleArrayError("p_ij^h = p_ji^h", f"h={h} i={i} j={j}")
    for h, j in product(R, R):
        if _int_sum([p[h][i][j] for i in R]) != k[j]:
            raise InfeasibleArrayError("sum_i p_ij^h = k_j", f"h={h} j={j}")
    if _int_sum(k) != v:
        raise InfeasibleArrayError("sum_j k_j = v")
    for h, i, j in product(R, R, R):
        if _int_mul(p[h][i][j], k[h]) != _int_mul(p[j][i][h], k[j]):
            raise InfeasibleArrayError(
                "p_ij^h k_h = p_ih^j k_j", f"h={h} i={i} j={j}"
            )
    # the right side at (i, j, h, m) is left(h, j, i, m), so each sum is
    # formed once, at i < h: the first failure in this order lies there
    columns = [[[p[l][i][j] for l in R] for j in R] for i in R]

    def left(i, j, h, m):
        return _int_sum([*map(_int_mul, columns[i][j], p[m][h])])

    for i, j, h, m in product(R, R, R, R):
        if i < h and left(i, j, h, m) != left(h, j, i, m):
            raise InfeasibleArrayError(
                "sum_l p_ij^l p_hl^m = sum_l p_hj^l p_il^m",
                f"i={i} j={j} h={h} m={m}",
            )
