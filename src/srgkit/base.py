"""The bottom layer: what the other layers and the command line share
without running a field or a graph.

It holds :class:`ScaleGuardError` and the default vertex budget, the
record decorator that builds every record of the package, the
:class:`IntersectionArray` of a distance-regular graph with its text
parser, the integer check of a closed form, and the package's one dense
polynomial product and long division: the division over F_p for the
trial division of :mod:`srgkit.gf`'s moduli, as integer arithmetic
reduced mod p, and both over Z and Q for :mod:`srgkit.schemes`.  It imports no other srgkit module, so a scheme
job and ``import srgkit.cli`` compile neither :mod:`srgkit.gf` nor
:mod:`srgkit.graphcore`.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["DEFAULT_MAX_V", "IntersectionArray", "ScaleGuardError"]


class ScaleGuardError(ValueError):
    """A construction would exceed a desk-scale limit.

    ``family`` names what was refused, ``predicted_v`` is its size and
    ``max_v`` the limit it exceeds: the vertex budget a caller passes to a
    family builder, or a fixed cap on field tables or enumerated vectors.
    """

    def __init__(self, family: str, predicted_v: int, max_v: int):
        super().__init__(
            f"{family} has size {predicted_v}, over the desk-scale limit of {max_v}"
        )
        self.family = family
        self.predicted_v = predicted_v
        self.max_v = max_v


_setattr = object.__setattr__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record(cls):
    """Make ``cls`` an immutable record of its annotated fields, in order.

    Construction takes the fields positionally or by keyword, with the
    class attribute of a field as its default, then calls __post_init__
    when the class has one; only __post_init__ may write a field, through
    object.__setattr__.  Equality compares two instances of the same class
    field by field, the hash is that of the compared fields, and the repr
    names every field.  Two class-level markers adjust that: the fields in
    ``_derived`` are not arguments (__post_init__ sets them), and those in
    ``_uncompared`` take no part in equality or the hash; a class that sets
    ``__hash__ = None`` keeps it, so its instances are unhashable.
    Assignment and deletion raise AttributeError.  The methods are plain functions over
    one attrgetter, so defining a record compiles no code, where
    ``dataclasses`` compiles each method of each record at import."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    derived = cls.__dict__.get("_derived", ())
    params = tuple(name for name in names if name not in derived)
    arity = len(params)
    defaults = {name: cls.__dict__[name] for name in params if name in cls.__dict__}
    required = [name for name in params if name not in defaults]
    uncompared = cls.__dict__.get("_uncompared", ())
    compared = [name for name in names if name not in uncompared]
    key = attrgetter(*compared)  # the tuple of compared fields, or the one
    post_init = getattr(cls, "__post_init__", None)
    init_name = f"{cls.__qualname__}.__init__()"

    def bind(args, kwargs) -> list:
        """The field values of a call other than one positional argument
        per field, or the TypeError Python raises for such a call to a
        function whose parameters are the fields."""
        given = dict(zip(params, args))
        for name, value in kwargs.items():
            if name not in params:
                raise TypeError(
                    f"{init_name} got an unexpected keyword argument {name!r}"
                )
            if name in given:
                raise TypeError(
                    f"{init_name} got multiple values for argument {name!r}"
                )
            given[name] = value
        if len(args) > arity:
            most = arity + 1
            takes = most if not defaults else f"from {most - len(defaults)} to {most}"
            raise TypeError(
                f"{init_name} takes {takes} positional arguments "
                f"but {len(args) + 1} were given"
            )
        missing = [repr(name) for name in required if name not in given]
        if missing:
            count = len(missing)
            if count > 2:  # 'a', 'b', and 'c'
                missing[:-1] = [", ".join(missing[:-1]) + ","]
            raise TypeError(
                f"{init_name} missing {count} required positional "
                f"argument{'s' * (count > 1)}: {' and '.join(missing)}"
            )
        return [given[name] if name in given else defaults[name] for name in params]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for name, value in zip(params, args):
            _setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    methods = [__init__, __eq__, __repr__]
    if "__hash__" not in cls.__dict__:
        methods.append(__hash__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


# Family constructions refuse to enumerate more vertices than this unless
# the caller raises the budget explicitly.
DEFAULT_MAX_V = 2000


@_record
class IntersectionArray:
    """Intersection array {b_0,...,b_{l-1}; c_1,...,c_l} of a distance-regular
    graph of diameter l.

    Construction validates b_i > 0, c_1 = 1, a_i = k - b_i - c_i >= 0 (with
    b_l = 0, c_0 = 0), and integrality of the valencies
    k_{i+1} = k_i b_i / c_{i+1}.
    """

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        b, c = tuple(self.b), tuple(self.c)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if len(b) != len(c) or not b:
            raise ValueError("need equal-length, nonempty b and c sequences")
        if c[0] != 1:
            raise ValueError("c_1 must equal 1")
        if any(x <= 0 for x in b) or any(x <= 0 for x in c):
            raise ValueError("b_i and c_i must be positive")
        for i in range(self.diameter + 1):
            if self.a(i) < 0:
                raise ValueError(f"a_{i} = {self.a(i)} is negative")
        self.valencies()  # raises if some k_i is not a nonnegative integer

    @property
    def diameter(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        return self.b[0]

    def a(self, i: int) -> int:
        """a_i = k - b_i - c_i with the conventions b_l = 0, c_0 = 0."""
        l = self.diameter
        bi = self.b[i] if i < l else 0
        ci = self.c[i - 1] if i >= 1 else 0
        return self.k - bi - ci

    def valencies(self) -> tuple[int, ...]:
        """(k_0, ..., k_l) with k_{i+1} = k_i b_i / c_{i+1}."""
        ks = [1]
        for i in range(self.diameter):
            num = ks[-1] * self.b[i]
            den = self.c[i]
            if num % den:
                raise ValueError(f"k_{i + 1} = {num}/{den} is not an integer")
            ks.append(num // den)
        return tuple(ks)

    @property
    def v(self) -> int:
        return sum(self.valencies())

    @classmethod
    def parse(cls, text: str) -> "IntersectionArray":
        """Parse "b0,b1,...;c1,c2,..." (optional braces/spaces)."""
        return cls(*_array_entries(text))

    def __str__(self) -> str:
        return "{%s; %s}" % (
            ",".join(map(str, self.b)),
            ",".join(map(str, self.c)),
        )


def _strict_int(text: str) -> int:
    """The integer spelled by ``text`` with surrounding spaces: an optional
    sign and ASCII digits only, so ``1_0`` and non-ASCII digits, which
    ``int`` takes, raise ValueError."""
    token = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(f"{token!r} is not an integer")
    return int(token)


def _array_entries(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The integer entries (b_0.., c_1..) of "b0,b1,...;c1,c2,...", with
    optional enclosing braces and spaces.  A ValueError names the first
    entry that is not an integer; the array's shape is not checked here."""
    body = text.strip()
    if body[:1] == "{" and body[-1:] == "}":
        body = body[1:-1]
    left, sep, right = body.partition(";")
    if not sep:
        raise ValueError("array needs the form 'b0,b1,...;c1,c2,...'")
    sides = []
    for side, first, part in (("b", 0, left), ("c", 1, right)):
        entries = []
        for i, s in enumerate(part.split(","), first):
            try:
                entries.append(_strict_int(s))
            except ValueError:
                raise ValueError(
                    f"array entry {side}{i} = {s.strip()!r} is not an integer"
                ) from None
        sides.append(tuple(entries))
    return sides[0], sides[1]


def _integer(x: Fraction) -> int:
    """An exact rational that a closed form makes integral, as an ``int``."""
    if x.denominator != 1:
        raise AssertionError(f"{x} is not an integer")
    return x.numerator


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic on coefficient lists, constant term first: one
# product and one long division over any ring (Z[q] and Q[q] in
# srgkit.schemes), and over F_p as integer arithmetic reduced mod p.
# ---------------------------------------------------------------------------


def _convolve(a: Sequence, b: Sequence, zero) -> list:
    """The coefficients of the product of two nonempty coefficient lists
    over a ring whose zero is ``zero``."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] = out[j] + x * y
    return out


def _long_division(a: Sequence, b: Sequence, div) -> tuple[list, list]:
    """Quotient and remainder of the coefficient lists a by b, each
    quotient term being div(leading remainder term, leading term of b).
    With div = floordiv on integers, b divides a in Z[q] exactly when the
    remainder is zero: a term floordiv cannot divide stays in it."""
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        factor = div(rem[i + db], b[-1])
        if factor:
            quot[i] = factor
            for j, c in enumerate(b):
                rem[i + j] -= factor * c
    return quot, rem
