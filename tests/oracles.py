"""Brute-force enumeration oracles used across the test suite.

Every closed form, dynamic-programming count, or structured check in the
package is validated against these exhaustive enumerations at small sizes.
The oracles are deliberately naive: their correctness comes from
directness, not cleverness, so they serve as the ground truth.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from srgkit.geometry import (
    FormedSpace,
    _dot,
    _reflections,
    _rescale,
    _span,
    _value_index,
    enumerate_flags,
    enumerate_points,
    lead_one,
    line_tangency_count,
    projective_reps,
    rref,
)
from srgkit.gf import Field, field_of_order
from srgkit.graphcore import Graph, IntersectionArray, bits, build_graph, complement
from srgkit.orbitals import PermGroupAction, _pair_bytes, mulclose


@lru_cache(maxsize=None)
def norm_table(field: Field) -> list[int]:
    """The relative norm a -> a^(q0+1) of every element of F_{q0^2}, as an
    index in the subfield F_{q0} (retracted through ``subfield``); a field
    of non-square order has no such norm."""
    if field.k % 2:
        raise ValueError("norm requires a field of square order")
    sub, embed = field.subfield(field.k // 2)
    retract = {e: i for i, e in enumerate(embed)}
    return [retract[field.pow_index(a, sub.q + 1)] for a in range(field.q)]


def trace_to_prime(field: Field, a: int) -> int:
    """The absolute trace sum(a^(2^i)) of element ``a`` of a field of
    characteristic 2, in {0, 1}: a walk of the Frobenius table."""
    if field.p != 2:
        raise ValueError("trace_to_prime requires characteristic 2")
    acc = 0
    for _ in range(field.k):
        acc, a = field.add_table[acc][a], field.frob_table[a]
    if acc not in (0, 1):
        raise AssertionError("trace landed outside the prime subfield")
    return acc


def quadratic_character(field: Field, a: int) -> int:
    """chi(a) = a^((q-1)/2) of element ``a`` of a field of odd order, read
    in {-1, 0, +1} from the parity of its logarithm; chi(0) = 0."""
    if field.p == 2:
        raise ValueError("quadratic character requires odd q")
    if a == 0:
        return 0
    return -1 if field.log_table[a] % 2 else 1


def hermitian_norm_counts(n: int, q: int) -> list[int]:
    """Count vectors of (F_{q^2})^n by the value of sum(a_i^(q+1)).

    Returns a list indexed by the element index in F_q.
    """
    norm_of = norm_table(field_of_order(q * q))
    add = field_of_order(q).add_table
    counts = [0] * q
    for vec in itertools.product(range(q * q), repeat=n):
        acc = 0
        for a in vec:
            acc = add[acc][norm_of[a]]
        counts[acc] += 1
    return counts


def hyperbolic_counts(k: int, q: int) -> list[int]:
    """Count tuples (a_1,b_1,..,a_k,b_k) in F_q^(2k) by sum(a_i * b_i).

    Returns a list indexed by the element index in F_q.
    """
    field = field_of_order(q)
    add, mul = field.add_table, field.mul_table
    counts = [0] * q
    for vec in itertools.product(range(q), repeat=2 * k):
        acc = 0
        for i in range(k):
            acc = add[acc][mul[vec[2 * i]][vec[2 * i + 1]]]
        counts[acc] += 1
    return counts


def _char_sum_terms(field: Field, gamma1: int, gamma2: int, lam: int):
    """(m(x), k(x)) = (1 - x gamma1 + x^2, gamma2 - lam x) for every
    element x of the field, on element indices."""
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    for x in range(field.q):
        m = add[add[1][neg[mul[x][gamma1]]]][mul[x][x]]
        yield m, add[gamma2][neg[mul[lam][x]]]


def char_sum_direct(gamma1: int, gamma2: int, lam: int, q: int) -> int:
    """Count pairs (x, T) in F_q^2 solving
    T^2 - (gamma2 - lam*x)*T + (1 - x*gamma1 + x^2) = 0
    by substituting every T directly; arguments are element indices."""
    field = field_of_order(q)
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    total = 0
    for m, kx in _char_sum_terms(field, gamma1, gamma2, lam):
        for t in range(q):
            if add[add[mul[t][t]][neg[mul[kx][t]]]][m] == 0:
                total += 1
    return total


# ---------------------------------------------------------------------------
# Dynamic-programming counts, checked against the enumerations above and
# against the closed forms below
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


def _convolve_counts(dist: list[int], single: list[int], field: Field) -> list[int]:
    """Additive convolution of two index-aligned value-count vectors."""
    out = [0] * field.q
    add = field.add_table
    for i, ci in enumerate(dist):
        if ci:
            row = add[i]
            for j, cj in enumerate(single):
                if cj:
                    out[row[j]] += ci * cj
    return out


def count_hermitian_norm_solutions(n: int, q: int, c=0) -> int:
    """#{(a_1..a_n) in (F_{q^2})^n : sum of a_i^(q+1) = c}.

    Dynamic programming over norm-value distributions: one coordinate
    contributes norm 0 once and each nonzero norm value q+1 times.  The
    whole distribution is checked against ``hermitian_count_closed``.

    ``c`` is an element index of F_q (0 = zero).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    field = field_of_order(q)
    if not 0 <= c < q:
        raise ValueError(f"c index {c} out of range for GF({q})")
    single = [q + 1] * q
    single[0] = 1
    dist = [0] * q
    dist[0] = 1
    for _ in range(n):
        dist = _convolve_counts(dist, single, field)
    if dist[0] != hermitian_count_closed(n, q, zero=True):
        raise AssertionError("hermitian count disagrees with its closed form")
    if n and set(dist[1:]) != {hermitian_count_closed(n, q, zero=False)}:
        raise AssertionError("hermitian count not constant on nonzero targets")
    return dist[c]


def count_hyperbolic_solutions(k: int, q: int, zero_target: bool) -> int:
    """#{(a_1,b_1,..,a_k,b_k) in F_q^(2k) : sum of a_i b_i = c}.

    ``zero_target`` selects c = 0; otherwise any fixed c != 0 (the count is
    independent of the choice, which is asserted).  One hyperbolic pair
    realises 0 in 2q-1 ways and each nonzero value in q-1 ways; the k-pair
    distribution is the k-fold additive convolution, checked against
    ``hyperbolic_count_closed``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    field = field_of_order(q)
    single = [q - 1] * q
    single[0] = 2 * q - 1
    dist = [0] * q
    dist[0] = 1
    for _ in range(k):
        dist = _convolve_counts(dist, single, field)
    if dist[0] != hyperbolic_count_closed(k, q, zero=True):
        raise AssertionError("hyperbolic count disagrees with its closed form")
    if k and set(dist[1:]) != {hyperbolic_count_closed(k, q, zero=False)}:
        raise AssertionError("hyperbolic count not constant on nonzero targets")
    return dist[0] if zero_target else dist[1 % q]


def char_sum_c(gamma1: int, gamma2: int, lam: int, q: int) -> int:
    """sum over x in F_q of the number of roots of
    T^2 - (gamma2 - lam*x) T + m(x), where m(x) = 1 - x*gamma1 + x^2, on
    element indices.

    Odd q counts roots of a monic quadratic as 1 + chi(discriminant).  Even
    q writes the quadratic as T^2 + k T + m with k = gamma2 + lam*x: exactly
    one root when k = 0 (squaring is bijective), otherwise two roots exactly
    when the absolute trace of m / k^2 vanishes.
    """
    field = field_of_order(q)
    add, mul, neg, inv = (
        field.add_table,
        field.mul_table,
        field.neg_table,
        field.inv_table,
    )
    four = mul[add[1][1]][add[1][1]]
    total = 0
    for m, kx in _char_sum_terms(field, gamma1, gamma2, lam):
        if field.p == 2:
            if not kx:
                total += 1
            elif trace_to_prime(field, mul[m][inv[mul[kx][kx]]]) == 0:
                total += 2
        else:
            disc = add[mul[kx][kx]][neg[mul[four][m]]]
            total += 1 + quadratic_character(field, disc)
    return total


# ---------------------------------------------------------------------------
# Reference forms of the field and formed-space primitives, each written out
# directly per kind or by trial, for the package's term lists, root table and
# shared polynomial arithmetic to be compared against
# ---------------------------------------------------------------------------


def schoolbook_tables(field: Field) -> tuple[list[list[int]], list[list[int]]]:
    """The addition and multiplication tables of F_{p^k} on element
    indices: coefficient lists added mod p, and multiplied by schoolbook
    products mod p reduced term by term with the modulus."""
    p, k, modulus = field.p, field.k, field.modulus
    coeffs = [field.coeffs_of(a) for a in range(field.q)]
    add = [
        [field.index_of([(x + y) % p for x, y in zip(ca, cb)]) for cb in coeffs]
        for ca in coeffs
    ]
    mul = []
    for ca in coeffs:
        row = []
        for cb in coeffs:
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(ca):
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for top in range(2 * k - 2, k - 1, -1):  # minus c t^(top-k) modulus
                c = prod[top]
                for i, m in enumerate(modulus, top - k):
                    prod[i] = (prod[i] - c * m) % p
            row.append(field.index_of(prod[:k]))
        mul.append(row)
    return add, mul


def least_irreducible_by_products(p: int, k: int) -> tuple[int, ...]:
    """The least monic polynomial of degree k over F_p, coefficient tuples
    compared constant term first, that is no product of two monic
    polynomials of positive degree: every such product is listed."""

    def monic(d):
        return [(*lower, 1) for lower in itertools.product(range(p), repeat=d)]

    reducible = set()
    for d in range(1, k // 2 + 1):
        for a in monic(d):
            for b in monic(k - d):
                prod = [0] * (k + 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        prod[i + j] = (prod[i + j] + x * y) % p
                reducible.add(tuple(prod))
    return min(f for f in monic(k) if f not in reducible)


def form_value_by_kind(space, vec) -> int:
    """h(x, x) as an index in the value field, or Q(x), written out for
    each kind of the standard bases in srgkit.geometry."""
    field = space.field
    add, mul = field.add_table, field.mul_table
    if space.kind == "hermitian":
        sub_add, norms = space.value_field.add_table, norm_table(field)
        acc = 0
        for c in vec:
            acc = sub_add[acc][norms[c]]
        return acc
    if space.kind == "symplectic":
        return 0
    m = space.dim // 2
    if space.kind == "quadratic-minus":
        m -= 1
    acc = 0
    for i in range(m):
        acc = add[acc][mul[vec[i]][vec[m + i]]]
    if space.kind == "quadratic-odd":
        gamma = vec[-1]
        acc = add[acc][mul[gamma][gamma]]
    if space.kind == "quadratic-minus":
        a, b = vec[-2], vec[-1]
        acc = add[acc][mul[a][a]]
        acc = add[acc][mul[a][b]]
        acc = add[acc][mul[space.zeta][mul[b][b]]]
    return acc


def polar_by_difference(space, x, y) -> int:
    """The polar form B(x, y) = Q(x + y) - Q(x) - Q(y) of a quadratic
    space, from :func:`form_value_by_kind`."""
    add, neg = space.field.add_table, space.field.neg_table
    xy = tuple(add[a][b] for a, b in zip(x, y))
    q = [form_value_by_kind(space, v) for v in (xy, x, y)]
    return add[q[0]][neg[add[q[1]][q[2]]]]


def scale_by_trial(space, vec, target: int):
    """The least multiple of the nonzero ``vec`` with form value
    ``target``, or None: every multiple of its first-nonzero-is-1
    representative tried in scalar order."""
    field = space.field
    mul, inv = field.mul_table, field.inv_table
    lead = inv[next(c for c in vec if c)]
    rep = tuple(mul[lead][c] for c in vec)
    for s in range(1, field.q):
        candidate = tuple(mul[s][c] for c in rep)
        if form_value_by_kind(space, candidate) == target:
            return candidate
    return None


def nonsingular_points(space: FormedSpace) -> list[tuple[int, ...]]:
    """The projective points of nonzero form value, in the order of their
    canonical representatives, each held by its least multiple of form
    value 1 (:func:`scale_by_trial`) where one exists, and by its
    canonical representative otherwise."""
    points = []
    for rep in projective_reps(space.field, space.dim):
        if form_value_by_kind(space, rep):
            points.append(scale_by_trial(space, rep, 1) or rep)
    return points


def scale_to_value(
    space: FormedSpace, rep: tuple[int, ...], target: int
) -> tuple[int, ...] | None:
    """The lexicographically least scalar multiple of rep whose form value
    is ``target`` (the index of an element of space.value_field), or None
    if no scaling achieves it; a nonzero target on a symplectic space, where
    every point is singular, raises ValueError.  The multiples of the
    :func:`lead_one` representative sort as their scalars do, so the least
    scalar with that value gives the least multiple."""
    target = _value_index(space, target)
    if target and space.kind == "symplectic":
        raise ValueError("a symplectic space has no nonsingular points")
    rep = lead_one(space.field, rep)
    return _rescale(space, rep, space.form_value(rep), target)


def _singular_point_counts(m: int, q: int) -> dict[str, int]:
    """Projective singular point counts of the nondegenerate quadratic
    forms in dimension 2m: plus and minus type."""
    return {
        "+": (q ** (m - 1) + 1) * (q**m - 1) // (q - 1),
        "-": (q ** (m - 1) - 1) * (q**m + 1) // (q - 1),
    }


def perp_types(space: FormedSpace, points) -> list[str]:
    """Type ("+" or "-") of the restriction of Q to the perp of each
    nonsingular point, given by its representative, of an odd-dimensional
    quadratic space, recognized by counting singular projective points
    inside the perp."""
    if space.kind != "quadratic-odd":
        raise ValueError("perp_types applies to quadratic-odd spaces")
    if space.field.p == 2:
        raise ValueError("perp_types requires odd q")
    singular = enumerate_points(space, 0)
    m = (space.dim - 1) // 2
    expected = _singular_point_counts(m, space.field.q)
    types = []
    for p in points:
        if space.form_value(p) == 0:
            raise ValueError("perp_types needs a nonsingular point")
        count = sum(1 for s in singular if space.inner(p, s) == 0)
        eps = next((eps for eps, target in expected.items() if count == target), None)
        if eps is None:
            raise AssertionError(
                f"singular count {count} matches neither type: {expected}"
            )
        types.append(eps)
    return types


def projective_reps_by_filter(field: Field, n: int) -> list[tuple[int, ...]]:
    """The vectors of F_q^n whose first nonzero coordinate is 1, kept from
    all q^n vectors in lexicographic order."""
    return [
        vec
        for vec in itertools.product(range(field.q), repeat=n)
        if next((c for c in vec if c), 0) == 1
    ]


def point_reps_by_normalising(field: Field, subspace) -> tuple[tuple[int, ...], ...]:
    """The projective points of the span of a subspace's rows, sorted:
    every nonzero vector of the span scaled to a leading 1, duplicates
    dropped."""
    return tuple(sorted({lead_one(field, v) for v in _span(field, subspace) if any(v)}))


def point_reps_by_echelon(field: Field, subspace) -> tuple[tuple[int, ...], ...]:
    """Canonical first-nonzero-is-1 representatives of the projective
    points in the span, sorted.  The basis is reduced echelon, so
    sum c_i r_i has coordinate c_i at the pivot of r_i and zeros before
    the first pivot with c_i nonzero: it is canonical exactly when the
    coefficient vector c is, so each is made once, from its c."""
    add, mul = field.add_table, field.mul_table
    reps = []
    for coeffs in projective_reps(field, len(subspace)):
        vec = [0] * len(subspace[0])
        for c, row in zip(coeffs, subspace):
            vec = [add[a][mul[c][r]] for a, r in zip(vec, row)]
        reps.append(tuple(vec))
    return tuple(sorted(reps))


def image_by_rows(field: Field, matrix, vec) -> tuple[int, ...]:
    """The row vector vec M, M given by the images M[i] of the basis
    vectors: one dot product with each column of M."""
    return tuple(_dot(field, vec, column) for column in zip(*matrix))


def permutation_by_normalising(field: Field, reps, matrix) -> tuple[int, ...] | None:
    """The permutation x -> x M of the projective points ``reps``, each
    image scaled to its lead-one representative and looked up in a
    tuple-keyed index of the points; None when an image is not one of
    them."""
    index = {lead_one(field, rep): i for i, rep in enumerate(reps)}
    images = [lead_one(field, image_by_rows(field, matrix, rep)) for rep in reps]
    perm = tuple(index.get(image) for image in images)
    return None if None in perm else perm


def flag_action_generators(q: int) -> tuple[tuple[int, ...], ...]:
    """The generators of ``families.flag_action(q)`` point by point: each
    flag's point times A and line times A^-T, scaled to lead-one
    representatives and looked up as a pair among the flags, then the
    duality, which swaps a flag's point and line."""
    field = field_of_order(q)
    flags = enumerate_flags(q)
    index = {f: i for i, f in enumerate(flags)}
    g, neg, inv = field.primitive, field.neg_table, field.inv_table
    cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    pairs = (  # (A, A^-T) of the scaling, the transvection and the 3-cycle
        ([[g, 0, 0], [0, 1, 0], [0, 0, 1]], [[inv[g], 0, 0], [0, 1, 0], [0, 0, 1]]),
        ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [neg[1], 1, 0], [0, 0, 1]]),
        (cycle, cycle),
    )

    def image(vec, a):
        return lead_one(field, image_by_rows(field, a, vec))

    generators = [
        tuple(index[image(p, a), image(line, b)] for p, line in flags)
        for a, b in pairs
    ]
    generators.append(tuple(index[(line, point)] for point, line in flags))
    return tuple(generators)


def tangency_graph(space, points):
    """Graph on the given projective points, two points adjacent exactly
    when the line joining them has one singular point, found by evaluating
    the form on every point of that line."""
    return build_graph(
        points, lambda a, b: a != b and line_tangency_count(space, a, b) == 1
    )


def meet_graph_by_rank(field, subspaces):
    """Graph on 3-subspaces, two adjacent exactly when their stacked bases
    have rank 4, so that they meet in a 2-space."""
    return build_graph(subspaces, lambda a, b: len(rref(field, [*a, *b])) == 4)


def polar_complement_by_form(space, points):
    """Complement of the graph joining distinct singular points whose
    polar form value is 0, evaluated by the form on every pair."""
    polar = build_graph(points, lambda a, b: a != b and space.inner(a, b) == 0)
    return complement(polar)


def flag_pair_classes(q: int) -> bytes:
    """The class of every ordered pair of flags of PG(2, q), row-major, by
    the flag relation evaluated on each pair: 0 on the diagonal, 1 for a
    shared point or line, 2 for exactly one cross-incidence between one
    flag's point and the other's line, 3 for none."""
    field = field_of_order(q)
    add, mul = field.add_table, field.mul_table

    def incident(point, line) -> bool:
        acc = 0
        for a, b in zip(point, line):
            acc = add[acc][mul[a][b]]
        return acc == 0

    def pair_class(flag, other) -> int:
        if flag == other:
            return 0
        (point, line), (other_point, other_line) = flag, other
        if point == other_point or line == other_line:
            return 1
        first = incident(point, other_line)
        second = incident(other_point, line)
        assert not (first and second), "two flags share both cross-incidences"
        return 2 if first or second else 3

    flags = enumerate_flags(q)
    return bytes(pair_class(f, g) for f in flags for g in flags)


def _symmetric_pair_classes(n: int, label) -> bytes:
    """The class of every ordered pair of n points, row-major, from a
    symmetric label evaluated once per unordered pair: 0 on the diagonal,
    else 1 + the rank of the pair's label among all labels found."""
    labels = [None] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            labels[i * n + j] = labels[j * n + i] = label(i, j)
    rank = {value: r for r, value in enumerate(sorted(set(labels) - {None}), 1)}
    rank[None] = 0
    return bytes(map(rank.__getitem__, labels))


def form_pair_classes(space, points) -> bytes:
    """The class of every ordered pair of nonsingular points by the form:
    the relative norm of h(x, y) at hermitian unit representatives, or, on
    one square class of a quadratic space, the halved form (x, y) divided
    by Q(x) and read up to sign."""
    field = space.field
    if space.kind == "hermitian":
        norms = norm_table(field)

        def label(i, j):
            return norms[space.inner(points[i], points[j])]

    else:
        mul, neg = field.mul_table, field.neg_table
        inverse_q = [field.inv_table[space.form_value(x)] for x in points]

        def label(i, j):
            t = mul[space.half_inner(points[i], points[j])][inverse_q[i]]
            return min(t, neg[t])

    return _symmetric_pair_classes(len(points), label)


def reflection_action(space, points) -> PermGroupAction:
    """The isometry group of ``space`` generated by reflections, acting on
    ``points``, on every generator: the permutations of the reflections
    of ``geometry._reflections``, each made by
    :func:`permutation_by_normalising`, taken until they span the space
    and act transitively.  A reflection that leaves the point set raises
    AssertionError, naming it."""
    generators = []
    for name, matrix, spans in _reflections(space, points):
        perm = permutation_by_normalising(space.field, points, matrix)
        if perm is None:
            raise AssertionError(
                f"the reflection in {name} maps a point outside the point set"
            )
        generators.append(perm)
        action = PermGroupAction(len(points), tuple(generators))
        if spans and action.is_transitive():
            return action
    raise AssertionError("the reflections do not act transitively on the points")


def word_pair_classes(d: int) -> bytes:
    """The class of every ordered pair of length-3 words over d letters,
    row-major: the number of coordinates in which the two words differ."""
    words = list(itertools.product(range(d), repeat=3))
    return _symmetric_pair_classes(
        len(words), lambda i, j: sum(a != b for a, b in zip(words[i], words[j]))
    )


def pair_orbit_classes(action) -> list[int]:
    """The pair-orbit class of every ordered pair, row-major, from the
    closed group: the orbit of (0, y) is {(g(0), g(y)) : g in G}, and the
    orbits are numbered by their first pair (0, y) in y order."""
    n = action.degree
    group = mulclose(list(action.generators))
    class_of = [None] * (n * n)
    rank = 0
    for y0 in range(n):
        if class_of[y0] is None:
            for g in group:
                class_of[g[0] * n + g[y0]] = rank
            rank += 1
    return class_of


_UNCLASSIFIED = 255  # the byte of a pair the orbit BFS has not reached


def pair_orbits_bfs(action) -> bytes:
    """The pair-orbit class of every ordered pair, row-major, by closing
    each orbit pair by pair under the generators: one Python step per pair.
    Classes are numbered by the first pair (0, y) reached in y order."""
    if not action.is_transitive():
        raise ValueError("action is not transitive")
    n = action.degree
    gens = action.generators
    class_of = _pair_bytes(n, _UNCLASSIFIED)
    c = 0
    while (y0 := class_of.find(_UNCLASSIFIED, 0, n)) != -1:  # pair (0, y0)
        if c == _UNCLASSIFIED:
            raise ValueError(f"action has more than {_UNCLASSIFIED} pair orbits")
        class_of[y0] = c
        frontier = [y0]
        while frontier:
            x, y = divmod(frontier.pop(), n)
            for g in gens:
                code = g[x] * n + g[y]
                if class_of[code] == _UNCLASSIFIED:
                    class_of[code] = c
                    frontier.append(code)
        c += 1
    if class_of.find(_UNCLASSIFIED) != -1:
        raise AssertionError("pair BFS left pairs unclassified")
    return bytes(class_of)


def invariant_under_by_rows(table, n, generators, tree=None):
    """The first (x, i), x ascending, at which g = generators[i] moves the
    n-point pair table, or None: row g x is gathered through g one row at
    a time and compared with row x as a tuple.  ``tree``, when given, is
    the Schreier vector the table was filled along, and its edges
    tree[g x] = (x, i) are skipped, as the package's certificate skips
    them."""
    for x in range(n):
        row = tuple(table[x * n : x * n + n])
        for i, g in enumerate(generators):
            if tree is not None and tree[g[x]] == (x, i):
                continue
            if tuple(map(table[g[x] * n : g[x] * n + n].__getitem__, g)) != row:
                return x, i
    return None


def fill_by_rows(base_row, generators, tree) -> bytes:
    """The pair table filled from its base row (0, y) along the Schreier
    vector ``tree`` one pair at a time: tree[y] = (x, i) means that
    g = generators[i] maps x to y, so the class of (y, g z) is that of
    (x, z) for every z."""
    n = len(base_row)

    def depth(y):
        return 0 if tree[y] is None else 1 + depth(tree[y][0])

    rows = {0: bytes(base_row)}
    for y in sorted(tree, key=depth)[1:]:  # every parent before its children
        x, i = tree[y]
        row = bytearray(n)
        for z, gz in enumerate(generators[i]):
            row[gz] = rows[x][z]
        rows[y] = bytes(row)
    return b"".join(rows[y] for y in range(n))


def orbital_graph_rows(partition, cls: int) -> list[int]:
    """Adjacency rows of class ``cls`` united with its paired class, read
    one pair at a time."""
    wanted = {cls, partition.paired[cls]}
    n = partition.degree
    rows = []
    for x in range(n):
        row = 0
        for y in range(n):
            if partition.pair_class(x, y) in wanted:
                row |= 1 << y
        rows.append(row)
    return rows


def intersection_numbers_every_pair(partition) -> list[list[list[int]]]:
    """p[h][i][j]: the number of z with (x, z) in class i and (z, y) in
    class j, counted at the first pair (x, y) of class h and asserted at
    every pair of class h; AssertionError names the first pair that differs.

    The count at (x, y) is entry (x, y) of the product A_i A_j of the class
    matrices, so every pair agrees exactly when A_i A_j equals
    sum_h p_ij^h A_h.  Each row of both sides is one integer with an
    s-byte counter per column y, 256^s > n, so no count carries."""
    n, r, class_of = partition.degree, partition.rank, partition.class_of
    rows = [class_of[x : x + n] for x in range(0, n * n, n)]
    p = []
    for h in range(r):
        x, y = divmod(class_of.index(h), n)
        counts = Counter(zip(rows[x], class_of[y::n]))
        p.append([[counts[i, j] for j in range(r)] for i in range(r)])
    s = (n.bit_length() + 7) // 8
    buf = bytearray(n * s)
    indicator = [bytes(b == c for b in range(256)) for c in range(r)]

    def packed(row, c):  # counter y is 1 where row[y] == c
        buf[::s] = row.translate(indicator[c])
        return int.from_bytes(buf, "little")

    matrix = [[packed(row, c) for row in rows] for c in range(r)]  # row x of A_c
    for x, row in enumerate(rows):
        for i in range(r):
            zs = list(itertools.compress(range(n), row.translate(indicator[i])))
            for j in range(r):
                product = sum(map(matrix[j].__getitem__, zs))  # row x of A_i A_j
                if product != sum(p[h][i][j] * matrix[h][x] for h in range(r)):
                    counts = product.to_bytes(n * s, "little")
                    y = next(
                        y
                        for y in range(n)
                        if int.from_bytes(counts[y * s : y * s + s], "little")
                        != p[row[y]][i][j]
                    )
                    raise AssertionError(f"p_{i}{j}^{row[y]} differs at {(x, y)}")
    return p


def srg_violation(graph):
    """The first pair (u, v), u < v in scan order, whose number of common
    neighbours differs from that of the first pair of its kind (adjacent or
    not), as ((u, v), first count, its count); None if no pair differs.
    Counted by intersecting neighbour sets."""
    nbrs = [set(bits(row)) for row in graph.rows]
    first: dict[bool, int] = {}
    for u, v in itertools.combinations(range(graph.n), 2):
        common = len(nbrs[u] & nbrs[v])
        expected = first.setdefault(v in nbrs[u], common)
        if common != expected:
            return (u, v), expected, common
    return None


def drg_violation(graph):
    """What check_drg should find on a connected regular graph: the first
    (reason, witness, expected, found) met scanning roots, then distance,
    then vertex, where c_1 is not 1, or the eccentricity, c_d or b_d
    differs from the first value seen; else the intersection array.
    Distances by a BFS on int bitsets, one root at a time."""
    rows = graph.rows
    first: dict[str, int] = {}
    for root in range(graph.n):
        layers = [1 << root]
        seen = layers[0]
        while True:
            step = 0
            for u in bits(layers[-1]):
                step |= rows[u]
            step &= ~seen
            if not step:
                break
            layers.append(step)
            seen |= step
        l = len(layers) - 1
        diameter = first.setdefault("diameter", l)
        if l != diameter:
            return "eccentricity varies", (0, root), diameter, l
        for d in range(1, l + 1):
            sides = [(f"c_{d}", layers[d - 1])]
            if d < l:
                sides.append((f"b_{d}", layers[d + 1]))
            for v in bits(layers[d]):
                for key, layer in sides:
                    count = (rows[v] & layer).bit_count()
                    if key == "c_1" and count != 1:  # an edge at v is one-way
                        return "c_1 is not 1", (root, v), 1, count
                    expected = first.setdefault(key, count)
                    if count != expected:
                        return f"{key} not constant", (root, v), expected, count
    b = tuple(first[f"b_{d}"] for d in range(1, diameter))
    c = tuple(first[f"c_{d}"] for d in range(1, diameter + 1))
    return IntersectionArray((rows[0].bit_count(),) + b, c)


def distance_tensor_every_pair(g):
    """(k, p) of a graph's distance partition, or None when it is not
    distance-regular.  p[h][i][j] is the number of z with d(x, z) = i and
    d(z, y) = j, counted at every ordered pair (x, y) at distance h, and
    k[i] = p[0][i][i]; None as soon as one count differs from the first
    pair's at that distance, or some pair has no path.  Distances by a
    list BFS from every vertex, and n^3 counts in all."""
    n = g.n
    dist = []
    for x in range(n):
        row, queue = [None] * n, [x]
        row[x] = 0
        for y in queue:  # the queue grows as it is read
            for z in bits(g.rows[y]):
                if row[z] is None:
                    row[z] = row[y] + 1
                    queue.append(z)
        if None in row:
            return None
        dist.append(row)
    tables = {}
    for x, y in itertools.product(range(n), repeat=2):
        counts = Counter((dist[x][z], dist[z][y]) for z in range(n))
        if tables.setdefault(dist[x][y], counts) != counts:
            return None
    r = len(tables)
    p = tuple(
        tuple(tuple(tables[h][i, j] for j in range(r)) for i in range(r))
        for h in range(r)
    )
    return tuple(p[0][i][i] for i in range(r)), p


def graph6_bits(g) -> str:
    """graph6 of a graph with at most 258047 vertices, one bit at a time:
    the size, then the upper triangle column by column in 6-bit groups,
    each written as chr(63 + value)."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)]
    buf = nbits = 0
    for j in range(1, n):
        for i in range(j):
            buf = (buf << 1) | ((g.rows[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(buf + 63))
                buf = nbits = 0
    if nbits:
        out.append(chr((buf << (6 - nbits)) + 63))
    return "".join(out)


def graph_from_graph6_bits(s: str):
    """The graph of a graph6 string without a header, read one bit at a
    time.  Only checks the body length."""
    if s[0] == "~":
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n, body = ord(s[0]) - 63, s[1:]
    assert len(body) == (n * (n - 1) // 2 + 5) // 6
    stream = [(ord(ch) - 63) >> shift & 1 for ch in body for shift in range(5, -1, -1)]
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if stream[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(rows)


def euclid_gcd(a, b) -> list[Fraction]:
    """The monic gcd over Q of two coefficient lists (constant term first),
    by Euclid's algorithm on Fractions; [] for two zero polynomials."""

    def trimmed(p):
        p = [Fraction(c) for c in p]
        while p and not p[-1]:
            p.pop()
        return p

    a, b = trimmed(a), trimmed(b)
    while b:
        rem = a
        while len(rem) >= len(b):
            factor = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            rem = trimmed(
                [c - factor * b[i - shift] if i >= shift else c for i, c in enumerate(rem)]
            )
        a, b = b, rem
    return [c / a[-1] for c in a] if a else []


def audit_by_scalar_arithmetic(tensor) -> None:
    """The seven defining relations of an intersection tensor, checked in
    the entries' own arithmetic (a RatFunc or XPoly sum or product reduces
    by a gcd each time), in the order and with the indices that
    ``IntersectionTensor.validate`` names; raises its InfeasibleArrayError."""
    from srgkit.schemes import InfeasibleArrayError

    r = tensor.rank
    k, p = tensor.k, tensor.p
    zero = k[0] - k[0]
    one = zero + 1
    R = range(r)
    for h, j in itertools.product(R, R):
        if p[h][0][j] != (one if j == h else zero):
            raise InfeasibleArrayError("p_0j^h = delta_jh", f"h={h} j={j}")
    for i, j in itertools.product(R, R):
        if p[0][i][j] != (k[j] if i == j else zero):
            raise InfeasibleArrayError("p_ij^0 = delta_ij k_j", f"i={i} j={j}")
    for h, i, j in itertools.product(R, R, R):
        if p[h][i][j] != p[h][j][i]:
            raise InfeasibleArrayError("p_ij^h = p_ji^h", f"h={h} i={i} j={j}")
    for h, j in itertools.product(R, R):
        if sum((p[h][i][j] for i in R), zero) != k[j]:
            raise InfeasibleArrayError("sum_i p_ij^h = k_j", f"h={h} j={j}")
    if sum(k, zero) != tensor.v:
        raise InfeasibleArrayError("sum_j k_j = v")
    for h, i, j in itertools.product(R, R, R):
        if p[h][i][j] * k[h] != p[j][i][h] * k[j]:
            raise InfeasibleArrayError("p_ij^h k_h = p_ih^j k_j", f"h={h} i={i} j={j}")
    # the right side at (i, j, h, m) is left(h, j, i, m), so each sum is
    # formed once, at i < h: the first failure in this order lies there
    def left(i, j, h, m):
        return sum((p[l][i][j] * p[m][h][l] for l in R), zero)

    for i, j, h, m in itertools.product(R, R, R, R):
        if i < h and left(i, j, h, m) != left(h, j, i, m):
            raise InfeasibleArrayError(
                "sum_l p_ij^l p_hl^m = sum_l p_hj^l p_il^m",
                f"i={i} j={j} h={h} m={m}",
            )


# what a twin does not copy: the methods base._record installs, its two
# class-level markers, and the descriptors Python gives every class; an
# explicit ``__hash__ = None`` is copied, and dataclasses keep it
_RECORD_MADE = {
    "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
    "__dict__", "__weakref__", "_derived", "_uncompared",
}


def dataclass_twin(record: type) -> type:
    """The frozen dataclass twin of an srgkit record: the same name, fields,
    defaults, __post_init__ and other methods, with ``_derived`` fields as
    ``field(init=False)`` and ``_uncompared`` ones as ``field(compare=False)``;
    so its generated methods are the reference for the record's."""
    namespace = {
        k: v for k, v in vars(record).items() if k not in _RECORD_MADE or v is None
    }
    for name in vars(record).get("_derived", ()):
        namespace[name] = dataclasses.field(init=False)
    for name in vars(record).get("_uncompared", ()):
        default = vars(record).get(name, dataclasses.MISSING)
        namespace[name] = dataclasses.field(default=default, compare=False)
    return dataclasses.dataclass(frozen=True)(type(record.__name__, (), namespace))
