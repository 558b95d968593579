"""Formed vector spaces over finite fields, exact enumeration of the
point sets and subspaces that underlie the graph families, the
reflections of the forms as matrices, and one column kernel that maps a
point set, held as its coordinate columns, through a matrix by one gather
(:func:`_permutation`).  This layer makes no permutation action:
:mod:`srgkit.families` turns the reflections into the permutations of a
point set that :mod:`srgkit.orbitals`, which lies above it, acts by.

A :class:`FormedSpace` is F_q^n (or F_{q^2}^n) equipped with exactly one of

* ``hermitian``        h(x, y) = sum x_i * conj(y_i)   (orthonormal basis),
* ``quadratic-plus``   Q(x) = sum a_i b_i on coordinates (a_1..a_m, b_1..b_m),
* ``quadratic-minus``  as plus on m-1 pairs, plus a^2 + a*b + zeta*b^2 on the
  last two coordinates, where zeta is the least element making
  t^2 + t + zeta irreducible,
* ``quadratic-odd``    as plus on m pairs with one extra coordinate c and
  Q += c^2 (odd dimension; characteristic 2 is allowed, where the polar
  form has a nucleus that the nondegeneracy check accounts for),
* ``symplectic``       B(x, y) = sum (a_i b'_i - b_i a'_i).

A quadratic form is held as terms (i, j, c) with Q(x) = sum c x_i x_j,
which give Q and its polar form in one pass each.  Q(s x) = s^2 Q(x) and
h(s x, s x) = N(s) h(x, x), so rescaling a point to a form value is one
lookup in the space's table of least roots of s^2 (or N(s)).

Vectors are tuples of element indices.  A projective point is held as one
representative vector (see :func:`enumerate_points`), and a subspace as
the tuple of its reduced-row-echelon basis rows.  All enumeration is in
lexicographic index order, so every listing is deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterator

from .base import ScaleGuardError
from .gf import Field, field_of_order

__all__ = [
    "FormedSpace",
    "enumerate_flags",
    "enumerate_max_isotropic",
    "enumerate_points",
    "enumerate_subspaces",
    "gaussian_binomial",
    "lead_one",
    "least_zeta",
    "line_tangency_count",
    "projective_reps",
]

_KINDS = (
    "hermitian",
    "quadratic-plus",
    "quadratic-minus",
    "quadratic-odd",
    "symplectic",
)

# Enumerating q^dim vectors beyond this is refused (desk scale).
_VECTOR_CAP = 1 << 20


def _check_vector_cap(field: Field, dim: int) -> None:
    if field.q**dim > _VECTOR_CAP:
        raise ScaleGuardError(f"F_{field.q}^{dim}", field.q**dim, _VECTOR_CAP)


def least_zeta(field: Field) -> int:
    """Index of the least element zeta with t^2 + t + zeta irreducible."""
    add, mul = field.add_table, field.mul_table
    for zeta in range(field.q):
        if all(add[add[mul[t][t]][t]][zeta] != 0 for t in range(field.q)):
            return zeta
    raise AssertionError("no irreducible t^2 + t + zeta exists")


class FormedSpace:
    """A finite vector space with exactly one nondegenerate form (see the
    module docstring for the fixed standard bases)."""

    def __init__(self, kind: str, field: Field, dim: int):
        if kind not in _KINDS:
            raise ValueError(f"unknown form kind {kind!r}")
        if dim < 1:
            raise ValueError("dimension must be positive")
        _check_vector_cap(field, dim)
        self.kind = kind
        self.field = field
        self.dim = dim
        self.zeta: int | None = None
        # Q(x) = sum of c x_i x_j over the terms (i, j, c); none for the
        # hermitian and symplectic kinds
        self._terms: list[tuple[int, int, int]] = []
        # Q(s x) = factor[s] Q(x): s^2, or N(s) for the hermitian form
        factor = [field.mul_table[s][s] for s in range(field.q)]
        if kind == "hermitian":
            if field.k % 2:
                raise ValueError("hermitian forms need a field of square order")
            sub, embed = field.subfield(field.k // 2)
            self.value_field = sub
            retract = {e: i for i, e in enumerate(embed)}
            q0 = field.p ** (field.k // 2)
            self._conj = [field.pow_index(a, q0) for a in range(field.q)]
            self._norm = factor = [
                retract[field.pow_index(a, q0 + 1)] for a in range(field.q)
            ]
        else:
            self.value_field = field
            if (dim % 2 == 1) != (kind == "quadratic-odd"):
                parity = "odd" if kind == "quadratic-odd" else "even"
                raise ValueError(f"{kind} forms need {parity} dimension")
            h = _witt_index(self)
            if kind != "symplectic":
                self._terms = [(i, h + i, 1) for i in range(h)]
            if kind == "quadratic-odd":
                self._terms.append((dim - 1, dim - 1, 1))
            if kind == "quadratic-minus":
                self.zeta = least_zeta(field)
                a, b = dim - 2, dim - 1
                self._terms += [(a, a, 1), (a, b, 1), (b, b, self.zeta)]
        # _root[r]: the least nonzero scalar s with factor[s] = r, 0 if none
        self._root = [0] * self.value_field.q
        for s in range(field.q - 1, 0, -1):
            self._root[factor[s]] = s
        self._check_nondegenerate()

    # -- raw form evaluation on index tuples --------------------------------

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All q^dim coordinate vectors in lexicographic index order."""
        return itertools.product(range(self.field.q), repeat=self.dim)

    def form_value(self, vec: tuple[int, ...]) -> int:
        """h(x,x) = sum N(x_i) (as an index in the subfield), or Q(x) = sum
        c x_i x_j over the terms; 0 for symplectic, which has none."""
        if self.kind == "hermitian":
            sub_add, norms = self.value_field.add_table, self._norm
            acc = 0
            for c in vec:
                acc = sub_add[acc][norms[c]]
            return acc
        add, mul = self.field.add_table, self.field.mul_table
        acc = 0
        for i, j, c in self._terms:
            acc = add[acc][mul[c][mul[vec[i]][vec[j]]]]
        return acc

    def inner(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        """h(x, y) for hermitian; the polar form B(x, y) = Q(x+y)-Q(x)-Q(y)
        = sum c (x_i y_j + x_j y_i) over the terms for quadratic kinds;
        B(x, y) for symplectic.  Index in the coordinate field."""
        field = self.field
        add, mul = field.add_table, field.mul_table
        kind = self.kind
        if kind == "hermitian":
            return _dot(field, x, self.conjugate(y))
        if kind == "symplectic":  # x . (b', -a') for y = (a', b')
            m, neg = self.dim // 2, field.neg_table
            return _dot(field, x, y[m:] + tuple(neg[c] for c in y[:m]))
        acc = 0
        for i, j, c in self._terms:
            acc = add[acc][mul[c][add[mul[x[i]][y[j]]][mul[x[j]][y[i]]]]]
        return acc

    def half_inner(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        """(x, y) = B(x, y)/2 for quadratic kinds in odd characteristic,
        so that (x, x) = Q(x)."""
        field = self.field
        if field.p == 2:
            raise ValueError("half_inner requires odd characteristic")
        if not self.kind.startswith("quadratic"):
            raise ValueError("half_inner applies to quadratic kinds")
        two_inv = field.inv_table[field.add_table[1][1]]
        return field.mul_table[self.inner(x, y)][two_inv]

    def conjugate(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """vec with the field involution applied to each coordinate for
        hermitian spaces, vec itself for the other kinds; so that
        inner(x, y) = x . gram() . conjugate(y)."""
        if self.kind != "hermitian":
            return vec
        conj = self._conj
        return tuple(conj[c] for c in vec)

    def is_singular(self, vec: tuple[int, ...]) -> bool:
        return self.form_value(vec) == 0

    # -- structural checks ---------------------------------------------------

    def basis(self) -> list[tuple[int, ...]]:
        """The standard basis vectors."""
        return [tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)]

    def gram(self) -> list[list[int]]:
        """Gram matrix of inner() on the standard basis."""
        basis = self.basis()
        return [[self.inner(bi, bj) for bj in basis] for bi in basis]

    def _check_nondegenerate(self) -> None:
        if self.kind == "hermitian":  # orthonormal: the Gram matrix is the identity
            if self.gram() != list(map(list, self.basis())):
                raise AssertionError("hermitian Gram matrix is not the identity")
            return
        radical = kernel_basis(self.field, self.gram())
        if self.kind == "symplectic":
            if radical:
                raise AssertionError("degenerate symplectic form")
            return
        # quadratic kinds: the polar form may have a radical in
        # characteristic 2 (the nucleus); no nonzero radical vector may be
        # singular.
        if radical and self.field.p != 2:
            raise AssertionError("degenerate quadratic form (odd characteristic)")
        for vec in _span(self.field, radical) if radical else ():
            if any(vec) and self.is_singular(vec):
                raise AssertionError("quadratic form has a singular radical vector")

    def __repr__(self) -> str:
        return f"FormedSpace({self.kind}, GF({self.field.q}), dim={self.dim})"


# ---------------------------------------------------------------------------
# Linear algebra over a Field (vectors and matrices of element indices)
# ---------------------------------------------------------------------------


def rref(field: Field, rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Reduced row echelon form; zero rows dropped."""
    add, mul, neg, inv = (
        field.add_table,
        field.mul_table,
        field.neg_table,
        field.inv_table,
    )
    mat = [list(r) for r in rows]
    n_cols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next(
            (r for r in range(pivot_row, len(mat)) if mat[r][col]), None
        )
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        s = inv[mat[pivot_row][col]]
        mat[pivot_row] = [mul[s][c] for c in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                factor = neg[mat[r][col]]
                mat[r] = [
                    add[c][mul[factor][p]]
                    for c, p in zip(mat[r], mat[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [tuple(r) for r in mat[:pivot_row] if any(r)]


def kernel_basis(field: Field, matrix: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of {x : M x = 0} over the field, from the RREF of M."""
    if not matrix:
        return []
    n = len(matrix[0])
    reduced = rref(field, [tuple(r) for r in matrix])
    pivots = []
    for row in reduced:
        pivots.append(next(j for j, c in enumerate(row) if c))
    free = [j for j in range(n) if j not in pivots]
    neg = field.neg_table
    basis = []
    for j in free:
        vec = [0] * n
        vec[j] = 1
        for row, p in zip(reduced, pivots):
            vec[p] = neg[row[j]]
        basis.append(tuple(vec))
    return basis


def _span(field: Field, rows) -> Iterator[tuple[int, ...]]:
    """All q^len(rows) vectors sum c_i rows[i] of the span of the nonempty
    ``rows``, deterministically ordered by coefficient tuples c."""
    add, mul = field.add_table, field.mul_table
    for coeffs in itertools.product(range(field.q), repeat=len(rows)):
        vec = [0] * len(rows[0])
        for c, row in zip(coeffs, rows):
            if c:
                scaled = mul[c]
                vec = [add[a][scaled[r]] for a, r in zip(vec, row)]
        yield tuple(vec)


def _dot(field: Field, x, y) -> int:
    """sum x_i y_i over the field."""
    add, mul = field.add_table, field.mul_table
    acc = 0
    for a, b in zip(x, y):
        acc = add[acc][mul[a][b]]
    return acc


def lead_one(field: Field, vec: tuple[int, ...]) -> tuple[int, ...]:
    """The multiple of a nonzero vector whose first nonzero coordinate is 1:
    the canonical representative of its projective point."""
    lead = next((c for c in vec if c), 0)
    if not lead:
        raise ValueError("the zero vector spans no projective point")
    row = field.mul_table[field.inv_table[lead]]
    return tuple(row[c] for c in vec)


def projective_reps(field: Field, n: int) -> list[tuple[int, ...]]:
    """Canonical representatives (first nonzero coordinate = 1) of all
    projective points of F_q^n, in lexicographic order: those with k
    leading zeros, for k from n - 1 down to 0."""
    _check_vector_cap(field, n)
    return [
        (0,) * k + (1,) + rest
        for k in range(n - 1, -1, -1)
        for rest in itertools.product(range(field.q), repeat=n - 1 - k)
    ]


def _columns(vectors) -> list[bytes]:
    """Vectors over a field of order q <= 256 held as coordinate columns."""
    return list(map(bytes, zip(*vectors)))


def _image_codes(field: Field, columns, matrix):
    """The int code sum y_j q^j of y = x M for each vector x held as
    coordinate ``columns`` (:func:`_columns`), M given by the images M[i]
    of the basis vectors: each term M[i][j] x_i is one translate of column
    i through a row of ``mul_table``, and the sums and the code are lazy
    C-level maps over rows of ``add_table``."""
    add_row, mul, q = field.add_table.__getitem__, field.mul_table, field.q
    times = {m: bytes(mul[m]).ljust(256, b"\0") for m in {*itertools.chain(*matrix)}}
    get, repeat = operator.getitem, itertools.repeat
    codes = repeat(0, len(columns[0]))
    for j, entries in enumerate(zip(*matrix)):
        terms = [
            x if m == 1 else x.translate(times[m])
            for x, m in zip(columns, entries)
            if m
        ]
        if terms:  # y_j = sum M[i][j] x_i; a zero one adds nothing
            y = functools.reduce(lambda a, b: map(get, map(add_row, a), b), terms)
            codes = map(operator.add, codes, map(operator.mul, y, repeat(q**j)))
    return codes


def _code_index(field: Field, columns) -> memoryview:
    """index[code] = k for the code of every nonzero multiple of the k-th
    vector held as coordinate ``columns``, and -1 for every other vector of
    F_q^dim, the zero vector included: a C array of q^dim entries within
    the vector cap, two bytes an entry below 2^15 vectors.  It is a typed
    view of a ``bytearray`` of 0xff bytes: an ``array.array`` raised the
    peak memory of ``scheme dualpolar:1``, which compiles this layer, by
    about 0.15 MiB (the module is a shared library)."""
    dim, wide = len(columns), len(columns[0]) >= 1 << 15
    _check_vector_cap(field, dim)
    index = memoryview(bytearray(b"\xff") * ((4 if wide else 2) * field.q**dim))
    index = index.cast("i" if wide else "h")
    for s in range(1, field.q):
        scalar = [[s * (i == j) for j in range(dim)] for i in range(dim)]
        for k, code in enumerate(_image_codes(field, columns, scalar)):
            index[code] = k
    return index


def _permutation(field: Field, columns, matrix, index) -> tuple[int, ...]:
    """The point that ``index`` (from :func:`_code_index`) gives the code of
    the image x M of each vector x held as ``columns``: one gather, -1
    where the image is a multiple of no indexed point."""
    codes = _image_codes(field, columns, matrix)
    return tuple(map(operator.getitem, itertools.repeat(index), codes))


def _subspace_points(field, ambient_dim: int, subspaces) -> list[tuple[int, ...]]:
    """The indices in ``projective_reps(field, ambient_dim)`` of the points
    sum c_i r_i of each 3-space, given by its basis rows r_i, c running over
    ``projective_reps(field, 3)``: one gather per c over the columns of all
    subspaces' joined rows.  A 3-space with fewer than q^2 + q + 1 distinct
    points (dependent rows) raises AssertionError, naming it."""
    q, n = field.q, ambient_dim
    columns = _columns(itertools.chain(*rows) for rows in subspaces)
    index, by_c = _code_index(field, _columns(projective_reps(field, n))), []
    for cs in projective_reps(field, 3):  # row (i, j) of the matrix is c_i e_j
        matrix = [[c * (j == k) for k in range(n)] for c in cs for j in range(n)]
        by_c.append(_permutation(field, columns, matrix, index))
    points_of = list(zip(*by_c))
    for s, ids in zip(subspaces, points_of):
        if (found := len(set(ids) - {-1})) != q * q + q + 1:
            raise AssertionError(f"the 3-space {s} has {found} points")
    return points_of


def _value_index(space: FormedSpace, value: int) -> int:
    """``value`` itself when it is the index of an element of
    space.value_field: an int in range, and not a bool."""
    if type(value) is int and 0 <= value < space.value_field.q:
        return value
    raise ValueError(f"form value {value!r} is not in {space.value_field!r}")


def _rescale(space: FormedSpace, rep, value: int, target: int):
    """The multiple s rep of least nonzero s with form value ``target``,
    given ``value``, the form value of rep; None if there is none.  Q(s x)
    = factor(s) Q(x), so s is the least root of factor(s) = target / value,
    read from the space's root table."""
    if not value:
        return None if target else rep
    sub = space.value_field
    s = space._root[sub.mul_table[target][sub.inv_table[value]]]
    if not s:
        return None
    row = space.field.mul_table[s]
    return tuple(row[c] for c in rep)


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------


def enumerate_points(space: FormedSpace, value: int) -> list[tuple[int, ...]]:
    """The projective points of form value ``value``, the index of an
    element of space.value_field; value 0 gives the singular points.

    A singular point is held by its canonical representative (first
    nonzero coordinate 1), any other by its lexicographically least
    multiple of form value ``value``, and a point with no such multiple is
    left out.  A nonzero value raises ValueError on a symplectic space,
    whose points are all singular.  Points are listed in the lexicographic
    order of the 1-spaces' canonical representatives.
    """
    target = _value_index(space, value)
    if target and space.kind == "symplectic":
        raise ValueError("a symplectic space has no nonsingular points")
    points = []
    for rep in projective_reps(space.field, space.dim):
        scaled = _rescale(space, rep, space.form_value(rep), target)
        if scaled is not None:
            points.append(scaled)
    return points


def line_tangency_count(
    space: FormedSpace, x: tuple[int, ...], y: tuple[int, ...]
) -> int:
    """Number of singular projective points on the line through the points
    with representatives x and y, by direct enumeration of all its points."""
    field = space.field
    add, mul = field.add_table, field.mul_table
    if lead_one(field, x) == lead_one(field, y):
        raise ValueError("tangency needs two distinct points")
    count = 1 if space.form_value(y) == 0 else 0
    for t in range(field.q):
        vec = tuple(add[a][mul[t][b]] for a, b in zip(x, y))
        if space.form_value(vec) == 0:
            count += 1
    return count


def _reflections(space: FormedSpace, points) -> Iterator[tuple[str, list, bool]]:
    """The reflections of ``space`` picked from ``points``, in a fixed
    order, each as (name, images, spans): the name of its vector, the
    images of the basis vectors under it (the linear map x -> sum x_i
    images[i]), checked to preserve the form and Q, and whether its vector
    and the vectors before it span the space (once True, True for every
    later one).

    A quadratic space reflects in a nonsingular v by x -> x - B(x, v)
    Q(v)^-1 v (the orthogonal transvection in characteristic 2), a
    hermitian one by x -> x + (a - 1) h(x, v) h(v, v)^-1 v, a generating
    the norm-1 group.  The reflection vectors come from ``points``: a
    nonsingular point set's own representatives, or for a singular one the
    sums x_0 + x_j with Q(x_0 + x_j) = B(x_0, x_j) nonzero.  The N vectors
    are taken in the fixed order k s mod N (s the least integer from
    0.618 N up that is prime to N, so picks lie far apart).
    """
    if space.kind == "symplectic":
        raise ValueError("a symplectic space has no reflections")
    field, dim = space.field, space.dim
    add, mul, inv = field.add_table, field.mul_table, field.inv_table
    neg = field.neg_table
    scale, square = neg[1], lambda v, _: space.form_value(v)  # -1 and Q(v)
    if space.kind == "hermitian":  # a - 1 and h(v, v), a of order q0 + 1
        order, log = field.p ** (field.k // 2) + 1, field.log_table
        square, scale = space.inner, next(
            add[a][neg[1]] for a in range(2, field.q)
            if (field.q - 1) // math.gcd(log[a], field.q - 1) == order
        )
    gram, basis = space.gram(), space.basis()
    values = list(map(space.form_value, basis))
    x0 = points[0]
    if space.form_value(x0):
        vectors = points
    else:
        vectors = [tuple(add[a][b] for a, b in zip(x0, p)) for p in points[1:]]
    candidates = [v for v in vectors if space.form_value(v)]
    step = max(1, round(0.618 * len(candidates)))
    while math.gcd(step, len(candidates)) != 1:
        step += 1
    span = []
    for k in range(len(candidates)):
        v = candidates[k * step % len(candidates)]
        c = mul[scale][inv[square(v, v)]]  # x -> x + (x . u) v, u_i = c h(e_i, v)
        u = [mul[c][_dot(field, row, space.conjugate(v))] for row in gram]
        images = [  # e_i + u_i v
            tuple(add[a][mul[t][b]] for a, b in zip(e, v)) for t, e in zip(u, basis)
        ]
        name = ":".join(map(str, v))
        if [[space.inner(a, b) for b in images] for a in images] != gram or list(
            map(space.form_value, images)
        ) != values:
            raise AssertionError(f"the reflection in {name} is not an isometry")
        span = rref(field, [*span, v])
        yield name, images, len(span) == dim


def _witt_index(space: FormedSpace) -> int:
    """The number of hyperbolic pairs in the standard basis."""
    if space.kind == "hermitian":
        raise ValueError(f"no isotropic subspace enumeration for {space.kind}")
    return space.dim // 2 - (space.kind == "quadratic-minus")


def _rref_bases(
    field: Field, n: int, dim: int, admits=None
) -> list[tuple[tuple[int, ...], ...]]:
    """All ``dim``-dimensional subspaces of F_q^n as canonical RREF row
    tuples, sorted, enumerated row by row for each pivot-column pattern.

    ``admits(rows, row)``, when given, prunes every partial basis ``rows``
    that may not be extended by ``row``.
    """
    _check_vector_cap(field, n)
    results: list[tuple[tuple[int, ...], ...]] = []

    def fill(pivots: tuple[int, ...], rows: list[tuple[int, ...]]) -> None:
        i = len(rows)
        if i == dim:
            results.append(tuple(rows))
            return
        free_cols = [j for j in range(pivots[i] + 1, n) if j not in pivots]
        base = [0] * n
        base[pivots[i]] = 1
        for values in itertools.product(range(field.q), repeat=len(free_cols)):
            row = list(base)
            for col, val in zip(free_cols, values):
                row[col] = val
            row = tuple(row)
            if admits is None or admits(rows, row):
                rows.append(row)
                fill(pivots, rows)
                rows.pop()

    for pivots in itertools.combinations(range(n), dim):
        fill(pivots, [])
    results.sort()
    return results


def enumerate_max_isotropic(space: FormedSpace) -> list[tuple[tuple[int, ...], ...]]:
    """All totally isotropic (symplectic) / totally singular (quadratic)
    subspaces of maximal dimension, as canonical RREF row tuples, sorted.

    Enumerates reduced-row-echelon patterns directly, pruning every
    partial basis that violates isotropy.
    """
    quadratic = space.kind.startswith("quadratic")

    def isotropic(rows, row) -> bool:
        if quadratic and space.form_value(row) != 0:
            return False
        return all(space.inner(prev, row) == 0 for prev in rows)

    return _rref_bases(space.field, space.dim, _witt_index(space), isotropic)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The Gaussian binomial [n choose k]_q: the number of k-dimensional
    subspaces of F_q^n, as an exact integer.  The i-th partial product is
    [n choose i]_q, so every division is exact."""
    if k < 0 or k > n:
        return 0
    value = 1
    for i in range(k):
        value = value * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return value


def enumerate_subspaces(
    field: Field, ambient_dim: int, dim: int
) -> list[tuple[tuple[int, ...], ...]]:
    """All ``dim``-dimensional subspaces of F_q^ambient_dim as canonical
    RREF row tuples, sorted; enumerated by pivot-column pattern.  The count is
    verified against :func:`gaussian_binomial`.
    """
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"no {dim}-spaces inside dimension {ambient_dim}")
    subspaces = _rref_bases(field, ambient_dim, dim)
    expected = gaussian_binomial(ambient_dim, dim, field.q)
    if len(subspaces) != expected:
        raise AssertionError(
            f"found {len(subspaces)} {dim}-spaces, expected {expected}"
        )
    return subspaces


def enumerate_flags(q: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All incident (point, line) pairs of PG(2, q), each line held by its
    dual coordinates, ordered by point then line representative; the count
    is (q^2+q+1)(q+1)."""
    field = field_of_order(q)
    reps, flags = projective_reps(field, 3), []
    columns = _columns(reps)
    for p in reps:  # the lines through p: the reps x with x . p = 0
        on_p = map(operator.not_, _image_codes(field, columns, [[c] for c in p]))
        flags += [(p, line) for line in itertools.compress(reps, on_p)]
    expected = (q**2 + q + 1) * (q + 1)
    if len(flags) != expected:
        raise AssertionError(f"{len(flags)} flags found, expected {expected}")
    return flags
