"""Formed vector spaces over finite fields and exact enumeration of the
point sets and subspaces that underlie the graph families.

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

Vectors are tuples of element indices; all enumeration is in lexicographic
index order, so every listing is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .gf import Field, FieldElement, ScaleGuardError, field_of_order

__all__ = [
    "Flag",
    "FormedSpace",
    "ProjectivePoint",
    "Subspace",
    "enumerate_flags",
    "enumerate_max_isotropic",
    "enumerate_points",
    "enumerate_subspaces",
    "gaussian_binomial",
    "least_zeta",
    "line_tangency_count",
    "perp_type",
    "projective_reps",
    "scale_to_value",
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


@dataclass(frozen=True)
class ProjectivePoint:
    """A projective 1-space, held by a deterministic representative.

    The representative is the lexicographically least vector with the
    requested form value when the enumeration filter asked for one and such
    a scaling exists; otherwise it is the unique representative whose first
    nonzero coordinate is the field element 1.
    """

    rep: tuple[int, ...]

    def __str__(self) -> str:
        return ":".join(str(c) for c in self.rep)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace held by its unique reduced-row-echelon basis."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self, field: Field) -> Iterator[tuple[int, ...]]:
        """All q^dim vectors of the span, deterministically ordered by
        coefficient tuples."""
        n = len(self.rows[0]) if self.rows else 0
        add, mul = field.add_table, field.mul_table
        for coeffs in itertools.product(range(field.q), repeat=self.dim):
            vec = [0] * n
            for c, row in zip(coeffs, self.rows):
                if c:
                    for j, r in enumerate(row):
                        if r:
                            vec[j] = add[vec[j]][mul[c][r]]
            yield tuple(vec)

    def point_reps(self, field: Field) -> tuple[tuple[int, ...], ...]:
        """Canonical first-nonzero-is-1 representatives of the projective
        points in the span, sorted."""
        reps = set()
        inv = field.inv_table
        mul = field.mul_table
        for vec in self.vectors(field):
            lead = next((c for c in vec if c), 0)
            if lead == 0:
                continue
            s = inv[lead]
            reps.add(tuple(mul[s][c] for c in vec))
        return tuple(sorted(reps))

    def __str__(self) -> str:
        return "; ".join(":".join(map(str, row)) for row in self.rows)


class Flag(NamedTuple):
    """An incident (point, line) pair of PG(2, q); the line is held by its
    dual coordinates."""

    point: tuple[int, int, int]
    line: tuple[int, int, int]


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
        if kind == "hermitian":
            if field.k % 2:
                raise ValueError("hermitian forms need a field of square order")
            sub, embed = field.subfield(field.k // 2)
            self.value_field = sub
            self._retract = {e: i for i, e in enumerate(embed)}
            q0 = field.p ** (field.k // 2)
            self._conj = [field.pow_index(a, q0) for a in range(field.q)]
            self._norm = [
                self._retract[field.pow_index(a, q0 + 1)] for a in range(field.q)
            ]
        else:
            self.value_field = field
            if kind in ("quadratic-plus", "quadratic-minus", "symplectic"):
                if dim % 2:
                    raise ValueError(f"{kind} forms need even dimension")
            if kind == "quadratic-odd":
                if dim % 2 == 0:
                    raise ValueError("quadratic-odd forms need odd dimension")
            if kind == "quadratic-minus":
                self.zeta = least_zeta(field)
        self._singular_points: list[ProjectivePoint] | None = None
        self._check_nondegenerate()

    # -- raw form evaluation on index tuples --------------------------------

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All q^dim coordinate vectors in lexicographic index order."""
        return itertools.product(range(self.field.q), repeat=self.dim)

    def form_value(self, vec: tuple[int, ...]) -> int:
        """h(x,x) (as an index in the subfield) or Q(x); 0 for symplectic."""
        field = self.field
        add, mul = field.add_table, field.mul_table
        kind = self.kind
        if kind == "hermitian":
            sub_add = self.value_field.add_table
            acc = 0
            for c in vec:
                acc = sub_add[acc][self._norm[c]]
            return acc
        if kind == "symplectic":
            return 0
        m = self.dim // 2
        acc = 0
        if kind == "quadratic-odd":
            for i in range(m):
                acc = add[acc][mul[vec[i]][vec[m + i]]]
            gamma = vec[2 * m]
            return add[acc][mul[gamma][gamma]]
        if kind == "quadratic-plus":
            for i in range(m):
                acc = add[acc][mul[vec[i]][vec[m + i]]]
            return acc
        # quadratic-minus: m-1 hyperbolic pairs then (a, b)
        for i in range(m - 1):
            acc = add[acc][mul[vec[i]][vec[m - 1 + i]]]
        a, b = vec[-2], vec[-1]
        acc = add[acc][mul[a][a]]
        acc = add[acc][mul[a][b]]
        return add[acc][mul[self.zeta][mul[b][b]]]

    def inner(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        """h(x, y) for hermitian; the polar form B(x, y) = Q(x+y)-Q(x)-Q(y)
        for quadratic kinds; B(x, y) for symplectic.  Index in the
        coordinate field."""
        field = self.field
        add, mul, neg = field.add_table, field.mul_table, field.neg_table
        kind = self.kind
        if kind == "hermitian":
            conj = self._conj
            acc = 0
            for a, b in zip(x, y):
                acc = add[acc][mul[a][conj[b]]]
            return acc
        if kind == "symplectic":
            m = self.dim // 2
            acc = 0
            for i in range(m):
                acc = add[acc][mul[x[i]][y[m + i]]]
                acc = add[acc][neg[mul[x[m + i]][y[i]]]]
            return acc
        # polar form of the quadratic kinds
        xy = tuple(add[a][b] for a, b in zip(x, y))
        qx = self.form_value(x)
        qy = self.form_value(y)
        return add[self.form_value(xy)][neg[add[qx][qy]]]

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

    def gram(self) -> list[list[int]]:
        """Gram matrix of inner() on the standard basis."""
        basis = [
            tuple(1 if j == i else 0 for j in range(self.dim))
            for i in range(self.dim)
        ]
        return [[self.inner(bi, bj) for bj in basis] for bi in basis]

    def _check_nondegenerate(self) -> None:
        if self.kind == "hermitian":
            # orthonormal Gram is the identity
            gram = self.gram()
            expected = [
                [1 if i == j else 0 for j in range(self.dim)]
                for i in range(self.dim)
            ]
            if gram != expected:
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
        for vec in Subspace(tuple(radical)).vectors(self.field) if radical else ():
            if any(vec) and self.is_singular(vec):
                raise AssertionError("quadratic form has a singular radical vector")

    def singular_points(self) -> list[ProjectivePoint]:
        """All singular projective points (cached)."""
        if self._singular_points is None:
            self._singular_points = enumerate_points(self, "singular")
        return self._singular_points

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


def projective_reps(field: Field, n: int) -> list[tuple[int, ...]]:
    """Canonical representatives (first nonzero coordinate = 1) of all
    projective points of F_q^n, in lexicographic order."""
    _check_vector_cap(field, n)
    reps = []
    for vec in itertools.product(range(field.q), repeat=n):
        lead = next((c for c in vec if c), 0)
        if lead == 1:
            reps.append(vec)
    return reps


def scale_to_value(
    space: FormedSpace, rep: tuple[int, ...], target: int
) -> tuple[int, ...] | None:
    """The lexicographically least scalar multiple of rep whose form value
    is ``target`` (an index in space.value_field), or None if no scaling
    achieves it."""
    field = space.field
    mul = field.mul_table
    best = None
    for s in range(1, field.q):
        candidate = tuple(mul[s][c] for c in rep)
        if space.form_value(candidate) == target:
            if best is None or candidate < best:
                best = candidate
    return best


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------


def enumerate_points(
    space: FormedSpace, filter: str, value: int | FieldElement | None = None
) -> list[ProjectivePoint]:
    """Projective points filtered by the form.

    filter = "singular":    points with form value 0 (canonical reps);
    filter = "nonsingular": points with nonzero form value, re-scaled to
                            form value 1 where a scaling exists;
    filter = "norm-class":  points scalable to the given nonzero ``value``
                            (re-scaled to exactly that value); value 0 is
                            the singular filter.

    Points are listed in the lexicographic order of the underlying
    1-spaces' canonical representatives.
    """
    if filter == "norm-class":
        if value is None:
            raise ValueError("norm-class filter needs a value")
        target = value.index if isinstance(value, FieldElement) else int(value)
        if target == 0:
            filter = "singular"
    elif filter not in ("singular", "nonsingular"):
        raise ValueError(f"unknown point filter {filter!r}")
    if filter == "nonsingular" and space.kind == "symplectic":
        raise ValueError("a symplectic space has no nonsingular points")
    points = []
    one = 1
    for rep in projective_reps(space.field, space.dim):
        val = space.form_value(rep)
        if filter == "singular":
            if val == 0:
                points.append(ProjectivePoint(rep))
        elif filter == "nonsingular":
            if val != 0:
                scaled = scale_to_value(space, rep, one)
                points.append(ProjectivePoint(scaled if scaled else rep))
        else:  # norm-class with nonzero target
            if val != 0:
                scaled = scale_to_value(space, rep, target)
                if scaled is not None:
                    points.append(ProjectivePoint(scaled))
    return points


def line_tangency_count(
    space: FormedSpace, p: ProjectivePoint, q: ProjectivePoint
) -> int:
    """Number of singular projective points on the line through p and q,
    by direct enumeration of all its points."""
    field = space.field
    add, mul, inv = field.add_table, field.mul_table, field.inv_table
    x, y = p.rep, q.rep
    lead_x = next(i for i, c in enumerate(x) if c)
    lead_y = next(i for i, c in enumerate(y) if c)
    norm_x = tuple(mul[inv[x[lead_x]]][c] for c in x)
    norm_y = tuple(mul[inv[y[lead_y]]][c] for c in y)
    if norm_x == norm_y:
        raise ValueError("tangency needs two distinct points")
    count = 1 if space.form_value(y) == 0 else 0
    for t in range(field.q):
        vec = tuple(add[a][mul[t][b]] for a, b in zip(x, y))
        if space.form_value(vec) == 0:
            count += 1
    return count


def _singular_point_counts(m: int, q: int) -> dict[str, int]:
    """Projective singular point counts of the nondegenerate quadratic
    forms in dimension 2m: plus and minus type."""
    return {
        "+": (q ** (m - 1) + 1) * (q**m - 1) // (q - 1),
        "-": (q ** (m - 1) - 1) * (q**m + 1) // (q - 1),
    }


def perp_type(space: FormedSpace, p: ProjectivePoint) -> str:
    """Type ("+" or "-") of the restriction of Q to the perp of a
    nonsingular point of an odd-dimensional quadratic space, recognized by
    counting singular projective points inside the perp."""
    if space.kind != "quadratic-odd":
        raise ValueError("perp_type applies to quadratic-odd spaces")
    if space.field.p == 2:
        raise ValueError("perp_type requires odd q")
    if space.form_value(p.rep) == 0:
        raise ValueError("perp_type needs a nonsingular point")
    count = sum(
        1 for s in space.singular_points() if space.inner(p.rep, s.rep) == 0
    )
    m = (space.dim - 1) // 2
    expected = _singular_point_counts(m, space.field.q)
    for eps, target in expected.items():
        if count == target:
            return eps
    raise AssertionError(
        f"singular count {count} matches neither type: {expected}"
    )


def _witt_index(space: FormedSpace) -> int:
    if space.kind == "symplectic":
        return space.dim // 2
    if space.kind == "quadratic-plus":
        return space.dim // 2
    if space.kind == "quadratic-odd":
        return (space.dim - 1) // 2
    if space.kind == "quadratic-minus":
        return space.dim // 2 - 1
    raise ValueError(f"no isotropic subspace enumeration for {space.kind}")


def _rref_bases(field: Field, n: int, dim: int, admits=None) -> list[Subspace]:
    """All ``dim``-dimensional subspaces of F_q^n as canonical RREF bases,
    sorted, enumerated row by row for each pivot-column pattern.

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
    return [Subspace(rows) for rows in results]


def enumerate_max_isotropic(space: FormedSpace) -> list[Subspace]:
    """All totally isotropic (symplectic) / totally singular (quadratic)
    subspaces of maximal dimension, as canonical RREF bases, sorted.

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
) -> list[Subspace]:
    """All ``dim``-dimensional subspaces of F_q^ambient_dim as canonical
    RREF bases, sorted; enumerated by pivot-column pattern.  The count is
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


def enumerate_flags(q: int) -> list[Flag]:
    """All incident (point, line) pairs of PG(2, q), ordered by point then
    line representative; the count is (q^2+q+1)(q+1)."""
    field = field_of_order(q)
    add, mul = field.add_table, field.mul_table
    reps = projective_reps(field, 3)
    flags = []
    for point in reps:
        for line in reps:
            acc = 0
            for a, b in zip(point, line):
                acc = add[acc][mul[a][b]]
            if acc == 0:
                flags.append(Flag(point, line))
    expected = (q**2 + q + 1) * (q + 1)
    if len(flags) != expected:
        raise AssertionError(f"{len(flags)} flags found, expected {expected}")
    return flags
