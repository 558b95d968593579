"""Constructors for the graph families, with exact closed-form parameters.

Each family is built from first principles on top of :mod:`srgkit.geometry`
(formed spaces, point and subspace enumeration) or plain combinatorics, and
is returned as a :class:`srgkit.graphcore.Graph` ready for brute-force
verification.  Families whose strongly-regular parameters have a closed form
get an exact big-integer evaluator (:func:`params_closed_form`), so tests can
compare a constructed graph against an independently evaluated formula.

Each graph family is stated once, in the private table ``_FAMILIES``:
its tag, its spec head (``nu`` in ``nu:n=3,q=3``), its parameter names and
its builder.  :class:`FamilyId`, :func:`parse_family_spec` and
:func:`build_family` all read that table.

Every family graph and pair classification is read off one label table
checked on every ordered pair (:func:`srgkit.graphcore._label_table`).  Its
rows come from a table-lookup inner product (unitary, orthogonal, polar),
packed incidence sums (Grassmann, dual polar) or one call per ordered pair
(flags and Hamming words).  Only Johnson graphs use ``build_graph``.

The pair-classification builders (:func:`build_unitary_orbitals`,
:func:`build_orthogonal_orbitals`, :func:`build_flag_orbitals`,
:func:`hamming_classification`) partition the ordered vertex pairs by an
algebraic invariant, return one graph per class, and compute the full
intersection-number tensor of the partition by direct counting.  They have
no family tag; call them directly.  Where a small matrix-group action is
available (flags of a projective plane) the set-theoretic classes are
cross-checked against genuine group orbitals.

Every constructor predicts its vertex count from a formula first and
refuses to enumerate past a configurable budget (:class:`ScaleGuardError`),
so a typo in parameters fails fast instead of grinding.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import partial, reduce
from math import comb
from typing import Mapping

from .geometry import (
    FormedSpace,
    enumerate_flags,
    enumerate_max_isotropic,
    enumerate_points,
    enumerate_subspaces,
    gaussian_binomial,
    line_tangency_count,
    perp_type,
    projective_reps,
)
from .gf import (
    FieldElement,
    ScaleGuardError,
    field_of_order,
    is_prime_power,
    norm,
    quadratic_character,
)
from .graphcore import Graph, IntersectionArray, SrgParams, build_graph, distance_graph
from .graphcore import _label_graph, _label_table, _strict_int
from .orbitals import OrbitalPartition, PermGroupAction, compute_orbitals, orbital_graph
from .orbitals import _partition
from .schemes import IntersectionTensor, tensor_from_orbital_partition

__all__ = [
    "DEFAULT_MAX_V",
    "FamilyId",
    "OrbitalClassification",
    "ScaleGuardError",
    "build_NO",
    "build_NU",
    "build_dual_polar_sp6",
    "build_dual_polar_sp6_dist3",
    "build_family",
    "build_flag_orbitals",
    "build_grassmann",
    "build_hamming_orbital",
    "build_johnson",
    "build_orthogonal_orbitals",
    "build_polar_complement",
    "build_unitary_orbitals",
    "flag_M",
    "flag_action",
    "gaussian_binomial",
    "grassmann_intersection_array",
    "hamming_M",
    "hamming_classification",
    "hamming_srg_criterion",
    "params_closed_form",
    "parse_family_spec",
]

# Constructions refuse to enumerate more vertices than this unless the
# caller raises the budget explicitly.
DEFAULT_MAX_V = 2000


def _guard(family: str, predicted_v: int, max_v: int) -> None:
    if predicted_v > max_v:
        raise ScaleGuardError(family, predicted_v, max_v)


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise AssertionError(f"{num} is not divisible by {den}")
    return num // den


# ---------------------------------------------------------------------------
# Family identifiers (each family's spec head, parameters and builder are
# stated once, in _FAMILIES at the end of this module)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyId:
    """A graph family tag plus its parameters, normalized and validated."""

    tag: str
    params: tuple[tuple[str, int | str], ...]

    def __post_init__(self):
        if self.tag not in _FAMILIES:
            raise ValueError(f"unknown family tag {self.tag!r}")
        names = tuple(name for name, _ in self.params)
        expected = _FAMILIES[self.tag][1]
        if names != expected:
            raise ValueError(f"{self.tag} takes parameters {expected}, got {names}")
        p = dict(self.params)
        if "q" in p and (not isinstance(p["q"], int) or p["q"] < 2):
            raise ValueError("q must be an integer >= 2")
        if "q" in p and not is_prime_power(p["q"]):
            raise ValueError(f"q must be a prime power, got {p['q']}")
        if "eps" in p and p["eps"] not in ("+", "-"):
            raise ValueError("eps must be '+' or '-'")
        if self.tag == "NU" and p["n"] < 3:
            raise ValueError("NU needs n >= 3")
        if self.tag == "NO":
            if p["m"] < 2:
                raise ValueError("NO needs m >= 2 (dimension 2m+1 >= 5)")
            if p["q"] % 2 == 0:
                raise ValueError("NO needs odd q")
        if self.tag == "grassmann" and p["n"] < 6:
            raise ValueError("grassmann needs n >= 6")
        if self.tag == "johnson":
            if p["n"] < 7:
                raise ValueError("johnson needs n >= 7")
            if p["i"] not in (0, 1, 2):
                raise ValueError("johnson needs i in {0, 1, 2}")
        if self.tag == "hamming-orbital":
            if p["d"] < 2:
                raise ValueError("hamming-orbital needs d >= 2")
            if p["i"] not in (1, 2, 3):
                raise ValueError("hamming-orbital needs i in {1, 2, 3}")
        if self.tag == "flag-orbital" and p["i"] not in (1, 2, 3):
            raise ValueError("flag-orbital needs i in {1, 2, 3}")

    @classmethod
    def make(cls, tag: str, **params) -> "FamilyId":
        return cls(tag, tuple(sorted(params.items())))

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.tag}({inner})"


def parse_family_spec(text: str) -> FamilyId:
    """Parse a family selection string ``<head>:<k>=<v>,...`` such as
    ``nu:n=3,q=3`` into a validated :class:`FamilyId`.  polarC carries its
    kind as a bare first token (``polarC:O8+,q=2``)."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"family spec {text!r} needs '<family>:<params>'")
    items = [s.strip() for s in rest.split(",") if s.strip()]
    if head == "polarC":
        if not items or "=" in items[0]:
            raise ValueError(
                "polarC needs its kind first, e.g. 'polarC:O8+,q=2'"
            )
        kind = items.pop(0).replace("_", "")
        if kind not in ("O7", "O8+"):
            raise ValueError(f"unknown polar-complement kind {kind!r}")
        tag = f"polar-complement-{kind}"
    else:
        tag = next((t for t, family in _FAMILIES.items() if family[0] == head), None)
        if tag is None:
            raise ValueError(f"unknown family {head!r}")
    params: dict[str, int | str] = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"malformed parameter {item!r} (expected k=v)")
        key = key.strip()
        value = value.strip()
        if key == "eps":
            params[key] = value
        else:
            try:
                params[key] = _strict_int(value)
            except ValueError:
                raise ValueError(f"parameter {key} needs an integer, got {value!r}")
    if tag == "flag-orbital":
        params.setdefault("i", 2)
    expected = _FAMILIES[tag][1]
    if sorted(params) != list(expected):
        raise ValueError(
            f"{head} needs parameters {list(expected)}, got {sorted(params)}"
        )
    return FamilyId.make(tag, **params)


# ---------------------------------------------------------------------------
# Closed-form parameters
# ---------------------------------------------------------------------------


def params_closed_form(fid: FamilyId) -> SrgParams:
    """Exact big-integer evaluation of the family's closed-form strongly
    regular parameters.  Raises ValueError for families without one."""
    p = dict(fid.params)
    if fid.tag == "NU":
        n, q = p["n"], p["q"]
        s = (-1) ** n
        return SrgParams(
            _exact_div(q ** (n - 1) * (q**n - s), q + 1),
            (q ** (n - 1) + s) * (q ** (n - 2) - s),
            q ** (2 * n - 5) * (q + 1) - s * q ** (n - 2) * (q - 1) - 2,
            q ** (n - 3) * (q + 1) * (q ** (n - 2) - s),
        )
    if fid.tag == "NO":
        m, q = p["m"], p["q"]
        e = 1 if p["eps"] == "+" else -1
        return SrgParams(
            _exact_div(q**m * (q**m + e), 2),
            (q ** (m - 1) + e) * (q**m - e),
            2 * (q ** (2 * m - 2) - 1) + e * q ** (m - 1) * (q - 1),
            2 * q ** (m - 1) * (q ** (m - 1) + e),
        )
    if fid.tag in ("polar-complement-O8+", "dual-polar-sp6-dist3"):
        q = p["q"]
        return SrgParams(
            (q**3 + 1) * (q**2 + 1) * (q + 1),
            q**6,
            q**2 * (q - 1) * (q**3 - 1),
            q**5 * (q - 1),
        )
    if fid.tag == "polar-complement-O7":
        q = p["q"]
        return SrgParams(
            _exact_div(q**6 - 1, q - 1),
            q**5,
            q**4 * (q - 1),
            q**4 * (q - 1),
        )
    raise ValueError(f"{fid.tag} has no closed-form parameters")


# ---------------------------------------------------------------------------
# Pair classifications (a partition of ordered vertex pairs by an invariant)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitalClassification:
    """A partition of the ordered vertex pairs of a graph family into
    symmetric classes, with one graph per class and the full
    intersection-number tensor computed by direct counting.

    ``labels`` lists the non-diagonal class labels in ascending order;
    partition class ``c >= 1`` carries label ``labels[c - 1]`` and the
    diagonal is class 0.
    """

    points: tuple
    labels: tuple[int, ...]
    partition: OrbitalPartition
    graphs: Mapping[int, Graph]
    suborbit_lengths: Mapping[int, int]
    tensor: IntersectionTensor
    eps: str | None = None

    def class_index(self, label: int) -> int:
        """Partition class index of a non-diagonal label."""
        return 1 + self.labels.index(label)


def _classify_pairs(
    points, row_of, vertex_label, eps: str | None = None
) -> OrbitalClassification:
    """Build an :class:`OrbitalClassification` from the label table of a
    symmetric pair invariant: ``row_of(i)`` labels the pairs (i, j) for
    every j (see :func:`srgkit.graphcore._label_table`)."""
    n = len(points)
    class_of, labels = _label_table(n, row_of)
    partition = _partition(n, bytes(class_of))
    del class_of  # the partition holds its own copy
    names = [vertex_label(p) for p in points]
    return OrbitalClassification(
        points=tuple(points),
        labels=labels,
        partition=partition,
        graphs={
            lab: orbital_graph(partition, c).relabel(names)
            for c, lab in enumerate(labels, 1)
        },
        suborbit_lengths=dict(zip(labels, partition.suborbit_lengths[1:])),
        tensor=tensor_from_orbital_partition(partition),
        eps=eps,
    )


# ---------------------------------------------------------------------------
# Pair-invariant kernel: a table-lookup inner product on point representatives
# ---------------------------------------------------------------------------


def _pair_kernel(space: FormedSpace, points, label_of, reference=None, tangency=False):
    """``row_of(i)``: the labels ``label_of[inner(x_i, x_j)]`` of point i
    with every point j, as bytes.

    Each point's row functional x.G (G = ``space.gram()``) is one product
    lookup per coordinate, mapped over that coordinate of every column
    ``space.conjugate(x_j)``.  Products are spread: base-p digit t sits at
    radix^t, radix > dim (p - 1), so they add as ints without carries.  On
    the base row the expansion is checked against ``space.inner``, the
    label against ``reference(x_0, x_j)`` where given, and with
    ``tangency`` label 1 against a joining line with one singular point.
    """
    field = space.field
    add, mul = field.add_table, field.mul_table
    gram = space.gram()
    reps = [p.rep for p in points]
    radix = space.dim * (field.p - 1) + 1
    place = [radix**t for t in range(field.k)]
    spread = [sum(map(operator.mul, field.coeffs_of(e), place)) for e in range(field.q)]
    element_of = [
        field.index_of([s // r % radix for r in place]) for s in range(radix**field.k)
    ]
    products = [[spread[m] for m in mul_row] for mul_row in mul]
    functionals = []
    for x in reps:
        row = []
        for j in range(space.dim):
            acc = 0
            for xi, gram_row in zip(x, gram):
                acc = add[acc][mul[xi][gram_row[j]]]
            row.append(products[acc].__getitem__)
        functionals.append(row)
    columns = list(zip(*map(space.conjugate, reps)))
    label_of_sum = bytes(label_of[e] for e in element_of)

    def sums(i: int):  # the spread inner values of point i with every point
        return reduce(partial(map, operator.add), map(map, functionals[i], columns))

    x = reps[0]
    base_row = list(map(element_of.__getitem__, sums(0)))
    for j in range(1, len(reps)):
        value, label = base_row[j], label_of[base_row[j]]
        if value != space.inner(x, reps[j]):
            raise AssertionError(f"Gram expansion differs from the form at (0, {j})")
        if reference is not None and label != reference(x, reps[j]):
            raise AssertionError(f"pair label differs from its reference at (0, {j})")
        tangent = tangency and line_tangency_count(space, points[0], points[j]) == 1
        if tangent != (tangency and label == 1):
            raise AssertionError(f"label 1 differs from line tangency at (0, {j})")

    def row_of(i: int) -> bytes:
        return bytes(map(label_of_sum.__getitem__, sums(i)))

    return row_of


# ---------------------------------------------------------------------------
# Nonisotropic unitary graphs
# ---------------------------------------------------------------------------


def _unitary_pairs(n: int, q: int, family: str, max_v: int, tangency=False):
    """The nonsingular points of the n-dimensional hermitian space over
    F_{q^2} at unit representatives, with the rows of the relative norm of
    h(x, y) as pair label (see :func:`_pair_kernel` for ``tangency``)."""
    predicted = params_closed_form(FamilyId.make("NU", n=n, q=q)).v
    _guard(family, predicted, max_v)
    space = FormedSpace("hermitian", field_of_order(q * q), n)
    field = space.field
    points = enumerate_points(space, "nonsingular")
    if len(points) != predicted:
        raise AssertionError(
            f"enumerated {len(points)} nonsingular points, expected {predicted}"
        )
    norm_index = [norm(FieldElement(field, a)).index for a in range(field.q)]
    return points, _pair_kernel(space, points, norm_index, tangency=tangency)


def build_NU(n: int, q: int, max_v: int = DEFAULT_MAX_V) -> Graph:
    """Graph on the nonsingular points of the n-dimensional hermitian space
    over F_{q^2}, two points adjacent exactly when the line joining them is
    tangent to the hermitian variety (contains exactly one singular point).

    For unit representatives the line is tangent exactly when its Gram
    determinant 1 - N(h(x, y)) vanishes, so adjacency is norm label 1."""
    points, row_of = _unitary_pairs(n, q, f"NU_{n}({q})", max_v, tangency=True)
    return _label_graph(len(points), row_of, 1, list(map(str, points)))


def build_unitary_orbitals(
    n: int, q: int, max_v: int = DEFAULT_MAX_V
) -> OrbitalClassification:
    """Partition of the ordered pairs of nonsingular hermitian points by the
    relative norm of the inner product h(x, y) of unit representatives.

    Labels are indices in the norm's value field: 0 for perpendicular
    pairs, 1 for the tangency class, and one label per further norm value.
    The labeling is representative-independent because rescaling unit
    vectors multiplies h(x, y) by an element of norm 1.
    """
    points, row_of = _unitary_pairs(n, q, f"NU_{n}({q}) pair classes", max_v)
    return _classify_pairs(points, row_of, str)


# ---------------------------------------------------------------------------
# Nonisotropic orthogonal graphs (odd dimension, odd q)
# ---------------------------------------------------------------------------


def _least_nonsquare(field) -> int:
    """Index of the least non-square element of an odd-order field."""
    return next(
        s
        for s in range(2, field.q)
        if quadratic_character(FieldElement(field, s)) == -1
    )


def _orthogonal_point_classes(m: int, q: int):
    """The two square-classes of nonsingular points of the (2m+1)-dimensional
    quadratic space over F_q, each tagged with its perpendicular-space type.

    Returns (space, {eps: (points, form_value_index)}).
    """
    space = FormedSpace("quadratic-odd", field_of_order(q), 2 * m + 1)
    zeta = _least_nonsquare(space.field)
    by_eps = {}
    for value in (1, zeta):
        points = enumerate_points(space, "norm-class", value)
        eps_samples = {perp_type(space, p) for p in points[:3]}
        if len(eps_samples) != 1:
            raise AssertionError("mixed perpendicular types in a square class")
        eps = eps_samples.pop()
        expected = params_closed_form(
            FamilyId.make("NO", m=m, q=q, eps=eps)
        ).v
        if len(points) != expected:
            raise AssertionError(
                f"square class has {len(points)} points, expected {expected} "
                f"for type {eps}"
            )
        by_eps[eps] = (points, value)
    if set(by_eps) != {"+", "-"}:
        raise AssertionError("the two square classes share a type")
    return space, by_eps


def _orthogonal_pair_label(space: FormedSpace, points, c_value: int, tangency=False):
    """Label rows of one square class with form value c: the halved
    bilinear form divided by c, read up to sign, min(t, -t) for
    t = B(x, y) (2c)^-1; checked against ``space.half_inner`` on the base
    row (see :func:`_pair_kernel` for ``tangency``)."""
    field = space.field
    mul, neg, inv = field.mul_table, field.neg_table, field.inv_table
    two_c_inv = inv[mul[c_value][field.add_table[1][1]]]
    inv_c = inv[c_value]

    def up_to_sign(t: int) -> int:
        return min(t, neg[t])

    def reference(x, y) -> int:
        return up_to_sign(mul[space.half_inner(x, y)][inv_c])

    label_of = [up_to_sign(mul[b][two_c_inv]) for b in range(field.q)]

    return _pair_kernel(space, points, label_of, reference, tangency)


def build_NO(m: int, q: int, eps: str, max_v: int = DEFAULT_MAX_V) -> Graph:
    """Graph on the nonsingular points of the (2m+1)-dimensional quadratic
    space over odd F_q whose perpendicular space has type ``eps``, two
    points adjacent exactly when the line joining them is tangent to the
    quadric.

    For representatives of form value c the line is tangent exactly when
    its Gram determinant c^2 - (x, y)^2 vanishes, so adjacency is label 1."""
    fid = FamilyId.make("NO", m=m, q=q, eps=eps)
    _guard(f"NO_{2 * m + 1}^{eps}({q})", params_closed_form(fid).v, max_v)
    space, by_eps = _orthogonal_point_classes(m, q)
    points, c_value = by_eps[eps]
    row_of = _orthogonal_pair_label(space, points, c_value, tangency=True)
    return _label_graph(len(points), row_of, 1, list(map(str, points)))


def build_orthogonal_orbitals(
    m: int, q: int, eps: str | None = None, max_v: int = DEFAULT_MAX_V
) -> OrbitalClassification:
    """Partition of the ordered pairs of one square-class of nonsingular
    points by the halved bilinear form of the representatives, divided by
    the class's common form value and read up to sign.

    Labels are 0 (perpendicular), 1 (the tangency class), and one label per
    further plus-minus pair of field values.  ``eps`` selects the vertex
    class by perpendicular-space type; the default takes the class whose
    representatives have form value 1.
    """
    space, by_eps = _orthogonal_point_classes(m, q)
    if eps is None:
        eps = next(e for e, (_, value) in by_eps.items() if value == 1)
    points, c_value = by_eps[eps]
    fid = FamilyId.make("NO", m=m, q=q, eps=eps)
    _guard(
        f"NO_{2 * m + 1}^{eps}({q}) pair classes",
        params_closed_form(fid).v,
        max_v,
    )
    row_of = _orthogonal_pair_label(space, points, c_value)
    return _classify_pairs(points, row_of, str, eps=eps)


# ---------------------------------------------------------------------------
# Polar-graph complements
# ---------------------------------------------------------------------------


def build_polar_complement(
    kind: str, q: int, max_v: int = DEFAULT_MAX_V
) -> Graph:
    """Complement of the perpendicularity graph on the singular points of a
    quadratic space: ``kind`` is "O7" (dimension 7) or "O8+" (dimension 8,
    plus type).  Two distinct points are adjacent exactly when their polar
    form value is nonzero."""
    kind = kind.replace("_", "")
    if kind == "O7":
        fid = FamilyId.make("polar-complement-O7", q=q)
        space = FormedSpace("quadratic-odd", field_of_order(q), 7)
    elif kind == "O8+":
        fid = FamilyId.make("polar-complement-O8+", q=q)
        space = FormedSpace("quadratic-plus", field_of_order(q), 8)
    else:
        raise ValueError(f"unknown polar-complement kind {kind!r}")
    predicted = params_closed_form(fid).v
    _guard(f"polar complement {kind}({q})", predicted, max_v)
    points = enumerate_points(space, "singular")
    if len(points) != predicted:
        raise AssertionError(
            f"enumerated {len(points)} singular points, expected {predicted}"
        )
    nonzero = [0] + [1] * (space.field.q - 1)  # label 1: not perpendicular
    row_of = _pair_kernel(space, points, nonzero)
    return _label_graph(len(points), row_of, 1, list(map(str, points)))


# ---------------------------------------------------------------------------
# Dual polar graph of the 6-dimensional symplectic space
# ---------------------------------------------------------------------------


def _meet_graph(field, ambient_dim: int, subspaces) -> Graph:
    """Graph on 3-subspaces of F_q^ambient_dim, two adjacent exactly when
    they meet in a 2-space (q+1 common projective points).  A projective
    point is one int with byte v set when subspace v contains it, so the
    sum over a subspace's points is its row of intersection sizes.  A size
    fits a byte: q >= 16 gives more than 8192 subspaces, past the pair cap."""
    q = field.q
    point_index = {
        rep: i for i, rep in enumerate(projective_reps(field, ambient_dim))
    }
    n = len(subspaces)
    incidence = [0] * len(point_index)
    points_of = []
    for v, s in enumerate(subspaces):
        ids = [point_index[rep] for rep in s.point_reps(field)]
        if len(ids) != q * q + q + 1:
            raise AssertionError(f"a 3-space has {len(ids)} points")
        for i in ids:
            incidence[i] |= 1 << 8 * v
        points_of.append(ids)

    def row_of(v: int) -> bytes:
        return sum(map(incidence.__getitem__, points_of[v])).to_bytes(n, "little")

    return _label_graph(n, row_of, q + 1, [str(s) for s in subspaces])


def build_dual_polar_sp6(q: int, max_v: int = DEFAULT_MAX_V) -> Graph:
    """Graph on the maximal (3-dimensional) totally isotropic subspaces of
    the 6-dimensional symplectic space over F_q, two subspaces adjacent
    exactly when they meet in a 2-space (q+1 common projective points)."""
    predicted = (q**3 + 1) * (q**2 + 1) * (q + 1)
    _guard(f"dual polar Sp6({q})", predicted, max_v)
    field = field_of_order(q)
    subspaces = enumerate_max_isotropic(FormedSpace("symplectic", field, 6))
    if len(subspaces) != predicted:
        raise AssertionError(
            f"found {len(subspaces)} maximal isotropic 3-spaces, expected {predicted}"
        )
    return _meet_graph(field, 6, subspaces)


def build_dual_polar_sp6_dist3(q: int, max_v: int = DEFAULT_MAX_V) -> Graph:
    """Distance-3 graph of :func:`build_dual_polar_sp6`."""
    return distance_graph(build_dual_polar_sp6(q, max_v), 3)


# ---------------------------------------------------------------------------
# Generalized Johnson graphs J(n, 3, i)
# ---------------------------------------------------------------------------


def build_johnson(n: int, i: int, max_v: int = DEFAULT_MAX_V) -> Graph:
    """Graph on the 3-element subsets of {1..n}, two subsets adjacent
    exactly when their intersection has size ``i``."""
    FamilyId.make("johnson", n=n, i=i)
    predicted = comb(n, 3)
    _guard(f"J({n},3,{i})", predicted, max_v)
    vertices = [frozenset(c) for c in itertools.combinations(range(1, n + 1), 3)]
    return build_graph(
        vertices,
        lambda a, b: a is not b and len(a & b) == i,
        labels=lambda s: "{" + ",".join(map(str, sorted(s))) + "}",
    )


# ---------------------------------------------------------------------------
# Hamming-style orbitals: words of length 3, classified by disagreements
# ---------------------------------------------------------------------------


def hamming_M(d: int) -> tuple[tuple[int, ...], ...]:
    """The 3x3 matrix with entry (i, j) equal to the intersection number
    p^i_{jj} of the distance classification of length-3 words over a
    d-letter alphabet (rows and columns indexed by distances 1..3).

    Off-diagonal entries use the closed forms 2(d-1)(d-2), (d-2)(d-1)^2, 2,
    (d-1)(d-2)^2, 0, 6(d-2); diagonal entries follow from the row-sum
    identity sum_h k_h p^h_{jj} = k_j^2.
    """
    if d < 2:
        raise ValueError("need an alphabet of at least two letters")
    k = (3 * (d - 1), 3 * (d - 1) ** 2, (d - 1) ** 3)
    m = [
        [0, 2 * (d - 1) * (d - 2), (d - 2) * (d - 1) ** 2],
        [2, 0, (d - 1) * (d - 2) ** 2],
        [0, 6 * (d - 2), 0],
    ]
    for j in range(3):
        off = sum(k[h] * m[h][j] for h in range(3) if h != j)
        m[j][j] = _exact_div(k[j] ** 2 - k[j] - off, k[j])
    return tuple(tuple(row) for row in m)


def hamming_srg_criterion(d: int) -> bool:
    """Whether the two non-adjacent pair classes of the distance-2 word
    graph see equally many common distance-2 neighbours (p^1_{22} equals
    p^3_{22}) — for d >= 3 exactly the condition for that graph to be
    strongly regular."""
    m = hamming_M(d)
    return m[0][1] == m[2][1]


def _hamming_pairs(d: int, family: str, max_v: int):
    """The length-3 words over a d-letter alphabet, with the rows of the
    number of coordinates in which two words disagree as pair label."""
    _guard(family, d**3, max_v)
    words = list(itertools.product(range(d), repeat=3))

    def row_of(i: int) -> bytes:
        return bytes(sum(map(operator.ne, words[i], w)) for w in words)

    return words, row_of


def build_hamming_orbital(d: int, i: int, max_v: int = DEFAULT_MAX_V) -> Graph:
    """Graph on the length-3 words over a d-letter alphabet, two words
    adjacent exactly when they disagree in ``i`` coordinates."""
    FamilyId.make("hamming-orbital", d=d, i=i)
    words, row_of = _hamming_pairs(d, f"H(3,{d}) class {i}", max_v)
    return _label_graph(len(words), row_of, i, list(map(str, words)))


def hamming_classification(
    d: int, max_v: int = DEFAULT_MAX_V
) -> OrbitalClassification:
    """Partition of ordered pairs of length-3 words by the number of
    disagreeing coordinates (labels 1..3), with its direct-count tensor."""
    if d < 2:
        raise ValueError("need an alphabet of at least two letters")
    words, row_of = _hamming_pairs(d, f"H(3,{d}) pair classes", max_v)
    return _classify_pairs(words, row_of, str)


# ---------------------------------------------------------------------------
# Flag orbitals of the projective plane PG(2, q)
# ---------------------------------------------------------------------------


def flag_M(q: int) -> tuple[tuple[int, ...], ...]:
    """The 3x3 matrix with entry (i, j) equal to the intersection number
    p^i_{jj} of the flag pair classification of PG(2, q) (rows and columns
    indexed by the non-diagonal classes 1..3).

    Off-diagonal entries use the closed forms q(q-1), q^2(q-1), 1,
    q(q-1)^2, 0, 4(q-1); diagonal entries follow from the row-sum identity
    sum_h k_h p^h_{jj} = k_j^2.
    """
    k = (2 * q, 2 * q * q, q**3)
    m = [
        [0, q * (q - 1), q * q * (q - 1)],
        [1, 0, q * (q - 1) ** 2],
        [0, 4 * (q - 1), 0],
    ]
    for j in range(3):
        off = sum(k[h] * m[h][j] for h in range(3) if h != j)
        m[j][j] = _exact_div(k[j] ** 2 - k[j] - off, k[j])
    return tuple(tuple(row) for row in m)


def _apply_row(field, vec, a):
    add, mul = field.add_table, field.mul_table
    out = []
    for j in range(3):
        acc = 0
        for i in range(3):
            acc = add[acc][mul[vec[i]][a[i][j]]]
        out.append(acc)
    return tuple(out)


def _canon_point(field, vec):
    lead = next(c for c in vec if c)
    s = field.inv_table[lead]
    return tuple(field.mul_table[s][c] for c in vec)


def flag_action(q: int) -> PermGroupAction:
    """The projective linear group of PG(2, q), extended by the
    point-line duality, acting on the flags of :func:`enumerate_flags`.

    Matrix generators: a diagonal scaling by a primitive element, one
    transvection, and the coordinate 3-cycle; points transform by the
    matrix A and lines by its inverse transpose A^-T, so incidence is
    preserved.  The duality swaps a flag's point and line coordinates.
    """
    field = field_of_order(q)
    flags = enumerate_flags(q)
    index = {f: i for i, f in enumerate(flags)}
    primitive = 1 if q == 2 else next(
        s
        for s in range(2, q)
        if all(field.pow_index(s, e) != 1 for e in range(1, q - 1))
    )
    cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    pairs = {  # name -> (A, A^-T)
        "scaling": (
            [[primitive, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[field.inv_table[primitive], 0, 0], [0, 1, 0], [0, 0, 1]],
        ),
        "transvection": (
            [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [field.neg_table[1], 1, 0], [0, 0, 1]],
        ),
        "3-cycle": (cycle, cycle),
    }
    generators = []
    for name, (a, b) in pairs.items():
        perm = []
        for point, line in flags:
            image = (
                _canon_point(field, _apply_row(field, point, a)),
                _canon_point(field, _apply_row(field, line, b)),
            )
            if image not in index:
                raise AssertionError(f"the {name} generator maps a flag to a non-flag")
            perm.append(index[image])
        generators.append(tuple(perm))
    generators.append(tuple(index[(line, point)] for point, line in flags))
    return PermGroupAction(len(flags), tuple(generators))


def build_flag_orbitals(
    q: int, max_v: int = DEFAULT_MAX_V
) -> OrbitalClassification:
    """Partition of the ordered pairs of flags of PG(2, q) into the
    diagonal and three classes: sharing a point or a line (label 1),
    exactly one cross-incidence between one flag's point and the other's
    line (label 2), and no relation at all (label 3).

    The classes are cross-checked against the orbitals of the flag action
    of the extended projective group, and the direct-count tensor against
    the closed-form matrix :func:`flag_M`.
    """
    predicted = (q * q + q + 1) * (q + 1)
    _guard(f"flags of PG(2,{q})", predicted, max_v)
    field = field_of_order(q)
    flags = enumerate_flags(q)
    add, mul = field.add_table, field.mul_table

    def incident(point, line) -> bool:
        acc = 0
        for a, b in zip(point, line):
            acc = add[acc][mul[a][b]]
        return acc == 0

    def pair_label(flag, other) -> int:
        point, line = flag
        other_point, other_line = other
        if point == other_point or line == other_line:
            return 1
        first = incident(point, other_line)
        second = incident(other_point, line)
        if first and second:
            raise AssertionError(
                "two flags in general position share both cross-incidences"
            )
        return 2 if first or second else 3

    classification = _classify_pairs(
        flags, lambda i: bytes(map(pair_label, itertools.repeat(flags[i]), flags)),
        lambda f: f"{':'.join(map(str, f.point))}|{':'.join(map(str, f.line))}",
    )
    lengths = classification.suborbit_lengths
    if (lengths[1], lengths[2], lengths[3]) != (2 * q, 2 * q * q, q**3):
        raise AssertionError(f"unexpected suborbit lengths {lengths}")
    m = flag_M(q)
    counted = [
        [int(classification.tensor.p[i][j][j]) for j in (1, 2, 3)]
        for i in (1, 2, 3)
    ]
    if tuple(tuple(row) for row in counted) != m:
        raise AssertionError(
            f"direct-count matrix {counted} differs from closed form {m}"
        )
    group = compute_orbitals(flag_action(q))
    classes = classification.partition
    if group.rank != classes.rank:
        raise AssertionError(
            f"group action has rank {group.rank}, classes give {classes.rank}"
        )
    relabel = bytes(classes.pair_class(*rep) for rep in group.reps)
    if sorted(relabel) != list(range(group.rank)):
        raise AssertionError("group orbitals do not map onto the classes")
    if group.class_of.translate(relabel.ljust(256, b"\0")) != classes.class_of:
        raise AssertionError("group orbitals differ from the set-theoretic classes")
    return classification


# ---------------------------------------------------------------------------
# Grassmann graphs of 3-subspaces
# ---------------------------------------------------------------------------


def grassmann_intersection_array(n: int, q: int) -> IntersectionArray:
    """The intersection array of the Grassmann graph of 3-subspaces of
    F_q^n: b_i = q^(2i+1) [3-i]_q [n-3-i]_q and c_i = ([i]_q)^2, where
    [j]_q is the Gaussian [j choose 1]_q."""
    if n < 6:
        raise ValueError("the 3-subspace Grassmann graph needs n >= 6")

    def gauss1(j: int) -> int:
        return gaussian_binomial(j, 1, q)

    b = tuple(
        q ** (2 * i + 1) * gauss1(3 - i) * gauss1(n - 3 - i) for i in range(3)
    )
    c = tuple(gauss1(i) ** 2 for i in range(1, 4))
    return IntersectionArray(b, c)


def build_grassmann(n: int, q: int, max_v: int = DEFAULT_MAX_V) -> Graph:
    """Graph on the 3-dimensional subspaces of F_q^n, two subspaces
    adjacent exactly when they meet in a 2-space."""
    FamilyId.make("grassmann", n=n, q=q)
    predicted = gaussian_binomial(n, 3, q)
    _guard(f"Grassmann 3-spaces of F_{q}^{n}", predicted, max_v)
    field = field_of_order(q)
    return _meet_graph(field, n, enumerate_subspaces(field, n, 3))


# ---------------------------------------------------------------------------
# The family table and dispatch
# ---------------------------------------------------------------------------


def _flag_graph(i: int, q: int, max_v: int) -> Graph:
    """Class-``i`` graph of :func:`build_flag_orbitals` (by name at call time)."""
    return build_flag_orbitals(q, max_v).graphs[i]


# tag -> (spec head, parameter names in sorted order, graph builder).  A
# builder takes the parameters and ``max_v`` as keywords.  The benchmark
# tracer rebinds wrapped functions among the module globals, so a wrapped
# builder (build_flag_orbitals) is reached through a global lookup.
_FAMILIES = {
    "NU": ("nu", ("n", "q"), build_NU),
    "NO": ("no", ("eps", "m", "q"), build_NO),
    "polar-complement-O7": ("polarC", ("q",), partial(build_polar_complement, "O7")),
    "polar-complement-O8+": ("polarC", ("q",), partial(build_polar_complement, "O8+")),
    "dual-polar-sp6": ("sp6", ("q",), build_dual_polar_sp6),
    "dual-polar-sp6-dist3": ("sp6d3", ("q",), build_dual_polar_sp6_dist3),
    "grassmann": ("grassmann", ("n", "q"), build_grassmann),
    "johnson": ("johnson", ("i", "n"), build_johnson),
    "hamming-orbital": ("hamming", ("d", "i"), build_hamming_orbital),
    "flag-orbital": ("flags", ("i", "q"), _flag_graph),
}


def build_family(fid: FamilyId, max_v: int = DEFAULT_MAX_V) -> Graph:
    """Build the graph selected by a :class:`FamilyId`: its family's
    builder in ``_FAMILIES``, called with the parameters as keywords.  Every
    tag names one graph; the pair classifications have no tag."""
    return _FAMILIES[fid.tag][2](**dict(fid.params), max_v=max_v)
