"""Constructors for the graph families, with exact closed-form parameters.

Each family is built from first principles on top of :mod:`srgkit.geometry`
(formed spaces, point and subspace enumeration) or plain combinatorics, and
is returned as a :class:`srgkit.graphcore.Graph` ready for brute-force
verification.  Vertex i of a graph is the i-th entry of its construction's
listing (a point's representative tuple, a subspace's row tuple, a flag, a
word or a 3-set); the graph stores adjacency alone.  Each closed form
(strongly regular parameters, valencies, the Grassmann array) is stated
once, as a function of an exact scalar q: :func:`params_closed_form` and
the vertex counts evaluate it at a ``Fraction`` and insist on integers,
and the tests check it identically in q.

Each graph family is stated once, in the private table ``_FAMILIES``:
its tag, its spec head (``nu`` in ``nu:n=3,q=3``), its parameter names and
its builder.  :class:`FamilyId`, :func:`parse_family_spec` and
:func:`build_family` all read that table.

Every pair structure built from a form, words or flags takes one path: a
transitive isometry action (the form's reflection group; S_d wr S_3 on
words; the extended projective group on flags), an invariant evaluated on
the base row (0, y) alone, and :func:`srgkit.orbitals.compute_orbitals`,
which certifies the pair orbits and checks that the invariant names them
one to one.  The certificate runs on two products of the generators when
they generate a transitive subgroup whose pair orbits the invariant names,
and on every generator otherwise.  A linear map permutes a point set by one
gather through its code index (:func:`srgkit.geometry._permutation`);
:func:`_reflection_orbitals` makes each once, when the certificate reads
it.  The unitary, orthogonal, polar-complement and Hamming graphs are
classes of such a partition.  Grassmann and dual polar graphs are read off
incidence sums over the subspaces' points, found by the same gathers; only
Johnson graphs use ``build_graph``.

The pair-classification builders (:func:`build_unitary_orbitals`,
:func:`build_orthogonal_orbitals`, :func:`build_flag_orbitals`,
:func:`hamming_classification`) return those certified orbits, one graph
per class, and the full intersection-number tensor of the partition by
direct counting.  They have no family tag; call them directly.

Every constructor predicts its vertex count from a formula first and
refuses, before it enumerates, a count past the pair cap of
:mod:`srgkit.graphcore` (2^26 ordered pairs, 8192 vertices;
:class:`ScaleGuardError`), so a typo in parameters fails fast instead of
grinding.  The form families take their points from :func:`_form_points`,
which refuses before its one projective scan; the reflection group takes
its vectors from those points.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cache, partial
from math import comb
from typing import TYPE_CHECKING, Mapping

from .base import IntersectionArray, ScaleGuardError, _integer
from .base import _record, _strict_int
from .geometry import (
    FormedSpace,
    _check_vector_cap,
    _code_index,
    _columns,
    _dot,
    _permutation,
    _reflections,
    _subspace_points,
    enumerate_flags,
    enumerate_max_isotropic,
    enumerate_points,
    enumerate_subspaces,
    gaussian_binomial,
    line_tangency_count,
    projective_reps,
)
from .gf import field_of_order, is_prime_power
from .graphcore import Graph, SrgParams, _check_pair_cap, _class_rows, build_graph
from .graphcore import distance_graph
from .orbitals import OrbitalPartition, PermGroupAction, orbital_graph
from .orbitals import _named_orbitals, _two_generator_orbitals

if TYPE_CHECKING:
    from .schemes import IntersectionTensor

__all__ = [
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


# ---------------------------------------------------------------------------
# Family identifiers (each family's spec head, parameters and builder are
# stated once, in _FAMILIES at the end of this module)
# ---------------------------------------------------------------------------


@_record
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
        for name, value in self.params:
            if name != "eps" and type(value) is not int:  # not a bool or a float
                raise ValueError(
                    f"{self.tag} parameter {name} needs an int, got {value!r}"
                )
        p = dict(self.params)
        if "q" in p and p["q"] < 2:
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
        if key in params:
            raise ValueError(f"parameter {key} is given twice")
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


def _srg_closed_form(tag: str, q, **params) -> tuple:
    """(v, k, lambda, mu) of family ``tag`` with other parameters ``params``
    at an exact scalar ``q``: a Fraction, or RatFunc.gen() for the forms
    identically in q.  Raises ValueError for families without one."""
    if tag == "NU":
        n = params["n"]
        s = (-1) ** n
        return (
            q ** (n - 1) * (q**n - s) / (q + 1),
            (q ** (n - 1) + s) * (q ** (n - 2) - s),
            q ** (2 * n - 5) * (q + 1) - s * q ** (n - 2) * (q - 1) - 2,
            q ** (n - 3) * (q + 1) * (q ** (n - 2) - s),
        )
    if tag == "NO":
        m = params["m"]
        e = 1 if params["eps"] == "+" else -1
        return (
            q**m * (q**m + e) / 2,
            (q ** (m - 1) + e) * (q**m - e),
            2 * (q ** (2 * m - 2) - 1) + e * q ** (m - 1) * (q - 1),
            2 * q ** (m - 1) * (q ** (m - 1) + e),
        )
    if tag in ("polar-complement-O8+", "dual-polar-sp6-dist3"):
        return (
            (q**3 + 1) * (q**2 + 1) * (q + 1),
            q**6,
            q**2 * (q - 1) * (q**3 - 1),
            q**5 * (q - 1),
        )
    if tag == "polar-complement-O7":
        return (q**6 - 1) / (q - 1), q**5, q**4 * (q - 1), q**4 * (q - 1)
    raise ValueError(f"{tag} has no closed-form parameters")


def params_closed_form(fid: FamilyId) -> SrgParams:
    """Exact big-integer evaluation of the family's closed-form strongly
    regular parameters.  Raises ValueError for families without one."""
    p = dict(fid.params)
    q = Fraction(p.pop("q")) if "q" in p else None
    return SrgParams(*map(_integer, _srg_closed_form(fid.tag, q, **p)))


# ---------------------------------------------------------------------------
# Pair classifications (a partition of ordered vertex pairs by an invariant)
# ---------------------------------------------------------------------------


@_record
class OrbitalClassification:
    """A partition of the ordered vertex pairs of a graph family into
    symmetric classes, with one graph per class and the full
    intersection-number tensor computed by direct counting.

    ``points`` are the vertices, ``partition`` their certified pair orbits
    and ``labels`` the non-diagonal class labels in ascending order (see
    :func:`srgkit.orbitals.compute_orbitals`): partition class ``c >= 1``
    carries label ``labels[c - 1]`` and the diagonal is class 0.  The rest
    is derived: ``graphs`` and ``suborbit_lengths`` by label, and
    ``tensor``, which refuses a class that is not symmetric; ValueError
    names a label count other than rank - 1.
    """

    __hash__ = None  # ``graphs`` and ``suborbit_lengths`` are dicts
    _derived = ("graphs", "suborbit_lengths", "tensor")

    points: tuple
    partition: OrbitalPartition
    labels: tuple[int, ...]
    graphs: Mapping[int, Graph]
    suborbit_lengths: Mapping[int, int]
    tensor: IntersectionTensor

    def __post_init__(self):
        from .schemes import tensor_from_orbital_partition

        partition, labels = self.partition, self.labels
        if len(labels) != partition.rank - 1:
            raise ValueError(f"{len(labels)} labels for {partition.rank - 1} classes")
        graphs = {lab: orbital_graph(partition, c) for c, lab in enumerate(labels, 1)}
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "graphs", graphs)
        lengths = dict(zip(labels, partition.suborbit_lengths[1:]))
        object.__setattr__(self, "suborbit_lengths", lengths)
        object.__setattr__(self, "tensor", tensor_from_orbital_partition(partition))


def _class_graph(classes, label) -> Graph:
    """The graph of the pair class named ``label`` of ``classes``, a triple
    (points, pair orbits, class labels); vertex i is points[i]."""
    _, partition, labels = classes
    return orbital_graph(partition, 1 + labels.index(label))


def _form_points(kind: str, q: int, dim: int, value, fid: FamilyId):
    """The space of ``kind`` over F_q in dimension ``dim`` and its points
    of form value ``value`` (0: the singular points; a function of the
    field is called on it) from one projective scan, once the field-table
    cap has passed F_q and the pair cap the closed-form count of ``fid``.
    The scan must find exactly that many points.

    For the odd-dimensional quadratic form, value 1 has plus type: the last
    basis vector has Q = 1 and a hyperbolic perp, and Witt's theorem
    carries it to every point of the class.  A non-square class has minus
    type.  The types differ in size, so the count check confirms the type."""
    predicted = params_closed_form(fid).v
    space = FormedSpace(kind, field_of_order(q), dim)
    _check_pair_cap(predicted)
    if callable(value):
        value = value(space.field)
    points = enumerate_points(space, value)
    if len(points) != predicted:
        raise AssertionError(
            f"enumerated {len(points)} points of form value {value}, "
            f"expected {predicted}"
        )
    return space, points


def _form_orbits(space: FormedSpace, points, label, tangency=False):
    """The pair orbits of the reflection group G of ``space`` on ``points``,
    named by the form invariant ``label(x, y)`` of representatives on the
    base row.  With ``tangency``, label 1 there must be exactly a joining
    line with one singular point; the certified isometry group carries
    that, like the label, to every pair.

    They are certified on two products of the reflections, which generate
    a transitive H <= G: G preserves the label, so once the label names
    H's pair orbits one to one, H-orbits <= G-orbits <= label classes =
    H-orbits, and the classes are G's pair orbits."""
    base = [label(points[0], y) for y in points[1:]]
    for j, value in enumerate(base if tangency else (), 1):
        if (line_tangency_count(space, points[0], points[j]) == 1) != (value == 1):
            raise AssertionError(f"label 1 differs from line tangency at (0, {j})")
    return _reflection_orbitals(space, points, base), tuple(sorted(set(base)))


def _reflection_orbitals(space: FormedSpace, points, labels) -> OrbitalPartition:
    """The pair orbits of the group generated by the reflections of
    :func:`srgkit.geometry._reflections` on ``points``, named by
    ``labels``.  From the first prefix of the reflections that spans the
    space on, each prefix goes to :func:`_named_orbitals`, and a prefix
    that does not act transitively takes one more reflection.  P, the
    product of a prefix in pick order (the first applied first), is made
    from the product matrix, and the i-th reflection's permutation when it
    is first read, each once, by one gather through the points' code
    index; a map that leaves the point set raises AssertionError, naming
    it."""
    field, labels = space.field, tuple(labels)
    columns = _columns(points)
    index = _code_index(field, columns)

    def permutation(matrix, name: str) -> tuple[int, ...]:
        if -1 in (perm := _permutation(field, columns, matrix, index)):
            raise AssertionError(f"the {name} maps a point outside the point set")
        return perm

    maps, product = [], space.basis()  # product: the basis images under P
    reflection = cache(lambda i: permutation(*maps[i]))
    for name, matrix, spans in _reflections(space, points):
        maps.append((matrix, f"reflection in {name}"))
        product = [tuple(_dot(field, x, y) for y in zip(*matrix)) for x in product]
        if spans:
            product_perm = permutation(product, "product of the reflections")
            partition = _named_orbitals(product_perm, reflection, len(maps), labels)
            if partition is not None:
                return partition
    raise AssertionError("the reflections do not act transitively on the points")


# ---------------------------------------------------------------------------
# Nonisotropic unitary graphs
# ---------------------------------------------------------------------------


def _unitary_classes(n: int, q: int, tangency=False):
    """The nonsingular points of the n-dimensional hermitian space over
    F_{q^2} at unit representatives, and their pair orbits under the
    unitary reflection group, named by the relative norm of h(x, y).
    With ``tangency``, label 1 is checked against line tangency."""
    fid = FamilyId.make("NU", n=n, q=q)
    space, points = _form_points("hermitian", q * q, n, 1, fid)
    return points, *_form_orbits(
        space, points, lambda x, y: space._norm[space.inner(x, y)], tangency
    )


def build_NU(n: int, q: int) -> Graph:
    """Graph on the nonsingular points of the n-dimensional hermitian space
    over F_{q^2}, two points adjacent exactly when the line joining them is
    tangent to the hermitian variety (contains exactly one singular point).

    For unit representatives the line is tangent exactly when its Gram
    determinant 1 - N(h(x, y)) vanishes, so adjacency is norm label 1."""
    return _class_graph(_unitary_classes(n, q, True), 1)


def build_unitary_orbitals(n: int, q: int) -> OrbitalClassification:
    """Partition of the ordered pairs of nonsingular hermitian points by the
    relative norm of the inner product h(x, y) of unit representatives.

    Labels are indices in the norm's value field: 0 for perpendicular
    pairs, 1 for the tangency class, and one label per further norm value.
    The labeling is representative-independent because rescaling unit
    vectors multiplies h(x, y) by an element of norm 1.  The classes are
    the pair orbits of the unitary reflection group.
    """
    return OrbitalClassification(*_unitary_classes(n, q))


# ---------------------------------------------------------------------------
# Nonisotropic orthogonal graphs (odd dimension, odd q)
# ---------------------------------------------------------------------------


def _least_nonsquare(field) -> int:
    """Index of the least non-square element of an odd-order field: the
    least one with an odd logarithm."""
    return min(field.exp_table[1::2])


def _orthogonal_classes(m: int, q: int, eps: str, tangency=False):
    """The square class of nonsingular points of the (2m+1)-dimensional
    quadratic space over F_q whose perp has type ``eps`` (form value 1 for
    plus, the least non-square for minus), and its pair orbits under the
    orthogonal reflection group, labelled by the halved bilinear form over
    the class's form value c, up to sign: min(t, -t) for t = (x, y) c^-1.
    With ``tangency``, label 1 is checked against line tangency."""
    fid = FamilyId.make("NO", m=m, q=q, eps=eps)
    value = 1 if eps == "+" else _least_nonsquare
    space, points = _form_points("quadratic-odd", q, 2 * m + 1, value, fid)
    mul, neg = space.field.mul_table, space.field.neg_table
    inv_c = space.field.inv_table[space.form_value(points[0])]

    def label(x, y) -> int:
        t = mul[space.half_inner(x, y)][inv_c]
        return min(t, neg[t])

    return points, *_form_orbits(space, points, label, tangency)


def build_NO(m: int, q: int, eps: str) -> Graph:
    """Graph on the nonsingular points of the (2m+1)-dimensional quadratic
    space over odd F_q whose perpendicular space has type ``eps``, two
    points adjacent exactly when the line joining them is tangent to the
    quadric.

    For representatives of form value c the line is tangent exactly when
    its Gram determinant c^2 - (x, y)^2 vanishes, so adjacency is label 1."""
    return _class_graph(_orthogonal_classes(m, q, eps, True), 1)


def build_orthogonal_orbitals(
    m: int, q: int, eps: str = "+"
) -> OrbitalClassification:
    """Partition of the ordered pairs of one square-class of nonsingular
    points by the halved bilinear form of the representatives, divided by
    the class's common form value and read up to sign.

    Labels are 0 (perpendicular), 1 (the tangency class), and one label per
    further plus-minus pair of field values.  ``eps`` selects the vertex
    class by perpendicular-space type; the default, plus, is the class
    whose representatives have form value 1.  The classes are the pair
    orbits of the orthogonal reflection group.
    """
    return OrbitalClassification(*_orthogonal_classes(m, q, eps))


# ---------------------------------------------------------------------------
# Polar-graph complements
# ---------------------------------------------------------------------------


def build_polar_complement(kind: str, q: int) -> Graph:
    """Complement of the perpendicularity graph on the singular points of a
    quadratic space: ``kind`` is "O7" (dimension 7) or "O8+" (dimension 8,
    plus type).  Two distinct points are adjacent exactly when their polar
    form value is nonzero: label 1 on the pair orbits of the orthogonal
    reflection group."""
    kind = kind.replace("_", "")
    forms = {"O7": ("quadratic-odd", 7), "O8+": ("quadratic-plus", 8)}
    if kind not in forms:
        raise ValueError(f"unknown polar-complement kind {kind!r}")
    form, dim = forms[kind]
    fid = FamilyId.make(f"polar-complement-{kind}", q=q)
    space, points = _form_points(form, q, dim, 0, fid)
    nonzero = _form_orbits(space, points, lambda x, y: int(space.inner(x, y) != 0))
    return _class_graph((points, *nonzero), 1)


# ---------------------------------------------------------------------------
# Dual polar graph of the 6-dimensional symplectic space
# ---------------------------------------------------------------------------


def _meet_graph(field, ambient_dim: int, subspaces) -> Graph:
    """Graph on 3-subspaces of F_q^ambient_dim, two adjacent exactly when
    they meet in a 2-space (q+1 common projective points).  A projective
    point is one int with byte v set when subspace v contains it, so the
    sum over a subspace's points (:func:`srgkit.geometry._subspace_points`)
    is its row of intersection sizes, q^2+q+1 on the diagonal and
    symmetric by construction.  A size fits its byte while q^2 + q + 1 <=
    255, that is q < 16: the vector cap refuses F_16^6 (2^24 vectors), and
    the pair cap more than 8192 subspaces, both before any enumeration."""
    n, q = len(subspaces), field.q
    points_of = _subspace_points(field, ambient_dim, subspaces)
    members = [bytearray(n) for _ in range((q**ambient_dim - 1) // (q - 1))]
    for v, ids in enumerate(points_of):
        for i in ids:
            members[i][v] = 1
    incidence = [int.from_bytes(m, "little") for m in members]
    sizes = (
        sum(map(incidence.__getitem__, ids)).to_bytes(n, "little") for ids in points_of
    )
    rows = _class_rows(n, sizes, {q + 1})
    return Graph(rows, validate=False)


def build_dual_polar_sp6(q: int) -> Graph:
    """Graph on the maximal (3-dimensional) totally isotropic subspaces of
    the 6-dimensional symplectic space over F_q, two subspaces adjacent
    exactly when they meet in a 2-space (q+1 common projective points)."""
    predicted = _integer(_srg_closed_form("dual-polar-sp6-dist3", Fraction(q))[0])
    field = field_of_order(q)
    _check_vector_cap(field, 6)  # first, so F_16^6 is refused by name
    _check_pair_cap(predicted)
    subspaces = enumerate_max_isotropic(FormedSpace("symplectic", field, 6))
    if len(subspaces) != predicted:
        raise AssertionError(
            f"found {len(subspaces)} maximal isotropic 3-spaces, expected {predicted}"
        )
    return _meet_graph(field, 6, subspaces)


def build_dual_polar_sp6_dist3(q: int) -> Graph:
    """Distance-3 graph of :func:`build_dual_polar_sp6`."""
    return distance_graph(build_dual_polar_sp6(q), 3)


# ---------------------------------------------------------------------------
# Generalized Johnson graphs J(n, 3, i)
# ---------------------------------------------------------------------------


def build_johnson(n: int, i: int) -> Graph:
    """Graph on the 3-element subsets of {1..n}, two subsets adjacent
    exactly when their intersection has size ``i``."""
    FamilyId.make("johnson", n=n, i=i)
    _check_pair_cap(comb(n, 3))
    vertices = [frozenset(c) for c in itertools.combinations(range(1, n + 1), 3)]
    return build_graph(vertices, lambda a, b: a is not b and len(a & b) == i)


# ---------------------------------------------------------------------------
# Hamming-style orbitals: words of length 3, classified by disagreements
# ---------------------------------------------------------------------------


def _complete_diagonal(k: tuple, m: list) -> tuple[tuple[int, ...], ...]:
    """``m`` with its diagonal filled in from the valencies ``k`` by the
    row-sum identity sum_h k_h p^h_{jj} = k_j^2 (h = 0..3)."""
    for j in range(3):
        off = sum(k[h] * m[h][j] for h in range(3) if h != j)
        m[j][j] = _integer(Fraction(k[j] ** 2 - k[j] - off, k[j]))
    return tuple(tuple(row) for row in m)


def _hamming_valencies(d: int) -> tuple[int, int, int]:
    """Words at distance 1, 2 and 3 from one length-3 word over d letters."""
    if d < 2:
        raise ValueError("need an alphabet of at least two letters")
    return 3 * (d - 1), 3 * (d - 1) ** 2, (d - 1) ** 3


def hamming_M(d: int) -> tuple[tuple[int, ...], ...]:
    """The 3x3 matrix with entry (i, j) equal to the intersection number
    p^i_{jj} of the distance classification of length-3 words over a
    d-letter alphabet (rows and columns indexed by distances 1..3).

    Off-diagonal entries use the closed forms 2(d-1)(d-2), (d-2)(d-1)^2, 2,
    (d-1)(d-2)^2, 0, 6(d-2); diagonal entries follow from the valencies.
    """
    m = [
        [0, 2 * (d - 1) * (d - 2), (d - 2) * (d - 1) ** 2],
        [2, 0, (d - 1) * (d - 2) ** 2],
        [0, 6 * (d - 2), 0],
    ]
    return _complete_diagonal(_hamming_valencies(d), m)


def hamming_srg_criterion(d: int) -> bool:
    """Whether the two non-adjacent pair classes of the distance-2 word
    graph see equally many common distance-2 neighbours (p^1_{22} equals
    p^3_{22}) — for d >= 3 exactly the condition for that graph to be
    strongly regular."""
    m = hamming_M(d)
    return m[0][1] == m[2][1]


def _hamming_classes(d: int):
    """The length-3 words over a d-letter alphabet, and their pair orbits
    under S_d wr S_3, named by the number of coordinates in which two words
    disagree.  Generators: a letter swap and a letter d-cycle on
    coordinate 0, a coordinate 3-cycle and a coordinate swap; the orbits
    are certified on two products of them, which generate a transitive
    H <= S_d wr S_3.  The distance is invariant under the whole group, so
    naming H's pair orbits one to one makes them the whole group's."""
    _check_pair_cap(1 + sum(_hamming_valencies(d)))
    words = list(itertools.product(range(d), repeat=3))
    index = {w: i for i, w in enumerate(words)}
    maps = (
        lambda w: ((1, 0)[w[0]] if w[0] < 2 else w[0], w[1], w[2]),
        lambda w: ((w[0] + 1) % d, w[1], w[2]),
        lambda w: (w[1], w[2], w[0]),
        lambda w: (w[1], w[0], w[2]),
    )
    action = PermGroupAction(
        len(words), tuple(tuple(index[g(w)] for w in words) for g in maps)
    )
    base = [sum(map(operator.ne, words[0], w)) for w in words[1:]]
    return words, _two_generator_orbitals(action, base), (1, 2, 3)


def build_hamming_orbital(d: int, i: int) -> Graph:
    """Graph on the length-3 words over a d-letter alphabet, two words
    adjacent exactly when they disagree in ``i`` coordinates."""
    FamilyId.make("hamming-orbital", d=d, i=i)
    return _class_graph(_hamming_classes(d), i)


def hamming_classification(d: int) -> OrbitalClassification:
    """Partition of ordered pairs of length-3 words by the number of
    disagreeing coordinates (labels 1..3), with its direct-count tensor."""
    return OrbitalClassification(*_hamming_classes(d))


# ---------------------------------------------------------------------------
# Orbitals on the flags of the projective plane PG(2, q)
# ---------------------------------------------------------------------------


def _flag_valencies(q: int) -> tuple[int, int, int]:
    """Flags of PG(2, q) in each pair class 1, 2, 3 of one flag."""
    return 2 * q, 2 * q * q, q**3


def flag_M(q: int) -> tuple[tuple[int, ...], ...]:
    """The 3x3 matrix with entry (i, j) equal to the intersection number
    p^i_{jj} of the flag pair classification of PG(2, q) (rows and columns
    indexed by the non-diagonal classes 1..3).

    Off-diagonal entries use the closed forms q(q-1), q^2(q-1), 1,
    q(q-1)^2, 0, 4(q-1); diagonal entries follow from the valencies.
    """
    m = [
        [0, q * (q - 1), q * q * (q - 1)],
        [1, 0, q * (q - 1) ** 2],
        [0, 4 * (q - 1), 0],
    ]
    return _complete_diagonal(_flag_valencies(q), m)


def flag_action(q: int) -> PermGroupAction:
    """The projective linear group of PG(2, q), extended by the
    point-line duality, acting on the flags of :func:`enumerate_flags`.

    Matrix generators: a diagonal scaling by the field's least primitive
    element g, one transvection, and the coordinate 3-cycle; points
    transform by the matrix A and lines by its inverse transpose A^-T, so
    incidence is preserved, each by one gather through the plane's code
    index, and a flag's image is read off its key point * m + line.  The
    duality swaps a flag's point and line.
    """
    return _flag_action(field_of_order(q), enumerate_flags(q))


def _flag_action(field, flags) -> PermGroupAction:
    """:func:`flag_action` on ``flags``, the flags of PG(2, q) over
    ``field`` as :func:`enumerate_flags` lists them."""
    reps = projective_reps(field, 3)
    g, m, columns = field.primitive, len(reps), _columns(reps)
    index, identity = _code_index(field, columns), ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    point, line = (  # the index in reps of each flag's point, and of its line
        _permutation(field, _columns(vectors), identity, index)
        for vectors in zip(*flags)
    )

    def keys(points, lines):  # a flag's key: point index * m + line index
        return map(operator.add, map(operator.mul, points, itertools.repeat(m)), lines)

    flag_of = dict(zip(keys(point, line), range(len(flags))))

    def gather(points, lines, name: str) -> tuple[int, ...]:
        if None in (perm := tuple(map(flag_of.get, keys(points, lines)))):
            raise AssertionError(f"the {name} generator maps a flag to a non-flag")
        return perm

    cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    pairs = {  # name -> (A, A^-T)
        "scaling": (
            [[g, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[field.inv_table[g], 0, 0], [0, 1, 0], [0, 0, 1]],
        ),
        "transvection": (
            [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [field.neg_table[1], 1, 0], [0, 0, 1]],
        ),
        "3-cycle": (cycle, cycle),
    }
    at_point, at_line = operator.itemgetter(*point), operator.itemgetter(*line)
    generators = []
    for name, (a, b) in pairs.items():  # the row vectors x A and x A^-T
        on_points, on_lines = (_permutation(field, columns, c, index) for c in (a, b))
        generators.append(gather(at_point(on_points), at_line(on_lines), name))
    generators.append(gather(line, point, "duality"))
    return PermGroupAction(len(flags), tuple(generators))


def _flag_pair_label(field, flag, other) -> int:
    """Label of a pair of distinct flags of PG(2, q): 1 when they share a
    point or a line, else 3 less the number of cross-incidences between one
    flag's point and the other's line (at most one)."""
    (point, line), (other_point, other_line) = flag, other
    if point == other_point or line == other_line:
        return 1
    crossings = (_dot(field, point, other_line) == 0) + (
        _dot(field, other_point, line) == 0
    )
    if crossings == 2:
        raise AssertionError("flags in general position share both cross-incidences")
    return 3 - crossings


def build_flag_orbitals(q: int) -> OrbitalClassification:
    """Partition of the ordered pairs of flags of PG(2, q) into the
    diagonal and three classes: sharing a point or a line (label 1),
    exactly one cross-incidence between one flag's point and the other's
    line (label 2), and no relation at all (label 3).

    The classes are the pair orbits of :func:`flag_action`, named on the
    base row, where labels 1, 2, 3 must name one orbit each (so the rank is
    4); the direct-count tensor is checked against :func:`flag_M`.  They
    are certified on two products of the generators, which generate a
    transitive subgroup H: the labels are invariant under the whole group
    G, so naming H's pair orbits one to one makes them G's (H-orbits <=
    G-orbits <= label classes = H-orbits).
    """
    _check_pair_cap(1 + sum(_flag_valencies(q)))
    field, flags = field_of_order(q), enumerate_flags(q)
    base = map(partial(_flag_pair_label, field, flags[0]), flags[1:])
    orbits = _two_generator_orbitals(_flag_action(field, flags), base)
    classification = OrbitalClassification(flags, orbits, (1, 2, 3))
    lengths = classification.suborbit_lengths
    if lengths != dict(zip((1, 2, 3), _flag_valencies(q))):
        raise AssertionError(f"unexpected suborbit lengths {lengths}")
    p, m = classification.tensor.p, flag_M(q)
    counted = tuple(tuple(int(p[i][j][j]) for j in (1, 2, 3)) for i in (1, 2, 3))
    if counted != m:
        raise AssertionError(f"direct-count matrix {counted} is not flag_M {m}")
    return classification


# ---------------------------------------------------------------------------
# Grassmann graphs of 3-subspaces
# ---------------------------------------------------------------------------


def grassmann_intersection_array(n: int, q: int) -> IntersectionArray:
    """The intersection array of the Grassmann graph of 3-subspaces of
    F_q^n: b_i = q^(2i+1) [3-i]_q [n-3-i]_q and c_i = ([i]_q)^2, where
    [j]_q is the Gaussian [j choose 1]_q."""
    from .schemes import _grassmann_array, _integer_array

    if n < 6:
        raise ValueError("the 3-subspace Grassmann graph needs n >= 6")
    return _integer_array(*_grassmann_array(Fraction(q), Fraction(q) ** n))


def build_grassmann(n: int, q: int) -> Graph:
    """Graph on the 3-dimensional subspaces of F_q^n, two subspaces
    adjacent exactly when they meet in a 2-space."""
    FamilyId.make("grassmann", n=n, q=q)
    predicted = gaussian_binomial(n, 3, q)
    field = field_of_order(q)
    _check_vector_cap(field, n)  # first, so F_16^6 is refused by name
    _check_pair_cap(predicted)
    return _meet_graph(field, n, enumerate_subspaces(field, n, 3))


# ---------------------------------------------------------------------------
# The family table and dispatch
# ---------------------------------------------------------------------------


def _flag_graph(i: int, q: int) -> Graph:
    """Class-``i`` graph of :func:`build_flag_orbitals` (by name at call time)."""
    return build_flag_orbitals(q).graphs[i]


# tag -> (spec head, parameter names in sorted order, graph builder).  A
# builder takes the parameters as keywords.  The benchmark
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


def build_family(fid: FamilyId) -> Graph:
    """Build the graph selected by a :class:`FamilyId`: its family's
    builder in ``_FAMILIES``, called with the parameters as keywords.  Every
    tag names one graph; the pair classifications have no tag."""
    return _FAMILIES[fid.tag][2](**dict(fid.params))
