"""Formed spaces: point enumeration, perp types, isotropic subspaces, flags."""

import itertools

import oracles
import pytest
from oracles import perp_types, scale_to_value

from srgkit.geometry import (
    FormedSpace,
    enumerate_flags,
    enumerate_max_isotropic,
    enumerate_points,
    enumerate_subspaces,
    kernel_basis,
    lead_one,
    least_zeta,
    line_tangency_count,
    projective_reps,
    rref,
)
import srgkit.geometry as geometry
from srgkit import families
from srgkit.base import ScaleGuardError
from srgkit.families import build_NO, build_polar_complement
from srgkit.gf import field_of_order, make_field
from srgkit.orbitals import PermGroupAction, compute_orbitals


def hermitian(n, q):
    return FormedSpace("hermitian", field_of_order(q * q), n)


# small spaces of all five kinds, characteristic 2 included: every vector
# and every point of each is compared with the reference oracles
SMALL_SPACES = [
    (kind, q, dim)
    for q in (2, 3, 4, 5)
    for kind, dim in (
        ("quadratic-plus", 4),
        ("quadratic-minus", 4),
        ("quadratic-odd", 3),
        ("symplectic", 4),
    )
] + [("hermitian", 4, 3), ("hermitian", 9, 3)]
SMALL_SPACE_IDS = [f"{kind}-{dim}-GF{q}" for kind, q, dim in SMALL_SPACES]


# ---------------------------------------------------------------------------
# least_zeta
# ---------------------------------------------------------------------------


def test_least_zeta_small_fields():
    assert least_zeta(field_of_order(2)) == 1
    assert least_zeta(field_of_order(3)) == 2
    assert least_zeta(field_of_order(4)) == 2  # the generator t of GF(4)


def test_least_zeta_is_least():
    field = field_of_order(5)
    zeta = least_zeta(field)
    add, mul = field.add_table, field.mul_table
    for smaller in range(zeta):
        roots = [
            t for t in range(5) if add[add[mul[t][t]][t]][smaller] == 0
        ]
        assert roots, f"t^2+t+{smaller} should be reducible below zeta"


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------


def test_space_rejects_bad_input():
    f3 = field_of_order(3)
    with pytest.raises(ValueError):
        FormedSpace("euclidean", f3, 3)
    with pytest.raises(ValueError):
        FormedSpace("hermitian", f3, 3)  # needs a square-order field
    with pytest.raises(ValueError):
        FormedSpace("quadratic-plus", f3, 5)  # odd dimension
    with pytest.raises(ValueError):
        FormedSpace("quadratic-odd", f3, 4)  # even dimension
    with pytest.raises(ValueError):
        FormedSpace("symplectic", f3, 3)
    with pytest.raises(ValueError):
        FormedSpace("symplectic", field_of_order(2), 21)  # 2^21 vectors


def test_value_field_is_subfield_for_hermitian():
    space = hermitian(3, 3)
    assert space.field.q == 9
    assert space.value_field.q == 3
    assert FormedSpace("quadratic-odd", field_of_order(3), 5).value_field.q == 3


# ---------------------------------------------------------------------------
# linear algebra helpers
# ---------------------------------------------------------------------------


def test_rref_and_kernel():
    f3 = field_of_order(3)
    # (2, 1, 0) is a scalar multiple of (1, 2, 0): rank 1
    assert rref(f3, [(1, 2, 0), (2, 1, 0)]) == [(1, 2, 0)]
    rows = [(1, 2, 0), (0, 1, 1), (0, 0, 0)]
    reduced = rref(f3, rows)
    assert reduced == [(1, 0, 1), (0, 1, 1)]
    kern = kernel_basis(f3, [list(r) for r in rows])
    assert kern == [(2, 2, 1)]
    # every kernel vector really is annihilated
    add, mul = f3.add_table, f3.mul_table
    for vec in kern:
        for row in rows:
            acc = 0
            for a, b in zip(row, vec):
                acc = add[acc][mul[a][b]]
            assert acc == 0


def test_kernel_of_invertible_matrix_is_empty():
    f2 = field_of_order(2)
    assert kernel_basis(f2, [[1, 1], [0, 1]]) == []


def test_projective_rep_counts():
    for q, n in [(2, 3), (3, 3), (4, 3), (3, 4), (9, 3), (2, 1), (5, 2)]:
        field = field_of_order(q)
        reps = projective_reps(field, n)
        assert len(reps) == (q**n - 1) // (q - 1)
        assert all(next(c for c in r if c) == 1 for r in reps)
        assert reps == sorted(reps)
        assert reps == oracles.projective_reps_by_filter(field, n)


# ---------------------------------------------------------------------------
# hermitian point counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,q,total,singular",
    [
        (3, 3, 91, 28),
        (4, 3, 820, 280),
        (3, 4, 273, 65),
        (3, 2, 21, 9),
    ],
)
def test_hermitian_point_counts(n, q, total, singular):
    space = hermitian(n, q)
    sing = enumerate_points(space, 0)
    nonsing = oracles.nonsingular_points(space)
    assert len(sing) == singular
    assert len(nonsing) == total - singular
    assert len(projective_reps(space.field, n)) == total


def test_hermitian_nonsingular_reps_have_value_one():
    space = hermitian(3, 3)
    points = oracles.nonsingular_points(space)
    assert all(space.form_value(p) == 1 for p in points)
    # vector-level consistency: value-1 points x (q+1) unit scalings each
    assert len(points) * (3 + 1) == oracles.count_hermitian_norm_solutions(3, 3, 1)


def test_hermitian_singular_reps_are_canonical():
    space = hermitian(3, 3)
    for p in enumerate_points(space, 0):
        assert next(c for c in p if c) == 1
        assert space.form_value(p) == 0


# ---------------------------------------------------------------------------
# quadratic point counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,q,dim,singular",
    [
        ("quadratic-odd", 2, 7, 63),
        ("quadratic-odd", 3, 7, 364),
        ("quadratic-odd", 5, 5, 156),
        ("quadratic-plus", 2, 8, 135),
        ("quadratic-plus", 2, 4, 9),
        ("quadratic-minus", 2, 4, 5),
        ("quadratic-plus", 3, 6, 130),
        ("quadratic-minus", 3, 6, 112),
    ],
)
def test_quadratic_singular_point_counts(kind, q, dim, singular):
    space = FormedSpace(kind, field_of_order(q), dim)
    assert len(enumerate_points(space, 0)) == singular


def test_norm_class_partition_of_conic_complement():
    # dim-3 parabolic space over GF(3): 13 points = 4 singular + classes
    space = FormedSpace("quadratic-odd", field_of_order(3), 3)
    singular = enumerate_points(space, 0)
    class1 = enumerate_points(space, 1)
    class2 = enumerate_points(space, 2)
    assert len(singular) == 4
    assert len(class1) + len(class2) == 13 - 4
    assert all(space.form_value(p) == 1 for p in class1)
    assert all(space.form_value(p) == 2 for p in class2)
    # the two classes are disjoint as 1-spaces: scaling by any nonzero
    # square keeps the class, so no representative can appear in both
    assert not set(class1) & set(class2)
    assert enumerate_points(space, 0) == singular


def test_symplectic_points():
    space = FormedSpace("symplectic", field_of_order(2), 4)
    assert len(enumerate_points(space, 0)) == 15
    with pytest.raises(ValueError, match="a symplectic space has no nonsingular"):
        enumerate_points(space, 1)


def test_enumerate_points_rejects_bad_filter():
    """A form value is the index of an element of the value field: an int
    in range, and not a bool.  Anything else is refused by name, not
    matched by no point or truncated to an index."""
    odd = FormedSpace("quadratic-odd", field_of_order(3), 5)
    for value in (7, 3, -1, "1", 2.5, True):
        with pytest.raises(ValueError, match=r"form value .* is not in GF\(3\)"):
            enumerate_points(odd, value)
        with pytest.raises(ValueError, match=r"form value .* is not in GF\(3\)"):
            scale_to_value(odd, (1, 0, 0, 0, 0), value)
    assert scale_to_value(odd, (0, 0, 0, 0, 1), 2) is None
    # index 3 lies in the coordinate field GF(9), not in the value field
    with pytest.raises(ValueError, match=r"form value 3 is not in GF\(3\)"):
        enumerate_points(hermitian(3, 3), 3)


# ---------------------------------------------------------------------------
# form algebra
# ---------------------------------------------------------------------------


def test_symplectic_form_is_alternating_and_nondegenerate():
    space = FormedSpace("symplectic", field_of_order(3), 4)
    vectors = list(space.vectors())
    assert all(space.inner(v, v) == 0 for v in vectors)
    e0 = (1, 0, 0, 0)
    f0 = (0, 0, 1, 0)
    assert space.inner(e0, f0) == 1
    assert space.inner(f0, e0) == space.field.neg_table[1]


@pytest.mark.parametrize("kind, q, dim", SMALL_SPACES, ids=SMALL_SPACE_IDS)
def test_form_primitives_match_the_reference_oracles(kind, q, dim):
    """The form as terms and its polarization agree with the form written
    out per kind and with Q(x + y) - Q(x) - Q(y), on every vector against
    every point."""
    space = FormedSpace(kind, field_of_order(q), dim)
    reps = projective_reps(space.field, dim)
    for x in space.vectors():
        assert space.form_value(x) == oracles.form_value_by_kind(space, x), x
        if kind.startswith("quadratic"):
            expected = [oracles.polar_by_difference(space, x, y) for y in reps]
            assert [space.inner(x, y) for y in reps] == expected, x


def test_polar_form_matches_quadratic_difference():
    space = FormedSpace("quadratic-minus", field_of_order(3), 4)
    field = space.field
    add, neg = field.add_table, field.neg_table
    vecs = list(itertools.islice(space.vectors(), 30))
    for x in vecs[::3]:
        for y in vecs[::7]:
            xy = tuple(add[a][b] for a, b in zip(x, y))
            expected = add[space.form_value(xy)][
                neg[add[space.form_value(x)][space.form_value(y)]]
            ]
            assert space.inner(x, y) == expected


def test_half_inner_recovers_form_in_odd_characteristic():
    space = FormedSpace("quadratic-odd", field_of_order(5), 5)
    for vec in itertools.islice(space.vectors(), 1, 200, 7):
        assert space.half_inner(vec, vec) == space.form_value(vec)
    even = FormedSpace("quadratic-plus", field_of_order(2), 4)
    with pytest.raises(ValueError):
        even.half_inner((1, 0, 0, 0), (0, 1, 0, 0))


def test_minus_type_tail_is_anisotropic():
    # the (a, b) tail of a minus-type form never vanishes off (0, 0)
    for q in (2, 3, 4, 5):
        space = FormedSpace("quadratic-minus", field_of_order(q), 4)
        zeros = [0] * (space.dim - 2)
        for a in range(q):
            for b in range(q):
                if (a, b) != (0, 0):
                    assert space.form_value((*zeros, a, b)) != 0


def test_scale_to_value_returns_lex_least():
    """On every point of the small spaces, handed in as its last multiple,
    and for every target value: the root table finds the multiple that
    trying every scalar finds, and the norm classes are the points that
    have one.  A symplectic space, whose points are all singular, refuses
    every nonzero target by name, as enumerate_points does."""
    for kind, q, dim in SMALL_SPACES:
        space = FormedSpace(kind, field_of_order(q), dim)
        last = space.field.mul_table[q - 1]
        reps = projective_reps(space.field, dim)
        multiples = [tuple(last[c] for c in rep) for rep in reps]
        for target in range(space.value_field.q):
            if target and kind == "symplectic":
                message = "a symplectic space has no nonsingular points"
                with pytest.raises(ValueError, match=message):
                    scale_to_value(space, multiples[0], target)
                with pytest.raises(ValueError, match=message):
                    enumerate_points(space, target)
                continue
            expected = [oracles.scale_by_trial(space, r, target) for r in reps]
            got = [scale_to_value(space, vec, target) for vec in multiples]
            assert got == expected, (space, target)
            points = enumerate_points(space, target)
            assert points == [s for s in expected if s], space


# ---------------------------------------------------------------------------
# tangency
# ---------------------------------------------------------------------------


def test_hermitian_line_meets_singular_set_in_1_or_qplus1():
    space = hermitian(3, 3)
    singular = enumerate_points(space, 0)
    nonsingular = oracles.nonsingular_points(space)
    # a line through two singular points carries q+1 of them
    assert line_tangency_count(space, singular[0], singular[1]) == 4
    seen = set()
    for p, q in itertools.islice(
        itertools.combinations(nonsingular[:20], 2), 60
    ):
        seen.add(line_tangency_count(space, p, q))
    assert seen <= {1, 4}
    assert 1 in seen and 4 in seen


def test_line_tangency_rejects_equal_points():
    space = hermitian(3, 3)
    points = oracles.nonsingular_points(space)
    with pytest.raises(ValueError):
        line_tangency_count(space, points[0], points[0])
    # also when handed two different representatives of one 1-space
    field = space.field
    other = tuple(field.mul_table[2][c] for c in points[0])
    with pytest.raises(ValueError):
        line_tangency_count(space, points[0], other)


def test_conic_tangent_and_secant_counts():
    # dim-3 quadratic space over GF(5): lines meet the conic in 0, 1 or 2
    space = FormedSpace("quadratic-odd", field_of_order(5), 3)
    points = oracles.nonsingular_points(space)
    counts = {
        line_tangency_count(space, p, q)
        for p, q in itertools.combinations(points[:12], 2)
    }
    assert counts <= {0, 1, 2}
    assert 2 in counts


# ---------------------------------------------------------------------------
# perp types
# ---------------------------------------------------------------------------


def test_perp_type_split_dim3():
    space = FormedSpace("quadratic-odd", field_of_order(5), 3)
    types = perp_types(space, oracles.nonsingular_points(space))
    assert (types.count("+"), types.count("-")) == (15, 10)


def test_perp_type_split_dim5():
    space = FormedSpace("quadratic-odd", field_of_order(5), 5)
    points = oracles.nonsingular_points(space)
    assert len(points) == 625
    types = perp_types(space, points)
    assert (types.count("+"), types.count("-")) == (325, 300)


def test_perp_type_split_dim3_q3():
    space = FormedSpace("quadratic-odd", field_of_order(3), 3)
    types = perp_types(space, oracles.nonsingular_points(space))
    assert (types.count("+"), types.count("-")) == (6, 3)


def test_perp_type_guards():
    odd2 = FormedSpace("quadratic-odd", field_of_order(2), 7)
    with pytest.raises(ValueError):
        perp_types(odd2, oracles.nonsingular_points(odd2)[:1])
    space = FormedSpace("quadratic-odd", field_of_order(5), 3)
    with pytest.raises(ValueError):
        perp_types(space, enumerate_points(space, 0)[:1])
    plus = FormedSpace("quadratic-plus", field_of_order(5), 4)
    with pytest.raises(ValueError):
        perp_types(plus, oracles.nonsingular_points(plus)[:1])


# ---------------------------------------------------------------------------
# maximal isotropic subspaces
# ---------------------------------------------------------------------------


def test_max_isotropic_sp6_q2():
    space = FormedSpace("symplectic", field_of_order(2), 6)
    subspaces = enumerate_max_isotropic(space)
    assert len(subspaces) == 135
    assert all(len(s) == 3 for s in subspaces)
    assert subspaces == sorted(subspaces)
    sample = subspaces[17]
    for x in sample:
        for y in sample:
            assert space.inner(x, y) == 0


def test_max_isotropic_sp6_q3():
    space = FormedSpace("symplectic", field_of_order(3), 6)
    subspaces = enumerate_max_isotropic(space)
    assert len(subspaces) == 1120
    sample = subspaces[999]
    assert len(sample) == 3
    for vec in geometry._span(space.field, sample):
        for other in sample:
            assert space.inner(vec, other) == 0


def test_max_isotropic_quadratic_counts():
    plus6 = FormedSpace("quadratic-plus", field_of_order(2), 6)
    assert len(enumerate_max_isotropic(plus6)) == 30  # (1+1)(2+1)(4+1)
    odd5 = FormedSpace("quadratic-odd", field_of_order(2), 5)
    generators = enumerate_max_isotropic(odd5)
    assert len(generators) == 15  # (2+1)(4+1)
    assert all(len(g) == 2 for g in generators)
    for g in generators[:4]:
        for vec in geometry._span(field_of_order(2), g):
            assert any(vec) is False or odd5.form_value(vec) == 0


def test_max_isotropic_minus_type_are_singular_points():
    space = FormedSpace("quadratic-minus", field_of_order(2), 4)
    subspaces = enumerate_max_isotropic(space)
    assert all(len(s) == 1 for s in subspaces)
    reps = sorted(s[0] for s in subspaces)
    assert reps == sorted(enumerate_points(space, 0))


def test_max_isotropic_rejects_hermitian():
    with pytest.raises(ValueError):
        enumerate_max_isotropic(hermitian(3, 3))


SUBSPACE_FAMILIES = {
    "3-spaces of F_2^6": (2, lambda field: enumerate_subspaces(field, 6, 3)),
    "3-spaces of F_2^7": (2, lambda field: enumerate_subspaces(field, 7, 3)),
    **{
        f"Sp6({q})": (
            q,
            lambda field: enumerate_max_isotropic(FormedSpace("symplectic", field, 6)),
        )
        for q in (2, 3)
    },
}


def kernel_points(field, subspaces) -> list[tuple[tuple[int, ...], ...]]:
    """The points of each 3-space as the column kernel reads them for the
    meet graphs: representatives, sorted."""
    dim = len(subspaces[0][0])
    reps = projective_reps(field, dim)
    points_of = geometry._subspace_points(field, dim, subspaces)
    return [tuple(sorted(reps[i] for i in ids)) for ids in points_of]


@pytest.mark.parametrize("name", SUBSPACE_FAMILIES)
def test_point_reps_equal_the_normalised_span(name):
    """The points read off the coefficient vectors through the echelon
    basis, by the column kernel over all subspaces at once, are the
    span's nonzero vectors, normalised and deduplicated."""
    q, subspaces = SUBSPACE_FAMILIES[name]
    field = field_of_order(q)
    subspaces = subspaces(field)
    expected = [oracles.point_reps_by_normalising(field, s) for s in subspaces]
    assert kernel_points(field, subspaces) == expected


def test_subspace_point_reps():
    space = FormedSpace("symplectic", field_of_order(3), 6)
    sample = enumerate_max_isotropic(space)[0]
    [reps] = kernel_points(space.field, [sample])
    assert len(reps) == 13  # (27 - 1) / 2
    assert all(next(c for c in r if c) == 1 for r in reps)
    assert reps == oracles.point_reps_by_echelon(space.field, sample)


@pytest.mark.parametrize("q, dim", [(2, 3), (3, 4), (4, 3), (5, 3), (9, 2)])
def test_the_column_kernel_gathers_the_normalised_images(q, dim):
    """On every other projective point of F_q^dim, each of a few linear
    maps (invertible or not) gathers the point the lead-one representative
    of each image names, and -1 where that point is not in the set or the
    image is zero."""
    field = field_of_order(q)
    reps = projective_reps(field, dim)[::2]
    columns = geometry._columns(reps)
    index = geometry._code_index(field, columns)
    assert sorted(index).count(-1) == q**dim - (q - 1) * len(reps)
    zero = [[0] * dim] * dim  # every image is the zero vector, no point
    assert geometry._permutation(field, columns, zero, index) == (-1,) * len(reps)
    for seed in range(6):
        matrix = [
            tuple((seed * 7 + 3 * i + 5 * j + i * j) % q for j in range(dim))
            for i in range(dim)
        ]
        matrix[seed % dim] = tuple((j == seed % dim) * (seed % q) for j in range(dim))
        perm = geometry._permutation(field, columns, matrix, index)
        images = [oracles.image_by_rows(field, matrix, x) for x in reps]
        expected = [  # a zero image is no point
            reps.index(lead_one(field, y)) if any(y) and lead_one(field, y) in reps else -1
            for y in images
        ]
        assert list(perm) == expected


def test_the_code_index_stays_inside_the_vector_cap():
    # 64^4 = 2^24 vectors: refused before the index is allocated
    with pytest.raises(ScaleGuardError, match="F_64\\^4"):
        geometry._code_index(field_of_order(64), [(1,), (0,), (0,), (0,)])


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,count", [(2, 21), (3, 52), (4, 105)])
def test_flag_counts(q, count):
    flags = enumerate_flags(q)
    assert len(flags) == count
    assert len(set(flags)) == count


def test_flags_are_incident_and_ordered():
    flags = enumerate_flags(3)
    field = field_of_order(3)
    add, mul = field.add_table, field.mul_table
    for point, line in flags:
        acc = 0
        for a, b in zip(point, line):
            acc = add[acc][mul[a][b]]
        assert acc == 0
        assert next(c for c in point if c) == 1
        assert next(c for c in line if c) == 1
    assert flags == sorted(flags)
    # each point lies on q+1 lines, each line carries q+1 points
    from collections import Counter

    by_point = Counter(point for point, _ in flags)
    by_line = Counter(line for _, line in flags)
    assert set(by_point.values()) == {4}
    assert set(by_line.values()) == {4}


def test_flag_type():
    """A flag is plain data: the tuple of its point and its line."""
    flag = enumerate_flags(2)[0]
    assert type(flag) is tuple
    assert flag == ((0, 0, 1), (0, 1, 0))


# ---------------------------------------------------------------------------
# lead-1 representatives and reflection groups
# ---------------------------------------------------------------------------


def test_lead_one_scales_the_first_nonzero_coordinate_to_one():
    field = field_of_order(3)
    assert lead_one(field, (0, 2, 1)) == (0, 1, 2)
    assert lead_one(field, (1, 0, 2)) == (1, 0, 2)


def test_the_zero_vector_is_refused_by_name():
    space = FormedSpace("quadratic-odd", field_of_order(3), 5)
    zero = (0,) * 5
    point = enumerate_points(space, 0)[0]
    calls = [
        lambda: lead_one(space.field, (0, 0, 0)),
        lambda: scale_to_value(space, zero, 1),
        lambda: line_tangency_count(space, zero, point),
        lambda: line_tangency_count(space, point, zero),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="zero vector spans no projective point"):
            call()


@pytest.mark.parametrize(
    "space, value",
    [
        (hermitian(3, 3), 1),
        (FormedSpace("quadratic-odd", field_of_order(5), 5), 0),
        (FormedSpace("quadratic-plus", field_of_order(2), 8), 0),
    ],
    ids=["hermitian_3_3", "odd_5_5", "plus_8_2"],
)
def test_reflections_act_transitively_and_one_alone_does_not(space, value):
    points = enumerate_points(space, value)
    action = oracles.reflection_action(space, points)
    assert action.is_transitive()
    single = PermGroupAction(len(points), action.generators[:1])
    with pytest.raises(ValueError, match="not transitive"):
        compute_orbitals(single)


def test_reflections_build_their_action_once_they_span(monkeypatch):
    """The reflections' spans flag turns True, for good, at the first
    vector that completes a spanning set.  A form build tries a prefix of
    the reflections, and makes its permutations, only from there on, one
    more reflection at a time, until a prefix acts transitively: at once
    on O8+(2)'s singular points, on the third prefix at NO(2,3,-)."""
    spaces, tried = [], []

    def recorded(space, points, labels, run=families._reflection_orbitals):
        spaces.append((space, points))
        return run(space, points, labels)

    def named(product, generator, count, labels, run=families._named_orbitals):
        tried.append((count, run(product, generator, count, labels)))
        return tried[-1][1]

    monkeypatch.setattr(families, "_reflection_orbitals", recorded)
    monkeypatch.setattr(families, "_named_orbitals", named)
    for build, prefixes in (
        (lambda: build_polar_complement("O8+", 2), 1),
        (lambda: build_NO(2, 3, "-"), 3),
    ):
        spaces.clear()
        tried.clear()
        build()
        [(space, points)] = spaces
        reflections = geometry._reflections(space, points)
        flags = [s for _, _, s in itertools.islice(reflections, tried[-1][0])]
        first = flags.index(True) + 1
        assert first >= space.dim and all(flags[first - 1 :])
        assert [count for count, _ in tried] == list(range(first, first + prefixes))
        untransitive = [partition is None for _, partition in tried]
        assert untransitive == [True] * (prefixes - 1) + [False]


def test_a_reflection_leaving_the_points_is_named():
    """The first map a form build makes, at the first spanning prefix, is
    the product of the reflections; when the reflections leave the point
    set, that map is the one named."""
    space = hermitian(3, 3)
    points = oracles.nonsingular_points(space)[1:]
    labels = [1] * (len(points) - 1)
    with pytest.raises(
        AssertionError, match="the product of the reflections maps a point outside"
    ):
        families._reflection_orbitals(space, points, labels)


def test_a_symplectic_space_has_no_reflections():
    space = FormedSpace("symplectic", field_of_order(3), 4)
    with pytest.raises(ValueError, match="no reflections"):
        next(geometry._reflections(space, enumerate_points(space, 0)))
