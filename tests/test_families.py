"""Family constructors: closed forms, graphs, and pair classifications."""

import hashlib
import math
import re
import tracemalloc
from fractions import Fraction
from functools import partial, reduce

import oracles
import pytest
from oracles import perp_types

from srgkit.cli import TABLE1_TARGETS
from srgkit.families import (
    _FAMILIES,
    FamilyId,
    ScaleGuardError,
    build_NO,
    build_NU,
    build_dual_polar_sp6,
    build_dual_polar_sp6_dist3,
    build_family,
    build_flag_orbitals,
    build_grassmann,
    build_hamming_orbital,
    build_johnson,
    build_orthogonal_orbitals,
    build_polar_complement,
    build_unitary_orbitals,
    flag_M,
    flag_action,
    gaussian_binomial,
    grassmann_intersection_array,
    hamming_M,
    hamming_classification,
    hamming_srg_criterion,
    params_closed_form,
    parse_family_spec,
)
from srgkit.geometry import (
    FormedSpace,
    enumerate_max_isotropic,
    enumerate_points,
    enumerate_subspaces,
)
from srgkit.gf import field_of_order
from srgkit import families, geometry, graphcore, orbitals
from srgkit.graphcore import (
    Graph,
    IntersectionArray,
    RegularityFailure,
    SrgParams,
    check_drg,
    check_srg,
    to_graph6,
)
from srgkit.orbitals import PermGroupAction, compute_orbitals
from srgkit.schemes import RatFunc, RatPoly, XPoly, _grassmann_array

# ---------------------------------------------------------------------------
# identifiers and parsing
# ---------------------------------------------------------------------------


def test_family_id_normalizes_and_validates():
    fid = FamilyId.make("NU", q=3, n=3)
    assert fid.param("n") == 3 and fid.param("q") == 3
    assert str(fid) == "NU(n=3, q=3)"
    with pytest.raises(ValueError):
        FamilyId.make("NU", n=2, q=3)
    with pytest.raises(ValueError):
        FamilyId.make("NO", m=2, q=4, eps="+")  # even q
    with pytest.raises(ValueError):
        FamilyId.make("NO", m=2, q=5, eps="plus")
    with pytest.raises(ValueError):
        FamilyId.make("johnson", n=6, i=1)
    with pytest.raises(ValueError):
        FamilyId.make("johnson", n=7, i=3)
    with pytest.raises(ValueError):
        FamilyId.make("grassmann", n=5, q=2)
    with pytest.raises(ValueError):
        FamilyId.make("hamming-orbital", d=1, i=2)
    with pytest.raises(ValueError):
        FamilyId.make("nonsense", q=2)
    with pytest.raises(ValueError):
        FamilyId.make("NU", n=3)  # missing q
    with pytest.raises(ValueError, match="q must be a prime power"):
        FamilyId.make("flag-orbital", i=2, q=6)
    with pytest.raises(ValueError, match="q must be a prime power"):
        FamilyId.make("NO", m=2, q=15, eps="+")
    with pytest.raises(ValueError, match="needs m >= 2"):
        FamilyId.make("NO", m=1, q=3, eps="+")
    with pytest.raises(ValueError, match="johnson parameter n needs an int, got 7.0"):
        FamilyId.make("johnson", n=7.0, i=1)
    with pytest.raises(ValueError, match="parameter i needs an int, got True"):
        FamilyId.make("hamming-orbital", d=2, i=True)




def test_parse_family_spec_round_trips():
    assert parse_family_spec("nu:n=3,q=3") == FamilyId.make("NU", n=3, q=3)
    assert parse_family_spec("no:m=2,q=5,eps=+") == FamilyId.make(
        "NO", m=2, q=5, eps="+"
    )
    assert parse_family_spec("polarC:O8+,q=2") == FamilyId.make(
        "polar-complement-O8+", q=2
    )
    assert parse_family_spec("polarC:O7,q=2") == FamilyId.make(
        "polar-complement-O7", q=2
    )
    assert parse_family_spec("sp6:q=2") == FamilyId.make("dual-polar-sp6", q=2)
    assert parse_family_spec("sp6d3:q=3") == FamilyId.make(
        "dual-polar-sp6-dist3", q=3
    )
    assert parse_family_spec("johnson:n=7,i=1") == FamilyId.make(
        "johnson", n=7, i=1
    )
    assert parse_family_spec("hamming:d=4,i=2") == FamilyId.make(
        "hamming-orbital", d=4, i=2
    )
    assert parse_family_spec("grassmann:n=6,q=2") == FamilyId.make(
        "grassmann", n=6, q=2
    )
    # flags default to the middle class
    assert parse_family_spec("flags:q=4") == FamilyId.make(
        "flag-orbital", q=4, i=2
    )


@pytest.mark.parametrize(
    "bad",
    [
        "nu",
        "nu:n=3",
        "nu:n=3,q=3,z=1",
        "nu:n=x,q=3",
        "plancherel:q=2",
        "polarC:q=2",
        "polarC:O9,q=2",
        "no:m=2,q=4,eps=+",
        "johnson:n=7,i=5",
        "nu:n=3,q=3,n=4",
    ],
)
def test_parse_family_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_family_spec(bad)


# ---------------------------------------------------------------------------
# closed-form parameters
# ---------------------------------------------------------------------------


def test_closed_forms_instantiate_exactly():
    assert params_closed_form(
        FamilyId.make("NU", n=3, q=3)
    ).as_tuple() == (63, 32, 16, 16)
    assert params_closed_form(
        FamilyId.make("NU", n=4, q=3)
    ).as_tuple() == (540, 224, 88, 96)
    assert params_closed_form(
        FamilyId.make("NU", n=3, q=4)
    ).as_tuple() == (208, 75, 30, 25)
    assert params_closed_form(
        FamilyId.make("NO", m=2, q=5, eps="+")
    ).as_tuple() == (325, 144, 68, 60)
    assert params_closed_form(
        FamilyId.make("NO", m=2, q=5, eps="-")
    ).as_tuple() == (300, 104, 28, 40)
    assert params_closed_form(
        FamilyId.make("polar-complement-O8+", q=2)
    ).as_tuple() == (135, 64, 28, 32)
    assert params_closed_form(
        FamilyId.make("polar-complement-O7", q=2)
    ).as_tuple() == (63, 32, 16, 16)
    assert params_closed_form(
        FamilyId.make("dual-polar-sp6-dist3", q=2)
    ).as_tuple() == (135, 64, 28, 32)
    assert params_closed_form(
        FamilyId.make("dual-polar-sp6-dist3", q=3)
    ).as_tuple() == (1120, 729, 468, 486)


def test_closed_forms_are_feasible_across_a_range():
    # SrgParams asserts k(k - lam - 1) = (v - k - 1) mu on construction,
    # so instantiating is itself the feasibility check.
    for q in (3, 5, 7, 9):
        for n in (3, 4, 5, 6):
            params_closed_form(FamilyId.make("NU", n=n, q=q))
    for q in (3, 5, 7, 9, 11):
        for m in (2, 3, 4):
            for eps in "+-":
                params_closed_form(FamilyId.make("NO", m=m, q=q, eps=eps))
    for q in (2, 3, 4, 5, 7):
        params_closed_form(FamilyId.make("polar-complement-O8+", q=q))
        params_closed_form(FamilyId.make("polar-complement-O7", q=q))


def _poly_sqrt(p: RatPoly) -> RatPoly | None:
    """The square root of p in Q[q] with positive leading coefficient, or
    None: coefficients from the top down, then one exact check."""
    if p.is_zero() or p.degree % 2 or p.coeffs[-1] < 0:
        return None
    lead = Fraction(p.coeffs[-1])
    d = p.degree // 2
    root = [Fraction(0)] * (d + 1)
    root[d] = Fraction(math.isqrt(lead.numerator), math.isqrt(lead.denominator))
    for j in range(d - 1, -1, -1):
        # q^(d+j) in root^2: 2 root[d] root[j] plus products of known terms
        rest = sum(root[a] * root[d + j - a] for a in range(j + 1, d))
        root[j] = (p.coeffs[d + j] - rest) / (2 * root[d])
    root = RatPoly(root)
    return root if root * root == p else None


_CLOSED_FORMS = (
    [("NU", {"n": n}) for n in range(3, 9)]
    + [("NO", {"m": m, "eps": eps}) for m in range(2, 6) for eps in "+-"]
    + [("polar-complement-O8+", {}), ("polar-complement-O7", {})]
)


@pytest.mark.parametrize(
    "tag, params", _CLOSED_FORMS,
    ids=[tag + "".join(map(str, p.values())) for tag, p in _CLOSED_FORMS],
)
def test_closed_forms_are_feasible_identically_in_q(tag, params):
    # the standard feasibility conditions (Brouwer and Van Maldeghem 2022,
    # ch. 1), as identities of rational functions of q
    v, k, lam, mu = families._srg_closed_form(tag, RatFunc.gen(), **params)
    assert all(x.is_polynomial for x in (v, k, lam, mu))
    assert k * (k - lam - 1) == (v - k - 1) * mu
    root = _poly_sqrt(((lam - mu) ** 2 + 4 * (k - mu)).as_poly())
    assert root is not None
    for sign in (1, -1):
        multiplicity = ((v - 1) - sign * (2 * k + (v - 1) * (lam - mu)) / root) / 2
        assert multiplicity.is_polynomial


def test_poly_sqrt_refuses_non_squares():
    q = RatPoly.gen()
    assert _poly_sqrt((2 * q - 3) ** 2) == 2 * q - 3
    assert _poly_sqrt(q**2 + 1) is None
    assert _poly_sqrt(2 * q**2) is None
    assert _poly_sqrt(-(q**2)) is None


def test_families_without_closed_form_are_rejected():
    with pytest.raises(ValueError):
        params_closed_form(FamilyId.make("grassmann", n=6, q=2))
    with pytest.raises(ValueError):
        params_closed_form(FamilyId.make("johnson", n=7, i=1))


# ---------------------------------------------------------------------------
# gaussian binomials
# ---------------------------------------------------------------------------


def brute_subspace_count(n: int, k: int, q: int) -> int:
    """Count k-subspaces of F_q^n by enumerating independent k-tuples."""
    import itertools

    field = field_of_order(q)
    add, mul = field.add_table, field.mul_table
    vectors = list(itertools.product(range(q), repeat=n))

    def span(rows):
        acc = {(0,) * n}
        for row in rows:
            acc = {
                tuple(add[v[i]][mul[c][row[i]]] for i in range(n))
                for v in acc
                for c in range(q)
            }
        return frozenset(acc)

    tuples = 0
    for rows in itertools.permutations(vectors[1:], k):
        if len(span(rows)) == q**k:
            tuples += 1
    ordered_bases = 1
    for i in range(k):
        ordered_bases *= q**k - q**i
    assert tuples % ordered_bases == 0
    return tuples // ordered_bases


@pytest.mark.parametrize("n,k,q", [(3, 1, 2), (3, 2, 2), (4, 2, 2), (3, 2, 3)])
def test_gaussian_binomial_against_brute_count(n, k, q):
    assert gaussian_binomial(n, k, q) == brute_subspace_count(n, k, q)


def test_gaussian_binomial_edges():
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(5, 5, 3) == 1
    assert gaussian_binomial(5, 6, 3) == 0
    assert gaussian_binomial(6, 3, 2) == 1395


# ---------------------------------------------------------------------------
# generalized Johnson graphs
# ---------------------------------------------------------------------------


def test_johnson_one_point_meets_are_strongly_regular():
    assert check_srg(build_johnson(7, 1)) == SrgParams(35, 18, 9, 9)
    assert check_srg(build_johnson(10, 1)) == SrgParams(120, 63, 30, 36)


def test_johnson_other_classes_are_distance_regular_not_srg():
    two = check_drg(build_johnson(7, 2))
    assert two == IntersectionArray((12, 6, 2), (1, 4, 9))
    zero = check_drg(build_johnson(7, 0))
    assert zero == IntersectionArray((4, 3, 3), (1, 1, 2))
    assert isinstance(check_srg(build_johnson(7, 2)), RegularityFailure)


# ---------------------------------------------------------------------------
# word-distance classification (length-3 words)
# ---------------------------------------------------------------------------


def test_hamming_matrix_closed_form_matches_direct_count():
    for d in (2, 3, 4, 5):
        m = hamming_M(d)
        cls = hamming_classification(d)
        counted = tuple(
            tuple(int(cls.tensor.p[i][j][j]) for j in (1, 2, 3))
            for i in (1, 2, 3)
        )
        assert counted == m
        assert cls.suborbit_lengths == {
            1: 3 * (d - 1),
            2: 3 * (d - 1) ** 2,
            3: (d - 1) ** 3,
        }


def test_hamming_matrix_values_at_four_letters():
    assert hamming_M(4) == ((2, 12, 18), (2, 10, 12), (0, 12, 8))


def test_hamming_srg_criterion_singles_out_d_four():
    assert [d for d in range(3, 13) if hamming_srg_criterion(d)] == [4]
    # two letters satisfy the count identity too, but the distance-2
    # graph is a disjoint union there, not strongly regular
    assert hamming_srg_criterion(2)
    failure = check_srg(build_hamming_orbital(2, 2))
    assert isinstance(failure, RegularityFailure)
    assert "disconnected" in failure.reason


@pytest.mark.parametrize("d", range(2, 9))
def test_hamming_classes_match_the_pair_by_pair_oracle(d):
    assert hamming_classification(d).partition.class_of == oracles.word_pair_classes(d)


def test_hamming_distance_two_graph_at_four_letters():
    assert check_srg(build_hamming_orbital(4, 2)) == SrgParams(64, 27, 10, 12)


def test_hamming_distance_two_fails_off_four_letters():
    for d in (3, 5):
        assert isinstance(check_srg(build_hamming_orbital(d, 2)), RegularityFailure)


# ---------------------------------------------------------------------------
# flags of the projective plane
# ---------------------------------------------------------------------------


def test_flag_matrix_closed_form_values():
    assert flag_M(4) == ((3, 12, 48), (1, 4, 36), (0, 12, 39))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_flag_classification_structure(q):
    # the builder itself checks that the base-row labels name the group
    # orbitals one to one and the direct-count tensor against the
    # closed-form matrix
    cls = build_flag_orbitals(q)
    assert len(cls.points) == (q * q + q + 1) * (q + 1)
    assert cls.labels == (1, 2, 3)
    assert (
        cls.suborbit_lengths[1],
        cls.suborbit_lengths[2],
        cls.suborbit_lengths[3],
    ) == (2 * q, 2 * q * q, q**3)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_flag_classes_match_the_pair_by_pair_oracle(q):
    cls = build_flag_orbitals(q)
    assert cls.partition.class_of == oracles.flag_pair_classes(q)


def test_flag_relation_is_evaluated_on_the_base_row_only(monkeypatch):
    calls = []
    label = families._flag_pair_label

    def counted(*args):
        calls.append(args)
        return label(*args)

    monkeypatch.setattr(families, "_flag_pair_label", counted)
    cls = build_flag_orbitals(7)
    n = len(cls.points)
    assert n == 456 and len(calls) == n - 1
    assert [other for _, flag, other in calls] == list(cls.points[1:])
    assert {flag for _, flag, _ in calls} == {cls.points[0]}


def test_flag_labels_must_name_the_orbits_one_to_one(monkeypatch):
    # labels 2 and 3 merged: two orbits carry label 2, none carries 3
    label = families._flag_pair_label
    monkeypatch.setattr(
        families, "_flag_pair_label", lambda *args: min(label(*args), 2)
    )
    with pytest.raises(ValueError, match="labels do not name the pair orbits one to one"):
        build_flag_orbitals(3)


def test_flag_action_names_a_generator_that_leaves_the_flags(monkeypatch):
    # the scaling's images of the points (0:0:1) and (0:1:0) are swapped
    # and its line images kept (A^-T differs from A at q = 5), so a flag on
    # (0:0:1) goes to a point and a line that miss each other: no flag
    g, run = field_of_order(5).primitive, families._permutation

    def planted(field, columns, matrix, index):
        perm = run(field, columns, matrix, index)
        if matrix == [[g, 0, 0], [0, 1, 0], [0, 0, 1]]:
            perm = (perm[1], perm[0]) + perm[2:]
        return perm

    monkeypatch.setattr(families, "_permutation", planted)
    with pytest.raises(AssertionError, match="the scaling generator maps a flag"):
        flag_action(5)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_flag_action_is_the_action_made_point_by_point(q):
    """Each generator, a gather through the plane's code index and the
    flag index point * m + line, is the permutation the lead-one
    representatives of each flag's images name."""
    assert flag_action(q).generators == oracles.flag_action_generators(q)


def test_flag_action_is_transitive_of_rank_four():
    action = flag_action(3)
    assert action.is_transitive()
    assert compute_orbitals(action).rank == 4


def test_flag_middle_class_at_q_four_is_strongly_regular():
    cls = build_flag_orbitals(4)
    assert check_srg(cls.graphs[2]) == SrgParams(105, 32, 4, 12)
    # the other two classes are not
    assert isinstance(check_srg(cls.graphs[1]), RegularityFailure)
    assert isinstance(check_srg(cls.graphs[3]), RegularityFailure)


# ---------------------------------------------------------------------------
# nonisotropic unitary graphs
# ---------------------------------------------------------------------------


def test_unitary_tangency_graph_small():
    g = build_NU(3, 3)
    assert check_srg(g) == SrgParams(63, 32, 16, 16)


@pytest.mark.parametrize("n, q", [(3, 2), (3, 3), (3, 4), (4, 2), (5, 2)])
def test_unitary_tangency_graph_matches_line_enumeration(n, q):
    space = FormedSpace("hermitian", field_of_order(q * q), n)
    expected = oracles.tangency_graph(space, oracles.nonsingular_points(space))
    graph = build_NU(n, q)
    assert graph.rows == expected.rows


def test_unitary_classification_at_q3():
    cls = build_unitary_orbitals(3, 3)
    assert cls.labels == (0, 1, 2)
    assert cls.suborbit_lengths == {0: 6, 1: 32, 2: 24}
    # the tangency class is exactly the norm-one class
    assert cls.graphs[1] == build_NU(3, 3)
    # perpendicularity and the remaining class are not strongly regular
    zero = check_srg(cls.graphs[0])
    assert isinstance(zero, RegularityFailure) and zero.witness is not None
    omega = check_srg(cls.graphs[2])
    assert isinstance(omega, RegularityFailure) and omega.witness is not None


def test_unitary_classification_at_q4():
    cls = build_unitary_orbitals(3, 4)
    assert cls.labels == (0, 1, 2, 3)
    assert cls.suborbit_lengths == {0: 12, 1: 75, 2: 60, 3: 60}
    assert check_srg(cls.graphs[1]) == SrgParams(208, 75, 30, 25)


def test_unitary_four_dimensional():
    cls = build_unitary_orbitals(4, 3)
    assert cls.suborbit_lengths == {0: 63, 1: 224, 2: 252}
    assert check_srg(cls.graphs[1]) == SrgParams(540, 224, 88, 96)
    assert isinstance(check_srg(cls.graphs[0]), RegularityFailure)
    assert isinstance(check_srg(cls.graphs[2]), RegularityFailure)


# ---------------------------------------------------------------------------
# nonisotropic orthogonal graphs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, q", [(3, 3), (3, 4), (4, 3)])
def test_unitary_classes_match_the_pair_by_pair_oracle(n, q):
    cls = build_unitary_orbitals(n, q)
    space = FormedSpace("hermitian", field_of_order(q * q), n)
    assert cls.partition.class_of == oracles.form_pair_classes(space, cls.points)


def test_orthogonal_tangency_graphs_match_closed_forms():
    assert check_srg(build_NO(2, 5, "+")) == SrgParams(325, 144, 68, 60)
    assert check_srg(build_NO(2, 5, "-")) == SrgParams(300, 104, 28, 40)


def _least_nonsquare(space):
    return next(
        s for s in range(2, space.field.q)
        if oracles.quadratic_character(space.field, s) == -1
    )


def _orthogonal_square_class(m, q, eps):
    """The space and the square class of nonsingular points whose
    perpendicular space has type eps, at representatives of form value 1
    or of the least non-square."""
    space = FormedSpace("quadratic-odd", field_of_order(q), 2 * m + 1)
    for value in (1, _least_nonsquare(space)):
        points = enumerate_points(space, value)
        if perp_types(space, points[:1]) == [eps]:
            return space, points
    raise AssertionError(f"no square class of type {eps}")


@pytest.mark.parametrize(
    "m, q", [(1, 3), (1, 5), (1, 7), (2, 3), (2, 5), (2, 7), (3, 3)]
)
def test_form_value_one_has_plus_type_and_the_least_nonsquare_minus(m, q):
    # the orthogonal builders choose their square class by this rule
    space = FormedSpace("quadratic-odd", field_of_order(q), 2 * m + 1)
    for eps, value in (("+", 1), ("-", _least_nonsquare(space))):
        points = enumerate_points(space, value)
        assert set(perp_types(space, points)) == {eps}


@pytest.mark.parametrize("m, q", [(2, 3), (2, 5), (2, 7), (3, 3)])
@pytest.mark.parametrize("eps", ["+", "-"])
def test_orthogonal_points_are_the_square_class_of_that_type(m, q, eps):
    _, points = _orthogonal_square_class(m, q, eps)
    assert build_orthogonal_orbitals(m, q, eps).points == tuple(points)


@pytest.mark.parametrize("q, eps", [(3, "+"), (3, "-"), (5, "+"), (5, "-")])
def test_orthogonal_tangency_graph_matches_line_enumeration(q, eps):
    space, points = _orthogonal_square_class(2, q, eps)
    expected = oracles.tangency_graph(space, points)
    graph = build_NO(2, q, eps)
    assert graph.rows == expected.rows


def test_orthogonal_classification_both_types():
    plus = build_orthogonal_orbitals(2, 5, "+")
    assert plus.labels == (0, 1, 2)
    assert tuple(int(x) for x in plus.tensor.k) == (1, 60, 144, 120)
    assert plus.graphs[1] == build_NO(2, 5, "+")
    minus = build_orthogonal_orbitals(2, 5, "-")
    assert tuple(int(x) for x in minus.tensor.k) == (1, 65, 104, 130)
    assert minus.graphs[1] == build_NO(2, 5, "-")
    # the default class is the one whose points have form value one
    assert build_orthogonal_orbitals(2, 5).points == plus.points


@pytest.mark.parametrize(
    "m, q, eps",
    [
        pytest.param(2, q, eps, id=f"{q}-{eps}")
        for q, eps in [(3, "+"), (3, "-"), (5, "+"), (5, "-"), (7, "+")]
    ]
    + [(3, 3, "+"), (3, 3, "-")],
)
def test_orthogonal_classes_match_the_pair_by_pair_oracle(m, q, eps):
    cls = build_orthogonal_orbitals(m, q, eps)
    space = FormedSpace("quadratic-odd", field_of_order(q), 2 * m + 1)
    assert cls.partition.class_of == oracles.form_pair_classes(space, cls.points)


def test_orthogonal_perpendicularity_is_strongly_regular_at_q5():
    # both perpendicularity classes happen to be strongly regular here:
    # the tangency class is not the only one
    plus = build_orthogonal_orbitals(2, 5, "+")
    assert check_srg(plus.graphs[0]) == SrgParams(325, 60, 15, 10)
    minus = build_orthogonal_orbitals(2, 5, "-")
    assert check_srg(minus.graphs[0]) == SrgParams(300, 65, 10, 15)


def test_orthogonal_remaining_class_fails_with_witness():
    plus = build_orthogonal_orbitals(2, 5, "+")
    failure = check_srg(plus.graphs[2])
    assert isinstance(failure, RegularityFailure)
    assert failure.witness == (0, 29)
    assert (failure.expected, failure.found) == (45, 40)
    minus = build_orthogonal_orbitals(2, 5, "-")
    failure = check_srg(minus.graphs[2])
    assert isinstance(failure, RegularityFailure)
    assert failure.witness == (0, 10)
    assert (failure.expected, failure.found) == (60, 55)


def test_orthogonal_small_case_q3():
    # 5-dimensional space over three letters: 45 + 36 points
    plus = build_NO(2, 3, "+")
    assert check_srg(plus) == SrgParams(45, 32, 22, 24)
    minus = build_NO(2, 3, "-")
    assert check_srg(minus) == SrgParams(36, 20, 10, 12)


# ---------------------------------------------------------------------------
# polar-graph complements
# ---------------------------------------------------------------------------


def test_polar_complements_at_q2():
    assert check_srg(build_polar_complement("O8+", 2)) == SrgParams(
        135, 64, 28, 32
    )
    assert check_srg(build_polar_complement("O7", 2)) == SrgParams(
        63, 32, 16, 16
    )


@pytest.mark.parametrize("kind, q", [("O7", 2), ("O7", 3), ("O8+", 2)])
def test_polar_complement_matches_the_form_on_every_pair(kind, q):
    form, dim = ("quadratic-odd", 7) if kind == "O7" else ("quadratic-plus", 8)
    space = FormedSpace(form, field_of_order(q), dim)
    points = enumerate_points(space, 0)
    expected = oracles.polar_complement_by_form(space, points)
    graph = build_polar_complement(kind, q)
    assert graph.rows == expected.rows


def test_polar_complement_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_polar_complement("O9", 2)


# ---------------------------------------------------------------------------
# dual polar graphs of the 6-dimensional symplectic space
# ---------------------------------------------------------------------------


def test_dual_polar_sp6_q2_is_distance_regular():
    g = build_dual_polar_sp6(2)
    assert g.n == 135
    assert check_drg(g) == IntersectionArray((14, 12, 8), (1, 3, 7))


def test_dual_polar_sp6_matches_the_meet_by_rank():
    field = field_of_order(2)
    subspaces = enumerate_max_isotropic(FormedSpace("symplectic", field, 6))
    expected = oracles.meet_graph_by_rank(field, subspaces)
    graph = build_dual_polar_sp6(2)
    assert graph.rows == expected.rows


def test_dual_polar_distance_three_matches_closed_form():
    g3 = build_dual_polar_sp6_dist3(2)
    expected = params_closed_form(FamilyId.make("dual-polar-sp6-dist3", q=2))
    assert check_srg(g3) == expected


# ---------------------------------------------------------------------------
# Grassmann graphs of 3-subspaces
# ---------------------------------------------------------------------------


def test_grassmann_array_formula_small():
    ia = grassmann_intersection_array(6, 2)
    assert ia.b == (98, 72, 32)
    assert ia.c == (1, 9, 49)
    ia = grassmann_intersection_array(7, 2)
    assert ia.c == (1, 9, 49)
    with pytest.raises(ValueError):
        grassmann_intersection_array(5, 2)


def test_grassmann_array_function_matches_gaussian_binomials():
    # the one statement, read at Fractions and in X = q^n, against the array
    # written out with Gaussian binomials
    b_sym, c_sym = _grassmann_array(RatFunc.gen(), XPoly.gen())
    for n in range(6, 10):
        for q in range(2, 6):
            def gauss1(j):
                return gaussian_binomial(j, 1, q)

            expected = IntersectionArray(
                tuple(q ** (2 * i + 1) * gauss1(3 - i) * gauss1(n - 3 - i) for i in range(3)),
                tuple(gauss1(i) ** 2 for i in (1, 2, 3)),
            )
            assert grassmann_intersection_array(n, q) == expected
            assert tuple(b.evaluate(q, q**n) for b in b_sym) == expected.b
            assert tuple(c.evaluate(q) for c in c_sym) == expected.c


def test_grassmann_graph_matches_formula():
    g = build_grassmann(6, 2)
    assert g.n == gaussian_binomial(6, 3, 2) == 1395
    assert check_drg(g) == grassmann_intersection_array(6, 2)


# ---------------------------------------------------------------------------
# scale guard and dispatch
# ---------------------------------------------------------------------------


def pair_cap_refusal(n: int) -> str:
    return (
        f"the pair partition of {n} points has size {n * n}, "
        "over the desk-scale limit of 67108864"
    )


def test_scale_guard_reports_prediction(monkeypatch):
    with pytest.raises(ScaleGuardError) as info:
        build_grassmann(7, 2)
    assert (info.value.predicted_v, info.value.max_v) == (11811**2, 1 << 26)
    # the field-table and vector caps raise the same type
    with pytest.raises(ScaleGuardError) as info:
        field_of_order(1031)
    assert (info.value.predicted_v, info.value.max_v) == (1031, 1024)
    with pytest.raises(ScaleGuardError) as info:
        enumerate_subspaces(field_of_order(8), 7, 3)
    assert (info.value.predicted_v, info.value.max_v) == (8**7, 1 << 20)
    # the pair cap reads the shared closed forms: v from the NU and
    # sp6-dist3 forms, 1 + the sum of the flag and of the Hamming valencies
    for build, v in (
        (partial(build_NU, 3, 3), 63),
        (partial(build_dual_polar_sp6, 2), 135),
        (partial(build_flag_orbitals, 3), 52),
        (partial(hamming_classification, 4), 64),
    ):
        monkeypatch.setattr(graphcore, "_PAIR_CAP", v * v)
        build()  # exactly at the cap is allowed
        monkeypatch.setattr(graphcore, "_PAIR_CAP", v * v - 1)
        with pytest.raises(ScaleGuardError) as info:
            build()
        assert info.value.predicted_v == v * v


def test_meet_graph_sizes_stay_in_their_byte():
    # q^2 + q + 1 = 273 would carry out of a byte: the vector cap refuses
    # F_16^6 ahead of the pair cap
    with pytest.raises(ScaleGuardError, match="F_16\\^6"):
        build_grassmann(6, 16)
    with pytest.raises(ScaleGuardError, match="F_16\\^6"):
        build_dual_polar_sp6(16)


def test_meet_graphs_refuse_the_pair_cap_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated past the pair cap")

    monkeypatch.setattr(families, "enumerate_subspaces", refuse)
    monkeypatch.setattr(families, "enumerate_max_isotropic", refuse)
    for build, args, n in (
        (build_grassmann, (6, 3), 33880),
        (build_grassmann, (7, 2), 11811),
        (build_dual_polar_sp6, (5,), 19656),
        (build_dual_polar_sp6_dist3, (5,), 19656),
    ):
        with pytest.raises(ScaleGuardError) as info:
            build(*args)
        assert str(info.value) == pair_cap_refusal(n)


def test_form_builds_refuse_the_scale_caps_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated past a scale cap")

    monkeypatch.setattr(families, "enumerate_points", refuse)
    for build, args, n in (
        (build_NO, (3, 7, "+"), 58996),
        (build_NU, (5, 4), 52480),
        (build_polar_complement, ("O8+", 5), 19656),
        (build_polar_complement, ("O7", 7), 19608),
        (build_unitary_orbitals, (5, 4), 52480),
        (build_orthogonal_orbitals, (3, 7, "+"), 58996),
        (build_orthogonal_orbitals, (3, 7, "-"), 58653),
    ):
        with pytest.raises(ScaleGuardError) as info:
            build(*args)
        assert str(info.value) == pair_cap_refusal(n)


def test_flag_builds_refuse_the_pair_cap_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated past the pair cap")

    monkeypatch.setattr(families, "enumerate_flags", refuse)
    n = 90 * 8011  # (q + 1)(q^2 + q + 1) flags at q = 89
    flag_graph = FamilyId.make("flag-orbital", i=2, q=89)
    for build in (partial(build_flag_orbitals, 89), partial(build_family, flag_graph)):
        with pytest.raises(ScaleGuardError) as info:
            build()
        assert str(info.value) == pair_cap_refusal(n)


@pytest.mark.parametrize(
    "build, n",
    [
        (partial(build_johnson, 100, 1), 161700),
        (partial(hamming_classification, 60), 216000),
        (partial(build_hamming_orbital, 60, 1), 216000),
    ],
)
def test_set_and_word_builds_refuse_the_pair_cap_before_listing(build, n):
    """The 3-sets and the words come from ``itertools``, so listing them
    before the refusal shows in the allocation peak: 35 MiB for J(100, 3)
    and 70 MiB for the words over 60 letters."""
    tracemalloc.start()
    try:
        with pytest.raises(ScaleGuardError) as info:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == pair_cap_refusal(n)
    assert peak < 1 << 20


def test_every_form_build_scans_the_projective_space_once(monkeypatch):
    calls = []
    reps = geometry.projective_reps

    def counted(field, n):
        calls.append(n)
        return reps(field, n)

    monkeypatch.setattr(geometry, "projective_reps", counted)
    for build in (
        lambda: build_NU(3, 3),
        lambda: build_NO(2, 3, "-"),
        lambda: build_polar_complement("O7", 2),
        lambda: build_unitary_orbitals(3, 3),
        lambda: build_orthogonal_orbitals(2, 3, "-"),
    ):
        calls.clear()
        build()
        assert len(calls) == 1
    for kind, q, dim, value in (("hermitian", 9, 3, 1), ("quadratic-plus", 2, 8, 0)):
        space = FormedSpace(kind, field_of_order(q), dim)
        points = enumerate_points(space, value)
        calls.clear()
        list(geometry._reflections(space, points))
        assert calls == []


TWO_GENERATOR_BUILDS = {
    **{
        f"NU({n},{q})": partial(build_unitary_orbitals, n, q)
        for n, q in ((3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (5, 2))
    },
    **{
        f"NO({m},{q},{eps})": partial(build_orthogonal_orbitals, m, q, eps)
        for m, q in ((2, 3), (2, 5), (2, 7), (3, 3))
        for eps in "+-"
    },
    **{
        f"polar {kind}({q})": partial(build_polar_complement, kind, q)
        for kind in ("O7", "O8+")
        for q in (2, 3)
    },
    **{f"flags({q})": partial(build_flag_orbitals, q) for q in (2, 3, 4, 5, 7)},
    **{f"H(3,{d})": partial(hamming_classification, d) for d in (2, 3, 4, 5, 8)},
}


FORM_BUILDS = {
    name: build
    for name, build in TWO_GENERATOR_BUILDS.items()
    if not name.startswith(("flags", "H("))
}


def record_form_spaces(monkeypatch) -> list[tuple]:
    """(space, points, labels) of each form build's pair orbits from here on."""
    spaces = []

    def recorded(space, points, labels, run=families._reflection_orbitals):
        spaces.append((space, points, tuple(labels)))
        return run(*spaces[-1])

    monkeypatch.setattr(families, "_reflection_orbitals", recorded)
    return spaces


@pytest.mark.parametrize(
    "build", TWO_GENERATOR_BUILDS.values(), ids=TWO_GENERATOR_BUILDS
)
def test_family_orbits_are_certified_on_two_generators(monkeypatch, build):
    """Each builder runs compute_orbitals once, on two generators, and the
    partition equals the one certified on every generator of the group:
    reflection_action's, for a form build."""
    named, runs = [], []

    def recorded(action, labels, run=families._two_generator_orbitals):
        named.append((action, tuple(labels)))
        return run(*named[-1])

    def counted(action, labels=None, run=compute_orbitals):
        runs.append((len(action.generators), run(action, labels)))
        return runs[-1][1]

    spaces = record_form_spaces(monkeypatch)
    monkeypatch.setattr(families, "_two_generator_orbitals", recorded)
    monkeypatch.setattr(orbitals, "compute_orbitals", counted)
    build()
    if spaces:  # a form build, whose group is reflection_action's
        [(space, points, labels)] = spaces
        named = [(oracles.reflection_action(space, points), labels)]
    [(action, labels)], [(generators, partition)] = named, runs
    every_generator = compute_orbitals(action, labels)
    assert generators == 2 < len(action.generators)
    assert partition == every_generator
    assert partition.certificate == every_generator.certificate == "group-orbitals"


def record_prefixes(monkeypatch) -> list[tuple]:
    """(P, reflection, count, partition) of each prefix a form build tries
    from here on: its product and its reflections' permutations as the
    build makes them, and the certified orbits, or None."""
    prefixes = []

    def recorded(product, generator, count, labels, run=families._named_orbitals):
        partition = run(product, generator, count, labels)
        prefixes.append((product, generator, count, partition))
        return partition

    monkeypatch.setattr(families, "_named_orbitals", recorded)
    return prefixes


@pytest.mark.parametrize("build", FORM_BUILDS.values(), ids=FORM_BUILDS)
def test_spanning_reflections_are_the_reflection_action(monkeypatch, build):
    """On every desk-scale form space each prefix of the reflections that
    a build tries is a prefix of oracles.reflection_action's generators:
    each permutation made on demand is that generator, and P made from the
    composed linear map is the gather product of the prefix.  Only the
    last prefix acts transitively, and it is all of them."""
    spaces, prefixes = record_form_spaces(monkeypatch), record_prefixes(monkeypatch)
    build()
    [(space, points, _)] = spaces
    generators = oracles.reflection_action(space, points).generators
    for product, reflection, count, partition in prefixes:
        prefix = generators[:count]
        assert tuple(map(reflection, range(count))) == prefix
        assert product == reduce(lambda a, b: tuple(b[x] for x in a), prefix)
        assert (partition is not None) == (prefix == generators)
    assert prefixes[-1][2] == len(generators)


def test_the_partner_search_stops_when_the_generators_are_not_transitive(
    monkeypatch,
):
    """At NO(2,3,-) the six spanning reflections are not transitive
    together, and neither are the first seven, so no partner can make a
    transitive pair with their product: each of those prefixes tries its
    single partners, then its reflections once, and none of the product
    partners.  The prefix of eight is transitive with P and its first
    reflection, and stops there."""
    searches, calls = [], []

    def counted(action, run=PermGroupAction.is_transitive):
        searches.append(len(action.generators))
        return run(action)

    def recorded(product, generator, count, labels, run=families._named_orbitals):
        searches.clear()
        partition = run(product, generator, count, labels)
        calls.append((count, partition is None, list(searches)))
        return partition

    monkeypatch.setattr(PermGroupAction, "is_transitive", counted)
    monkeypatch.setattr(families, "_named_orbitals", recorded)
    build_orthogonal_orbitals(2, 3, "-")
    assert calls == [
        (6, True, [2] * 6 + [6]),
        (7, True, [2] * 7 + [7]),
        (8, False, [2]),
    ]


# the permutations of the point set each form build makes, its products
# P and its reflections together: one gather of the kernel for each
PERMUTATIONS_MADE = {
    "NU(3,3)": (partial(build_NU, 3, 3), 2),
    "NU(3,4)": (partial(build_NU, 3, 4), 2),
    "NU(4,3)": (partial(build_NU, 4, 3), 2),
    "unitary(4,3)": (partial(build_unitary_orbitals, 4, 3), 2),
    "orthogonal(2,5,+)": (partial(build_orthogonal_orbitals, 2, 5, "+"), 7),
    "orthogonal(2,5,-)": (partial(build_orthogonal_orbitals, 2, 5, "-"), 3),
    "orthogonal(2,7,+)": (partial(build_orthogonal_orbitals, 2, 7, "+"), 2),
    "NO(2,5,+)": (partial(build_NO, 2, 5, "+"), 7),
    "NO(2,5,-)": (partial(build_NO, 2, 5, "-"), 3),
    "polar O7(2)": (partial(build_polar_complement, "O7", 2), 13),
    "polar O8+(2)": (partial(build_polar_complement, "O8+", 2), 13),
    "polar O8+(3)": (partial(build_polar_complement, "O8+", 3), 11),
    # P of 6, 7 and 8 reflections and the first seven reflections, each once
    "NO(2,3,-)": (partial(build_NO, 2, 3, "-"), 10),
}


def record_permutations(monkeypatch) -> list[tuple]:
    """(matrix, permutation) of each permutation the kernel makes for
    families from here on."""
    made = []

    def recorded(field, columns, matrix, index, run=families._permutation):
        made.append((matrix, run(field, columns, matrix, index)))
        return made[-1][1]

    monkeypatch.setattr(families, "_permutation", recorded)
    return made


@pytest.mark.parametrize("name", PERMUTATIONS_MADE)
def test_each_form_build_makes_each_permutation_once(monkeypatch, name):
    build, made = PERMUTATIONS_MADE[name]
    spaces, calls = record_form_spaces(monkeypatch), record_permutations(monkeypatch)
    build()
    [(_, points, _)] = spaces
    assert len(calls) == made
    assert all(len(perm) == len(points) for _, perm in calls)


@pytest.mark.parametrize("name", PERMUTATIONS_MADE)
def test_each_permutation_is_the_one_made_point_by_point(monkeypatch, name):
    """Every reflection and product P a form build makes through the
    column kernel is the permutation that normalising each image to its
    lead-one representative gives."""
    build, made = PERMUTATIONS_MADE[name]
    spaces, calls = record_form_spaces(monkeypatch), record_permutations(monkeypatch)
    build()
    [(space, points, _)] = spaces
    for matrix, perm in calls:
        assert perm == oracles.permutation_by_normalising(space.field, points, matrix)


def test_meet_graph_points_are_the_normalised_spans(monkeypatch):
    """The points of every 3-space of Grassmann(6,2), Sp6(2) and Sp6(3),
    read off the kernel's columns over all subspaces, are its span's
    nonzero vectors normalised to lead-one representatives."""
    seen = []

    def recorded(field, ambient_dim, subspaces, run=families._subspace_points):
        seen.append((field, ambient_dim, subspaces, run(field, ambient_dim, subspaces)))
        return seen[-1][3]

    monkeypatch.setattr(families, "_subspace_points", recorded)
    build_grassmann(6, 2), build_dual_polar_sp6(2), build_dual_polar_sp6(3)
    assert [len(subspaces) for _, _, subspaces, _ in seen] == [1395, 135, 1120]
    for field, dim, subspaces, points_of in seen:
        reps = geometry.projective_reps(field, dim)
        for s, ids in zip(subspaces, points_of):
            found = tuple(sorted(reps[i] for i in ids))
            assert found == oracles.point_reps_by_normalising(field, s)


def test_meet_graph_refuses_a_subspace_with_dependent_rows():
    field = field_of_order(2)
    good = enumerate_subspaces(field, 6, 3)[:2]
    r = good[1]
    bad = (r[0], r[1], tuple(a ^ b for a, b in zip(r[0], r[1])))
    # <r0, r1, r0 + r1> is a 2-space: 3 distinct points, not 7
    message = re.escape(f"the 3-space {bad} has 3 points")
    with pytest.raises(AssertionError, match=message):
        families._meet_graph(field, 6, [good[0], bad])
    repeated = (r[0], r[0], r[1])  # <r0, r1> again, a zero image
    message = re.escape(f"the 3-space {repeated} has 3 points")
    with pytest.raises(AssertionError, match=message):
        families._meet_graph(field, 6, [good[0], repeated])


def test_meet_graphs_pass_graph_validation():
    # the meet graphs skip Graph's per-edge check; run it here on every
    # ordered pair
    for g in (build_grassmann(6, 2), build_dual_polar_sp6(2), build_dual_polar_sp6(3)):
        assert Graph(g.rows) == g


def test_build_family_dispatches_every_graph_tag():
    cases = [
        ("johnson:n=7,i=1", 35),
        ("hamming:d=4,i=2", 64),
        ("flags:q=4", 105),
        ("nu:n=3,q=3", 63),
        ("no:m=2,q=3,eps=-", 36),
        ("polarC:O7,q=2", 63),
        ("polarC:O8+,q=2", 135),
        ("sp6:q=2", 135),
        ("sp6d3:q=2", 135),
        ("grassmann:n=6,q=2", 1395),
    ]
    for text, v in cases:
        g = build_family(parse_family_spec(text))
        assert g.n == v, text


# SHA-256 of each graph's graph6 text.  graph6 writes the adjacency in
# vertex order, so a digest pins which point, subspace, flag, word or
# 3-set is vertex i, not only the graph up to isomorphism.
VERTEX_ORDER_DIGESTS = {
    "johnson:n=7,i=1": (
        "224bf2bdc52c7f730c8bf3ee045ca082ff66d6ba84fcccfd9198bf2b524512b7"
    ),
    "johnson:n=10,i=1": (
        "8fd9941e60fc25dc8d6169331d2b82357d937ac5b9e95a1e44c9fcd1932c456a"
    ),
    "flags:q=4": (
        "ebb1a6b8f9cff83ab79df889970a346c63234b1b93a87e7d5c449bfc5faa2575"
    ),
    "hamming:d=4,i=2": (
        "0d8710302cb91b8ab9af1b014fe4eb101271b249af076629f1d8bc44f516f1e5"
    ),
    "nu:n=3,q=3": (
        "63a52a365523f16d6c71fcce38e77828ad062ccdcb3f3d922b54cd78c6cd3b6d"
    ),
    "nu:n=3,q=4": (
        "7d9d78f230e5c9eddf1eb7cca41b19ee845da38ff2468313eb7f2bc9ff80e790"
    ),
    "nu:n=4,q=3": (
        "7f11485607c9574a36898e8d62c5e35b0135a162df0944d4f57723a33e8739dc"
    ),
    "no:m=2,q=5,eps=+": (
        "69875cd07aff6e8848b24f7cb87d28efff04816d1c27ecfeefb560171d657800"
    ),
    "no:m=2,q=5,eps=-": (
        "0223fb1fa311ad12ab1eb3f90ef78961fcb30ceede71c4a66c138d523f980071"
    ),
    "polarC:O8+,q=2": (
        "f9f12efcf296a27dcb483159e3d8eae5a4503abfbea87adb09de76e81aaed2a6"
    ),
    "polarC:O7,q=2": (
        "c6473faa7ed048197bca691c5cac8d10a768ac07c266ba7e2e214f7403cc586c"
    ),
    "sp6d3:q=2": (
        "d1c106f8bb2d9f1ab05ac67f534758de00b1cf1177c2c50218a0efb0e9dd47ad"
    ),
    "sp6:q=2": (
        "3cc898b76dc79f1c0ba76b1f70b4de336f68ce367f574142d5ea6b3dc26e14c9"
    ),
}


@pytest.mark.parametrize("spec", [spec for spec, _ in TABLE1_TARGETS] + ["sp6:q=2"])
def test_vertex_order_is_pinned(spec):
    text = to_graph6(build_family(parse_family_spec(spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == VERTEX_ORDER_DIGESTS[spec]


# tag -> (the smallest parameters, vertex count)
SMALLEST = {
    "NU": ({"n": 3, "q": 2}, 12),
    "NO": ({"m": 2, "q": 3, "eps": "-"}, 36),
    "polar-complement-O7": ({"q": 2}, 63),
    "polar-complement-O8+": ({"q": 2}, 135),
    "dual-polar-sp6": ({"q": 2}, 135),
    "dual-polar-sp6-dist3": ({"q": 2}, 135),
    "grassmann": ({"n": 6, "q": 2}, 1395),
    "johnson": ({"n": 7, "i": 0}, 35),
    "hamming-orbital": ({"d": 2, "i": 1}, 8),
    "flag-orbital": ({"q": 2, "i": 3}, 21),
}


def test_every_family_has_a_round_trip_case():
    assert set(SMALLEST) == set(_FAMILIES)


@pytest.mark.parametrize("tag", sorted(SMALLEST))
def test_every_family_head_round_trips(tag):
    params, v = SMALLEST[tag]
    head, names, _ = _FAMILIES[tag]
    kind = [tag.rpartition("-")[2]] if head == "polarC" else []
    text = f"{head}:" + ",".join(kind + [f"{k}={params[k]}" for k in names])
    fid = parse_family_spec(text)
    assert fid == FamilyId.make(tag, **params)
    assert build_family(fid).n == v


def test_build_family_rejects_classification_tags():
    with pytest.raises(ValueError, match="unknown family tag"):
        build_family(FamilyId.make("unitary-orbital", n=3, q=3))
    with pytest.raises(ValueError, match="unknown family tag"):
        build_family(FamilyId.make("orthogonal-orbital", m=2, q=5, eps="+"))


# ---------------------------------------------------------------------------
# classification tensors satisfy the defining relations
# ---------------------------------------------------------------------------


def test_pair_classes_are_bytes():
    assert isinstance(hamming_classification(3).partition.class_of, bytes)


def test_classification_tensors_validate():
    for cls in (
        build_unitary_orbitals(3, 3),
        build_orthogonal_orbitals(2, 3, "+"),
        build_flag_orbitals(3),
        hamming_classification(3),
    ):
        cls.tensor.validate()
        assert cls.tensor.realizable is True
        assert int(cls.tensor.v) == len(cls.points)
        # partition classes are all symmetric
        assert cls.partition.paired == tuple(range(cls.partition.rank))
