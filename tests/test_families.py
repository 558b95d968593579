"""Family constructors: closed forms, graphs, and pair classifications."""

import oracles
import pytest

from srgkit.families import (
    DEFAULT_MAX_V,
    _FAMILIES,
    FamilyId,
    ScaleGuardError,
    _classify_pairs,
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
    perp_type,
)
from srgkit.gf import FieldElement, field_of_order, quadratic_character
from srgkit import families
from srgkit.graphcore import (
    IntersectionArray,
    RegularityFailure,
    SrgParams,
    check_drg,
    check_srg,
)
from srgkit.orbitals import compute_orbitals

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
    # the builder itself cross-checks set classes against group orbitals
    # and the direct-count tensor against the closed-form matrix
    cls = build_flag_orbitals(q)
    assert len(cls.points) == (q * q + q + 1) * (q + 1)
    assert cls.labels == (1, 2, 3)
    assert (
        cls.suborbit_lengths[1],
        cls.suborbit_lengths[2],
        cls.suborbit_lengths[3],
    ) == (2 * q, 2 * q * q, q**3)


def test_flag_action_names_a_generator_that_leaves_the_flags(monkeypatch):
    # every image becomes the point (0:0:1) on the line (0:0:1): not a flag
    monkeypatch.setattr(families, "_canon_point", lambda field, vec: (0, 0, 1))
    with pytest.raises(AssertionError, match="the scaling generator maps a flag"):
        flag_action(3)


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
    expected = oracles.tangency_graph(space, enumerate_points(space, "nonsingular"))
    graph = build_NU(n, q)
    assert graph.rows == expected.rows
    assert graph.labels == expected.labels


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
    cls = build_unitary_orbitals(4, 3, max_v=600)
    assert cls.suborbit_lengths == {0: 63, 1: 224, 2: 252}
    assert check_srg(cls.graphs[1]) == SrgParams(540, 224, 88, 96)
    assert isinstance(check_srg(cls.graphs[0]), RegularityFailure)
    assert isinstance(check_srg(cls.graphs[2]), RegularityFailure)


# ---------------------------------------------------------------------------
# nonisotropic orthogonal graphs
# ---------------------------------------------------------------------------


def test_orthogonal_tangency_graphs_match_closed_forms():
    assert check_srg(build_NO(2, 5, "+")) == SrgParams(325, 144, 68, 60)
    assert check_srg(build_NO(2, 5, "-")) == SrgParams(300, 104, 28, 40)


def _orthogonal_square_class(m, q, eps):
    """The space and the square class of nonsingular points whose
    perpendicular space has type eps, at representatives of form value 1
    or of the least non-square."""
    space = FormedSpace("quadratic-odd", field_of_order(q), 2 * m + 1)
    zeta = next(
        s for s in range(2, q)
        if quadratic_character(FieldElement(space.field, s)) == -1
    )
    for value in (1, zeta):
        points = enumerate_points(space, "norm-class", value)
        if perp_type(space, points[0]) == eps:
            return space, points
    raise AssertionError(f"no square class of type {eps}")


@pytest.mark.parametrize("q, eps", [(3, "+"), (3, "-"), (5, "+"), (5, "-")])
def test_orthogonal_tangency_graph_matches_line_enumeration(q, eps):
    space, points = _orthogonal_square_class(2, q, eps)
    expected = oracles.tangency_graph(space, points)
    graph = build_NO(2, q, eps)
    assert graph.rows == expected.rows
    assert graph.labels == expected.labels


def test_orthogonal_classification_both_types():
    plus = build_orthogonal_orbitals(2, 5, "+")
    assert plus.eps == "+"
    assert plus.labels == (0, 1, 2)
    assert tuple(int(x) for x in plus.tensor.k) == (1, 60, 144, 120)
    assert plus.graphs[1] == build_NO(2, 5, "+")
    minus = build_orthogonal_orbitals(2, 5, "-")
    assert minus.eps == "-"
    assert tuple(int(x) for x in minus.tensor.k) == (1, 65, 104, 130)
    assert minus.graphs[1] == build_NO(2, 5, "-")
    # the default class is the one whose points have form value one
    assert build_orthogonal_orbitals(2, 5).eps == "+"


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
    points = enumerate_points(space, "singular")
    expected = oracles.polar_complement_by_form(space, points)
    graph = build_polar_complement(kind, q)
    assert graph.rows == expected.rows
    assert graph.labels == expected.labels


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
    assert graph.labels == expected.labels


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


def test_grassmann_graph_matches_formula():
    g = build_grassmann(6, 2)
    assert g.n == gaussian_binomial(6, 3, 2) == 1395
    assert check_drg(g) == grassmann_intersection_array(6, 2)


# ---------------------------------------------------------------------------
# scale guard and dispatch
# ---------------------------------------------------------------------------


def test_scale_guard_reports_prediction():
    with pytest.raises(ScaleGuardError) as info:
        build_grassmann(7, 2)
    assert info.value.predicted_v == 11811
    assert info.value.max_v == DEFAULT_MAX_V
    with pytest.raises(ScaleGuardError):
        build_NU(4, 3, max_v=500)  # 540 vertices over a tight budget
    build_NU(3, 3, max_v=63)  # exactly at the budget is allowed
    # the field-table and vector caps raise the same type
    with pytest.raises(ScaleGuardError) as info:
        field_of_order(1031)
    assert (info.value.predicted_v, info.value.max_v) == (1031, 1024)
    with pytest.raises(ScaleGuardError) as info:
        enumerate_subspaces(field_of_order(8), 7, 3)
    assert (info.value.predicted_v, info.value.max_v) == (8**7, 1 << 20)


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


def test_pair_classes_reject_an_invariant_asymmetric_at_one_pair():
    # (5, 7) lies outside the base row and outside every 1/16 sample
    # (step 3 at 48 points), so only an exhaustive check sees it.
    def pair_label(i, j):
        return 3 if (i, j) == (5, 7) else 1 + (i + j) % 2

    with pytest.raises(AssertionError, match=r"asymmetric at \(5, 7\)"):
        _classify_pairs(range(48), lambda i: [pair_label(i, j) for j in range(48)], str)


def test_pair_classes_are_bytes_and_reject_over_255_labels():
    cls = hamming_classification(3)
    assert isinstance(cls.partition.class_of, bytes)
    with pytest.raises(ValueError, match="more than 255 labels"):
        _classify_pairs(
            range(24), lambda i: [min(i, j) * 24 + max(i, j) for j in range(24)], str
        )


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
