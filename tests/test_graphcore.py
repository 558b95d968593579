"""Tests for the bitset graph type and the regularity engines."""

import random
from itertools import combinations

import oracles
import pytest

from srgkit.cli import TABLE1_TARGETS
from srgkit.families import (
    build_dual_polar_sp6,
    build_family,
    build_johnson,
    parse_family_spec,
)
from srgkit.graphcore import (
    Graph,
    IntersectionArray,
    RegularityFailure,
    SrgParams,
    bits,
    build_graph,
    check_drg,
    check_srg,
    complement,
    distance_graph,
    distance_masks,
    from_edgelist,
    from_graph6,
    to_edgelist,
    to_graph6,
)


def cycle(n: int) -> Graph:
    return build_graph(
        list(range(n)), lambda u, v: (u - v) % n in (1, n - 1)
    )


def petersen() -> Graph:
    verts = list(combinations(range(5), 2))
    return build_graph(verts, lambda a, b: not set(a) & set(b))


def complete(n: int) -> Graph:
    return build_graph(list(range(n)), lambda u, v: u != v)


class TestGraphType:
    def test_cycle_basics(self):
        g = cycle(5)
        assert g.n == 5
        assert g.edge_count == 5
        assert g.degrees() == [2] * 5
        assert g.adjacent(0, 1) and not g.adjacent(0, 2)
        assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_empty_graph(self):
        g = build_graph([], lambda u, v: True)
        assert g.n == 0 and g.edge_count == 0

    def test_immutability(self):
        g = cycle(4)
        with pytest.raises(AttributeError):
            g.n = 7

    def test_validation_rejects_loops_and_asymmetry(self):
        with pytest.raises(ValueError):
            Graph([0b001, 0b000, 0b000])  # loop at 0
        with pytest.raises(ValueError, match=r"asymmetric adjacency at \(0, 1\)"):
            Graph([0b010, 0b000, 0b000])  # 0-1 edge missing its mirror
        with pytest.raises(ValueError, match=r"asymmetric adjacency at \(2, 0\)"):
            Graph([0b000, 0b000, 0b001])  # only the upper endpoint has it

    def test_reflexive_predicate_rejected(self):
        with pytest.raises(ValueError):
            build_graph([0, 1], lambda u, v: True)

    def test_asymmetric_predicate_detected(self):
        with pytest.raises(ValueError):
            build_graph(list(range(40)), lambda u, v: u < v)


class TestSrgParams:
    def test_feasibility_enforced(self):
        SrgParams(10, 3, 0, 1)
        with pytest.raises(ValueError):
            SrgParams(10, 3, 1, 1)
        with pytest.raises(ValueError):
            SrgParams(10, 3, 0, -1)

    def test_complement_params(self):
        assert SrgParams(10, 3, 0, 1).complement_params() == SrgParams(10, 6, 3, 4)


class TestCheckSrg:
    def test_pentagon(self):
        assert check_srg(cycle(5)) == SrgParams(5, 2, 0, 1)

    def test_petersen(self):
        assert check_srg(petersen()) == SrgParams(10, 3, 0, 1)

    def test_rejects_complete_and_empty(self):
        result = check_srg(complete(4))
        assert isinstance(result, RegularityFailure)
        assert result.reason == "complete graph"
        result = check_srg(build_graph([], lambda u, v: False))
        assert result.reason == "empty graph"

    def test_rejects_irregular_with_witness(self):
        g = from_edgelist("0 1\n1 2\n")
        result = check_srg(g)
        assert isinstance(result, RegularityFailure)
        assert result.reason == "not regular"
        assert result.witness is not None

    def test_rejects_disconnected(self):
        g = from_edgelist("# vertices 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
        result = check_srg(g)
        assert isinstance(result, RegularityFailure)
        assert result.reason == "disconnected"

    def test_hexagon_fails_with_pair_witness(self):
        result = check_srg(cycle(6))
        assert isinstance(result, RegularityFailure)
        assert result.witness is not None
        u, v = result.witness
        assert 0 <= u < v < 6


class TestDistanceAndComplement:
    def test_distance_one_is_identity(self):
        g = petersen()
        assert distance_graph(g, 1) == g

    def test_hexagon_distance_three_is_perfect_matching(self):
        g = distance_graph(cycle(6), 3)
        assert g.edge_count == 3
        assert g.degrees() == [1] * 6
        assert sorted(g.edges()) == [(0, 3), (1, 4), (2, 5)]

    def test_distance_beyond_diameter_is_empty(self):
        assert distance_graph(cycle(5), 3).edge_count == 0

    def test_distance_masks_partition(self):
        g = petersen()
        for root in range(g.n):
            masks = distance_masks(g, root)
            acc = 0
            for m in masks:
                assert acc & m == 0
                acc |= m
            assert acc == (1 << g.n) - 1

    def test_complement_involution_and_params(self):
        g = petersen()
        assert complement(complement(g)) == g
        assert check_srg(complement(g)) == SrgParams(10, 6, 3, 4)

    def test_pentagon_self_complementary_params(self):
        assert check_srg(complement(cycle(5))) == SrgParams(5, 2, 0, 1)


class TestCheckDrg:
    def test_pentagon(self):
        assert check_drg(cycle(5)) == IntersectionArray((2, 1), (1, 1))

    def test_petersen(self):
        assert check_drg(petersen()) == IntersectionArray((3, 2), (1, 1))

    def test_even_and_odd_cycles(self):
        assert check_drg(cycle(6)) == IntersectionArray((2, 1, 1), (1, 1, 2))
        assert check_drg(cycle(7)) == IntersectionArray((2, 1, 1), (1, 1, 1))

    def test_diameter_two_drg_matches_srg(self):
        g = petersen()
        arr = check_drg(g)
        params = check_srg(g)
        assert isinstance(arr, IntersectionArray)
        assert isinstance(params, SrgParams)
        assert arr.diameter == 2
        assert params.lam == arr.a(1)
        assert params.mu == arr.c[1]

    def test_drg_failure_has_witness(self):
        # two triangles joined by an edge: connected but not regular
        g = from_edgelist("0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n")
        result = check_drg(g)
        assert isinstance(result, RegularityFailure)
        # triangular prism: regular but b_1 is not constant
        prism = from_edgelist("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n1 4\n2 5\n")
        result = check_drg(prism)
        assert isinstance(result, RegularityFailure)
        assert result.witness is not None

    def test_valencies_sum_to_v(self):
        arr = check_drg(petersen())
        assert isinstance(arr, IntersectionArray)
        assert arr.valencies() == (1, 3, 6)
        assert arr.v == 10


class TestIntersectionArray:
    def test_parse_and_str(self):
        arr = IntersectionArray.parse("{14,12,8; 1,3,7}")
        assert arr.b == (14, 12, 8) and arr.c == (1, 3, 7)
        assert str(arr) == "{14,12,8; 1,3,7}"
        assert IntersectionArray.parse("3,2;1,1").valencies() == (1, 3, 6)

    def test_invalid_arrays_rejected(self):
        with pytest.raises(ValueError):
            IntersectionArray((3, 2), (2, 1))  # c_1 != 1
        with pytest.raises(ValueError):
            IntersectionArray((2, 3), (1, 1))  # a_1 negative
        with pytest.raises(ValueError):
            IntersectionArray((3, 2), (1, 1, 1))  # length mismatch

    def test_a_values(self):
        arr = IntersectionArray((14, 12, 8), (1, 3, 7))
        assert [arr.a(i) for i in range(4)] == [0, 1, 3, 7]
        assert arr.k == 14
        assert arr.valencies() == (1, 14, 56, 64)
        assert arr.v == 135


class TestSerialization:
    def test_graph6_known_encodings(self):
        assert to_graph6(complete(3)) == "Bw"
        assert to_graph6(complete(4)) == "C~"
        assert to_graph6(build_graph(list(range(5)), lambda u, v: False)) == "D??"

    @pytest.mark.parametrize("builder", [lambda: cycle(5), petersen, lambda: cycle(6)])
    def test_graph6_round_trip(self, builder):
        g = builder()
        assert from_graph6(to_graph6(g)) == g

    def test_graph6_header_tolerated(self):
        g = petersen()
        assert from_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_graph6_large_n_round_trip(self):
        g = build_graph(list(range(70)), lambda u, v: abs(u - v) == 1)
        encoded = to_graph6(g)
        assert encoded.startswith("~")
        assert from_graph6(encoded) == g

    def test_edgelist_round_trip(self):
        g = petersen()
        assert from_edgelist(to_edgelist(g)) == g

    def test_edgelist_preserves_isolated_vertices(self):
        g = Graph([0b010, 0b001, 0b000])
        assert from_edgelist(to_edgelist(g)).n == 3

    def test_edgelist_rejects_loops(self):
        with pytest.raises(ValueError):
            from_edgelist("0 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n-1 2\n", r"edge \(-1, 2\) has a negative vertex id"),
            ("# vertices 4\n3 -2\n", r"edge \(3, -2\) has a negative vertex id"),
            ("0 1 2\n", "edge line '0 1 2' needs exactly two integer ids"),
            ("0 1\n2\n", "edge line '2' needs exactly two integer ids"),
            ("0 x\n", "edge line '0 x' needs exactly two integer ids"),
            ("# vertices x\n0 1\n", "header '# vertices x' needs a non-negative"),
            ("# vertices -2\n0 1\n", "header '# vertices -2' needs a non-negative"),
            ("# vertices 258048\n", "'# vertices 258048' exceeds the limit of 258047"),
            ("0 258048\n", r"edge \(0, 258048\) exceeds the limit of 258047"),
        ],
    )
    def test_edgelist_rejects_bad_edge_lines(self, text, message):
        with pytest.raises(ValueError, match=message):
            from_edgelist(text)

    def test_graph6_rejects_the_long_size_form_by_name(self):
        with pytest.raises(ValueError, match="'~~' graph6 size form is unsupported"):
            from_graph6("~~??????")


# ---------------------------------------------------------------------------
# mutation: degree-preserving switches of the table1 graphs
# ---------------------------------------------------------------------------


def two_switch(g: Graph, rng: random.Random) -> Graph:
    """Replace edges ab and cd by ad and cb, for random a, b, c, d with ad
    and cb not edges; every degree is kept."""
    rows = list(g.rows)
    edges = [(u, v) for u in range(g.n) for v in bits(rows[u]) if u < v]
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and not g.adjacent(a, d) and not g.adjacent(c, b):
            break
    for u, v, add in ((a, b, 0), (c, d, 0), (a, d, 1), (c, b, 1)):
        for x, y in ((u, v), (v, u)):
            rows[x] = rows[x] | (1 << y) if add else rows[x] & ~(1 << y)
    return Graph(rows)


SWITCHED = [(spec, params) for spec, params in TABLE1_TARGETS if params[0] <= 325]


@pytest.mark.parametrize("spec, params", SWITCHED, ids=[s for s, _ in SWITCHED])
def test_check_srg_catches_degree_preserving_switches(spec, params):
    """A 2-switch keeps every degree, so only the common-neighbour counts
    can tell.  check_srg must agree with a set-based count, and report the
    first pair whose count breaks the lambda or mu it took from the first
    pair of the same kind."""
    rng = random.Random(spec)
    g = build_family(parse_family_spec(spec))
    assert check_srg(g) == SrgParams(*params)
    for _ in range(2):
        g = two_switch(g, rng)
        assert set(g.degrees()) == {params[1]}
        violation = oracles.srg_violation(g)
        result = check_srg(g)
        if violation is None:
            assert isinstance(result, SrgParams)
            continue
        assert isinstance(result, RegularityFailure)
        assert (result.witness, result.expected, result.found) == violation
        kind = "adjacent" if g.adjacent(*result.witness) else "non-adjacent"
        assert result.reason == f"{kind} pairs disagree on common neighbours"


DRG_SWITCHED = {
    "J(7,3)": lambda: build_johnson(7, 2),
    "J(8,3)": lambda: build_johnson(8, 2),
    "Sp6(2) dual polar": lambda: build_dual_polar_sp6(2),
}


@pytest.mark.parametrize("name", DRG_SWITCHED)
def test_check_drg_catches_degree_preserving_switches(name):
    """check_drg must agree with a set-based BFS scan after seeded
    2-switches: the same array while the graph stays distance-regular,
    else the same first failure.  A switch that disconnects the graph is
    redrawn."""
    rng = random.Random(name)
    g = DRG_SWITCHED[name]()
    assert check_drg(g) == oracles.drg_violation(g)
    for _ in range(3):
        while True:
            switched = two_switch(g, rng)
            if sum(m.bit_count() for m in distance_masks(switched, 0)) == g.n:
                break
        g = switched
        expected = oracles.drg_violation(g)
        result = check_drg(g)
        if isinstance(expected, IntersectionArray):
            assert result == expected
        else:
            assert isinstance(result, RegularityFailure)
            assert (result.reason, result.witness, result.expected, result.found) == expected
