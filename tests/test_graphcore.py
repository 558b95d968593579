"""Tests for the bitset graph type and the regularity engines."""

import random
import re
from itertools import combinations

import oracles
import pytest

from srgkit import graphcore
from srgkit.cli import TABLE1_TARGETS
from srgkit.families import (
    build_dual_polar_sp6,
    build_family,
    build_grassmann,
    build_johnson,
    grassmann_intersection_array,
    parse_family_spec,
)
from srgkit.gf import ScaleGuardError
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
        for name in ("n", "rows", "certificate"):
            with pytest.raises(AttributeError, match="Graph is immutable"):
                delattr(g, name)
        assert g.degrees() == [2] * 4 and g.certificate is None

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
        # (5, 7) lies off the base row and off every 1/16 sample (step 3),
        # so only a check of every ordered pair sees it
        with pytest.raises(ValueError, match=r"asymmetric adjacency at \(5, 7\)"):
            build_graph(range(48), lambda u, v: (u, v) == (5, 7))

    def test_pair_cap_refuses_before_the_predicate(self):
        calls = []

        def counting(u, v):
            calls.append((u, v))
            return False

        with pytest.raises(ScaleGuardError, match="8193 points"):
            build_graph(range(8193), counting)
        assert calls == []


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3,x;1,1", "array entry b1 = 'x' is not an integer"),
            ("{3,2;1,}", "array entry c2 = '' is not an integer"),
            ("{3,2;1,1", "array entry b0 = '{3' is not an integer"),
            ("3,2 1,1", "array needs the form 'b0,b1,...;c1,c2,...'"),
            ("3,1;1,2", "k_2 = 3/2 is not an integer"),
        ],
    )
    def test_parse_names_the_bad_entry(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            IntersectionArray.parse(text)

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A`", "nonzero graph6 padding bits"),
            ("~??A_", "graph6 size 2 written in the '~' form"),
            ("~?", "truncated graph6 size"),
            (">", "invalid graph6 size"),
            ("B\x80", "invalid graph6 character"),
            ("Bww", "graph6 body length 2, expected 1"),
        ],
    )
    def test_graph6_rejects_malformed_strings_by_name(self, text, message):
        with pytest.raises(ValueError, match=message):
            from_graph6(text)

    def test_graph6_codec_matches_the_bitwise_oracle(self):
        """Every size up to 70 and 258, empty, random and complete: the
        base64 codec writes what the bit-at-a-time writer writes and reads
        it back.  n(n-1)/2 is never 2 mod 3, and its residue mod 24 (one
        base64 quantum) repeats with period 48 in n, so these sizes reach
        every residue that a graph6 body can have."""
        rng = random.Random(6)
        residues = set()
        for n in list(range(71)) + [258]:
            for density in (0, 0.3, 1):
                rows = [0] * n
                for u, v in combinations(range(n), 2):
                    if rng.random() < density:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                g = Graph(rows)
                text = to_graph6(g)
                assert text == oracles.graph6_bits(g)
                assert from_graph6(text) == g
                assert oracles.graph_from_graph6_bits(text) == g
            residues.add(n * (n - 1) // 2 % 24)
        assert residues == {n * (n - 1) // 2 % 24 for n in range(48)}

    def test_graph6_accepts_only_what_it_writes(self):
        """Random bodies of the right length: a string is either refused
        or written back unchanged."""
        rng = random.Random(7)
        accepted = refused = 0
        for n in range(2, 14):
            need = (n * (n - 1) // 2 + 5) // 6
            for _ in range(20):
                text = chr(n + 63) + "".join(
                    chr(rng.randrange(63, 127)) for _ in range(need)
                )
                try:
                    g = from_graph6(text)
                except ValueError as e:
                    assert "padding" in str(e)
                    refused += 1
                    continue
                assert to_graph6(g) == text
                accepted += 1
        assert accepted and refused


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


@pytest.mark.parametrize("spec, params", SWITCHED, ids=[s for s, _ in SWITCHED])
def test_check_srg_names_a_single_edge_flip(spec, params):
    """Toggling one seeded vertex pair moves two degrees by one.  check_srg
    must name the first vertex whose degree differs from vertex 0's, as a
    set-based degree count does, and the common-neighbour oracle must
    refuse the graph too."""
    rng = random.Random(spec)
    g = build_family(parse_family_spec(spec))
    u, v = rng.sample(range(g.n), 2)
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    flipped = Graph(rows)
    degrees = [len(set(bits(row))) for row in rows]
    w = next(x for x in range(g.n) if degrees[x] != degrees[0])
    assert check_srg(flipped) == RegularityFailure(
        "not regular", witness=(0, w), expected=degrees[0], found=degrees[w]
    )
    assert oracles.srg_violation(flipped) is not None


CERTIFIED = [
    spec
    for spec, _ in TABLE1_TARGETS
    if spec.partition(":")[0] in ("flags", "hamming", "nu", "no", "polarC")
]


@pytest.mark.parametrize("spec", CERTIFIED)
def test_certified_table1_cells_count_as_the_full_scan(spec):
    """A graph of certified pair orbits is counted on row 0 alone, with
    the full count's result in every field."""
    g = build_family(parse_family_spec(spec))
    assert g.certificate == "group-orbitals"
    assert check_srg(g) == check_srg(Graph(g.rows, validate=False))


def test_only_orbital_graphs_carry_a_certificate():
    certified = build_family(parse_family_spec("nu:n=3,q=3"))
    assert certified.certificate == "group-orbitals"
    plain = Graph(certified.rows)
    assert plain.certificate is None
    assert plain == certified and hash(plain) == hash(certified)  # rows alone
    uncertified = [
        cycle(7),
        complement(certified),
        distance_graph(certified, 2),
        from_graph6(to_graph6(certified)),
        from_edgelist(to_edgelist(certified)),
        build_family(parse_family_spec("johnson:n=7,i=1")),
        build_family(parse_family_spec("sp6d3:q=2")),
        build_dual_polar_sp6(2),
    ]
    assert [g.certificate for g in uncertified] == [None] * len(uncertified)


DRG_SWITCHED = {
    "J(7,3)": lambda: build_johnson(7, 2),
    "J(8,3)": lambda: build_johnson(8, 2),
    "Sp6(2) dual polar": lambda: build_dual_polar_sp6(2),
}


@pytest.mark.parametrize("name", DRG_SWITCHED)
def test_check_drg_catches_degree_preserving_switches(name):
    """check_drg must agree with a bitset BFS scan after seeded
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


# ---------------------------------------------------------------------------
# check_drg: the three-term identity against a bitset BFS scan
# ---------------------------------------------------------------------------


def cube(d: int, extra: tuple[int, ...] = ()) -> Graph:
    """The Cayley graph of Z_2^d on the unit vectors and ``extra``."""
    gens = [1 << i for i in range(d)] + list(extra)
    return Graph([sum(1 << (x ^ t) for t in gens) for x in range(1 << d)])


def multipartite(parts: int, size: int) -> Graph:
    n = parts * size
    block = (1 << size) - 1
    return Graph([((1 << n) - 1) & ~(block << size * (x // size)) for x in range(n)])


def random_regular(n: int, k: int, seed: int) -> Graph:
    """A connected k-regular graph: a circulant scrambled by 2-switches."""
    rng = random.Random(seed)
    steps = list(range(1, k // 2 + 1)) + ([n // 2] if k % 2 else [])
    g = Graph(
        [sum(1 << (x + t) % n | 1 << (x - t) % n for t in steps) for x in range(n)]
    )
    for _ in range(3 * n):
        switched = two_switch(g, rng)
        if sum(m.bit_count() for m in distance_masks(switched, 0)) == n:
            g = switched
    return g


def one_way(g: Graph, u: int, old: int, new: int) -> Graph:
    """g with the edge u-old replaced by the arc u -> new alone; every row
    keeps its size."""
    rows = list(g.rows)
    rows[u] ^= 1 << old | 1 << new
    return Graph(rows, validate=False)


DRG_CORPUS = {
    "Q4": lambda: cube(4),
    "Q6": lambda: cube(6),
    "folded 6-cube": lambda: cube(5, (31,)),
    "C_9": lambda: cycle(9),
    "C_10": lambda: cycle(10),
    "K_3x130": lambda: multipartite(3, 130),
    # identity rows fail only at the last level (l = 3), or only at the
    # middle level 2 of 3 (l = 4)
    "Q5 + 01111": lambda: cube(5, (15,)),
    "Q6 + 111110": lambda: cube(6, (62,)),
    "random 3-regular, 20": lambda: random_regular(20, 3, 1),
    "random 4-regular, 30": lambda: random_regular(30, 4, 2),
    "random 5-regular, 24": lambda: random_regular(24, 5, 3),
    "random 6-regular, 40": lambda: random_regular(40, 6, 4),
    "Q4, one arc one-way": lambda: one_way(cube(4), 0, 1, 3),
    "directed 7-cycle": lambda: Graph(
        [1 << (x + 1) % 7 for x in range(7)], validate=False
    ),
}


def drg_outcome(check, g):
    """The verdict as the oracle states it, or a ValueError's message."""
    try:
        result = check(g)
    except ValueError as e:
        return str(e)
    if isinstance(result, RegularityFailure):
        return (result.reason, result.witness, result.expected, result.found)
    return result


@pytest.mark.parametrize("name", DRG_CORPUS)
def test_check_drg_and_its_identity_match_the_oracle(name):
    """check_drg gives the oracle's array or first failure, whichever
    certificate its cost estimate picks.  The three-term identity alone
    certifies exactly the oracle's distance-regular graphs, with the same
    array; asymmetric rows never pass it."""
    g = DRG_CORPUS[name]()
    expected = drg_outcome(oracles.drg_violation, g)
    assert drg_outcome(check_drg, g) == expected
    certified = graphcore._three_term_array(g, distance_masks(g, 0))
    assert certified == (expected if isinstance(expected, IntersectionArray) else None)


@pytest.mark.parametrize(
    "name, array",
    [
        ("Q6", ((6, 5, 4, 3, 2, 1), (1, 2, 3, 4, 5, 6))),
        ("K_3x130", ((260, 129), (1, 260))),
    ],
)
def test_check_drg_certifies_by_the_identity_alone(monkeypatch, name, array):
    """On these shapes the cost estimate picks the identity, and it needs
    no scan: K_3x130 has k = 260, so its counts take nine bit planes."""

    def no_scan(g):
        raise AssertionError("the per-root scan ran")

    monkeypatch.setattr(graphcore, "_scan_drg", no_scan)
    assert check_drg(DRG_CORPUS[name]()) == IntersectionArray(*array)


def test_check_drg_names_a_one_way_edge():
    """An edge that is one-way shows as a vertex at distance 1 whose c_1 is
    0: a failure with its witness, not an error."""
    assert check_drg(DRG_CORPUS["directed 7-cycle"]()) == RegularityFailure(
        "c_1 is not 1", witness=(0, 1), expected=1, found=0
    )


@pytest.mark.parametrize("width", [1, 64, 65, 200])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 13, 127, 128, 255, 256, 260])
def test_bit_planes_equal_the_positionwise_counts(count, width):
    """Bit y of plane i is bit i of the number of rows with bit y set, on
    seeded random rows of several densities and on rows of all ones,
    where every count is len(rows) and every carry reaches the top."""
    rng = random.Random(1009 * count + width)
    for density in (0.1, 0.5, 0.9, 1.0):
        rows = [
            sum(1 << y for y in range(width) if rng.random() < density)
            for _ in range(count)
        ]
        counts = [sum((row >> y) & 1 for row in rows) for y in range(width)]
        planes = [
            sum(((counts[y] >> i) & 1) << y for y in range(width))
            for i in range(count.bit_length())
        ]
        assert graphcore._bit_planes(rows) == planes


def switched_at_zero(g: Graph) -> Graph:
    """g with the edges 0b and cd replaced by 0d and cb: b is the first
    neighbour of 0 and cd the first edge with both ends outside the closed
    neighbourhoods of 0 and b, so every degree is kept."""
    b = next(bits(g.rows[0]))
    near = g.rows[0] | g.rows[b] | 1 | 1 << b
    c, d = next((c, d) for c, d in g.edges() if not (near >> c | near >> d) & 1)
    rows = list(g.rows)
    for u, v in ((0, b), (c, d), (0, d), (c, b)):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Graph(rows)


WORKLOAD_DRGS = {
    "Grassmann (6,2) file": (
        lambda: from_graph6(to_graph6(build_grassmann(6, 2))),
        grassmann_intersection_array(6, 2),
    ),
    "Sp6(2) dual polar": (
        lambda: build_dual_polar_sp6(2),
        IntersectionArray((14, 12, 8), (1, 3, 7)),
    ),
    "Sp6(3) dual polar": (
        lambda: build_dual_polar_sp6(3),
        IntersectionArray((39, 36, 27), (1, 4, 13)),
    ),
}


@pytest.mark.parametrize("name", WORKLOAD_DRGS)
def test_check_drg_matches_the_oracle_on_the_workload_graphs(name):
    """check_drg certifies the verify workload's graph file and the Sp6
    dual polar graphs with their closed-form arrays, which the oracle's
    scan of every root finds too; on a copy with an edge at vertex 0
    switched, which stays regular, it gives the oracle's first failure,
    witness included."""
    build, array = WORKLOAD_DRGS[name]
    g = build()
    assert check_drg(g) == array == oracles.drg_violation(g)
    switched = switched_at_zero(g)
    expected = drg_outcome(oracles.drg_violation, switched)
    assert isinstance(expected, tuple)
    assert drg_outcome(check_drg, switched) == expected


@pytest.mark.parametrize(
    "shape, n, k, l, identity",
    [
        ("C_300", 300, 2, 150, False),
        ("C_600", 600, 2, 300, False),
        ("Q8", 256, 8, 8, True),
        ("Q10", 1024, 10, 10, True),
        ("H(4,4)", 256, 12, 4, True),
        ("K_3x130", 390, 260, 2, True),
        ("Grassmann (6,2)", 1395, 98, 3, True),
    ],
)
def test_the_cost_estimate_picks_by_shape(shape, n, k, l, identity):
    """Long cycles go to the per-root scan; cubes, Hamming, complete
    multipartite and Grassmann graphs to the identity."""
    assert graphcore._picks_identity(n, k, l) is identity


def test_the_identity_lists_at_most_k_255_neighbours_at_the_cap():
    """At the 8192-vertex cap k is at most 255, so the identity's
    neighbour lists hold at most 8192 * 255 entries."""
    assert graphcore._picks_identity(8192, 255, 2)
    assert not graphcore._picks_identity(8192, 256, 2)


def test_distance_graph_matches_per_root_bfs():
    g = DRG_CORPUS["Q6 + 111110"]()
    for i in range(1, 6):
        rows = []
        for root in range(g.n):
            masks = distance_masks(g, root)
            rows.append(masks[i] if i < len(masks) else 0)
        assert distance_graph(g, i).rows == tuple(rows)
