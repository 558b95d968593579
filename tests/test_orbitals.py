"""Pair-orbit partitions, orbital graphs, and direct p_ij^h counting."""

import functools
import itertools
import random
import re
import tracemalloc
from pathlib import Path

import oracles
import pytest

from srgkit import orbitals
from srgkit.families import (
    build_flag_orbitals,
    build_orthogonal_orbitals,
    build_unitary_orbitals,
    flag_action,
    hamming_classification,
)
from srgkit.graphcore import (
    Graph,
    RegularityFailure,
    SrgParams,
    check_srg,
    complement,
)
from srgkit.orbitals import (
    OrbitalPartition,
    PermGroupAction,
    _invariant_under,
    compute_orbitals,
    intersection_number_direct,
    load_gens,
    mulclose,
    orbital_graph,
    psl28_action,
    save_gens,
)
from srgkit.schemes import tensor_from_orbital_partition


def s3_action():
    return PermGroupAction(3, ((1, 2, 0), (1, 0, 2)))


def a5_on_pairs():
    """A_5 acting on the ten 2-subsets of {0..4}."""
    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}

    def induced(perm):
        return tuple(
            index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs
        )

    five_cycle = (1, 2, 3, 4, 0)
    three_cycle = (1, 2, 0, 3, 4)
    return PermGroupAction(10, (induced(five_cycle), induced(three_cycle)))


def z5_translation():
    return PermGroupAction(5, ((1, 2, 3, 4, 0),))


def cyclic(n: int) -> PermGroupAction:
    return PermGroupAction(n, (tuple((x + 1) % n for x in range(n)),))


def dihedral(n: int) -> PermGroupAction:
    """The symmetries of the n-cycle: the rotation and the reflection."""
    reflection = tuple(-x % n for x in range(n))
    return PermGroupAction(n, cyclic(n).generators + (reflection,))


# ---------------------------------------------------------------------------
# actions and orbits
# ---------------------------------------------------------------------------


def test_action_rejects_non_bijections():
    with pytest.raises(ValueError):
        PermGroupAction(3, ((0, 0, 1),))
    with pytest.raises(ValueError):
        PermGroupAction(3, ((0, 1),))


def test_orbit_and_transitivity():
    assert s3_action().is_transitive()
    flip_only = PermGroupAction(3, ((1, 0, 2),))
    assert flip_only.orbit(0) == {0, 1}
    assert not flip_only.is_transitive()


def test_mulclose_orders(monkeypatch):
    assert len(mulclose(list(s3_action().generators))) == 6
    assert len(mulclose([(1, 2, 3, 4, 0)])) == 5
    monkeypatch.setattr(orbitals, "_MULCLOSE_CAP", 3)
    with pytest.raises(ValueError, match="group exceeds 3 elements"):
        mulclose([(1, 2, 3, 4, 0)])
    with pytest.raises(ValueError):
        mulclose([])


# ---------------------------------------------------------------------------
# compute_orbitals
# ---------------------------------------------------------------------------


def test_two_transitive_action_has_rank_two():
    partition = compute_orbitals(s3_action())
    assert partition.rank == 2
    assert partition.suborbit_lengths == (1, 2)
    assert partition.paired == (0, 1)


def test_intransitive_action_rejected():
    with pytest.raises(ValueError):
        compute_orbitals(PermGroupAction(3, ((1, 0, 2),)))


def test_a5_on_pairs_is_the_petersen_scheme():
    partition = compute_orbitals(a5_on_pairs())
    assert partition.rank == 3
    assert sorted(partition.suborbit_lengths) == [1, 3, 6]
    assert partition.suborbit_lengths[0] == 1
    assert all(partition.is_self_paired(c) for c in range(3))


def test_partition_structure_invariants():
    for action in (s3_action(), a5_on_pairs(), z5_translation()):
        partition = compute_orbitals(action)
        n = partition.degree
        assert sum(partition.suborbit_lengths) == n
        assert partition.pair_class(0, 0) == 0
        assert partition.suborbit_lengths[0] == 1
        # the diagonal is exactly class 0
        for x in range(n):
            assert partition.pair_class(x, x) == 0
        # pairing is an involution fixing the diagonal
        assert partition.paired[0] == 0
        for c in range(partition.rank):
            assert partition.paired[partition.paired[c]] == c
        # the class indicator is constant under every generator
        for x in range(n):
            for y in range(n):
                c = partition.pair_class(x, y)
                for g in action.generators:
                    assert partition.pair_class(g[x], g[y]) == c


def test_z5_translation_rank_and_pairing():
    partition = compute_orbitals(z5_translation())
    assert partition.rank == 5
    assert partition.suborbit_lengths == (1, 1, 1, 1, 1)
    # class of (0, y) pairs with class of (0, -y)
    assert partition.paired == (0, 4, 3, 2, 1)


@pytest.mark.parametrize(
    "make",
    [s3_action, a5_on_pairs, z5_translation, lambda: flag_action(2)],
    ids=["s3", "a5_on_pairs", "z5_translation", "flag_action_2"],
)
def test_byte_partition_matches_the_group_oracles(make):
    """The BFS numbering equals the orbits of the closed group, and every
    class graph equals the one read pair by pair."""
    action = make()
    partition = compute_orbitals(action)
    assert type(partition.class_of) is bytes
    assert partition.class_of == bytes(oracles.pair_orbit_classes(action))
    for c in range(1, partition.rank):
        expected = oracles.orbital_graph_rows(partition, c)
        assert list(orbital_graph(partition, c).rows) == expected


SQ6 = Path(__file__).resolve().parent.parent / "src/srgkit/data/psl2_8_sq6.gens"

ORACLE_CORPUS = {
    "s3": s3_action,
    "a5_on_pairs": a5_on_pairs,
    "z5_translation": z5_translation,
    "cyclic_255": functools.partial(cyclic, 255),
    **{f"flag_action_{q}": functools.partial(flag_action, q) for q in (2, 3, 4, 7)},
    "psl28_degree_28": lambda: psl28_action()[0],
    "psl28_degree_784": lambda: psl28_action()[1],
    "psl2_8_sq6": functools.partial(load_gens, SQ6),
    "degree_1_no_generator": lambda: PermGroupAction(1, ()),
    "degree_1_identity": lambda: PermGroupAction(1, ((0,),)),
    "degree_2": lambda: PermGroupAction(2, ((1, 0),)),
}


@pytest.mark.parametrize("name", ORACLE_CORPUS)
def test_row_gathers_equal_the_pair_bfs(name):
    """class_of, rank, reps, pairing and suborbit lengths equal those of
    the pair-by-pair BFS, byte for byte."""
    action = ORACLE_CORPUS[name]()
    expected = oracles.pair_orbits_bfs(action)
    partition = compute_orbitals(action)
    assert partition.class_of == expected
    # equal to the hand-built record of those classes, the certificate aside
    assert partition == OrbitalPartition(action.degree, expected)


@pytest.mark.parametrize("name", ["psl2_8_sq6", "flag_action_7", "a5_on_pairs"])
def test_certificate_failures_alone_reach_the_orbits(monkeypatch, name):
    """With no seeded Schreier generators the first base row is the finest
    one; each generator added comes from a certificate failure."""
    action = ORACLE_CORPUS[name]()
    verdicts = []

    def recorded(table, n, generators, tree=None, check=_invariant_under):
        verdicts.append(check(table, n, generators, tree))
        return verdicts[-1]

    monkeypatch.setattr(orbitals, "_SEEDS", 0)
    monkeypatch.setattr(orbitals, "_invariant_under", recorded)
    assert compute_orbitals(action).class_of == oracles.pair_orbits_bfs(action)
    assert len(verdicts) > 1 and verdicts[-1] is None


def certificate_rounds(monkeypatch) -> list[tuple]:
    """(rows compared, verdict, the row-gather oracle's verdict on the same
    tree, the oracle's full check) for each certificate round that
    compute_orbitals runs from here on.  The rows are counted by wrapping
    the block transpose, which moves every row the certificate compares."""
    rounds, compared = [], []

    def counting(block, n, perm, permute=orbitals._permuted):
        compared.append(len(block) // n)
        return permute(block, n, perm)

    def recorded(table, n, generators, tree=None, check=_invariant_under):
        compared.clear()
        with monkeypatch.context() as patch:
            patch.setattr(orbitals, "_permuted", counting)
            verdict = check(table, n, generators, tree)
        oracle = oracles.invariant_under_by_rows
        on_tree, full = oracle(table, n, generators, tree), oracle(table, n, generators)
        rounds.append((sum(compared), verdict, on_tree, full))
        return verdict

    monkeypatch.setattr(orbitals, "_invariant_under", recorded)
    return rounds


@pytest.mark.parametrize("seeds", [0, orbitals._SEEDS])
@pytest.mark.parametrize("name", ORACLE_CORPUS)
def test_the_certificate_skips_the_tree_edges_alone(monkeypatch, name, seeds):
    """A passing round compares (|gens| - 1) n + 1 rows, one per edge off
    the BFS tree; every round's verdict, failing ones included (no seeds),
    is the row-gather oracle's, with the tree and without."""
    action = ORACLE_CORPUS[name]()
    off_tree = (len(action.generators) - 1) * action.degree + 1
    monkeypatch.setattr(orbitals, "_SEEDS", seeds)
    rounds = certificate_rounds(monkeypatch)
    compute_orbitals(action)
    assert rounds[-1][1] is None
    for compared, verdict, oracle, full in rounds:
        assert verdict == oracle == full
        assert compared == off_tree if verdict is None else compared <= off_tree


def test_a_form_build_certificate_gathers_n_plus_one_rows(monkeypatch):
    """On two generators a passing round compares n + 1 rows: the 2n
    edges less the n - 1 of the tree."""
    rounds = certificate_rounds(monkeypatch)
    n = len(build_unitary_orbitals(3, 3).points)
    assert rounds and rounds[-1][1] is None
    assert all(verdict == oracle == full for _, verdict, oracle, full in rounds)
    assert [c for c, verdict, *_ in rounds if verdict is None] == [n + 1]


FILL_CORPUS = {
    **ORACLE_CORPUS,
    "dihedral_101": functools.partial(dihedral, 101),
    "orthogonal_2_5_plus_pair": lambda: recorded_runs(
        lambda: build_orthogonal_orbitals(2, 5, "+")
    )[0][0],
}


def recorded_runs(build) -> list[tuple]:
    """(action, labels) of each compute_orbitals run that ``build()`` makes."""
    runs = []

    def recorded(action, labels=None, run=compute_orbitals):
        runs.append((action, labels))
        return run(action, labels)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbitals, "compute_orbitals", recorded)
        build()
    return runs


@pytest.mark.parametrize("seeds", [0, orbitals._SEEDS])
@pytest.mark.parametrize("name", FILL_CORPUS)
def test_the_block_fill_equals_the_row_by_row_fill(monkeypatch, name, seeds):
    """Every round's table, failing rounds included (no seeds), is the one
    filled a pair at a time from its base row along the same tree.  Blocks
    move rows on the wide trees; on the deep, thin trees of the cyclic and
    dihedral actions every row is gathered alone."""
    action = FILL_CORPUS[name]()
    rounds, blocked = [], []

    def counting(block, n, perm, permute=orbitals._permuted):
        blocked.append(len(block) // n)
        return permute(block, n, perm)

    def recorded(table, n, generators, tree=None, check=_invariant_under):
        rounds.append((bytes(table), dict(tree), sum(blocked)))
        verdict = check(table, n, generators, tree)
        blocked.clear()  # the certificate's blocks aside
        return verdict

    monkeypatch.setattr(orbitals, "_SEEDS", seeds)
    monkeypatch.setattr(orbitals, "_permuted", counting)
    monkeypatch.setattr(orbitals, "_invariant_under", recorded)
    compute_orbitals(action)
    n = action.degree
    for table, tree, _ in rounds:
        assert table == oracles.fill_by_rows(table[:n], action.generators, tree)
    rows_in_blocks = {moved for *_, moved in rounds}
    if name.startswith(("cyclic", "dihedral")):
        assert rows_in_blocks == {0}
    elif name in ("psl28_degree_784", "orthogonal_2_5_plus_pair"):
        assert min(rows_in_blocks) >= n // 2


def test_the_pair_table_and_its_copy_set_the_memory_peak():
    """The tracemalloc peak of compute_orbitals on the 1,225-point
    orthogonal (2, 7, +) action is no higher than the row-gather version's
    3,439 KiB, set where the n² table and its ``bytes`` copy coexist: the
    band and block temporaries stay below it."""
    (action, labels), = recorded_runs(lambda: build_orthogonal_orbitals(2, 7, "+"))
    assert action.degree == 1225
    tracemalloc.start()
    try:
        compute_orbitals(action, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * 1225**2 < peak <= 3_439 * 1024


def test_the_certificate_names_the_first_moved_row():
    action = load_gens(SQ6)
    n, gens = action.degree, action.generators
    table = bytearray(compute_orbitals(action).class_of)
    assert _invariant_under(table, n, gens) is None
    assert _invariant_under(bytes(table), n, gens) is None
    x = next(z for z in range(100, n) if all(g[z] != z for g in gens))
    row = table[x * n : x * n + n]
    y1, y2 = 0, next(y for y in range(n) if row[y] != row[0])
    table[x * n + y1], table[x * n + y2] = row[y2], row[y1]
    # each generator fails at x, and at every z that it maps onto x
    moved = [(z, i) for z in range(n) for i, g in enumerate(gens) if x in (z, g[z])]
    assert _invariant_under(table, n, gens) == min(moved)
    assert min(moved)[0] < x  # a generator maps an earlier row onto row x


def test_more_than_255_pair_orbits_is_a_named_error():
    assert compute_orbitals(cyclic(255)).rank == 255
    with pytest.raises(ValueError, match="more than 255 pair orbits"):
        compute_orbitals(cyclic(256))


def test_every_class_needs_a_base_row_representative():
    # class 2 occurs only at the pair (1, 1)
    with pytest.raises(ValueError, match="no representative in the base row"):
        OrbitalPartition(2, bytes([0, 1, 1, 2]))


@pytest.mark.parametrize(
    "degree, class_of, error, message",
    [
        (3, b"\x00\x01", ValueError, "2 class bytes for the 9 pairs of 3 points"),
        (0, b"", ValueError, "degree 0 is below 1"),
        (2, bytearray(4), TypeError, "class_of is bytearray, not bytes"),
        (2, bytes([1, 0, 0, 1]), ValueError, "class 0 is not the diagonal"),
        (2, bytes(4), ValueError, "class 0 is not the diagonal"),
    ],
    ids=["short", "no points", "bytearray", "loops", "diagonal pair"],
)
def test_a_partition_refuses_class_bytes_that_are_no_pair_table(
    degree, class_of, error, message
):
    with pytest.raises(error, match=f"^{message}$"):
        OrbitalPartition(degree, class_of)


def test_a_partition_derives_its_summaries_from_the_class_bytes():
    # the 4-cycle's pair classes, each self-paired: equal, adjacent, opposite
    rows = ((0, 1, 2, 1), (1, 0, 1, 2), (2, 1, 0, 1), (1, 2, 1, 0))
    partition = OrbitalPartition(4, bytes(itertools.chain(*rows)))
    assert partition.rank == 3
    assert partition.paired == (0, 1, 2)
    assert partition.reps == ((0, 0), (0, 1), (0, 2))
    assert partition.suborbit_lengths == (1, 2, 1)
    assert partition.certificate is None


# ---------------------------------------------------------------------------
# orbital graphs
# ---------------------------------------------------------------------------


def test_petersen_and_complement_from_a5():
    partition = compute_orbitals(a5_on_pairs())
    by_length = {partition.suborbit_lengths[c]: c for c in range(3)}
    petersen = orbital_graph(partition, by_length[3])
    assert check_srg(petersen) == SrgParams(10, 3, 0, 1)
    co_petersen = orbital_graph(partition, by_length[6])
    assert check_srg(co_petersen) == SrgParams(10, 6, 3, 4)
    assert co_petersen == complement(petersen)


def test_paired_classes_give_the_same_graph():
    partition = compute_orbitals(z5_translation())
    pentagon = orbital_graph(partition, 1)
    assert check_srg(pentagon) == SrgParams(5, 2, 0, 1)
    assert orbital_graph(partition, partition.paired[1]) == pentagon


def test_diagonal_class_has_no_graph():
    partition = compute_orbitals(s3_action())
    with pytest.raises(ValueError):
        orbital_graph(partition, 0)
    with pytest.raises(ValueError):
        orbital_graph(partition, 9)


def test_self_paired_valency_matches_suborbit_length():
    partition = compute_orbitals(a5_on_pairs())
    for c in range(1, 3):
        g = orbital_graph(partition, c)
        assert set(g.degrees()) == {partition.suborbit_lengths[c]}


# ---------------------------------------------------------------------------
# strong regularity of orbital graphs
# ---------------------------------------------------------------------------

SRG_CORPUS = {
    **ORACLE_CORPUS,
    "dihedral_6": functools.partial(dihedral, 6),
    "cyclic_4": functools.partial(cyclic, 4),
}


def full_count(graph):
    """check_srg on the same rows without a certificate: every pair."""
    return check_srg(Graph(graph.rows, validate=False))


@functools.lru_cache(maxsize=None)
def srg_verdicts(name):
    """(class, check_srg, the full count) for every self-paired class."""
    partition = compute_orbitals(SRG_CORPUS[name]())
    verdicts = []
    for c in range(1, partition.rank):
        if partition.is_self_paired(c):
            graph = orbital_graph(partition, c)
            assert graph.certificate == "group-orbitals"
            verdicts.append((c, check_srg(graph), full_count(graph)))
    return verdicts


@pytest.mark.parametrize("name", SRG_CORPUS)
def test_base_row_count_equals_the_full_count(name):
    """On certified group orbitals the base-row count gives the full
    count's result in every field: parameters, or reason, witness,
    expected and found."""
    for c, counted, full in srg_verdicts(name):
        assert counted == full, c


def test_the_srg_corpus_reaches_every_kind_of_verdict():
    verdicts = [full for name in SRG_CORPUS for _, _, full in srg_verdicts(name)]
    reasons = {v.reason for v in verdicts if isinstance(v, RegularityFailure)}
    assert {
        "non-adjacent pairs disagree on common neighbours",
        "disconnected",
        "complete graph",
    } <= reasons
    assert any(isinstance(v, SrgParams) for v in verdicts)


CLASSIFICATIONS = {
    "flags_2": lambda: build_flag_orbitals(2),
    "unitary_3_3": lambda: build_unitary_orbitals(3, 3),
    "orthogonal_2_5_plus": lambda: build_orthogonal_orbitals(2, 5, "+"),
    "hamming_4": lambda: hamming_classification(4),
}


@pytest.mark.parametrize("build", CLASSIFICATIONS.values(), ids=CLASSIFICATIONS)
def test_pair_classifications_carry_the_group_certificate(build):
    assert build().partition.certificate == "group-orbitals"


@pytest.mark.parametrize("build", CLASSIFICATIONS.values(), ids=CLASSIFICATIONS)
def test_classification_base_row_counts_equal_the_full_counts(build):
    """check_srg on every class graph, and the tensor's one-representative
    counts, equal the counts over every pair."""
    cls = build()
    for label, graph in cls.graphs.items():
        assert graph.certificate == "group-orbitals"
        assert check_srg(graph) == full_count(graph), label
    every_pair = oracles.intersection_numbers_every_pair(cls.partition)
    assert [[list(row) for row in table] for table in cls.tensor.p] == every_pair


def test_labels_number_the_classes_in_label_order():
    action = a5_on_pairs()
    plain = compute_orbitals(action)
    # name class 1 by 20 and class 2 by 10, so the two swap numbers
    labels = [10 * (3 - c) for c in plain.class_of[1:10]]
    named = compute_orbitals(action, labels)
    assert named.class_of == plain.class_of.translate(bytes([0, 2, 1]) + bytes(253))
    assert (plain.suborbit_lengths, named.suborbit_lengths) == ((1, 6, 3), (1, 3, 6))
    assert named.certificate == "group-orbitals"


def test_labels_must_name_the_orbits_one_to_one():
    action = a5_on_pairs()
    base = compute_orbitals(action).class_of[1:10]
    with pytest.raises(ValueError, match="one to one"):  # one label, two orbits
        compute_orbitals(action, [7] * 9)
    with pytest.raises(ValueError, match="one to one"):  # one orbit, two labels
        compute_orbitals(action, [5] + list(base[1:]))
    with pytest.raises(ValueError, match="8 labels for 9 base-row pairs"):
        compute_orbitals(action, base[1:])


def generator_counts_of_runs(monkeypatch) -> list[int]:
    """The generator count of each compute_orbitals run from here on."""
    runs = []

    def counted(action, labels=None, run=compute_orbitals):
        runs.append(len(action.generators))
        return run(action, labels)

    monkeypatch.setattr(orbitals, "compute_orbitals", counted)
    return runs


def test_a_pair_finer_than_the_labels_falls_back_to_every_generator(monkeypatch):
    """S_5 on 5 points, generated as (c, t, t) so that the product of the
    generators is the 5-cycle c and the first partner, c itself, makes a
    transitive pair.  Its five pair orbits are finer than the one label of
    the 2-transitive group, so the pair's run refuses and every generator
    is checked."""
    cycle, swap = (1, 2, 3, 4, 0), (1, 0, 2, 3, 4)
    action = PermGroupAction(5, (cycle, swap, swap))
    runs = generator_counts_of_runs(monkeypatch)
    partition = orbitals._two_generator_orbitals(action, iter([1] * 4))
    assert runs == [2, 3]
    assert partition == compute_orbitals(action, [1] * 4)
    assert partition.rank == 2 and partition.certificate == "group-orbitals"


def test_no_transitive_pair_falls_back_to_every_generator(monkeypatch):
    """The regular action of Z_2^3: every pair of its elements generates a
    subgroup of order at most 4, so no partner is transitive."""
    flips = (tuple(x ^ 1 << i for x in range(8)) for i in range(3))
    action = PermGroupAction(8, tuple(flips))
    runs = generator_counts_of_runs(monkeypatch)
    partition = orbitals._two_generator_orbitals(action, range(1, 8))
    assert runs == [3]
    assert partition == compute_orbitals(action, range(1, 8))
    assert partition.rank == 8 and partition.certificate == "group-orbitals"


def test_named_orbitals_are_none_when_the_generators_are_not_transitive():
    """Two disjoint swaps of 4 points: no partner of their product is
    transitive, nor are they, so no product partner is made or tried."""
    swaps, asked = ((1, 0, 2, 3), (0, 1, 3, 2)), []

    def generator(i):
        asked.append(i)
        return swaps[i]

    assert orbitals._named_orbitals((1, 0, 3, 2), generator, 2, [1, 2, 2]) is None
    assert asked == [0, 1, 0, 1]


def test_named_orbitals_make_only_the_partners_tried(monkeypatch):
    """The 5-cycle c with the transposition t: the product t c and the
    first partner c make a transitive pair, so t is never made."""
    cycle, swap, asked = (1, 2, 3, 4, 0), (1, 0, 2, 3, 4), []

    def generator(i):
        asked.append(i)
        return (cycle, swap)[i]

    product = tuple(swap[x] for x in cycle)  # c, then t
    runs = generator_counts_of_runs(monkeypatch)
    partition = orbitals._named_orbitals(product, generator, 2, [1] * 4)
    assert asked == [0] and runs == [2]
    assert partition == compute_orbitals(PermGroupAction(5, (cycle, swap)))


def test_a_labelling_the_group_moves_raises_as_on_every_generator(monkeypatch):
    action = flag_action(2)
    moved = [y % 2 for y in range(1, action.degree)]
    with pytest.raises(ValueError, match="one to one") as every_generator:
        compute_orbitals(action, moved)
    runs = generator_counts_of_runs(monkeypatch)
    message = "labels do not name the pair orbits one to one"
    with pytest.raises(ValueError, match=message) as pair:
        orbitals._two_generator_orbitals(action, moved)
    assert runs == [2, 4]
    assert str(pair.value) == str(every_generator.value)


def test_compute_orbitals_certifies_on_every_given_generator(monkeypatch):
    action = flag_action(2)
    labels = compute_orbitals(action).class_of[1 : action.degree]
    checked = []

    def recorded(table, n, generators, tree=None, check=_invariant_under):
        checked.append(len(generators))
        return check(table, n, generators, tree)

    monkeypatch.setattr(orbitals, "_invariant_under", recorded)
    assert compute_orbitals(action, labels).rank == 4
    assert len(action.generators) == 4 and checked and set(checked) == {4}


def switched_petersen():
    """A 2-switch of the Petersen graph away from vertex 0 that keeps row
    0's adjacency and counts, as a hand-built partition: class 1 the
    switched edges, class 2 the other pairs.  No group certifies it."""
    partition = compute_orbitals(a5_on_pairs())
    cls = partition.suborbit_lengths.index(3)
    petersen = orbital_graph(partition, cls)
    n, adjacent = petersen.n, petersen.adjacent
    edges = [(u, v) for u in range(1, n) for v in range(1, n) if adjacent(u, v)]
    switches = [
        (a, b, c, d)
        for (a, b), (c, d) in itertools.product(edges, edges)
        if len({a, b, c, d}) == 4
        and not adjacent(a, c)
        and not adjacent(b, d)
        and adjacent(0, b) == adjacent(0, c)
        and adjacent(0, a) == adjacent(0, d)
    ]
    a, b, c, d = random.Random(15).choice(switches)
    table = bytearray(
        0 if x == y else 1 if adjacent(x, y) else 2 for x in range(n) for y in range(n)
    )
    for (x, y), label in {(a, b): 2, (c, d): 2, (a, c): 1, (b, d): 1}.items():
        table[x * n + y] = table[y * n + x] = label
    return OrbitalPartition(n, bytes(table))


def test_an_uncertified_partition_gets_the_full_count():
    """The switched graph is clean on row 0 and fails later, and without a
    certificate the full count must find that."""
    switched = switched_petersen()
    graph = orbital_graph(switched, 1)
    assert switched.certificate is graph.certificate is None
    forged = Graph(graph.rows, validate=False)  # row 0 alone would pass
    object.__setattr__(forged, "certificate", "group-orbitals")
    assert check_srg(forged) == SrgParams(10, 3, 0, 1)
    full = check_srg(graph)
    assert isinstance(full, RegularityFailure) and full.witness[0] > 0


def test_a_certified_graph_that_is_not_strongly_regular():
    """Orthogonal (2,7,+): one class graph is strongly regular, the others
    fail, and the base-row count matches the full count on all of them."""
    cls = build_orthogonal_orbitals(2, 7, "+")
    verdicts = {}
    for label, graph in cls.graphs.items():
        assert graph.certificate == "group-orbitals"
        verdicts[label] = check_srg(graph)
        assert verdicts[label] == full_count(graph), label
    assert verdicts[1] == SrgParams(1225, 384, 138, 112)
    assert sum(isinstance(v, RegularityFailure) for v in verdicts.values()) == 3


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------


def test_intersection_numbers_identity_class():
    partition = compute_orbitals(a5_on_pairs())
    k = partition.suborbit_lengths
    for h in range(3):
        for j in range(3):
            expected = 1 if j == h else 0
            assert intersection_number_direct(partition, h, 0, j) == expected
    for i in range(3):
        for j in range(3):
            expected = k[j] if i == j else 0
            assert intersection_number_direct(partition, 0, i, j) == expected


def test_petersen_lambda_and_mu_via_counting():
    partition = compute_orbitals(a5_on_pairs())
    by_length = {partition.suborbit_lengths[c]: c for c in range(3)}
    edge = by_length[3]  # the Petersen adjacency class
    other = by_length[6]
    assert intersection_number_direct(partition, edge, edge, edge) == 0
    assert intersection_number_direct(partition, other, edge, edge) == 1


def test_lemma_relations_exhaustively():
    for action in (s3_action(), a5_on_pairs(), z5_translation()):
        partition = compute_orbitals(action)
        r = partition.rank
        k = partition.suborbit_lengths
        pair = partition.paired
        p = [
            [
                [intersection_number_direct(partition, h, i, j) for j in range(r)]
                for i in range(r)
            ]
            for h in range(r)
        ]
        for h in range(r):
            for j in range(r):
                # row sums count in-neighbours of the second coordinate
                assert sum(p[h][i][j] for i in range(r)) == k[pair[j]]
        # valency-weighted transposition, in the orientation valid for
        # arbitrary pair partitions: k_h p_ij^h = k_i p_{h j*}^i
        for h, i, j in itertools.product(range(r), repeat=3):
            assert k[h] * p[h][i][j] == k[i] * p[i][h][pair[j]]
        # associativity of the class products (these examples commute)
        for i, j, hh, m in itertools.product(range(r), repeat=4):
            lhs = sum(p[l][i][j] * p[m][hh][l] for l in range(r))
            rhs = sum(p[l][hh][j] * p[m][i][l] for l in range(r))
            assert lhs == rhs


# the oracle counts A_i A_j row by row, r^2 products a row: rank 255 is
# out of reach, and tensor_from_orbital_partition refuses it anyway.  The
# `classes` benchmark's classifications join up to 540 points
TENSOR_CORPUS = {
    **{
        name: lambda build=build: compute_orbitals(build())
        for name, build in ORACLE_CORPUS.items()
        if name != "cyclic_255"
    },
    "unitary_4_3": lambda: build_unitary_orbitals(4, 3).partition,
    "orthogonal_2_5_plus": lambda: build_orthogonal_orbitals(2, 5, "+").partition,
    "orthogonal_2_5_minus": lambda: build_orthogonal_orbitals(2, 5, "-").partition,
    "flags_7": lambda: build_flag_orbitals(7).partition,
    "hamming_8": lambda: hamming_classification(8).partition,
}


@pytest.mark.parametrize("name", TENSOR_CORPUS)
def test_direct_counts_equal_the_every_pair_count(name):
    """One representative per class gives the counts of every pair: the
    tensor on symmetric partitions, every direct count on the others."""
    partition = TENSOR_CORPUS[name]()
    every_pair = oracles.intersection_numbers_every_pair(partition)
    r = partition.rank
    if all(map(partition.is_self_paired, range(r))):
        counted = tensor_from_orbital_partition(partition).p
    else:
        counted = [
            [[intersection_number_direct(partition, h, i, j) for j in range(r)]
             for i in range(r)]
            for h in range(r)
        ]
    assert [[list(row) for row in table] for table in counted] == every_pair


def test_the_every_pair_count_names_a_pair_that_differs():
    with pytest.raises(AssertionError, match=r"differs at \(\d+, \d+\)"):
        oracles.intersection_numbers_every_pair(switched_petersen())


def test_direct_counts_refuse_an_uncertified_partition():
    certified = compute_orbitals(a5_on_pairs())
    bare = OrbitalPartition(certified.degree, certified.class_of)
    assert bare == certified and bare.certificate is None
    with pytest.raises(ValueError, match="not certified group orbitals"):
        intersection_number_direct(bare, 1, 1, 1)
    with pytest.raises(ValueError, match="not certified group orbitals"):
        tensor_from_orbital_partition(bare)


def test_intersection_number_rejects_bad_class():
    partition = compute_orbitals(s3_action())
    with pytest.raises(ValueError):
        intersection_number_direct(partition, 5, 0, 0)


# ---------------------------------------------------------------------------
# generator file IO
# ---------------------------------------------------------------------------


def test_gens_roundtrip(tmp_path):
    action = a5_on_pairs()
    path = tmp_path / "a5.gens"
    save_gens(action, path)
    loaded = load_gens(path)
    assert loaded == action
    text = path.read_text()
    assert text.startswith("10 2\n")


def test_load_gens_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.gens"
    for text, message in [
        ("3\n0 1 2\n", "bad header"),
        ("0 0\n", "degree 0 is below 1"),
        ("-3 1\n2 0 1\n", "degree -3 is below 1"),
        ("x 1\n0\n", "line 1, token 1: 'x' is not an integer"),
        ("3 1\n0 1 extra\n", "line 2, token 3: 'extra' is not an integer"),
        ("3 1\n1 2 0\n1 0 2\n", "line 3: a generator line beyond the 1"),
        ("3 1\n1 2\n", "line 2: 2 entries, expected the degree 3"),
        ("3 2\n1 2 0\n\n1 0 2\n", "line 3: 0 entries, expected the degree 3"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_gens(path)


# ---------------------------------------------------------------------------
# the 28- and 784-point actions
# ---------------------------------------------------------------------------


def test_psl28_action_builds_both_degrees():
    small, big = psl28_action()
    assert small.degree == 28
    assert big.degree == 784
    assert len(small.generators) == 4
    # internal gates already enforce orders 504/1512, 2-transitivity at
    # degree 28 and rank 4 at degree 784


def test_moebius_part_alone_has_rank_four():
    small, _ = psl28_action()
    bare = PermGroupAction(28, small.generators[:3])
    partition = compute_orbitals(bare)
    assert partition.rank == 4
    assert sorted(partition.suborbit_lengths) == [1, 9, 9, 9]


def test_product_action_suborbits():
    _, big = psl28_action()
    partition = compute_orbitals(big)
    assert partition.rank == 4
    assert sorted(partition.suborbit_lengths) == [1, 54, 243, 486]
    assert all(partition.is_self_paired(c) for c in range(4))
