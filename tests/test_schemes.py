"""Tests for the exact intersection-number calculus."""

import itertools
import os
import random
import subprocess
import sys
import types
from pathlib import Path
from fractions import Fraction

import oracles
import pytest

from srgkit import schemes
from srgkit.families import (
    build_dual_polar_sp6,
    build_flag_orbitals,
    build_orthogonal_orbitals,
    build_unitary_orbitals,
    hamming_classification,
)
from srgkit.gf import ScaleGuardError
from srgkit.graphcore import (
    Graph,
    IntersectionArray,
    RegularityFailure,
    SrgParams,
    _class_rows,
    bits,
    build_graph,
    check_drg,
    check_srg,
    distance_masks,
)
from srgkit.schemes import (
    InfeasibleArrayError,
    IntersectionTensor,
    RatFunc,
    RatPoly,
    XPoly,
    dual_polar_symbolic,
    fraction_json,
    g2_symbolic,
    grassmann_f2,
    instantiate_tensor,
    poly_gcd,
    poly_str,
    ratfunc_str,
    srg_fusions,
    tensor_from_array,
    tensor_from_graph,
    tensor_from_orbital_partition,
    tensor_to_json,
)
from srgkit.schemes import _euclid_gcd, _union_counts

Q = RatFunc.gen()


def petersen() -> Graph:
    pairs = list(itertools.combinations(range(5), 2))
    return build_graph(pairs, lambda a, b: not set(a) & set(b))


def cycle(n: int) -> Graph:
    return build_graph(range(n), lambda a, b: (a - b) % n in (1, n - 1))


def assert_ring_axioms(samples):
    """Distributivity, commutativity and subtraction over every triple."""
    for f in samples:
        for g in samples:
            for h in samples:
                assert (f + g) * h == f * h + g * h
                assert f * g == g * f
                assert (f - g) + g == f


# ---------------------------------------------------------------------------
# RatPoly
# ---------------------------------------------------------------------------


class TestRatPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert RatPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert RatPoly((0, 0)).is_zero()
        assert RatPoly().degree == -1

    def test_ring_axioms_on_samples(self):
        assert_ring_axioms(
            [
                RatPoly(()),
                RatPoly((1,)),
                RatPoly((0, 1)),
                RatPoly((Fraction(1, 2), -2, 3)),
                RatPoly((-1, 0, 0, 1)),
            ]
        )

    def test_divmod_roundtrip(self):
        f = RatPoly((2, 0, -3, 0, 1))
        g = RatPoly((1, 1))
        quot, rem = f.divmod(g)
        assert quot * g + rem == f
        assert rem.degree < g.degree

    def test_exact_division(self):
        q = RatPoly.gen()
        f = (q**2 - 1) * (q**3 + 2)
        quot, rem = f.divmod(q**2 - 1)
        assert rem.is_zero()
        assert quot == q**3 + 2

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatPoly((1,)).divmod(RatPoly())

    def test_evaluate(self):
        f = RatPoly((1, -2, 1))  # (q-1)^2
        assert f.evaluate(5) == 16
        assert f.evaluate(Fraction(1, 2)) == Fraction(1, 4)

    def test_power(self):
        q = RatPoly.gen()
        assert (q + 1) ** 3 == q**3 + 3 * q**2 + 3 * q + 1
        assert q**0 == RatPoly((1,))
        with pytest.raises(ValueError):
            q**-1

    def test_gcd(self):
        q = RatPoly.gen()
        assert poly_gcd(q**2 - 1, (q - 1) ** 2) == q - 1
        assert poly_gcd(q + 1, q) == RatPoly((1,))
        assert poly_gcd(RatPoly(), q).is_zero() is False

    def test_str(self):
        q = RatPoly.gen()
        assert poly_str(q**2 - 1) == "q^2 - 1"
        assert poly_str(RatPoly()) == "0"
        assert poly_str(-q + Fraction(1, 2)) == "-q + 1/2"
        assert poly_str(3 * q**3 + 2 * q, var="r") == "3*r^3 + 2*r"

    def test_immutable(self):
        p = RatPoly((1,))
        with pytest.raises(AttributeError):
            p.coeffs = ()
        with pytest.raises(AttributeError, match="RatPoly is immutable"):
            del p.coeffs
        assert p.coeffs == (1,)


def random_poly(rng: random.Random, degree: int, bits: int, rational: bool):
    coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(degree)]
    coeffs.append(rng.choice((-1, 1)) * rng.randint(1, 2**bits))
    if rational:
        coeffs = [Fraction(c, rng.randint(1, 2**bits)) for c in coeffs]
    return RatPoly(coeffs)


def test_poly_gcd_matches_the_euclid_oracle():
    """Seeded pairs with planted common factors, integer and rational
    coefficients up to 2^70: poly_gcd, and its Euclid fallback called
    directly, equal the oracle's monic gcd."""
    rng = random.Random(1989)
    for trial in range(300):
        bits = rng.choice((2, 8, 70))
        rational = trial % 3 == 0
        common = random_poly(rng, rng.randint(0, 3), bits, rational)
        a = common * random_poly(rng, rng.randint(0, 4), bits, rational)
        b = common * random_poly(rng, rng.randint(0, 4), bits, rational)
        if trial % 50 == 0:
            a = RatPoly()
        want = tuple(oracles.euclid_gcd(a.coeffs, b.coeffs))
        assert poly_gcd(a, b).coeffs == want, (a, b)
        assert poly_gcd(b, a).coeffs == want, (a, b)
        assert _euclid_gcd(a, b).coeffs == want, (a, b)


def test_integral_coefficients_are_ints():
    q = RatPoly.gen()
    f = (q - Fraction(1, 2)) * 2 + Fraction(3, 3)
    assert f.coeffs == (0, 2) and all(type(c) is int for c in f.coeffs)
    assert type((q * Fraction(1, 2)).coeffs[1]) is Fraction
    assert type(f.evaluate(3)) is Fraction


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------


class TestRatFunc:
    def test_reduction(self):
        f = (Q**2 - 1) / (Q - 1)
        assert f.is_polynomial
        assert f == Q + 1

    def test_monic_denominator(self):
        f = RatFunc(RatPoly((1,)), RatPoly((-2, 2)))  # 1 / (2q - 2)
        assert f.den == RatPoly((-1, 1))
        assert f.num == RatPoly((Fraction(1, 2),))

    def test_field_axioms_on_samples(self):
        samples = [RatFunc(1), Q, 1 / (Q + 1), (Q - 2) / (Q**2 + 1)]
        for f in samples:
            for g in samples:
                assert (f + g) - g == f
                assert (f * g) / g == g * f / g
                assert f * g / f == g

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            Q / RatFunc(0)
        with pytest.raises(ZeroDivisionError):
            RatFunc(RatPoly((1,)), RatPoly())

    def test_evaluate(self):
        f = (Q**2 - 1) / (Q + 2)
        assert f.evaluate(2) == Fraction(3, 4)
        with pytest.raises(ZeroDivisionError):
            f.evaluate(-2)

    def test_negative_power(self):
        assert Q**-2 == 1 / Q**2

    def test_as_poly_guard(self):
        with pytest.raises(ValueError):
            (1 / Q).as_poly()
        assert ((Q**2 - 1) / (Q + 1)).as_poly() == RatPoly((-1, 1))

    def test_immutable(self):
        f = 1 / (Q + 1)
        for name in ("_num", "_den"):
            with pytest.raises(AttributeError, match="RatFunc is immutable"):
                setattr(f, name, RatPoly((1,)))
            with pytest.raises(AttributeError, match="RatFunc is immutable"):
                delattr(f, name)
        assert f * (Q + 1) == 1

    def test_str(self):
        assert ratfunc_str(Q + 1) == "q + 1"
        assert ratfunc_str(1 / (Q - 1)) == "(1) / (q - 1)"
        assert ratfunc_str(Q**2, var="r") == "r^2"


def test_ratfunc_form_is_canonical_on_random_pairs():
    """Random quotients, each drawn in several forms scaled by a common
    factor: f == g exactly when f.num g.den == g.num f.den, and equal
    quotients hash alike."""
    rng = random.Random(7)
    q = RatPoly.gen()
    bases = [
        tuple(random_poly(rng, rng.randint(0, 2), 3, False) for _ in range(2))
        for _ in range(6)
    ]
    samples = []
    for num, den in bases:
        for _ in range(4):
            scale = random_poly(rng, rng.randint(0, 2), 3, True) * rng.choice((1, q))
            samples.append(RatFunc(num * scale, den * scale))
    for f in samples:
        for g in samples:
            assert (f == g) == (f.num * g.den == g.num * f.den)
            if f == g:
                assert hash(f) == hash(g)
    assert sum(f == g for f in samples for g in samples) > len(samples)


# ---------------------------------------------------------------------------
# XPoly
# ---------------------------------------------------------------------------


class TestXPoly:
    def test_ring_axioms_on_samples(self):
        assert_ring_axioms(
            [
                XPoly(()),
                XPoly((1,)),
                XPoly((0, 1)),
                XPoly((Fraction(1, 2), -Q, 1 / (Q + 1))),
                XPoly((-1, 0, 0, Q**2)),
            ]
        )

    def test_basic_arithmetic(self):
        x = XPoly.gen()
        f = Q * x + 1
        g = x - Q
        prod = f * g
        assert prod.degree == 2
        assert prod.coefficient(2) == Q
        assert prod.coefficient(1) == 1 - Q**2
        assert prod.coefficient(0) == -Q

    def test_division_by_scalar_only(self):
        x = XPoly.gen()
        f = (Q**2) * x
        assert f / Q == Q * x
        assert f / XPoly((Q,)) == Q * x
        with pytest.raises(ValueError):
            f / x

    def test_substitute_and_evaluate(self):
        x = XPoly.gen()
        f = x**0 if False else (x * x - 1)  # X^2 - 1
        assert f.substitute_x(Q**3) == Q**6 - 1
        assert f.evaluate(2, 8) == 63

    def test_coefficient_out_of_range(self):
        assert XPoly((1,)).coefficient(5) == RatFunc(0)

    def test_zero_normalization(self):
        assert XPoly((RatFunc(0), RatFunc(0))).is_zero()
        assert (XPoly((1,)) - 1).is_zero()

    def test_mixed_with_ratpoly_resolves_to_xpoly(self):
        left = RatPoly.gen() + XPoly.gen()
        right = XPoly.gen() + RatPoly.gen()
        assert type(left) is XPoly and type(right) is XPoly
        assert left == right
        assert repr(left) == "XPoly((1)*X + (q))"
        assert RatPoly((1,)) == XPoly((1,))
        assert XPoly((1,)) == RatPoly((1,))

    def test_immutable(self):
        x = XPoly.gen()
        with pytest.raises(AttributeError, match="XPoly is immutable"):
            x.coeffs = ()
        with pytest.raises(AttributeError, match="XPoly is immutable"):
            del x.coeffs
        assert x.degree == 1


def test_equal_scalars_hash_alike():
    """Values that compare equal across the three symbolic types hash
    alike, so sets and dict keys treat them as one."""
    equal_groups = [
        [0, Fraction(0), RatPoly(()), RatFunc(0), XPoly(())],
        [1, Fraction(1), RatPoly((1,)), RatFunc(1), XPoly((1,))],
        [Fraction(-2, 3), RatPoly((Fraction(-2, 3),)), RatFunc(Fraction(-2, 3))],
        [RatPoly.gen(), RatFunc.gen(), XPoly((RatPoly.gen(),))],
        [RatPoly((1, 0, 2)), 1 + 2 * Q**2, XPoly((1 + 2 * Q**2,))],
    ]
    for group in equal_groups:
        for a in group:
            for b in group:
                assert a == b
                assert hash(a) == hash(b), (a, b)
    assert len({RatPoly((1,)), XPoly((1,))}) == 1
    assert len({RatPoly.gen(), RatFunc.gen(), XPoly((Q,))}) == 1
    # a genuine fraction or an X-dependent polynomial stays apart
    assert len({1 / (Q + 1), Q + 1, XPoly.gen(), RatPoly.gen()}) == 4


# ---------------------------------------------------------------------------
# Numeric tensors
# ---------------------------------------------------------------------------


class TestTensorFromArray:
    def test_petersen_array(self):
        t = tensor_from_array(IntersectionArray(b=(3, 2), c=(1, 1)))
        assert t.rank == 3
        assert t.k == (1, 3, 6)
        assert t.v == 10
        assert t.realizable is True
        assert t.p[2][2][2] == 3
        assert t.p[1][1][1] == 0  # triangle-free
        assert t.p[1][2][2] == 4

    def test_heptagon_array(self):
        t = tensor_from_array(IntersectionArray(b=(2, 1, 1), c=(1, 1, 1)))
        assert t.k == (1, 2, 2, 2)
        assert t.v == 7

    def test_rank_guard_comes_before_the_recursion(self, monkeypatch):
        def never(*args):
            raise AssertionError("the recursion ran past the rank cap")

        monkeypatch.setattr(schemes, "_ARRAY_RANK_CAP", 3)
        monkeypatch.setattr(schemes, "_tensor_recursion", never)
        with pytest.raises(ScaleGuardError, match="rank-4 array has size 4, over"):
            tensor_from_array(IntersectionArray(b=(2, 1, 1), c=(1, 1, 1)))
        monkeypatch.undo()
        assert tensor_from_array(IntersectionArray(b=(3, 2), c=(1, 1))).rank == 3

    def test_negative_entries_flagged_not_fatal(self):
        t = tensor_from_array(IntersectionArray(b=(3, 1, 1), c=(1, 1, 1)))
        assert t.realizable is False
        assert t.p[2][2][2] == -1
        t.validate()  # the defining relations still hold exactly

    def test_tampered_tensor_raises(self):
        t = tensor_from_array(IntersectionArray(b=(3, 2), c=(1, 1)))
        rows = [list(map(list, table)) for table in t.p]
        rows[1][2][2] += 1
        with pytest.raises(InfeasibleArrayError) as info:
            IntersectionTensor(
                k=t.k, p=tuple(tuple(tuple(r) for r in table) for table in rows), v=t.v
            )
        assert info.value.relation

    def test_symmetry_violation_named(self):
        t = tensor_from_array(IntersectionArray(b=(3, 2), c=(1, 1)))
        rows = [list(map(list, table)) for table in t.p]
        rows[2][1][2] += 1  # break p_ij^h = p_ji^h only
        with pytest.raises(InfeasibleArrayError):
            IntersectionTensor(
                k=t.k, p=tuple(tuple(tuple(r) for r in table) for table in rows), v=t.v
            )

    def test_quadratic_relation_violation_named(self):
        """Relations 1-6 are linear in p: shifting the heptagon tensor by a
        fully symmetric D on classes 1..3 whose line sums vanish keeps
        them (k_1 = k_2 = k_3), so only relation 7 can fail, and its
        first failing tuple is named."""
        t = tensor_from_array(IntersectionArray(b=(2, 1, 1), c=(1, 1, 1)))
        shift = {(1, 1, 1): -1, (1, 1, 3): 1, (1, 3, 3): -1, (3, 3, 3): 1}
        rows = [list(map(list, table)) for table in t.p]
        for key, value in shift.items():
            for h, i, j in set(itertools.permutations(key)):
                rows[h][i][j] += value
        with pytest.raises(InfeasibleArrayError) as info:
            IntersectionTensor(
                k=t.k, p=tuple(tuple(tuple(r) for r in table) for table in rows), v=t.v
            )
        assert str(info.value) == (
            "infeasible array: relation sum_l p_ij^l p_hl^m = "
            "sum_l p_hj^l p_il^m violated (i=1 j=1 h=2 m=2)"
        )


class TestTensorFromGraph:
    def test_petersen_matches_array_tensor(self):
        g = petersen()
        array = check_drg(g)
        assert isinstance(array, IntersectionArray)
        assert tensor_from_graph(g) == tensor_from_array(array)

    def test_heptagon_matches(self):
        g = cycle(7)
        assert tensor_from_graph(g) == tensor_from_array(
            IntersectionArray(b=(2, 1, 1), c=(1, 1, 1))
        )

    def test_path_rejected(self):
        g = build_graph(range(4), lambda a, b: abs(a - b) == 1)
        with pytest.raises(ValueError):
            tensor_from_graph(g)

    @pytest.mark.parametrize(
        "graph",
        [
            petersen,
            lambda: cycle(7),
            lambda: cycle(12),
            lambda: build_graph(range(16), lambda a, b: (a ^ b).bit_count() == 1),
            lambda: build_dual_polar_sp6(2),
        ],
        ids=["Petersen", "C_7", "C_12", "Q_4", "Sp6(2) dual polar"],
    )
    def test_the_root_count_equals_the_count_at_every_pair(self, graph):
        g = graph()
        tensor = tensor_from_graph(g)
        assert (tensor.k, tensor.p) == oracles.distance_tensor_every_pair(g)

    def test_a_graph_that_is_not_distance_regular_is_refused(self):
        # C_9(1, 3) is regular and vertex-transitive, but edge (0, 1) lies in
        # no triangle and edge (0, 3) in one
        g = build_graph(range(9), lambda a, b: (a - b) % 9 in (1, 3, 6, 8))
        assert oracles.distance_tensor_every_pair(g) is None
        with pytest.raises(
            ValueError,
            match=r"^graph is not distance-regular: b_1 not constant at \(0, 3\)",
        ):
            tensor_from_graph(g)

    def test_a_complete_graph_is_refused_as_check_drg_refuses_it(self):
        g = build_graph(range(5), lambda a, b: a != b)
        assert check_drg(g).reason == "complete graph"
        with pytest.raises(ValueError, match="^graph is not distance-regular: complete"):
            tensor_from_graph(g)


class TestTensorFromOrbitals:
    def test_pair_action_partition(self):
        from srgkit.orbitals import PermGroupAction, compute_orbitals

        base = [
            [1, 2, 3, 4, 0],
            [0, 2, 1, 3, 4],
        ]
        pairs = list(itertools.combinations(range(5), 2))
        index = {p: i for i, p in enumerate(pairs)}
        gens = []
        for perm in base:
            gens.append(
                [
                    index[tuple(sorted((perm[a], perm[b])))]
                    for (a, b) in pairs
                ]
            )
        part = compute_orbitals(PermGroupAction(10, tuple(map(tuple, gens))))
        t = tensor_from_orbital_partition(part)
        assert t.rank == 3
        assert t.v == 10
        assert tuple(t.k) == tuple(
            Fraction(x) for x in part.suborbit_lengths
        )

    def test_non_self_paired_rejected(self):
        from srgkit.orbitals import PermGroupAction, compute_orbitals

        shift = tuple((i + 1) % 5 for i in range(5))
        part = compute_orbitals(PermGroupAction(5, (shift,)))
        with pytest.raises(ValueError):
            tensor_from_orbital_partition(part)


def distance_table(g: Graph) -> bytes:
    """The distance partition of a connected graph as ``class_of`` bytes."""
    table = bytearray(g.n * g.n)
    for x in range(g.n):
        for d, mask in enumerate(distance_masks(g, x)):
            for y in bits(mask):
                table[x * g.n + y] = d
    return bytes(table)


def assert_fusions_match_check_srg(tensor, table: bytes) -> int:
    """check_srg passes on the graph of a union of the classes in ``table``
    exactly when srg_fusions lists the union, with equal parameters.
    Returns the number of fusions."""
    n = int(tensor.v)
    fusions = dict(srg_fusions(tensor))
    for size in range(1, tensor.rank - 1):
        for union in itertools.combinations(range(1, tensor.rank), size):
            rows = (table[x : x + n] for x in range(0, n * n, n))
            verdict = check_srg(Graph(_class_rows(n, rows, union), validate=False))
            if union in fusions:
                assert verdict == SrgParams(*map(int, fusions[union])), union
            else:
                assert isinstance(verdict, RegularityFailure), (union, verdict)
    return len(fusions)


class TestUnionCriterion:
    """srg_fusions: the exact strong-regularity test on class unions."""

    def test_rank_guard(self, monkeypatch):
        t = tensor_from_array(IntersectionArray(b=(2, 1, 1), c=(1, 1, 1)))
        monkeypatch.setattr(schemes, "_UNION_CAP", 5)  # rank 4 has 6 unions
        with pytest.raises(ScaleGuardError, match="rank-4 scheme has size 6"):
            srg_fusions(t)

    def test_heptagon_values(self):
        t = tensor_from_array(IntersectionArray(b=(2, 1, 1), c=(1, 1, 1)))
        assert tuple(_union_counts(t, (1,))) == (0, 1, 0)
        assert srg_fusions(t) == []

    def test_small_g2_array(self):
        t = tensor_from_array(IntersectionArray(b=(6, 4, 4), c=(1, 1, 3)))
        assert srg_fusions(t) == [((3,), (63, 32, 16, 16)), ((1, 2), (63, 30, 13, 15))]
        assert tuple(_union_counts(t, (2,)))[::2] == (4, 9)

    def test_lambda_unequal_mu(self):
        t = tensor_from_array(IntersectionArray(b=(14, 12, 8), c=(1, 3, 7)))
        assert srg_fusions(t)[0] == ((3,), (135, 64, 28, 32))

    def test_symbolic_g2_fusions_hold_identically_in_q(self):
        """Gamma_3 has lambda = mu = q^4(q - 1); its complement {1, 2} has
        lambda != mu."""
        v = (Q**6 - 1) / (Q - 1)
        lam = Q**4 * (Q - 1)
        assert srg_fusions(g2_symbolic().tensor) == [
            ((3,), (v, Q**5, lam, lam)),
            ((1, 2), (v, v - Q**5 - 1, v - Q**5 - Q**4 - 2, v - Q**5 - Q**4)),
        ]

    @pytest.mark.parametrize(
        "graph, count",
        [
            (lambda: cycle(12), 4),
            (lambda: build_graph(range(16), lambda a, b: (a ^ b).bit_count() == 1), 6),
            (lambda: build_dual_polar_sp6(2), 2),
        ],
        ids=["C_12", "Q_4", "Sp6(2) dual polar"],
    )
    def test_distance_partitions_agree_with_check_srg(self, graph, count):
        g = graph()
        table = distance_table(g)
        assert assert_fusions_match_check_srg(tensor_from_graph(g), table) == count

    @pytest.mark.parametrize(
        "build, count",
        [
            (lambda: build_orthogonal_orbitals(2, 3, "+"), 2),
            (lambda: build_orthogonal_orbitals(2, 5, "-"), 4),
            (lambda: build_orthogonal_orbitals(2, 7, "+"), 2),
            (lambda: build_unitary_orbitals(3, 3), 2),
            (lambda: build_unitary_orbitals(4, 3), 2),
            (lambda: build_flag_orbitals(4), 2),
            (lambda: hamming_classification(8), 0),
        ],
        ids=["O(2,3,+)", "O(2,5,-)", "O(2,7,+)", "U(3,3)", "U(4,3)", "F(4)", "H(3,8)"],
    )
    def test_classifications_agree_with_check_srg(self, build, count):
        cls = build()
        table = cls.partition.class_of
        assert assert_fusions_match_check_srg(cls.tensor, table) == count


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


class TestJson:
    def test_fraction_json(self):
        assert fraction_json(Fraction(3)) == 3
        assert fraction_json(Fraction(8, 3)) == "8/3"
        assert fraction_json(Fraction(-2, 1)) == -2

    def test_tensor_json_shape(self):
        t = tensor_from_array(IntersectionArray(b=(3, 2), c=(1, 1)))
        doc = tensor_to_json(t)
        assert doc["rank"] == 3
        assert doc["v"] == 10
        assert doc["k"] == [1, 3, 6]
        assert doc["p"][2][2][2] == 3
        assert doc["realizable"] is True

    def test_unrealizable_tensor_serializes_with_flag(self):
        t = tensor_from_array(IntersectionArray(b=(3, 1, 1), c=(1, 1, 1)))
        doc = tensor_to_json(t)
        assert doc["p"][2][2][2] == -1
        assert doc["realizable"] is False
        assert fraction_json(Fraction(8, 3)) == "8/3"

    def test_symbolic_tensor_rejected(self):
        with pytest.raises(ValueError):
            tensor_to_json(g2_symbolic().tensor)


# ---------------------------------------------------------------------------
# Symbolic jobs
# ---------------------------------------------------------------------------


class TestG2Symbolic:
    def test_report(self):
        rep = g2_symbolic()
        assert rep.p33[0] == Q**4 * (Q - 1)
        assert rep.p33[0] == rep.p33[1] == rep.p33[2]
        assert rep.p22[0] == Q**2 * (Q - 1)
        assert rep.p22[1] == (Q + 1) * (Q**2 - 1)
        assert rep.gamma3_criterion[0] is True
        assert rep.gamma2_criterion[0] is False
        assert rep.instantiated_qs == (2, 3, 4, 5)

    def test_distance3_parameters(self):
        rep = g2_symbolic()
        v, k, lam, mu = rep.params
        assert v == (Q**6 - 1) / (Q - 1)
        assert k == Q**5
        assert lam == mu == Q**4 * (Q - 1)
        at2 = tuple(x.evaluate(2) for x in rep.params)
        assert at2 == (63, 32, 16, 16)
        at3 = tuple(x.evaluate(3) for x in rep.params)
        assert at3 == (364, 243, 162, 162)

    def test_instantiation_commutes_beyond_gate(self):
        rep = g2_symbolic()
        q0 = 7
        numeric = tensor_from_array(
            IntersectionArray(b=(q0 * (q0 + 1), q0**2, q0**2), c=(1, 1, q0 + 1))
        )
        assert instantiate_tensor(rep.tensor, q0) == numeric


class TestDualPolarSymbolic:
    def test_e_must_be_half_integral(self):
        with pytest.raises(ValueError):
            dual_polar_symbolic(Fraction(2, 3))
        with pytest.raises(ValueError):
            dual_polar_symbolic(2)

    def test_e1_displays(self):
        rep = dual_polar_symbolic(1)
        assert rep.p33_equal is True
        assert rep.displayed["p33_1"] == Q**5 * (Q - 1)
        assert rep.displayed["p33_2"] == Q**5 * (Q - 1)
        assert rep.displayed["p22_1"] == Q**2 * (Q + 1) * (Q - 1)
        assert rep.displayed["p22_3"] == (Q**2 + Q + 1) * (Q**2 - 1)
        assert all(value != 0 for _, value in rep.p22_difference_values)
        assert rep.graph_checked_qs == (2,)  # the Sp6(2) graph, checked at e = 1

    def test_e1_instantiates_to_sp6_arrays(self):
        rep = dual_polar_symbolic(1)
        at2 = instantiate_tensor(rep.tensor, 2)
        assert at2.k == (1, 14, 56, 64)
        assert at2.v == 135
        at3 = instantiate_tensor(rep.tensor, 3)
        assert at3.v == 1120
        assert at3.k == (1, 39, 39 * 36 // 4, 39 * 36 * 27 // (4 * 13))

    def test_e_half_differs(self):
        rep = dual_polar_symbolic(Fraction(1, 2))
        assert rep.p33_equal is False
        assert rep.graph_checked_qs == ()
        diff = rep.displayed["p33_1"] - rep.displayed["p33_2"]
        r = Q  # the symbolic variable is r with q = r^2 here
        assert diff == -(r**6) * (r - 1)
        at_r2 = instantiate_tensor(rep.tensor, 2)  # q = 4
        assert at_r2.k[1] == 42
        assert at_r2.k == (1, 42, 42 * 40 // 5, 42 * 40 * 32 // (5 * 21))

    def test_e_three_halves_differs(self):
        rep = dual_polar_symbolic(Fraction(3, 2))
        assert rep.p33_equal is False
        assert rep.tensor.v.evaluate(2) == sum(
            x.evaluate(2) for x in rep.tensor.k
        )


@pytest.fixture(scope="module")
def grassmann_report():
    return grassmann_f2()


class TestGrassmannF2:
    @pytest.fixture()
    def rep(self, grassmann_report):
        return grassmann_report

    def test_coefficients_match_displays(self, rep):
        assert rep.A == 1 / (Q**3 * (Q - 1) ** 2)
        num_b = -2 * Q**6 - 7 * Q**5 - 8 * Q**4 - Q**3 + 5 * Q**2 + 4 * Q + 1
        assert rep.B == num_b / (Q**2 * (Q - 1) ** 2 * (Q + 1) ** 2)
        num_c = (
            Q**9 + 5 * Q**8 + 9 * Q**7 + 5 * Q**6 - 6 * Q**5
            - 11 * Q**4 - 5 * Q**3 + 2 * Q**2 + 3 * Q + 1
        )
        assert rep.C == num_c / ((Q - 1) ** 2 * (Q + 1) ** 2)

    def test_alphas_betas(self, rep):
        assert rep.alphas[2] == 1 / (Q - 1)
        assert rep.betas[2] == -(Q**5) / (Q - 1)
        assert rep.alphas[0] == (Q**2 + Q + 1) / (Q**2 * (Q - 1))

    def test_f2_is_the_quadratic(self, rep):
        x = XPoly.gen()
        assert rep.f2 == rep.A * x * x + rep.B * x + rep.C

    def test_certificate(self, rep):
        assert rep.scan_qs == (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
        assert rep.scan_ns == tuple(range(6, 13))
        assert rep.scan_all_nonzero is True
        assert all(all(flags) for flags in rep.positivity.values())

    def test_value_at_smallest_case(self, rep):
        value = rep.f2.evaluate(2, 64)
        direct = (
            rep.A.evaluate(2) * 64**2
            + rep.B.evaluate(2) * 64
            + rep.C.evaluate(2)
        )
        assert value == direct
        assert value > 0
        assert value.denominator == 1

    def test_tensor_entries_recover_integer_values(self, rep):
        # every tensor entry must evaluate to an integer at (q, X) = (2, 2^6)
        for table in rep.tensor.p:
            for row in table:
                for entry in row:
                    assert entry.evaluate(2, 64).denominator == 1


# ---------------------------------------------------------------------------
# The integer audit against the scalar-arithmetic oracle
# ---------------------------------------------------------------------------


def audit_outcome(audit, tensor) -> str | None:
    """The InfeasibleArrayError message an audit raises (relation and
    indices), or None when it accepts."""
    try:
        audit(tensor)
    except InfeasibleArrayError as e:
        return str(e)
    return None


def unchecked(k, p, v) -> types.SimpleNamespace:
    """A tensor's fields, not audited on construction, for the oracle."""
    return types.SimpleNamespace(k=k, p=p, v=v, rank=len(k))


def tampered(tensor, d, relation: int):
    """(k, p, v) of ``tensor`` (rank 4) changed by d so that relation
    ``relation`` is the first to fail.  Relations 6 and 7 cannot fail
    alone after one entry changes, because relation 4 or 2 fails first;
    their copies change a set of entries that keeps the earlier relations:
    a 2x2 swap in table 1, then a fully symmetric D on classes 1..3 with
    zero line sums, times the product of the other two valencies."""
    k, v = list(tensor.k), tensor.v
    p = [[list(row) for row in table] for table in tensor.p]
    if relation == 1:
        p[2][0][1] += d
    elif relation == 2:
        p[0][1][2] += d
    elif relation == 3:
        p[2][1][3] += d
    elif relation == 4:
        p[2][1][1] += d
    elif relation == 5:
        v += d
    elif relation == 6:
        for i, j, sign in ((2, 2, 1), (3, 3, 1), (2, 3, -1), (3, 2, -1)):
            p[1][i][j] += sign * d
    else:
        shift = {(1, 1, 1): -1, (1, 1, 3): 1, (1, 3, 3): -1, (3, 3, 3): 1}
        for key, value in shift.items():
            for h, i, j in set(itertools.permutations(key)):
                others = [k[g] for g in (1, 2, 3) if g != h]
                p[h][i][j] += value * others[0] * others[1]
    return tuple(k), tuple(tuple(tuple(row) for row in table) for table in p), v


_RELATIONS = (
    "p_0j^h = delta_jh",
    "p_ij^0 = delta_ij k_j",
    "p_ij^h = p_ji^h",
    "sum_i p_ij^h = k_j",
    "sum_j k_j = v",
    "p_ij^h k_h = p_ih^j k_j",
    "sum_l p_ij^l p_hl^m = sum_l p_hj^l p_il^m",
)


def halves_tensor():
    """A RatFunc tensor whose entries have the denominators 2 and 2q - 2."""
    one = RatFunc(1)
    return schemes.symbolic_tensor_from_array([Q, Q, Q], [one, 2 * one, Q - 1], one)


@pytest.fixture(scope="module")
def audit_cases(grassmann_report):
    """A numeric, a RatFunc and an XPoly tensor of rank 4, each with the
    change its tampered copies make."""
    return {
        "numeric": (
            tensor_from_array(IntersectionArray(b=(2, 1, 1), c=(1, 1, 1))),
            Fraction(1, 2),
        ),
        "ratfunc": (halves_tensor(), 1 / (2 * Q - 2)),
        "xpoly": (grassmann_report.tensor, XPoly.gen()),
    }


class TestIntegerAudit:
    def test_denominators_two_and_2q_minus_2(self):
        t = halves_tensor()
        entries = [t.v, *t.k, *(x for table in t.p for row in table for x in row)]
        assert {x._den.coeffs for x in entries} == {(1,), (2,), (-2, 2)}

    @pytest.mark.parametrize("which", ["numeric", "ratfunc", "xpoly"])
    def test_the_oracle_accepts_the_untampered_tensors(self, which, audit_cases):
        tensor, _ = audit_cases[which]
        assert audit_outcome(oracles.audit_by_scalar_arithmetic, tensor) is None

    @pytest.mark.parametrize("relation", range(1, 8))
    @pytest.mark.parametrize("which", ["numeric", "ratfunc", "xpoly"])
    def test_tampered_copies_agree_with_the_oracle(self, which, relation, audit_cases):
        k, p, v = tampered(*audit_cases[which], relation)
        with pytest.raises(InfeasibleArrayError) as info:
            IntersectionTensor(k=k, p=p, v=v)
        assert info.value.relation == _RELATIONS[relation - 1]
        oracle = audit_outcome(oracles.audit_by_scalar_arithmetic, unchecked(k, p, v))
        assert str(info.value) == oracle

    def test_a_scaled_tensor_fails_relation_one(self):
        """p_0j^h is compared with 1, not with k_0: a tensor scaled by a
        constant, whose diagonal class has valency 2, is refused."""
        petersen = tensor_from_array(IntersectionArray(b=(3, 2), c=(1, 1)))
        doubled = (
            tuple(2 * x for x in petersen.k),
            tuple(
                tuple(tuple(2 * x for x in row) for row in table)
                for table in petersen.p
            ),
            2 * petersen.v,
        )
        for k, p, v in (((2,), (((2,),),), 2), doubled):
            with pytest.raises(InfeasibleArrayError) as info:
                IntersectionTensor(k=k, p=p, v=v)
            assert str(info.value).endswith(
                "relation p_0j^h = delta_jh violated (h=0 j=0)"
            )
            assert str(info.value) == audit_outcome(
                oracles.audit_by_scalar_arithmetic, unchecked(k, p, v)
            )

    @pytest.mark.parametrize("width", [4, 6])
    def test_x_blocks_are_wider_than_twice_the_q_degree(self, width):
        """Rank-3 XPoly tensors that keep relations 1-5 but not relation 6,
        b k_1 = d k_2, whose two sides differ yet agree under X = q^width:
        X^2 against q^4 X, and q^6 against X.  Their largest q-degree is 3,
        so the audit must take X = q^B with B > 6 to name the failure."""
        x, q = XPoly.gen(), XPoly((Q,))
        b, k1, d, k2 = {4: (x, x, q, q**3 * x), 6: (q**3, q**3, 1, x)}[width]
        k = (XPoly((1,)), k1, k2)
        p = (
            ((1, 0, 0), (0, k1, 0), (0, 0, k2)),
            ((0, 1, 0), (1, -1, b), (0, b, k2 - b)),
            ((0, 0, 1), (0, d, k1 - d), (1, k1 - d, k2 - 1 - (k1 - d))),
        )
        v = k[0] + k[1] + k[2]
        assert (b * k1).substitute_x(Q**width) == (d * k2).substitute_x(Q**width)
        with pytest.raises(InfeasibleArrayError) as info:
            IntersectionTensor(k=k, p=p, v=v)
        assert str(info.value).endswith(
            "relation p_ij^h k_h = p_ih^j k_j violated (h=1 i=1 j=2)"
        )
        assert str(info.value) == audit_outcome(
            oracles.audit_by_scalar_arithmetic, unchecked(k, p, v)
        )

    def test_grassmann_audit_makes_no_ratfunc_and_few_gcds(
        self, grassmann_report, monkeypatch
    ):
        t = grassmann_report.tensor
        entries = [t.v, *t.k, *(x for table in t.p for row in table for x in row)]
        denominators = {c.den for x in entries for c in x.coeffs}
        calls = {"gcd": 0, "ratfunc": 0}
        gcd, init = schemes.poly_gcd, RatFunc.__init__

        def counted_gcd(a, b):
            calls["gcd"] += 1
            return gcd(a, b)

        def counted_init(self, *args):
            calls["ratfunc"] += 1
            init(self, *args)

        monkeypatch.setattr(schemes, "poly_gcd", counted_gcd)
        monkeypatch.setattr(RatFunc, "__init__", counted_init)
        t.validate()
        monkeypatch.undo()
        assert calls["ratfunc"] == 0
        # the 17 denominators share factors, so their lcm needs some gcd
        assert 0 < calls["gcd"] <= len(denominators)


def test_the_audit_is_imported_on_first_use():
    """Starting the command line compiles no audit; validating a tensor
    imports it."""
    code = (
        "import sys, srgkit.cli, srgkit.schemes as s; "
        "print('srgkit.audit' in sys.modules); "
        "s.tensor_from_array(s.IntersectionArray(b=(3, 2), c=(1, 1))); "
        "print('srgkit.audit' in sys.modules)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-c", code]
    run = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False", "True"]


class TestTensorShapeAndExactness:
    """validate refuses a p that is not r x r x r, r = len(k), before any
    relation, and any entry that is not an exact scalar."""

    @staticmethod
    def petersen_fields():
        t = tensor_from_array(IntersectionArray(b=(3, 2), c=(1, 1)))
        return t.k, t.p, t.v

    def test_extra_entry_per_row(self):
        k, p, v = self.petersen_fields()
        p = tuple(tuple((*row, Fraction(0)) for row in table) for table in p)
        with pytest.raises(ValueError, match=r"3x3x3 .*: p\[0\]\[0\]\[3\] is extra$"):
            IntersectionTensor(k=k, p=p, v=v)

    def test_duplicated_table(self):
        k, p, v = self.petersen_fields()
        with pytest.raises(ValueError, match=r"shape 3x3x3 .*: p\[3\] is extra$"):
            IntersectionTensor(k=k, p=(*p, p[-1]), v=v)

    def test_missing_table(self):
        k, p, v = self.petersen_fields()
        with pytest.raises(ValueError, match=r"shape 3x3x3 .*: p\[2\] is missing$"):
            IntersectionTensor(k=k, p=p[:2], v=v)

    def test_empty_k(self):
        k, p, v = self.petersen_fields()
        with pytest.raises(ValueError, match=r"^k\[0\] is missing"):
            IntersectionTensor(k=(), p=p, v=v)

    def test_shape_comes_before_the_relations(self):
        k, p, v = self.petersen_fields()
        rows = [list(table) for table in p]
        rows[1][2] = rows[1][2][:2]
        short = tuple(map(tuple, rows))
        with pytest.raises(ValueError, match=r"p\[1\]\[2\]\[2\] is missing$") as info:
            IntersectionTensor(k=k, p=short, v=v + 1)
        assert not isinstance(info.value, InfeasibleArrayError)

    def test_float_entries_refused(self):
        k, p, v = self.petersen_fields()
        floats = tuple(tuple(tuple(map(float, row)) for row in table) for table in p)
        with pytest.raises(TypeError, match="^float entry"):
            IntersectionTensor(k=tuple(map(float, k)), p=floats, v=float(v))
        with pytest.raises(TypeError, match="^float entry"):
            IntersectionTensor(k=k, p=p, v=10.0)
