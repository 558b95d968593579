"""Tests for exact finite-field arithmetic on element indices, and for
the counting oracles built on it."""

import gc
import itertools
import random

import pytest

import oracles
from oracles import (
    char_sum_c,
    count_hermitian_norm_solutions,
    count_hyperbolic_solutions,
    hermitian_count_closed,
    hyperbolic_count_closed,
    quadratic_character,
    trace_to_prime,
)
from srgkit.geometry import FormedSpace, enumerate_points
from srgkit.gf import field_of_order, is_prime_power, make_field


ORDERS_TO_256 = [q for q in range(2, 257) if is_prime_power(q)]
ORDERS_TO_64 = [q for q in ORDERS_TO_256 if q <= 64]


class TestMakeField:
    def test_deterministic_moduli(self):
        assert make_field(3, 1).modulus == (0, 1)
        assert make_field(3, 2).modulus == (1, 0, 1)
        assert make_field(2, 2).modulus == (1, 1, 1)
        assert make_field(2, 3).modulus == (1, 0, 1, 1)
        assert make_field(2, 6).modulus == (1, 0, 0, 0, 0, 1, 1)

    @pytest.mark.parametrize("q", ORDERS_TO_256)
    def test_moduli_are_the_least_irreducibles(self, q):
        """The modulus of every field up to order 256 is the least monic
        polynomial that no product of two monic factors equals."""
        field = field_of_order(q)
        assert field.modulus == oracles.least_irreducible_by_products(field.p, field.k)

    def test_element_counts(self):
        for p, k in [(2, 1), (3, 2), (2, 4), (5, 2)]:
            field = make_field(p, k)
            assert field.q == len(field.add_table) == len(field.mul_table) == p**k

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_field(4, 1)
        with pytest.raises(ValueError):
            make_field(1, 2)
        with pytest.raises(ValueError):
            make_field(3, 0)

    def test_cached_identity(self):
        assert make_field(3, 2) is make_field(3, 2)
        assert field_of_order(9) is make_field(3, 2)

    def test_field_of_order_rejects_non_prime_powers(self):
        with pytest.raises(ValueError):
            field_of_order(6)
        with pytest.raises(ValueError):
            field_of_order(1)

    def test_frobenius_has_order_six_on_gf64(self):
        field = make_field(2, 6)
        gen = next(
            a
            for a in range(1, field.q)
            if all(field.pow_index(a, e) != 1 for e in (9, 21))
            and field.pow_index(a, 63) == 1
        )
        img = gen
        orbit = 0
        while True:
            img = field.pow_index(img, 2)
            orbit += 1
            if img == gen:
                break
        assert orbit == 6


def power_by_products(mul, a: int, e: int) -> int:
    """a**e for e >= 0, as e products in the table ``mul``."""
    r = 1
    for _ in range(e):
        r = mul[r][a]
    return r


class TestFieldArithmetic:
    @pytest.mark.parametrize("q", ORDERS_TO_256)
    def test_tables_match_schoolbook_arithmetic(self, q):
        """Every table of every field up to order 256 equals the schoolbook
        one: negatives, inverses and Frobenius images are read off the
        schoolbook sums and products."""
        field = field_of_order(q)
        add, mul = oracles.schoolbook_tables(field)
        assert [list(row) for row in field.add_table] == add
        assert [list(row) for row in field.mul_table] == mul
        assert field.neg_table == [row.index(0) for row in add]
        assert field.inv_table == [0] + [row.index(1) for row in mul[1:]]
        frob = [power_by_products(mul, a, field.p) for a in range(q)]
        assert field.frob_table == frob

    def test_no_table_row_is_tracked_by_the_collector(self):
        """make_field keeps every field, so the rows of its add and mul
        tables, which hold only ints, must be untracked by the cyclic
        garbage collector, not traversed at each collection."""
        fields = [field_of_order(q) for q in (2, 9, 64, 125)]
        gc.collect()
        rows = [row for f in fields for row in (*f.add_table, *f.mul_table)]
        assert rows and not any(map(gc.is_tracked, rows))

    @pytest.mark.parametrize("q", ORDERS_TO_64)
    def test_pow_index_matches_repeated_products(self, q):
        """a**e for every a and -2q < e < 2q: e schoolbook products of a,
        or -e of its inverse; 0**0 = 1, 0**e = 0, and 0**-e raises."""
        field = field_of_order(q)
        _, mul = oracles.schoolbook_tables(field)
        for a in range(q):
            for e in range(2 * q):
                assert field.pow_index(a, e) == power_by_products(mul, a, e)
            if a == 0:
                with pytest.raises(ZeroDivisionError):
                    field.pow_index(0, -1)
                continue
            inverse = mul[a].index(1)
            for e in range(1, 2 * q):
                expected = power_by_products(mul, inverse, e)
                assert field.pow_index(a, -e) == expected

    @pytest.mark.parametrize("q", ORDERS_TO_64)
    def test_logs_invert_the_powers_of_the_least_primitive_element(self, q):
        """exp_table lists g^0 .. g^(q-2), every nonzero element once, and
        log_table inverts it; every element below g has a smaller order."""
        field = field_of_order(q)
        mul, g = field.mul_table, field.primitive

        def order(a):
            return next(e for e in range(1, q) if power_by_products(mul, a, e) == 1)

        assert order(g) == q - 1
        assert all(order(a) < q - 1 for a in range(1, g))
        assert field.exp_table == [power_by_products(mul, g, e) for e in range(q - 1)]
        assert sorted(field.exp_table) == list(range(1, q))
        assert field.log_table[0] is None
        assert [field.log_table[x] for x in field.exp_table] == list(range(q - 1))

    @pytest.mark.parametrize("p,k", [(3, 2), (2, 3), (5, 2), (2, 4)])
    def test_ring_laws_on_random_triples(self, p, k):
        field = make_field(p, k)
        add, mul, neg = field.add_table, field.mul_table, field.neg_table
        rng = random.Random(20240 + p * k)
        for _ in range(60):
            a, b, c = (rng.randrange(field.q) for _ in range(3))
            assert add[add[a][b]][c] == add[a][add[b][c]]
            assert add[a][b] == add[b][a]
            assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
            assert mul[a][b] == mul[b][a]
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
            assert add[a][0] == a
            assert mul[a][1] == a
            assert add[a][neg[a]] == 0

    @pytest.mark.parametrize("p,k", [(3, 2), (2, 3), (5, 1)])
    def test_inverses_exhaustively(self, p, k):
        field = make_field(p, k)
        for a in range(field.q):
            if a:
                assert field.mul_table[a][field.inv_table[a]] == 1
                assert field.pow_index(a, -1) == field.inv_table[a]
            else:
                with pytest.raises(ZeroDivisionError):
                    field.pow_index(a, -1)

    def test_pow_and_division(self):
        """Division by b is a product with inv_table[b]: (a / b) b = a."""
        field = make_field(3, 2)
        mul, inv = field.mul_table, field.inv_table
        t = 3
        assert field.pow_index(t, 0) == 1
        assert field.pow_index(t, field.q - 1) == 1
        assert field.pow_index(t, -1) == inv[t]
        assert mul[t][inv[t]] == 1
        for a in range(field.q):
            for b in range(1, field.q):
                assert mul[mul[a][inv[b]]][b] == a

    @pytest.mark.parametrize("index", [-1, 3, 7])
    def test_an_element_index_lies_in_the_field(self, index):
        """An element index enters the package as a form value, and is
        refused there when it lies outside the value field: GF(3) inside
        GF(9) for a hermitian form, which holds the indices 3 and 7."""
        space = FormedSpace("hermitian", make_field(3, 2), 2)
        with pytest.raises(ValueError, match=rf"form value {index} is not in GF\(3\)"):
            enumerate_points(space, index)

    def test_coeff_roundtrip(self):
        field = make_field(5, 2)
        for i in range(field.q):
            assert field.index_of(field.coeffs_of(i)) == i
        assert field.index_of([2, 3]) == 2 + 3 * 5
        assert field.coeffs_of(2 + 3 * 5) == [2, 3]

    def test_subfield_embedding_is_a_field_embedding(self):
        big = make_field(2, 6)
        for k_sub in (1, 2, 3):
            sub, embed = big.subfield(k_sub)
            image = set(embed)
            assert len(image) == sub.q
            for i in range(sub.q):
                for j in range(sub.q):
                    assert embed[sub.add_table[i][j]] == big.add_table[embed[i]][embed[j]]
                    assert embed[sub.mul_table[i][j]] == big.mul_table[embed[i]][embed[j]]

    def test_subfield_requires_divisor_degree(self):
        with pytest.raises(ValueError):
            make_field(2, 6).subfield(4)

    @pytest.mark.parametrize("k_sub", [0, -2, -6])
    def test_subfield_refuses_a_degree_below_one_by_name(self, k_sub):
        message = f"k_sub must be a positive integer, not {k_sub}"
        with pytest.raises(ValueError, match=message):
            make_field(2, 6).subfield(k_sub)


class TestNormTraceCharacter:
    """The relative norm, the absolute trace and the quadratic character,
    read on element indices from the field's powers, Frobenius table and
    logs (:mod:`oracles`)."""

    def test_norm_basics(self):
        norms = oracles.norm_table(make_field(3, 2))
        assert norms[0] == 0
        assert norms[1] == 1
        assert norms[3] == 1  # t^2 = -1, so t^4 = 1

    @pytest.mark.parametrize("q", [4, 9, 16])
    def test_norm_multiplicative_and_surjective(self, q):
        ext = field_of_order(q)
        sub, _ = ext.subfield(ext.k // 2)
        norms, mul = oracles.norm_table(ext), ext.mul_table
        for a in range(q):
            for b in range(q):
                assert norms[mul[a][b]] == sub.mul_table[norms[a]][norms[b]]
        assert set(norms[1:]) == set(range(1, sub.q))
        assert norms.count(1) == sub.q + 1

    def test_norm_rejects_non_square_order(self):
        f8 = make_field(2, 3)
        with pytest.raises(ValueError, match="square order"):
            oracles.norm_table(f8)
        with pytest.raises(ValueError, match="hermitian forms need a field of square"):
            FormedSpace("hermitian", f8, 2)

    def test_trace_examples(self):
        f4 = make_field(2, 2)
        traces = [trace_to_prime(f4, a) for a in range(f4.q)]
        assert traces[0] == 0
        assert traces[1] == 0  # 1 + 1^2 = 0
        assert traces.count(0) == 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_trace_additive_and_balanced(self, k):
        field = make_field(2, k)
        traces = [trace_to_prime(field, a) for a in range(field.q)]
        for a in range(field.q):
            for b in range(field.q):
                assert traces[field.add_table[a][b]] == (traces[a] + traces[b]) % 2
        assert traces.count(0) == field.q // 2

    def test_trace_rejects_odd_characteristic(self):
        with pytest.raises(ValueError):
            trace_to_prime(make_field(3, 1), 1)

    def test_character_examples_mod_5(self):
        f5 = make_field(5, 1)
        assert quadratic_character(f5, 0) == 0
        assert quadratic_character(f5, 4) == 1
        assert quadratic_character(f5, 2) == -1

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 25])
    def test_character_multiplicative_and_balanced(self, q):
        field = field_of_order(q)
        chi = [quadratic_character(field, a) for a in range(q)]
        for a in range(1, q):
            for b in range(1, q):
                assert chi[field.mul_table[a][b]] == chi[a] * chi[b]
        assert chi.count(1) == (q - 1) // 2

    def test_character_rejects_even_q(self):
        with pytest.raises(ValueError):
            quadratic_character(make_field(2, 2), 1)


class TestHermitianCounts:
    def test_examples(self):
        assert count_hermitian_norm_solutions(1, 3, 0) == 1
        assert count_hermitian_norm_solutions(1, 3, 1) == 4
        assert count_hermitian_norm_solutions(2, 2, 0) == 10

    def test_frozen_zero_counts_over_gf9(self):
        assert count_hermitian_norm_solutions(1, 3, 0) == 1
        assert count_hermitian_norm_solutions(2, 3, 0) == 33
        assert count_hermitian_norm_solutions(3, 3, 0) == 225

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_agrees_with_enumeration(self, n, q):
        counts = oracles.hermitian_norm_counts(n, q)
        for c in range(q):
            assert count_hermitian_norm_solutions(n, q, c) == counts[c]

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_total_count(self, n, q):
        total = sum(count_hermitian_norm_solutions(n, q, c) for c in range(q))
        assert total == q ** (2 * n)

    def test_closed_forms(self):
        for q in (2, 3, 4, 5):
            for n in (1, 2, 3, 4):
                assert count_hermitian_norm_solutions(n, q, 0) == hermitian_count_closed(
                    n, q, zero=True
                )
                assert count_hermitian_norm_solutions(n, q, 1) == hermitian_count_closed(
                    n, q, zero=False
                )


class TestHyperbolicCounts:
    def test_examples(self):
        assert count_hyperbolic_solutions(1, 2, zero_target=True) == 3
        for q in (2, 3, 5):
            assert count_hyperbolic_solutions(0, q, zero_target=True) == 1
            assert count_hyperbolic_solutions(0, q, zero_target=False) == 0

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_agrees_with_enumeration(self, k, q):
        counts = oracles.hyperbolic_counts(k, q)
        assert count_hyperbolic_solutions(k, q, zero_target=True) == counts[0]
        if k:
            nonzero = set(counts[1:])
            assert nonzero == {count_hyperbolic_solutions(k, q, zero_target=False)}

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_partition_identity(self, k, q):
        a = count_hyperbolic_solutions(k, q, zero_target=True)
        b = count_hyperbolic_solutions(k, q, zero_target=False)
        assert a + (q - 1) * b == q ** (2 * k)
        assert a == hyperbolic_count_closed(k, q, zero=True)
        assert b == hyperbolic_count_closed(k, q, zero=False)


class TestCharSums:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_matches_direct_root_counting_exhaustively(self, q):
        for g1, g2, lam in itertools.product(range(q), repeat=3):
            assert char_sum_c(g1, g2, lam, q) == oracles.char_sum_direct(
                g1, g2, lam, q
            )

    @pytest.mark.parametrize("q", [7, 8, 9])
    def test_matches_direct_root_counting_sampled(self, q):
        rng = random.Random(987 + q)
        for _ in range(40):
            g1, g2, lam = (rng.randrange(q) for _ in range(3))
            assert char_sum_c(g1, g2, lam, q) == oracles.char_sum_direct(
                g1, g2, lam, q
            )

    def test_values_bounded(self):
        for g1 in range(5):
            for lam in range(5):
                assert 0 <= char_sum_c(g1, g1, lam, 5) <= 2 * 5

    def test_diagonal_sums_separate_some_pair_of_slopes(self):
        # For every gamma there are two slopes lam1 != lam2, neither equal
        # to gamma, whose diagonal sums differ.
        for gamma in range(5):
            slopes = (lam for lam in range(5) if lam != gamma)
            assert len({char_sum_c(gamma, gamma, lam, 5) for lam in slopes}) >= 2
