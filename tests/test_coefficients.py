"""Coefficient theories: partition-number ranks and builtin tables."""

import pytest

from hfcalc.coefficients import builtin_theory, custom_theory, mu_rank, partition_count
from hfcalc.errors import TheoryError


def monomial_count(j: int) -> int:
    """Brute force: monomials x_2^{a_1} x_4^{a_2} ... of degree 2j in
    Z[x_2, x_4, x_6, ...], i.e. solutions of sum i * a_i = j."""
    if j < 0:
        return 0

    def count(remaining, max_part):
        if remaining == 0:
            return 1
        return sum(count(remaining - part, part) for part in range(min(remaining, max_part), 0, -1))

    return count(j, j) if j > 0 else 1


class TestMuRank:
    def test_unit_in_degree_zero(self):
        assert mu_rank(0) == 1

    def test_negative_degrees_vanish(self):
        assert mu_rank(-1) == 0
        assert mu_rank(-7) == 0

    def test_degree_four(self):
        # x2^4, x2^2 x4, x4^2, x2 x6, x8
        assert mu_rank(4) == monomial_count(4) == 5

    def test_enumeration_up_to_20(self):
        for j in range(21):
            assert mu_rank(j) == monomial_count(j)

    def test_first_values(self):
        assert [mu_rank(j) for j in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]

    def test_generating_function(self):
        # coefficients of prod_i (1 - t^i)^(-1) up to t^20
        bound = 20
        series = [0] * (bound + 1)
        series[0] = 1
        for i in range(1, bound + 1):
            for n in range(i, bound + 1):
                series[n] += series[n - i]
        assert series == [partition_count(n) for n in range(bound + 1)]

    def test_large_values(self):
        # Published values (OEIS A000041); asked largest first, on a table
        # that may not reach them yet.
        assert partition_count(1000) == 24061467864032622473692149727991
        assert partition_count(400) == 6727090051741041926
        assert partition_count(100) == 190569292
        assert [partition_count(n) for n in (-3, -1)] == [0, 0]


class TestBuiltins:
    def test_hz(self):
        hz = builtin_theory("HZ")
        assert hz.rank_at(0) == 1
        assert hz.rank_at(1) == 0
        assert not hz.is_rational
        assert hz.is_ordinary_integral

    def test_mu(self):
        mu = builtin_theory("MU")
        assert mu.rank_at(2) == 2
        assert mu.rank_at(-1) == 0
        assert not mu.is_ordinary_integral

    def test_muq(self):
        muq = builtin_theory("MUQ")
        assert muq.rank_at(3) == 3
        assert muq.is_rational

    def test_unknown_name(self):
        with pytest.raises(TheoryError, match="KU"):
            builtin_theory("KU")


class TestCustomTheories:
    def test_truncated_ku_like(self):
        t = custom_theory({0: 1, 1: 1})
        assert t.rank_at(0) == t.rank_at(1) == 1
        assert t.rank_at(2) == 0

    def test_negative_rank_rejected(self):
        with pytest.raises(TheoryError, match="degree -3"):
            custom_theory({-3: -1})

    def test_negative_j_min(self):
        t = custom_theory({-1: 1})
        assert t.rank_at(-1) == 1
        assert t.rank_at(-2) == 0

    def test_ordinary_integral_detection(self):
        assert custom_theory({0: 1}).is_ordinary_integral
        assert not custom_theory({0: 1}, ring_field="rational").is_ordinary_integral
        assert not custom_theory({0: 2}).is_ordinary_integral
        assert not custom_theory({0: 1, 1: 1}).is_ordinary_integral
