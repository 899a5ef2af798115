"""Exact linear algebra: Smith normal form against independent oracles.

The SNF oracle is the gcd-of-minors characterization: the product of the
first k invariant factors equals the gcd of all k x k minors.  Cokernels
are checked by literal coset enumeration on small examples, kernels by
fraction-based row reduction.
"""

from fractions import Fraction
from itertools import combinations, product as iproduct
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfcalc.abelian import (
    FgAbelianGroup,
    IntMatrix,
    cokernel_of,
    direct_sum,
    divisibility_chain,
    kernel_rank,
    smith_normal_form,
)


def matrix_from_rows(rows):
    """The IntMatrix of a non-empty, rectangular list of rows."""
    return IntMatrix(len(rows), len(rows[0]), tuple(int(x) for r in rows for x in r))


def identity_matrix(n):
    return IntMatrix.diagonal([1] * n)


def det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det(minor)
    return total


def minor_gcds(m: IntMatrix) -> list[int]:
    """g_k = gcd of all k x k minors, for k = 1 .. min(rows, cols)."""
    rows = m.to_lists()
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(det(sub)))
        out.append(g)
    return out


def snf_matches_minor_oracle(m: IntMatrix) -> bool:
    factors = smith_normal_form(m)
    gs = minor_gcds(m)
    prod = 1
    for k, d in enumerate(factors):
        prod *= d
        if prod != gs[k]:
            return False
    # beyond the rank every minor gcd vanishes
    return all(g == 0 for g in gs[len(factors) :])


def rational_rank(m: IntMatrix) -> int:
    rows = [[Fraction(x) for x in r] for r in m.to_lists()]
    rank = 0
    for col in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(m.rows):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(identity_matrix(2)) == [1, 1]

    def test_zero_map(self):
        assert smith_normal_form(IntMatrix.zero(2, 2)) == []

    def test_2x2_example(self):
        # gcd of 1x1 minors is 2, |det| = 8, so the factors are [2, 4]
        m = matrix_from_rows([[2, 4], [6, 8]])
        assert smith_normal_form(m) == [2, 4]
        assert snf_matches_minor_oracle(m)

    def test_empty(self):
        assert smith_normal_form(IntMatrix(0, 0, ())) == []
        assert smith_normal_form(IntMatrix(3, 0, ())) == []

    def test_divisibility_chain_shape(self):
        m = matrix_from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        factors = smith_normal_form(m)
        assert factors == [1, 1, 30]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.data(),
    )
    def test_minor_gcd_property(self, rows, cols, data):
        entries = data.draw(
            st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols)
        )
        m = IntMatrix(rows, cols, tuple(entries))
        assert snf_matches_minor_oracle(m)


class TestCokernel:
    def test_diag_2_0_against_coset_enumeration(self):
        m = IntMatrix.diagonal([2, 0])
        # Z^2 / <(2,0)>: cosets with representatives in [0,N)^2 number 2N,
        # so the quotient has one free generator and a torsion part of order 2.
        for big_n in (5, 9):
            reps = {(x % 2, y) for x in range(big_n) for y in range(big_n)}
            assert len(reps) == 2 * big_n
        assert cokernel_of(m) == FgAbelianGroup.of(1, [2])

    def test_identity(self):
        assert cokernel_of(identity_matrix(3)) == FgAbelianGroup()

    def test_zero_map_into_z2(self):
        assert cokernel_of(IntMatrix(2, 0, ())) == FgAbelianGroup(2)

    def test_free_rank_plus_rank_is_rows(self):
        for rows in ([[2, 4], [6, 8]], [[1, 2, 3], [2, 4, 6]], [[0, 0], [0, 7]]):
            m = matrix_from_rows(rows)
            coker = cokernel_of(m)
            assert coker.free_rank + len(smith_normal_form(m)) == m.rows

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        import random

        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            ours = smith_normal_form(matrix_from_rows(data))
            theirs = sympy_snf(sympy.Matrix(data), domain=sympy.ZZ)
            diag = [abs(int(theirs[i, i])) for i in range(min(rows, cols))]
            assert ours == [d for d in diag if d != 0]


class TestKernelRank:
    def test_identity(self):
        assert kernel_rank(identity_matrix(2)) == 0

    def test_zero(self):
        assert kernel_rank(IntMatrix.zero(2, 3)) == 3

    def test_rank_one_example(self):
        m = matrix_from_rows([[1, 2, 3], [2, 4, 6]])
        assert kernel_rank(m) == m.cols - rational_rank(m) == 2

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_matches_rational_row_reduction(self, rows, cols, data):
        entries = data.draw(
            st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols)
        )
        m = IntMatrix(rows, cols, tuple(entries))
        assert kernel_rank(m) == cols - rational_rank(m)


def crt_elementary_divisors(factors):
    sympy = pytest.importorskip("sympy")
    eds = []
    for f in factors:
        for prime, e in sympy.factorint(f).items():
            eds.append(int(prime) ** int(e))
    return sorted(eds)


class TestFgAbelianGroup:
    def test_direct_sum_concatenates(self):
        a = FgAbelianGroup.of(1, [2])
        b = FgAbelianGroup.of(0, [4])
        assert direct_sum(a, b) == FgAbelianGroup.of(1, [2, 4])

    def test_crt_normalization(self):
        # Z/2 + Z/3 = Z/6 by CRT; the chain normalization must merge them.
        s = direct_sum(FgAbelianGroup.of(0, [2]), FgAbelianGroup.of(0, [3]))
        assert s == FgAbelianGroup.of(0, [6])
        assert crt_elementary_divisors(s.torsion) == crt_elementary_divisors([2, 3])

    def test_identity_element(self):
        g = FgAbelianGroup.of(2, [2, 6])
        assert direct_sum(FgAbelianGroup(), g) == g

    def test_rejects_bad_chain(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (4, 6))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbelianGroup(-1, ())

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(2, 60), max_size=5),
        st.lists(st.integers(2, 60), max_size=5),
        st.lists(st.integers(2, 60), max_size=5),
    )
    def test_commutative_associative(self, xs, ys, zs):
        a, b, c = (FgAbelianGroup.of(0, t) for t in (xs, ys, zs))
        assert direct_sum(a, b) == direct_sum(b, a)
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(2, 200), max_size=6))
    def test_chain_presents_same_group(self, factors):
        chain = divisibility_chain(factors)
        for i in range(1, len(chain)):
            assert chain[i] % chain[i - 1] == 0
        assert crt_elementary_divisors(chain) == crt_elementary_divisors(factors)

    def test_tensor_and_tor_examples(self):
        z2, z4, z6 = (FgAbelianGroup.of(0, [d]) for d in (2, 4, 6))
        assert z4.tensor(z6) == z4.tor(z6) == z2
        assert FgAbelianGroup(2).tensor(FgAbelianGroup.of(1, [3])) == FgAbelianGroup.of(2, [3, 3])
        assert FgAbelianGroup(3).tor(FgAbelianGroup.of(1, [3])) == FgAbelianGroup()

    @settings(max_examples=60, deadline=None)
    @given(*[st.builds(FgAbelianGroup.of, st.integers(0, 3), st.lists(st.integers(2, 30), max_size=3))] * 3)
    def test_tensor_and_tor_laws(self, a, b, c):
        # Z is the unit of (x) and Tor-acyclic; both functors are symmetric
        # and additive, and (x) is associative.
        unit, zero = FgAbelianGroup(1), FgAbelianGroup()
        assert a.tensor(unit) == a and a.tor(unit) == zero
        assert a.tensor(b) == b.tensor(a) and a.tor(b) == b.tor(a)
        assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))
        assert a.tensor(direct_sum(b, c)) == direct_sum(a.tensor(b), a.tensor(c))
        assert a.tor(direct_sum(b, c)) == direct_sum(a.tor(b), a.tor(c))

    def test_str(self):
        assert str(FgAbelianGroup.of(2, [2])) == "Z^2 + Z/2"
        assert str(FgAbelianGroup()) == "0"
