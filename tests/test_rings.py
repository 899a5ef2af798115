"""Ring presentations: normal forms, tensor products, bundle relations."""

import time
from collections import Counter
from functools import reduce
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfcalc.errors import RingError
from hfcalc.rings import RingModel, bundle_extension, poly_add, poly_scale, polynomial_ring_mod_power, tensor_rings, trivial_ring
from hfcalc.spaces import product, projective_space


class TestPolynomialQuotient:
    def test_truncation(self):
        r = polynomial_ring_mod_power("x", 2, 3)
        x = r.gen("x")
        assert not r.is_zero(r.power(x, 2))
        assert r.is_zero(r.power(x, 3))

    def test_graded_dimensions(self):
        r = polynomial_ring_mod_power("x", 2, 4)
        assert [r.graded_dimension(n) for n in range(0, 8)] == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_graded_dimensions_match_poincare_polynomial(self):
        # Basis counts are the coefficients of prod_i (1 + t^d_i + ... + t^(d_i (power_i - 1))).
        r = bundle_extension(
            tensor_rings(polynomial_ring_mod_power("x", 2, 3), polynomial_ring_mod_power("y", 4, 2)), 3
        )
        poly = {0: 1}
        for (_name, deg), (power, _tail) in zip(r.generators, r.rules):
            step: dict = {}
            for d, c in poly.items():
                for e in range(power):
                    step[d + e * deg] = step.get(d + e * deg, 0) + c
            poly = step
        assert dict(r.graded_dimensions()) == poly
        assert [r.graded_dimension(n) for n in range(0, 14)] == [poly.get(n, 0) for n in range(0, 14)]

    def test_trivial_ring(self):
        r = trivial_ring()
        assert r.graded_dimension(0) == 1
        assert r.graded_dimension(2) == 0
        assert r.is_zero(r.zero())
        assert not r.is_zero(r.unit())

    def test_odd_degree_rejected(self):
        with pytest.raises(RingError):
            RingModel(generators=(("a", 3),), rules=((2, {}),))

    @pytest.mark.parametrize("gens, rules", [
        ((("x", 2),), ((2, {(3,): 1}),)),  # x^2 = x^3 rewrote forever
        ((("x", 2),), ((2, {(2,): 1}),)),  # its own power
        ((("x", 2),), ((2, {(): 1}),)),  # wrong length, once read as a constant
        ((("x", 2),), ((2, {(1,): 1}),)),  # degree 2, not 4
        ((("x", 2), ("y", 2)), ((2, {(0, 2): 1}), (2, {}))),  # a later generator
        ((("x", 2), ("y", 2)), ((3, {}), (1, {(2, -1): 1}))),  # a negative exponent
    ], ids=["above-power", "at-power", "length", "degree", "later", "negative"])
    def test_rule_must_be_triangular(self, gens, rules):
        with pytest.raises(RingError, match="tail monomial"):
            RingModel(generators=gens, rules=rules)

    def test_constructor_rings_are_triangular(self):
        # Tensor factors stay apart and the bundle class comes last, so the
        # relation xi^2 = c1 xi - c2 over P^1 x P^1 passes.
        base = tensor_rings(polynomial_ring_mod_power("x", 2, 2), polynomial_ring_mod_power("x", 2, 2))
        x, y = base.gen("x"), base.gen("x_1")
        r = bundle_extension(base, 2, [poly_add(x, y), base.mul(x, y)])
        assert [power for power, _tail in r.rules] == [2, 2, 2]
        assert dict(r.graded_dimensions()) == {0: 1, 2: 3, 4: 3, 6: 1}


class TestTensor:
    def test_p1_times_p1(self):
        r = tensor_rings(polynomial_ring_mod_power("x", 2, 2), polynomial_ring_mod_power("x", 2, 2))
        assert [g[0] for g in r.generators] == ["x", "x_1"]
        assert r.graded_dimension(2) == 2
        assert r.graded_dimension(4) == 1
        a, b = r.gen("x"), r.gen("x_1")
        assert r.is_zero(r.mul(a, a))
        assert not r.is_zero(r.mul(a, b))


class TestBundleExtension:
    def test_trivial_chern(self):
        r = bundle_extension(trivial_ring(), 3)
        xi = r.gen("xi")
        assert r.is_zero(r.power(xi, 3))
        assert [r.graded_dimension(n) for n in (0, 2, 4, 6)] == [1, 1, 1, 0]

    def test_chern_relation_rewrites(self):
        base = polynomial_ring_mod_power("h", 2, 2)
        h = base.gen("h")
        r = bundle_extension(base, 2, chern=[h, None])
        xi = r.gen("xi")
        # xi^2 = c1 xi = h xi
        lhs = r.power(xi, 2)
        h_lift = r.gen("h")
        rhs = r.mul(h_lift, xi)
        assert r.is_zero(poly_add(lhs, poly_scale(rhs, -1)))

    def test_chern_degree_checked(self):
        base = polynomial_ring_mod_power("h", 2, 3)
        h2 = base.power(base.gen("h"), 2)
        with pytest.raises(RingError, match="c_1"):
            bundle_extension(base, 2, chern=[h2])

    def test_homogeneity_check(self):
        r = polynomial_ring_mod_power("x", 2, 4)
        x = r.gen("x")
        mixed = poly_add(x, r.unit())
        with pytest.raises(RingError, match="homogeneous"):
            r.degree_of(mixed)
        assert r.degree_of(x) == 2
        assert r.degree_of(r.zero()) is None


def basis(ring):
    """Every basis monomial: each exponent below its rule's power."""
    return iproduct(*(range(power) for power, _tail in ring.rules))


@st.composite
def triangular_rings(draw):
    """Rings from the constructors: truncated polynomial rings, tensor
    products, and bundle extensions whose Chern classes are drawn integer
    combinations of the base's basis monomials of their degree."""
    def truncated():
        return polynomial_ring_mod_power("x", 2 * draw(st.integers(1, 3)), draw(st.integers(1, 4)))

    ring = truncated()
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            ring = tensor_rings(ring, truncated())
            continue
        chern = []
        for q in range(1, draw(st.integers(1, 3)) + 1):
            monomials = [m for m in basis(ring) if ring.monomial_degree(m) == 2 * q]
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials)))
            chern.append({m: c for m, c in zip(monomials, coeffs) if c} or None)
        ring = bundle_extension(ring, len(chern), chern)
    return ring


class TestGradedDimensions:
    """The graded dimensions as a product of polynomials in the rule powers."""

    @settings(max_examples=60, deadline=None)
    @given(triangular_rings())
    def test_match_monomial_enumeration(self, ring):
        assert ring.graded_dimensions() == Counter(ring.monomial_degree(m) for m in basis(ring))

    def test_many_factors_at_table_cost(self):
        # (P^1)^24 has a basis of 2^24 monomials; its dimensions are 25 numbers.
        start = time.perf_counter()
        x = reduce(product, [projective_space(1)] * 24)
        assert time.perf_counter() - start < 1.0
        assert [x.ring.graded_dimension(2 * k) for k in (0, 1, 12, 24)] == [1, 24, 2704156, 1]
