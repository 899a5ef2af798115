"""Ring presentations: normal forms, tensor products, bundle relations."""

import pytest

from hfcalc.errors import RingError
from hfcalc.rings import RingModel, bundle_extension, polynomial_ring_mod_power, tensor_rings, trivial_ring


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
        assert r.is_zero(r.add(lhs, r.scale(rhs, -1)))

    def test_chern_degree_checked(self):
        base = polynomial_ring_mod_power("h", 2, 3)
        h2 = base.power(base.gen("h"), 2)
        with pytest.raises(RingError, match="c_1"):
            bundle_extension(base, 2, chern=[h2])

    def test_homogeneity_check(self):
        r = polynomial_ring_mod_power("x", 2, 4)
        x = r.gen("x")
        mixed = r.add(x, r.unit())
        with pytest.raises(RingError, match="homogeneous"):
            r.degree_of(mixed)
        assert r.degree_of(x) == 2
        assert r.degree_of(r.zero()) is None
