"""Ring presentations: normal forms, tensor products, bundle relations."""

import time
from collections import Counter
from functools import reduce
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfcalc.errors import RingError
from hfcalc.io import parse_ring_element
from hfcalc.rings import RingModel, bundle_extension, polynomial_ring_mod_power, tensor_rings, trivial_ring
from hfcalc.spaces import product, projective_space


class TestPolynomialQuotient:
    def test_truncation(self):
        r = polynomial_ring_mod_power("x", 2, 3)
        assert not r.is_zero({(2,): 1})
        assert r.is_zero({(3,): 1})

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
        assert r.is_zero({})
        assert not r.is_zero(r.unit())

    def test_odd_degree_rejected(self):
        with pytest.raises(RingError):
            RingModel(generators=(("a", 3),), rules=((2, {}),))

    def test_duplicate_names_rejected(self):
        # A second generator of one name could be neither parsed nor told apart.
        with pytest.raises(RingError, match="generator name 'x' appears twice"):
            RingModel(generators=(("x", 2), ("y", 2), ("x", 2)), rules=((2, {}), (2, {}), (2, {})))

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
        r = bundle_extension(base, 2, [{(1, 0): 1, (0, 1): 1}, {(1, 1): 1}])  # x + x_1, x x_1
        assert [power for power, _tail in r.rules] == [2, 2, 2]
        assert dict(r.graded_dimensions()) == {0: 1, 2: 3, 4: 3, 6: 1}


class TestTensor:
    def test_p1_times_p1(self):
        r = tensor_rings(polynomial_ring_mod_power("x", 2, 2), polynomial_ring_mod_power("x", 2, 2))
        assert [g[0] for g in r.generators] == ["x", "x_1"]
        assert r.graded_dimension(2) == 2
        assert r.graded_dimension(4) == 1
        assert r.is_zero({(2, 0): 1})
        assert not r.is_zero({(1, 1): 1})

    @pytest.mark.parametrize("nested", ["left", "right"])
    def test_p1_cubed_names_distinct(self, nested):
        # (P^1 x P^1) x P^1 used to name its generators x, x_1, x_1: the
        # text x_1 read the second, and no text named the third.
        p1 = projective_space(1)
        x = product(product(p1, p1), p1) if nested == "left" else product(p1, product(p1, p1))
        names = [name for name, _deg in x.ring.generators]
        assert names == (["x", "x_1", "x_2"] if nested == "left" else ["x", "x_1", "x_1_1"])
        for i, name in enumerate(names):
            assert parse_ring_element(x.ring, name) == {tuple(int(k == i) for k in range(3)): 1}


class TestBundleExtension:
    def test_trivial_chern(self):
        r = bundle_extension(trivial_ring(), 3)
        assert r.is_zero({(3,): 1})
        assert [r.graded_dimension(n) for n in (0, 2, 4, 6)] == [1, 1, 1, 0]

    def test_chern_relation_rewrites(self):
        base = polynomial_ring_mod_power("h", 2, 2)
        r = bundle_extension(base, 2, chern=[{(1,): 1}, None])
        # xi^2 = c1 xi = h xi
        assert r.is_zero({(0, 2): 1, (1, 1): -1})

    def test_chern_degree_checked(self):
        base = polynomial_ring_mod_power("h", 2, 3)
        with pytest.raises(RingError, match="c_1"):
            bundle_extension(base, 2, chern=[{(2,): 1}])  # h^2

    def test_homogeneity_check(self):
        r = polynomial_ring_mod_power("x", 2, 4)
        with pytest.raises(RingError, match="homogeneous"):
            r.degree_of({(1,): 1, (0,): 1})  # x + 1
        assert r.degree_of({(1,): 1}) == 2
        assert r.degree_of({}) is None


def basis(ring):
    """Every basis monomial: each exponent below its rule's power."""
    return iproduct(*(range(power) for power, _tail in ring.rules))


# Names that clash with the ones tensor_rings and bundle_extension make.
NAMES = ["x", "x_1", "xi", "xi_1"]


def chern_classes(draw, ring, r):
    """c_1, ..., c_r: drawn integer combinations of the basis monomials of
    degree 2q, or None."""
    chern = []
    for q in range(1, r + 1):
        monomials = [m for m in basis(ring) if ring.monomial_degree(m) == 2 * q]
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials)))
        chern.append({m: c for m, c in zip(monomials, coeffs) if c} or None)
    return chern


@st.composite
def triangular_rings(draw):
    """Rings from the constructors: truncated polynomial rings with clashing
    names, tensor products, and bundle extensions whose Chern classes are
    drawn integer combinations of the base's basis monomials of their degree."""
    def truncated():
        return polynomial_ring_mod_power(
            draw(st.sampled_from(NAMES)), 2 * draw(st.integers(1, 3)), draw(st.integers(1, 4))
        )

    ring = truncated()
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            ring = tensor_rings(ring, truncated())
        else:
            r = draw(st.integers(1, 3))
            ring = bundle_extension(ring, r, chern_classes(draw, ring, r))
    return ring


@st.composite
def ring_elements(draw, ring, top=2):
    """Up to six monomials, each exponent up to ``top`` above its rule's power."""
    monomial = st.tuples(*(st.integers(0, power + top) for power, _tail in ring.rules))
    return draw(st.dictionaries(monomial, st.integers(-3, 3), max_size=6))


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


# -- the ring layer before it had one path, kept as the reference ------------------


def poly_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def reference_reduce(ring, p):
    """RingModel.reduce as it was: rescan for a reducible monomial and add
    its rewrite into a copy of the element, until none is left."""
    work = {m: c for m, c in p.items() if c}
    while True:
        target = next(((m, i) for m in work for i, e in enumerate(m) if e >= ring.rules[i][0]), None)
        if target is None:
            return work
        m, i = target
        c = work.pop(m)
        power, tail = ring.rules[i]
        rest = list(m)
        rest[i] -= power
        work = poly_add(work, {tuple(e + f for e, f in zip(rest, t)): c * tc for t, tc in tail.items()})


def reference_uniquify(names):
    """The renaming as it was: the k-th repeat of a name became name_k,
    taken or not."""
    seen: dict = {}
    out = []
    for n in names:
        seen[n] = seen.get(n, -1) + 1
        out.append(f"{n}_{seen[n]}" if seen[n] else n)
    return out


def reference_bundle_extension(base, r, chern):
    """bundle_extension as it was, with its own names and lifted rules: the
    generators and rules it built (its names could repeat)."""
    names = reference_uniquify([n for n, _d in base.generators] + ["xi"])
    gens = tuple((name, deg) for name, (_n, deg) in zip(names, base.generators)) + ((names[-1], 2),)
    rules = tuple((power, {m + (0,): c for m, c in tail.items()}) for power, tail in base.rules)
    tail: dict = {}
    for q, cq in enumerate(chern or [], start=1):
        if cq is not None:
            tail = poly_add(tail, {m + (r - q,): c if q % 2 else -c for m, c in cq.items()})
    return gens, rules + ((r, tail),)


def as_text(ring, p):
    """An element written out: a sign before every term, the coefficient
    left out where it is 1 before a generator."""
    terms = []
    for m, c in sorted(p.items()):
        factors = [f"{name}^{e}" if e > 1 else name for (name, _deg), e in zip(ring.generators, m) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        terms.append(("-" if c < 0 else "+") + "*".join(factors))
    return " ".join(terms)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_reduce(self, data):
        ring = data.draw(triangular_rings())
        p = data.draw(ring_elements(ring))
        assert ring.reduce(p) == reference_reduce(ring, p)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_bundle_extension(self, data):
        base = data.draw(triangular_rings())
        r = data.draw(st.integers(1, 3))
        chern = chern_classes(data.draw, base, r)
        ring = bundle_extension(base, r, chern)
        gens, rules = reference_bundle_extension(base, r, chern)
        assert ring.rules == rules
        assert [deg for _n, deg in ring.generators] == [deg for _n, deg in gens]
        names = [name for name, _deg in ring.generators]
        assert len(set(names)) == len(names)
        if len({name for name, _deg in gens}) == len(gens):
            assert ring.generators == gens

    def test_bundle_over_clashing_names(self):
        # A base with generators xi and xi_1: the old renaming gave the new
        # class the taken name xi_1.
        base = tensor_rings(polynomial_ring_mod_power("xi", 2, 2), polynomial_ring_mod_power("xi", 2, 2))
        assert [name for name, _deg in base.generators] == ["xi", "xi_1"]
        assert [name for name, _deg in bundle_extension(base, 2).generators] == ["xi", "xi_1", "xi_2"]
        assert [name for name, _deg in reference_bundle_extension(base, 2, None)[0]] == ["xi", "xi_1", "xi_1"]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_text_round_trip(self, data):
        # A normal-form element of a product or bundle ring, written out,
        # parses back equal.
        ring = data.draw(triangular_rings())
        p = ring.reduce(data.draw(ring_elements(ring, top=0)))
        assert parse_ring_element(ring, as_text(ring, p)) == p
