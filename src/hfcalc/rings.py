"""Graded ring presentations attached to space models.

A :class:`RingModel` is a commutative graded ring given by generators in
even degrees together with one rewriting rule per generator,

    gen ** power  ->  tail polynomial (lower power in that generator),

which is the shape produced by all the constructors in this package:
Z[x]/(x^{n+1}) for projective space, tensor products for products of
spaces, and the Chern-class relation xi^r = c1 xi^{r-1} - c2 xi^{r-2} + ...
for projective bundles.  Restricting relations to this triangular shape
gives a terminating normal form without Groebner machinery, and makes the
monomial basis (exponents below each rule's power) explicit, so graded
dimensions can be compared against Betti ranks.

Polynomials are dicts mapping exponent tuples to integer coefficients.
Odd-degree generators are not supported; models with odd cohomology simply
carry no ring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Mapping

from hfcalc.errors import RingError

__all__ = ["Poly", "RingModel", "polynomial_ring_mod_power", "tensor_rings", "bundle_extension"]

Monomial = tuple[int, ...]
Poly = dict  # Monomial -> int


def _clean(p: Mapping[Monomial, int]) -> Poly:
    return {m: c for m, c in p.items() if c != 0}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return _clean(out)


def poly_scale(a: Poly, k: int) -> Poly:
    if k == 0:
        return {}
    return {m: c * k for m, c in a.items()}


def poly_mul_raw(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _clean(out)


@dataclass(frozen=True)
class RingModel:
    """Generators (name, even degree) plus a power rule per generator.

    ``rules[i] = (power, tail)`` encodes generators[i] ** power = tail.
    """

    generators: tuple[tuple[str, int], ...]
    rules: tuple[tuple[int, Poly], ...]

    def __post_init__(self):
        if len(self.generators) != len(self.rules):
            raise RingError("one rewriting rule required per generator")
        for name, deg in self.generators:
            if deg <= 0 or deg % 2 != 0:
                raise RingError(f"generator {name} must have positive even degree, got {deg}")
        for power, _tail in self.rules:
            if power < 1:
                raise RingError("rule powers must be >= 1")

    # -- element constructors -------------------------------------------------

    def zero(self) -> Poly:
        return {}

    def unit(self) -> Poly:
        return {(0,) * len(self.generators): 1}

    def gen(self, name: str) -> Poly:
        for i, (gname, _deg) in enumerate(self.generators):
            if gname == name:
                expo = [0] * len(self.generators)
                expo[i] = 1
                return self.reduce({tuple(expo): 1})
        raise RingError(f"no generator named {name!r}")

    def monomial_degree(self, m: Monomial) -> int:
        return sum(e * deg for e, (_n, deg) in zip(m, self.generators))

    def degree_of(self, p: Poly) -> int | None:
        """Common degree of a homogeneous element, None for 0."""
        degs = {self.monomial_degree(m) for m in p}
        if not degs:
            return None
        if len(degs) > 1:
            raise RingError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    # -- normal form -----------------------------------------------------------

    def reduce(self, p: Poly) -> Poly:
        """Rewrite until every exponent is below its generator's rule power."""
        work = _clean(p)
        while True:
            target = None
            for m in work:
                for i, e in enumerate(m):
                    if e >= self.rules[i][0]:
                        target = (m, i)
                        break
                if target:
                    break
            if target is None:
                return work
            m, i = target
            c = work.pop(m)
            power, tail = self.rules[i]
            rest = list(m)
            rest[i] -= power
            replaced = poly_mul_raw({tuple(rest): c}, tail) if tail else {}
            work = poly_add(work, replaced)

    def add(self, a: Poly, b: Poly) -> Poly:
        return poly_add(a, b)

    def scale(self, a: Poly, k: int) -> Poly:
        return poly_scale(a, k)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self.reduce(poly_mul_raw(a, b))

    def power(self, a: Poly, k: int) -> Poly:
        out = self.unit()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def is_zero(self, p: Poly) -> bool:
        return not self.reduce(p)

    # -- graded structure --------------------------------------------------------

    def graded_dimensions(self) -> Counter:
        """degree -> number of basis monomials (exponents below each rule's
        power) of that degree, counted in one pass over the basis."""
        ranges = [range(power) for power, _tail in self.rules]
        return Counter(self.monomial_degree(m) for m in iproduct(*ranges))

    def graded_dimension(self, degree: int) -> int:
        return self.graded_dimensions()[degree]


def polynomial_ring_mod_power(name: str, degree: int, power: int) -> RingModel:
    """Z[name]/(name^power) with the generator in the given even degree."""
    return RingModel(generators=((name, degree),), rules=((power, {}),))


def trivial_ring() -> RingModel:
    """The cohomology ring of a point."""
    return RingModel(generators=(), rules=())


def _uniquify(names: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for n in names:
        if n in seen:
            seen[n] += 1
            out.append(f"{n}_{seen[n]}")
        else:
            seen[n] = 0
            out.append(n)
    return out


def tensor_rings(a: RingModel, b: RingModel) -> RingModel:
    """Tensor product over Z, renaming clashing generators."""
    names = _uniquify([n for n, _d in a.generators] + [n for n, _d in b.generators])
    gens = tuple(
        (names[i], deg)
        for i, (_n, deg) in enumerate(list(a.generators) + list(b.generators))
    )
    na, nb = len(a.generators), len(b.generators)

    def lift_a(p: Poly) -> Poly:
        return {m + (0,) * nb: c for m, c in p.items()}

    def lift_b(p: Poly) -> Poly:
        return {(0,) * na + m: c for m, c in p.items()}

    rules = tuple((power, lift_a(tail)) for power, tail in a.rules) + tuple(
        (power, lift_b(tail)) for power, tail in b.rules
    )
    return RingModel(generators=gens, rules=rules)


def bundle_extension(base: RingModel, r: int, chern: list[Poly] | None = None) -> RingModel:
    """Extend ``base`` by a degree-2 class xi subject to the Chern-class relation.

    ``chern`` lists c_1, ..., c_r as elements of the base ring (missing or
    None means the trivial bundle, i.e. xi^r = 0).  The rule stored is

        xi^r = sum_{q=1..r} (-1)^{q+1} c_q xi^{r-q},

    which is the alternating-sum relation solved for the top power.
    """
    if r < 1:
        raise RingError("bundle rank must be >= 1")
    names = _uniquify([n for n, _d in base.generators] + ["xi"])
    gens = tuple((names[i], deg) for i, (_n, deg) in enumerate(base.generators)) + ((names[-1], 2),)
    nb = len(base.generators)

    def lift(p: Poly, xi_power: int) -> Poly:
        return {m + (xi_power,): c for m, c in p.items()}

    rules = tuple((power, lift(tail, 0)) for power, tail in base.rules)
    tail: Poly = {}
    if chern:
        if len(chern) > r:
            raise RingError(f"at most {r} Chern classes for a rank-{r} bundle")
        for q, cq in enumerate(chern, start=1):
            if cq is None:
                continue
            deg = base.degree_of(cq)
            if deg is not None and deg != 2 * q:
                raise RingError(f"c_{q} must sit in degree {2 * q}, got {deg}")
            sign = 1 if q % 2 == 1 else -1
            tail = poly_add(tail, poly_scale(lift(cq, r - q), sign))
    rules = rules + ((r, tail),)
    return RingModel(generators=gens, rules=rules)
