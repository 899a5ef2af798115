"""Graded ring presentations attached to space models.

A :class:`RingModel` is a commutative graded ring given by generators in
even degrees together with one rewriting rule per generator,

    gen ** power  ->  tail polynomial (lower power in that generator),

which is the shape produced by all the constructors in this package:
Z[x]/(x^{n+1}) for projective space, tensor products for products of
spaces, and the Chern-class relation xi^r = c1 xi^{r-1} - c2 xi^{r-2} + ...
for projective bundles.  The constructor holds every rule to this
triangular shape -- tail monomials of the rule's degree, in earlier
generators and below the power in its own -- so the rules form a Groebner
basis (coprime leading monomials gen ** power) and rewriting terminates in
a unique normal form; the monomial basis (exponents below each rule's
power) is explicit, so graded dimensions can be compared against Betti ranks.

Polynomials are dicts mapping exponent tuples to integer coefficients.
Odd-degree generators are not supported; models with odd cohomology simply
carry no ring.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from operator import add, neg
from typing import Mapping

from hfcalc._frozen import Frozen
from hfcalc.errors import RingError, _quoted

__all__ = ["Poly", "RingModel", "polynomial_ring_mod_power", "tensor_rings", "bundle_extension", "ring_of"]

Monomial = tuple[int, ...]
Poly = dict  # Monomial -> int


def _clean(p: Mapping[Monomial, int]) -> Poly:
    return {m: c for m, c in p.items() if c != 0}


class RingModel(Frozen):
    """Generators (name, even degree) plus a power rule per generator.

    ``rules[i] = (power, tail)`` encodes generators[i] ** power = tail.
    """

    __slots__ = _fields = ("generators", "rules")

    def __init__(self, generators: tuple[tuple[str, int], ...], rules: tuple[tuple[int, Poly], ...]):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "rules", rules)
        if len(generators) != len(rules):
            raise RingError("one rewriting rule required per generator")
        names = [name for name, _deg in generators]
        if len(set(names)) < len(names):
            raise RingError(f"generator name {_quoted(Counter(names).most_common(1)[0][0])} appears twice")
        k = len(generators)
        for i, ((name, deg), (power, tail)) in enumerate(zip(generators, rules)):
            if deg <= 0 or deg % 2 != 0:
                raise RingError(f"generator {name} must have positive even degree, got {deg}")
            if power < 1:
                raise RingError("rule powers must be >= 1")
            for m in tail:
                if len(m) != k or min(m) < 0 or any(m[i + 1:]) or m[i] >= power or self.monomial_degree(m) != power * deg:
                    raise RingError(f"rule {name}^{power}: tail monomial {m} needs {k} nonnegative exponents, none"
                                    f" on a later generator, {name} below {power} and degree {power * deg}")

    # -- element constructors -------------------------------------------------

    def unit(self) -> Poly:
        return {(0,) * len(self.generators): 1}

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
        """The normal form: every exponent below its generator's rule power.

        A rewrite by rule i lowers generator i's exponent and no later one,
        so taken largest first, comparing the last exponent first (the heap
        key), each monomial is rewritten or kept once, with its whole coefficient."""
        rules = self.rules
        pending = dict(p)
        heap = [(tuple(map(neg, reversed(m))), m) for m in pending]
        heapify(heap)
        out: Poly = {}
        while heap:
            m = heappop(heap)[1]
            c = pending.pop(m)
            for i, e in enumerate(m):
                power, tail = rules[i]
                if e >= power:
                    rest = m[:i] + (e - power,) + m[i + 1:]
                    for t, tc in tail.items():
                        n = tuple(map(add, rest, t))
                        if n not in pending:
                            heappush(heap, (tuple(map(neg, reversed(n))), n))
                        pending[n] = pending.get(n, 0) + c * tc
                    break
            else:
                out[m] = c
        return _clean(out)

    def is_zero(self, p: Poly) -> bool:
        return not self.reduce(p)

    # -- graded structure --------------------------------------------------------

    def graded_dimensions(self) -> Counter:
        """degree -> number of basis monomials (exponents below each rule's
        power) of that degree: the product over generators of degree d of
        1 + t^d + ... + t^(d (power - 1)), at the tables' cost, not the basis's."""
        dims = Counter({0: 1})
        for (_name, deg), (power, _tail) in zip(self.generators, self.rules):
            step = Counter()
            for d, n in dims.items():
                for e in range(d, d + power * deg, deg):
                    step[e] += n
            dims = step
        return dims

    def graded_dimension(self, degree: int) -> int:
        return self.graded_dimensions()[degree]


def polynomial_ring_mod_power(name: str, degree: int, power: int) -> RingModel:
    """Z[name]/(name^power) with the generator in the given even degree."""
    return RingModel(generators=((name, degree),), rules=((power, {}),))


def trivial_ring() -> RingModel:
    """The cohomology ring of a point."""
    return RingModel(generators=(), rules=())


def lift(p: Poly, before: Monomial = (), after: Monomial = ()) -> Poly:
    """``p`` in a ring with more generators: ``before`` and ``after`` are the
    exponents of those listed before and after its own."""
    return {before + m + after: c for m, c in p.items()}


def _uniquify(names: list[str]) -> list[str]:
    """Each name, or the first of name_1, name_2, ... that no earlier name took."""
    taken: dict[str, None] = {}
    for n in names:
        unique, k = n, 0
        while unique in taken:
            k += 1
            unique = f"{n}_{k}"
        taken[unique] = None
    return list(taken)


def tensor_rings(a: RingModel, b: RingModel) -> RingModel:
    """Tensor product over Z, renaming clashing generators."""
    both = (*a.generators, *b.generators)
    gens = tuple(zip(_uniquify([n for n, _d in both]), (deg for _n, deg in both)))
    za, zb = (0,) * len(a.generators), (0,) * len(b.generators)
    return RingModel(generators=gens, rules=tuple((power, lift(tail, after=zb)) for power, tail in a.rules)
                     + tuple((power, lift(tail, before=za)) for power, tail in b.rules))


def bundle_extension(base: RingModel, r: int, chern: list[Poly] | None = None) -> RingModel:
    """``base`` (x) Z[xi]/(xi^r), xi in degree 2, with xi's rule the Chern-class relation.

    ``chern`` lists c_1, ..., c_r as elements of the base ring (missing or
    None means the trivial bundle, i.e. xi^r = 0).  The rule stored is

        xi^r = sum_{q=1..r} (-1)^{q+1} c_q xi^{r-q},

    which is the alternating-sum relation solved for the top power.
    """
    if r < 1:
        raise RingError("bundle rank must be >= 1")
    if chern and len(chern) > r:
        raise RingError(f"at most {r} Chern classes for a rank-{r} bundle")
    classes = [(q, cq) for q, cq in enumerate(chern or (), start=1) if cq]  # a missing class None or 0
    for q, cq in classes:
        if base.degree_of(cq) != 2 * q:
            raise RingError(f"c_{q} must sit in degree {2 * q}, got {base.degree_of(cq)}")
    # The classes' terms c_q xi^(r - q) differ in their power of xi.
    tail = {m: c if q % 2 else -c for q, cq in classes for m, c in lift(cq, after=(r - q,)).items() if c}
    ring = tensor_rings(base, polynomial_ring_mod_power("xi", 2, r))
    return RingModel(generators=ring.generators, rules=ring.rules[:-1] + ((r, tail),))


def ring_of(model) -> RingModel:
    """A model's ring presentation; a RingError when it carries none."""
    if model.ring is None:
        raise RingError(f"{model.name} carries no ring presentation")
    return model.ring
