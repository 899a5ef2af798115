"""Rationally even coefficient theories.

A theory is presented by the ranks of its even homotopy groups: the table
j -> rank of pi_{2j}E.  Odd homotopy is rationally zero by assumption and
torsion in the coefficients is unsupported (the engine's calculus is
rank/lattice based, and for the built-in theories the coefficients are
torsion free anyway).

Built-ins:

* ``MU``  -- complex bordism; pi_{2*}MU = Z[x_2, x_4, ...], so the rank in
  degree 2j is the number of partitions of j;
* ``HZ``  -- ordinary integral cohomology (rank 1 at j = 0);
* ``HQ``  -- ordinary rational cohomology;
* ``MUQ`` -- rationalized complex bordism.
"""

from __future__ import annotations

from typing import Mapping

from hfcalc._frozen import Frozen
from hfcalc.errors import TheoryError

__all__ = ["CoefficientTheory", "mu_rank", "builtin_theory", "custom_theory", "partition_count"]

INTEGRAL = "integral"
RATIONAL = "rational"


# p(0), p(1), ..., grown on demand by Euler's pentagonal number recurrence
#   p(m) = sum_{k >= 1} (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)).
_PARTITIONS = [1]


def partition_count(n: int) -> int:
    """Number of partitions of ``n`` (0 for negative ``n``)."""
    if n < 0:
        return 0
    table = _PARTITIONS
    while len(table) <= n:
        m = len(table)
        total, k, g = 0, 1, 1
        while g <= m:
            term = table[m - g] + (table[m - g - k] if g + k <= m else 0)
            total += term if k % 2 else -term
            k += 1
            g = k * (3 * k - 1) // 2
        table.append(total)
    return table[n]


def mu_rank(j: int) -> int:
    """Rank of pi_{2j}MU: the number of monomials of degree 2j in
    Z[x_2, x_4, x_6, ...], i.e. the partition number p(j)."""
    return partition_count(j)


class CoefficientTheory(Frozen):
    """A rationally even theory presented by the ranks of pi_{2j}E.

    ``kind`` selects the rank rule: ``"partition"`` uses partition numbers
    (MU-like), ``"finite"`` reads the finite ``table``.  The theory is a
    total function on Z -- ``rank_at`` returns 0 outside the support -- and
    finiteness of engine sums comes from the space, never from the theory.
    """

    __slots__ = _fields = ("name", "ring_field", "kind", "table")

    def __init__(self, name: str, ring_field: str, kind: str, table: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ring_field", ring_field)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "table", table)
        if ring_field not in (INTEGRAL, RATIONAL):
            raise TheoryError(f"unknown ring field {ring_field!r}")
        if kind not in ("partition", "finite"):
            raise TheoryError(f"unknown theory kind {kind!r}")
        for j, r in table:
            if r < 0:
                raise TheoryError(f"negative rank {r} at degree {j}")
        if len({j for j, _r in table}) != len(table):
            raise TheoryError(f"a degree appears twice in {table}")

    def rank_at(self, j: int) -> int:
        if self.kind == "partition":
            return partition_count(j)
        for jj, r in self.table:
            if jj == j:
                return r
        return 0

    @property
    def is_ordinary_integral(self) -> bool:
        """True when the theory is indistinguishable from HZ in every query:
        integral, with rank 1 at j = 0 and no other support.  Only these
        theories can consume torsion in a space's Betti table."""
        if self.ring_field != INTEGRAL:
            return False
        if self.kind == "partition":
            return False
        return all(r == 0 for j, r in self.table if j != 0) and self.rank_at(0) == 1


_BUILTINS = {
    "MU": ("partition", INTEGRAL),
    "HZ": ("finite", INTEGRAL),
    "HQ": ("finite", RATIONAL),
    "MUQ": ("partition", RATIONAL),
}


def builtin_theory(name: str) -> CoefficientTheory:
    """One of MU, HZ, HQ, MUQ."""
    if name not in _BUILTINS:
        raise TheoryError(f"unknown theory {name!r} (expected one of MU, HZ, HQ, MUQ)")
    kind, fieldname = _BUILTINS[name]
    table = ((0, 1),) if kind == "finite" else ()
    return CoefficientTheory(name=name, ring_field=fieldname, kind=kind, table=table)


def custom_theory(ranks: Mapping[int, int], ring_field: str = INTEGRAL, name: str = "custom") -> CoefficientTheory:
    """Instantiate a theory from a finite table j -> rank of pi_{2j}E."""
    table = tuple(sorted((int(j), int(r)) for j, r in ranks.items()))
    return CoefficientTheory(name=name, ring_field=ring_field, kind="finite", table=table)
