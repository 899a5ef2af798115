"""Exact linear algebra over the integers.

The Smith normal form of integer matrices, and a small value type for
finitely generated abelian groups in invariant-factor form.
Everything here runs on Python's arbitrary-precision integers; intermediate
entries of a Smith reduction routinely exceed machine words even for small
inputs, so no fixed-width arithmetic is used anywhere.

Conventions
-----------
* A matrix represents a homomorphism Z^cols -> Z^rows acting on column
  vectors.
* Invariant factors are positive and divisibility-chained: d1 | d2 | ... .
  The product d1 * ... * dk equals the gcd of all k x k minors.
* Torsion lists of :class:`FgAbelianGroup` are always stored in canonical
  divisibility-chain form with every factor >= 2, so structural equality of
  groups is plain ``==`` on the value.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from hfcalc._frozen import Frozen

__all__ = [
    "IntMatrix",
    "FgAbelianGroup",
    "smith_normal_form",
    "divisibility_chain",
]


class IntMatrix(Frozen):
    """An integer matrix stored densely in row-major order."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"entry list has length {len(entries)}, expected {rows * cols}")

    def to_lists(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]


def _pivot(a: list[list[int]], t: int) -> tuple[int, int] | None:
    # Smallest nonzero absolute value in the trailing submatrix, ties broken
    # by lowest (row, col); this fixes the reduction path for golden tests.
    best = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            v = row[j]
            if v != 0:
                key = (abs(v), i, j)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return best[1], best[2]


def _swap_rows(a: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _swap_cols(a: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(m: IntMatrix) -> list[int]:
    """Invariant factors of ``m``.

    Returns the positive diagonal entries d1 | d2 | ... of the Smith normal
    form (1s included, zeros omitted).  The empty matrix and the zero matrix
    both return ``[]``.
    """
    a = m.to_lists()
    nrows, ncols = m.rows, m.cols
    diag: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        pos = _pivot(a, t)
        if pos is None:
            break
        _swap_rows(a, t, pos[0])
        _swap_cols(a, t, pos[1])
        restart = True
        while restart:
            # Clear column t with Euclidean row steps, then row t with column
            # steps; a nonzero remainder is strictly smaller than the pivot,
            # so it becomes the next pivot.
            restart = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q != 0:
                        for j in range(t, ncols):
                            a[i][j] -= q * a[t][j]
                    if a[i][t] != 0:
                        _swap_rows(a, t, i)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q != 0:
                        for i in range(t, nrows):
                            a[i][j] -= q * a[i][t]
                    if a[t][j] != 0:
                        _swap_cols(a, t, j)
                        restart = True
        diag.append(abs(a[t][t]))
        t += 1
    # The diagonal presents the same group; the gcd/lcm sweep turns it into
    # the invariant factors d1 | d2 | ... .  Unit factors are kept: the
    # number of factors is the rank and their products are the minor gcds.
    return _chain_sweep(diag)


def _chain_sweep(factors: list[int]) -> list[int]:
    # Repeated gcd/lcm exchanges converge to the unique chain d1 | d2 | ...;
    # each exchange preserves the multiset of elementary divisors (and
    # products of initial segments), so the presented group is unchanged.
    fs = list(factors)
    changed = True
    while changed:
        changed = False
        fs.sort()
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                if fs[j] % fs[i] != 0:
                    g = gcd(fs[i], fs[j])
                    fs[i], fs[j] = g, fs[i] * fs[j] // g
                    changed = True
    fs.sort()
    return fs


def divisibility_chain(factors: Iterable[int]) -> list[int]:
    """Normalize a list of cyclic orders into a divisibility chain.

    Factors of 1 are dropped (the group they present is trivial), zeros are
    rejected (free summands are tracked separately), and gcd/lcm exchanges
    put the rest into the unique chain d1 | d2 | ... .
    """
    fs = []
    for f in factors:
        f = abs(int(f))
        if f == 0:
            raise ValueError("zero is not a torsion order")
        if f > 1:
            fs.append(f)
    return [f for f in _chain_sweep(fs) if f > 1]


class FgAbelianGroup(Frozen):
    """A finitely generated abelian group Z^free_rank + Z/d1 + ... + Z/dk.

    The torsion tuple is always in canonical divisibility-chain form, so two
    values compare equal iff the groups are isomorphic.
    """

    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for i, d in enumerate(torsion):
            if d < 2:
                raise ValueError(f"torsion factor {d} < 2")
            if i > 0 and d % torsion[i - 1] != 0:
                raise ValueError(f"torsion list {torsion} is not a divisibility chain")

    @classmethod
    def of(cls, free_rank: int = 0, factors: Iterable[int] = ()) -> "FgAbelianGroup":
        """Build a group from an arbitrary list of cyclic orders (normalized)."""
        return cls(free_rank, tuple(divisibility_chain(factors)) if factors else ())

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        return FgAbelianGroup.of(self.free_rank + other.free_rank, self.torsion + other.torsion)

    def tensor(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        """self (x) other: Z (x) A = A and Z/a (x) Z/b = Z/gcd(a, b)."""
        a, b = self.free_rank, other.free_rank
        factors = self.torsion * b + other.torsion * a
        factors += tuple(gcd(s, t) for s in self.torsion for t in other.torsion)
        return FgAbelianGroup.of(a * b, factors)

    def tor(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        """Tor(self, other): Z/gcd(a, b) for each pair of cyclic torsion
        factors Z/a, Z/b; free summands contribute nothing."""
        return FgAbelianGroup.of(0, (gcd(s, t) for s in self.torsion for t in other.torsion))
