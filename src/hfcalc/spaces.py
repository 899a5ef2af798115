"""Cohomological models of complex varieties.

Two model kinds feed the engine:

* :class:`KahlerModel` -- a compact Kahler manifold presented by its
  integral Betti groups, Hodge numbers h^{s,t} and the ranks of its groups
  of integral Hodge classes.  Its graded pieces are derived once per
  model: gr^s H^n is h^{s, n-s}, and the lattice's follow one rule.

* :class:`QuasiProjModel` -- a smooth quasi-projective variety presented by
  (torsion-free) Betti ranks together with dim F^p H^n(X; C) and the rank
  of the sublattice of H^n(X; Z) whose complex span lies in F^p.  Mixed
  Hodge weights are not modelled; the filtrations are all the engine
  consumes.

Both kinds keep, degree by degree, the graded pieces gr^a = F^a / F^(a+1)
of the Hodge filtration and of the lattice inside it, which fix them
(Deligne, Hodge II), in one store with one set of readers: a model costs
its pieces, not the windows 1 <= p <= n of a quasi-projective document.

Products and projective bundles convolve tables.  A product's Hodge
numbers and Hodge-class ranks are the convolutions of its factors' tables,
and its Betti groups follow the integral Kunneth formula (tensor products
plus Tor).  A rank-r bundle's tables are the base's convolved with
1 + t + ... + t^(r-1) in the matching grading (the projective bundle
formula; a Kahler bundle direct-sums the base's Betti groups, torsion
included); over a quasi-projective base it shifts the base's graded pieces
by (i, 2i).  ``as_quasiproj`` hands over a Kahler model's stored pieces
unchanged, and ``quasi_product`` its own, degree by degree.

Hodge-class ranks are data, not derived: the rank of the group of integral
Hodge classes is not a function of the h^{s,t} (Picard numbers vary in
families).  The constructors install the defaults that are correct for
them -- cellular spaces use h^{q,q}, products and bundles the convolution
-- and callers override any field with ``.replace``.  Each model class
has one construction path, its ``__init__`` (on QuasiProjModel, ``_set``
past the window reader): it drops zero entries, builds the derived data
and refuses inconsistent tables with a ModelError.

The position of the integral lattice relative to the Hodge filtration on a
KahlerModel follows one documented rule ("cellular Hodge-Tate"): see
:meth:`KahlerModel._check`, which stores it.  Its Hodge-class ranks are
held to what Hodge theory allows: at most h^{q,q}, and all of b_2q where
H^2q has type (q, q) alone.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import attrgetter, sub
from typing import Mapping, Optional

from hfcalc._frozen import Frozen
from hfcalc.abelian import FgAbelianGroup
from hfcalc.errors import ModelError
from hfcalc.rings import RingModel, bundle_extension, polynomial_ring_mod_power, tensor_rings, trivial_ring

__all__ = [
    "KahlerModel",
    "QuasiProjModel",
    "point",
    "projective_space",
    "curve",
    "product",
    "projective_bundle",
    "affine_space",
    "gm",
    "quasi_product",
    "as_quasiproj",
]


def _nonzero(table: dict, keep=bool) -> dict:
    """``table`` without the values ``keep`` refuses, copied only if it has some."""
    return table if all(map(keep, table.values())) else {k: v for k, v in table.items() if keep(v)}


def _first_difference(a: dict, b: dict) -> int:
    """The smallest key where two tables of nonzero entries differ."""
    return min(k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0))


def _check_ring(model, ranks: dict) -> None:
    """Refuse a ring presentation whose graded dimensions are not the nonzero Betti ranks."""
    if model.ring is not None and (rdims := dict(model.ring.graded_dimensions())) != ranks:
        n = _first_difference(rdims, ranks)
        raise ModelError(
            f"{model.name}: ring presentation has dimension {rdims.get(n, 0)} in degree {n}, Betti rank is {ranks.get(n, 0)}"
        )


def _window(tails: dict) -> dict:
    """The nonzero window entries (p, n) -> the value at p, 1 <= p <= n, of
    per-degree (positions, suffix sums)."""
    out = {}
    for n, (pos, sums) in tails.items():
        lo = 1
        for a, s in zip(pos, sums):
            for p in range(lo, a + 1):
                out[p, n] = s
            lo = a + 1
    return out


def _tails(betti: dict, pieces: dict) -> tuple[dict, dict]:
    """The store, for F and for the lattice, of the degrees n with Betti rank and
    their pieces pieces[n] = ({a: dim gr^a H^n}, {a: the lattice's step at a}):
    0 and the positions of the nonzero pieces at a >= 1, sorted, and b_n and
    their suffix sums.  Pieces at a <= 0 are left to b_n."""
    out = ({}, {})
    for n, b in betti.items():
        for tails, gr in zip(out, pieces.get(n, ({}, {}))):
            pos = sorted([a for a, v in gr.items() if v and a > 0])
            sums = [0]
            for a in reversed(pos):
                sums.append(sums[-1] + gr[a])
            tails[n] = (0, *pos), (b, *reversed(sums))
    return out


class _Graded:
    """The one store both model kinds read their filtrations from.  Each
    degree n with Betti rank keeps, for F and for the lattice inside it, the
    levels a >= 0 of its pieces, sorted, and sums[i], the sum of the pieces
    from positions[i] on, then 0.  So sums[0] = b_n = F^0 = L^0, and a cell
    is one ``bisect_left``: at or below the first position it finds b_n,
    past the last the trailing 0, and in a degree without Betti rank no entry."""

    __slots__ = ("_filt", "_lattice", "_support")

    def support_degrees(self) -> tuple[int, ...]:
        return self._support

    def hcr(self, q: int) -> int:
        return self.hodge_class_rank.get(q, 0)

    def filtration_dim(self, p: int, n: int) -> int:
        """dim F^p H^n(X; C)."""
        tail = self._filt.get(n)
        return tail[1][bisect_left(tail[0], p)] if tail else 0

    def lattice_rank_in_filtration(self, q: int, n: int) -> int:
        """Rank of the sublattice of H^n(X; Z) whose C-span lies in F^q H^n."""
        tail = self._lattice.get(n)
        return tail[1][bisect_left(tail[0], q)] if tail else 0

    def graded_pieces(self, n: int) -> tuple[dict, dict]:
        """The nonzero pieces of H^n: ({a: dim gr^a}, {a: the lattice's step at a})."""
        return tuple(
            {a: d for a, s, t in zip(pos, sums, sums[1:]) if (d := s - t)}
            for pos, sums in (self._filt.get(n, ((), ())), self._lattice.get(n, ((), ())))
        )


class KahlerModel(_Graded, Frozen):
    """A compact Kahler manifold presented by cohomological data."""

    _fields = ("name", "dim", "betti", "hodge", "hodge_class_rank", "ring")
    __slots__ = _fields + ("has_torsion",)

    def __init__(
        self,
        name: str,
        dim: int,
        betti: dict,  # n -> FgAbelianGroup
        hodge: dict,  # (s, t) -> int
        hodge_class_rank: dict,  # q -> int
        ring: Optional[RingModel] = None,
    ):
        betti = _nonzero(betti, lambda g: not g.is_trivial)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "hodge", _nonzero(hodge))
        object.__setattr__(self, "hodge_class_rank", _nonzero(hodge_class_rank))
        object.__setattr__(self, "ring", ring)
        # Derived data, built once per instance beside the fields, the store by
        # _check (a ``replace`` copy is a new instance, so none of it goes stale).
        object.__setattr__(self, "_support", tuple(sorted(betti)))
        object.__setattr__(self, "has_torsion", any(g.torsion for g in betti.values()))
        self._check()

    # The benchmark's probes still call make (ROADMAP item 1); construct directly.
    make = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))

    def betti_rank(self, n: int) -> int:
        g = self.betti.get(n)
        return g.free_rank if g is not None else 0

    def betti_torsion(self, n: int) -> tuple[int, ...]:
        g = self.betti.get(n)
        return g.torsion if g is not None else ()

    @property
    def max_degree(self) -> int:
        return 2 * self.dim

    def _check(self) -> None:
        """Refuse tables that no Kahler manifold has, reading the Hodge numbers
        by degree, and store each degree's pieces in the same pass over its row.

        gr^s H^n is h^{s, n-s}; the lattice follows the cellular Hodge-Tate
        rule.  At or below the smallest Hodge level s, F^q is everything and
        so is its lattice.  Above it, a real class in F^q has types (s, t)
        with s, t >= q, so none exists in odd degree or for 2q > n; else the
        lattice inside F^q is the group of integral Hodge classes, whose rank
        is model data: the lattice steps from b_n to hcr(n / 2) past s, and to
        0 past n / 2.  Where H^n has type (q, q) alone, hcr(q) must be b_n."""
        name, d = self.name, self.dim
        if d < 0:
            raise ModelError(f"{name}: negative dimension")
        ranks = {}  # the nonzero Betti ranks
        for n, g in self.betti.items():
            if not 0 <= n <= 2 * d:
                raise ModelError(f"{name}: Betti group in degree {n} outside [0, {2 * d}]")
            if g.free_rank:
                ranks[n] = g.free_rank
        levels: dict = {}  # the Hodge table by degree: n -> [(s, h^{s, n-s}), ...], s increasing
        for (s, t), v in sorted(self.hodge.items()):
            levels.setdefault(s + t, []).append((s, v))
        hsums, filt, lattice, alone, hcr = {}, {}, {}, [], self.hodge_class_rank.get
        for n, row in levels.items():
            if row != [(n - s, v) for s, v in reversed(row)]:
                h = dict(row)
                s = next(s for s, v in row if h.get(n - s, 0) != v)
                raise ModelError(
                    f"{name}: Hodge symmetry fails, h^{{{s},{n - s}}} = {h[s]} != h^{{{n - s},{s}}} = {h.get(n - s, 0)}"
                )
            s = row[0][0]  # the smallest s, and by symmetry n - s is the largest
            if s < 0 or n - s > d:
                raise ModelError(f"{name}: h^{{{s},{n - s}}} nonzero outside [0, {d}]^2")
            levels_s, values = zip(*row)
            if min(values) < 0:
                s = next(s for s, v in row if v < 0)
                raise ModelError(f"{name}: negative Hodge number h^{{{s},{n - s}}}")
            b = hsums[n] = sum(values)
            if len(row) == 1:  # type (s, s) alone, as in every degree of P^n: the lattice is all of F
                filt[n] = lattice[n] = (s,), (b, 0)
                alone.append((n, s, b))
            else:  # F^p at each level and 0 past the top; the lattice's two steps
                filt[n] = levels_s, (*accumulate(values, sub, initial=b),)
                lattice[n] = (s, n // 2), (b, 0 if n % 2 else hcr(n // 2, 0), 0)
        object.__setattr__(self, "_filt", filt)
        object.__setattr__(self, "_lattice", lattice)
        # Symmetric Hodge numbers pair up in odd degrees, so these sums also
        # hold every odd-degree Betti rank even.
        if hsums != ranks:
            n = _first_difference(hsums, ranks)
            raise ModelError(f"{name}: Hodge numbers in degree {n} sum to {hsums.get(n, 0)}, Betti rank is {ranks.get(n, 0)}")
        for n, b in ranks.items():
            if ranks.get(2 * d - n) != b:
                raise ModelError(f"{name}: Poincare duality fails between degrees {n} and {2 * d - n}")
        for q, v in self.hodge_class_rank.items():
            row = levels.get(2 * q, ())
            hqq = row[len(row) // 2][1] if len(row) % 2 else 0  # the middle of a symmetric row
            if v < 0 or v > hqq:
                raise ModelError(f"{name}: hodge_class_rank({q}) = {v} outside [0, h^{{{q},{q}}} = {hqq}]")
        for n, q, b in alone:
            if hcr(q, 0) != b:
                raise ModelError(
                    f"{name}: H^{n} has type ({q},{q}) alone, so every class is a Hodge class:"
                    f" hodge_class_rank({q}) = {hcr(q, 0)}, b_{n} = {b}"
                )
        _check_ring(self, ranks)


class QuasiProjModel(_Graded, Frozen):
    """A smooth quasi-projective variety presented by the graded pieces of
    its Hodge filtration and of its lattice.

    Each degree keeps the positions of its nonzero pieces gr^a = F^a / F^(a+1)
    at a >= 1 in the shared store.  The ``filt`` and ``lattice`` fields are
    the windows 1 <= p <= n of the degrees with Betti rank, which ``__init__``
    reads once into pieces and which are derived from the store on access
    (documents, pickle); the constructors pass their pieces to
    ``_of_pieces``, and ``replace`` and equality keep to the store.  Every
    path takes the same check; the window path first refuses a negative
    Betti rank or degree, which no constructor makes.
    """

    _fields = ("name", "betti", "filt", "lattice", "hodge_class_rank", "ring")
    __slots__ = ("name", "betti", "hodge_class_rank", "ring")
    _key = attrgetter("name", "betti", "_filt", "_lattice", "hodge_class_rank", "ring")  # what == compares

    has_torsion = False  # not a field: the Betti table is torsion-free

    def __init__(
        self,
        name: str,
        betti: dict,  # n -> int (torsion-free)
        filt: dict,  # (p, n) -> dim F^p H^n, window 1 <= p <= n
        lattice: dict,  # (p, n) -> lattice rank inside F^p, same window
        hodge_class_rank: Optional[dict] = None,  # q -> int
        ring: Optional[RingModel] = None,
    ):
        betti = _nonzero(betti)
        for n, b in betti.items():  # before the window entries, whose bounds read it
            if b < 0:
                raise ModelError(f"{name}: negative Betti rank in degree {n}")
            if n < 0:
                raise ModelError(f"{name}: cohomology in negative degree {n}")
        pieces = {n: ({}, {}) for n in betti}  # n -> ({a: F^a - F^(a+1)}, the same for the lattice)
        for k, table in enumerate((_nonzero(filt), _nonzero(lattice))):
            for (p, n), v in table.items():
                if not 1 <= p <= n or n not in betti:
                    raise ModelError(
                        f"{name}: filtration entry at (p={p}, n={n}) outside the windows 1 <= p <= n of the degrees with Betti rank"
                    )
                gr = pieces[n][k]
                gr[p] = gr.get(p, 0) + v
                gr[p - 1] = gr.get(p - 1, 0) - v
        self._set(name, betti, *_tails(betti, pieces), hodge_class_rank, ring)

    @classmethod
    def _of_pieces(cls, name: str, betti: dict, pieces: dict, hodge_class_rank: dict, ring=None) -> QuasiProjModel:
        """The model whose degree n has the pieces pieces[n] = ({a: dim gr^a H^n},
        {a: the lattice's step at a}); pieces at a <= 0 are left to the Betti rank."""
        betti = _nonzero(betti)
        return object.__new__(cls)._set(name, betti, *_tails(betti, pieces), hodge_class_rank, ring)

    def replace(self, **changes) -> QuasiProjModel:
        """A new model with ``changes`` applied; one that keeps the Betti ranks
        and windows keeps the stored pieces and takes only the check."""
        if changes.keys() & {"betti", "filt", "lattice"}:
            return super().replace(**changes)
        fields = {"name": self.name, "hodge_class_rank": self.hodge_class_rank, "ring": self.ring, **changes}
        return object.__new__(type(self))._set(betti=self.betti, filt=self._filt, lattice=self._lattice, **fields)

    def _set(self, name, betti, filt, lattice, hodge_class_rank, ring) -> QuasiProjModel:
        """Every path's end: assign the fields and the store, and check them."""
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "hodge_class_rank", _nonzero(hodge_class_rank or {}))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_filt", filt)
        object.__setattr__(self, "_lattice", lattice)
        object.__setattr__(self, "_support", tuple(sorted(betti)))  # derived, as on KahlerModel
        self._check()
        return self

    make = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))  # as on KahlerModel

    @property
    def filt(self) -> dict:
        """The nonzero window entries (p, n) -> dim F^p H^n, 1 <= p <= n."""
        return _window(self._filt)

    @property
    def lattice(self) -> dict:
        """The nonzero window entries (p, n) -> the lattice rank inside F^p H^n."""
        return _window(self._lattice)

    def betti_rank(self, n: int) -> int:
        return self.betti.get(n, 0)

    def betti_torsion(self, n: int) -> tuple[int, ...]:
        return ()

    @property
    def max_degree(self) -> int:
        return max(self.betti, default=0)

    def _check(self) -> None:
        """The window rules, evaluated where their inputs change.  F^p and the
        lattice rank L^p are constant in p between pieces: they change only at
        p = a + 1 past a piece at a, or past a = 0, where F^0 = L^0 = H^n.  So
        each rule first fails at one of those cells, and they are walked in
        order, degree by degree, as a walk over every window cell would."""
        name, betti = self.name, self.betti
        for n, b in betti.items():
            # F^p = fsums[bisect_left(fpos, p)], with F^0 = H^n in front; L^p alike.
            (fpos, fsums), (lpos, lsums) = self._filt[n], self._lattice[n]
            cells = sorted({a + 1 for a in (*fpos, *lpos) if a < n})
            for p in cells:
                cur, prev = fsums[bisect_left(fpos, p)], fsums[bisect_left(fpos, p - 1)]
                if cur > prev:
                    raise ModelError(f"{name}: dim F^{p}H^{n} = {cur} exceeds dim F^{p - 1}H^{n} = {prev}")
                # cur <= F^(p-1) <= ... <= betti_rank(n), so cur is min(Betti, filtration).
                lat, lprev = lsums[bisect_left(lpos, p)], lsums[bisect_left(lpos, p - 1)]
                if lat < 0 or lat > cur:
                    raise ModelError(
                        f"{name}: lattice rank {lat} at (p={p}, n={n}) exceeds min(Betti, filtration) = {cur}"
                    )
                # The lattice inside F^p lies inside F^(p-1): non-increasing in p.
                if lat > lprev:
                    raise ModelError(
                        f"{name}: lattice rank {lat} at (p={p}, n={n}) exceeds the rank {lprev} at (p={p - 1}, n={n})"
                    )
            # On a smooth variety h^{s,t}(H^n) = 0 unless s, t <= n <= s + t, and h^{s,t} = h^{t,s}
            # on each weight (Deligne, Hodge II 3.2, III 8.2): (s, t) -> (t, s) maps the types with
            # s < p, a complement of F^p, into F^(n+1-p).  If F^p H^n = H^n, all the lattice is in F^p.
            # F is non-increasing by now, so the mirror F^(n+1-p) only grows with p, and the codim
            # bound first fails where codim F^p grows: at one of the cells.
            for p in cells:  # the Deligne rules
                f, lat, mirror = fsums[bisect_left(fpos, p)], lsums[bisect_left(lpos, p)], fsums[bisect_left(fpos, n + 1 - p)]
                if f == b and lat != b:
                    raise ModelError(f"{name}: F^{p}H^{n} = H^{n}, yet its lattice rank is {lat}, not b_{n} = {b}")
                if b - f > mirror:
                    raise ModelError(f"{name}: codim F^{p}H^{n} = {b - f} exceeds dim F^{n + 1 - p}H^{n} = {mirror}")
        for q, v in self.hodge_class_rank.items():
            # Hodge classes are lattice classes inside F^q H^2q, as h^{q,q} bounds them on KahlerModel.
            bound = self.lattice_rank_in_filtration(q, 2 * q)
            if v < 0 or v > bound:
                raise ModelError(f"{name}: hodge_class_rank({q}) = {v} outside [0, lattice rank in F^{q}H^{2 * q} = {bound}]")
        _check_ring(self, betti)


Model = KahlerModel | QuasiProjModel


# -- constructors ---------------------------------------------------------------

# A quasi-projective model costs its graded pieces, and a rank-r bundle over a
# quasi-projective base r shifts of them (on a two-CPU Xeon host, P(P(Gm, 60), 60),
# degree 237: 4.4 ms; P(P(Gm, 200), 200), degree 797: 43 ms).  The limit stays:
# quasi_product still fills each degree cell by cell, and a document's filt_dim
# and lattice_in_f windows grow with the square of its top degree.
MAX_QUASI_DEGREE = 240  # top Betti degree of a quasi-projective model


def _convolve(a: Mapping, b: Mapping) -> dict:
    """out[k + l] += a[k] * b[l]; keys are integers or (s, t) pairs, added
    componentwise."""
    out: dict = {}
    for k, u in a.items():
        for l, v in b.items():
            key = k + l if isinstance(k, int) else (k[0] + l[0], k[1] + l[1])
            out[key] = out.get(key, 0) + u * v
    return out


def _steps(column: list) -> dict:
    """The nonzero graded pieces {a: column[a] - column[a + 1]} of a filtration
    listed from p = 0, zero past the end of the list."""
    return {a: d for a, (f, g) in enumerate(zip(column, column[1:] + [0])) if (d := f - g)}


def point() -> KahlerModel:
    return KahlerModel(
        name="point",
        dim=0,
        betti={0: FgAbelianGroup(1)},
        hodge={(0, 0): 1},
        hodge_class_rank={0: 1},
        ring=trivial_ring(),
    )


def projective_space(n: int) -> KahlerModel:
    """P^n: one copy of Z in every even degree up to 2n, all of it algebraic."""
    if n < 0:
        raise ModelError("projective_space needs n >= 0")
    return KahlerModel(
        name=f"P{n}",
        dim=n,
        betti=dict.fromkeys(range(0, 2 * n + 1, 2), FgAbelianGroup(1)),
        hodge={(q, q): 1 for q in range(n + 1)},
        hodge_class_rank={q: 1 for q in range(n + 1)},
        ring=polynomial_ring_mod_power("x", 2, n + 1) if n >= 1 else trivial_ring(),
    )


def curve(g: int) -> KahlerModel:
    """A smooth projective curve of genus g."""
    if g < 0:
        raise ModelError("curve needs genus >= 0")
    if g == 0:
        return projective_space(1).replace(name="curve(0)")
    return KahlerModel(
        name=f"curve({g})",
        dim=1,
        betti={0: FgAbelianGroup(1), 1: FgAbelianGroup(2 * g), 2: FgAbelianGroup(1)},
        hodge={(0, 0): 1, (1, 0): g, (0, 1): g, (1, 1): 1},
        hodge_class_rank={0: 1, 1: 1},
    )


def product(x: KahlerModel, y: KahlerModel) -> KahlerModel:
    """Kunneth product of two Kahler models.

    The Betti groups follow the integral Kunneth formula,
    H^n(X x Y) = sum_{i+j=n} H^i(X) (x) H^j(Y) + sum_{i+j=n+1} Tor(H^i(X), H^j(Y)),
    so torsion in either factor carries over.

    The factors are independent: ``product(curve(1), curve(1))`` is the
    product of two generic elliptic curves with independent moduli, not
    E x E for one curve E.  With one shared tau the self-product carries
    more integral classes: H^2 has rank 3 in F^1 on E x E (the diagonal
    adds one), not 2.  The hodge_class_rank table is the convolution of the
    factors' tables (products of Hodge classes); when the product is known
    to carry more, ``product(x, y).replace(hodge_class_rank=...)`` builds
    that model, validated.  The odd-degree lattice ranks cannot be
    overridden.  A quasi-projective factor is refused (see ``quasi_product``).
    """
    if not (isinstance(x, KahlerModel) and isinstance(y, KahlerModel)):
        raise ModelError("product takes Kahler models; use quasi_product, after as_quasiproj on a compact factor")
    # Free parts convolve their ranks; tensor and Tor add torsion only when
    # a factor has some, so a torsion-free product costs one rank convolution.
    ranks = _convolve(
        {n: g.free_rank for n, g in x.betti.items()}, {n: g.free_rank for n, g in y.betti.items()}
    )
    factors: dict = {}  # n -> torsion orders of H^n(X x Y)
    if x.has_torsion or y.has_torsion:
        for i, g in x.betti.items():
            for j, h in y.betti.items():
                factors.setdefault(i + j, []).extend(g.tensor(h).torsion)
                factors.setdefault(i + j - 1, []).extend(g.tor(h).torsion)
    ring = tensor_rings(x.ring, y.ring) if x.ring is not None and y.ring is not None else None
    return KahlerModel(
        name=f"{x.name} x {y.name}", dim=x.dim + y.dim,
        betti={n: FgAbelianGroup.of(ranks.get(n, 0), factors.get(n, ())) for n in sorted(ranks.keys() | factors.keys())},
        hodge=_convolve(x.hodge, y.hodge),
        hodge_class_rank=_convolve(x.hodge_class_rank, y.hodge_class_rank), ring=ring,
    )


def projective_bundle(x: Model, r: int) -> Model:
    """P(V) for a rank-r bundle V on x: tables are r-fold shifted sums.

    When the base carries a ring presentation the bundle ring adjoins a
    degree-2 class xi with xi^r = 0 (the trivial bundle's relation).
    Over a quasi-projective base, a top degree above MAX_QUASI_DEGREE is refused.
    """
    if r < 1:
        raise ModelError("projective_bundle needs r >= 1")
    shifts = range(r)
    name = f"P(V^{r} -> {x.name})"
    top = x.max_degree + 2 * (r - 1) if isinstance(x, QuasiProjModel) else 0
    if top > MAX_QUASI_DEGREE:
        raise ModelError(f"{name}: top degree {top} exceeds the limit of {MAX_QUASI_DEGREE}")
    hcr = _convolve(x.hodge_class_rank, {i: 1 for i in shifts})
    ring = bundle_extension(x.ring, r) if x.ring is not None else None
    if isinstance(x, KahlerModel):
        betti = {}
        for i in shifts:
            for n, g in x.betti.items():
                k = n + 2 * i
                betti[k] = betti[k].direct_sum(g) if k in betti else g
        return KahlerModel(
            name=name, dim=x.dim + r - 1, betti=betti, hodge=_convolve(x.hodge, {(i, i): 1 for i in shifts}),
            hodge_class_rank=hcr, ring=ring,
        )
    betti = _convolve(x.betti, {2 * i: 1 for i in shifts})
    gr = {n: ({}, {}) for n in betti}  # n -> the bundle's pieces in degree n: the base's, shifted by (i, 2i)
    for m in x.betti:
        for k, piece in enumerate(x.graded_pieces(m)):
            for a, v in piece.items():
                for i in shifts:
                    out = gr[m + 2 * i][k]
                    out[a + i] = out.get(a + i, 0) + v
    return QuasiProjModel._of_pieces(name, betti, gr, hcr, ring)


def affine_space(n: int) -> QuasiProjModel:
    """A^n: cohomologically a point, with the filtration of weight zero."""
    if n < 0:
        raise ModelError("affine_space needs n >= 0")
    return QuasiProjModel._of_pieces(f"A{n}", {0: 1}, {}, {0: 1})


def gm() -> QuasiProjModel:
    """The multiplicative group C^*: H^1 is spanned by dz/z, which has
    filtration level one (the class carries a weight-2 mixed structure)."""
    return QuasiProjModel._of_pieces("Gm", {0: 1, 1: 1}, {1: ({1: 1}, {1: 1})}, {0: 1})


def as_quasiproj(x: Model) -> QuasiProjModel:
    """Re-present a torsion-free model through the graded pieces of its filtration and lattice."""
    if isinstance(x, QuasiProjModel):
        return x
    if x.has_torsion:
        raise ModelError(f"{x.name}: cannot re-present a torsion Betti table as quasi-projective data")
    betti = {n: x.betti_rank(n) for n in x.support_degrees()}
    return QuasiProjModel._of_pieces(x.name, betti, {n: x.graded_pieces(n) for n in betti}, dict(x.hodge_class_rank))


def quasi_product(x: QuasiProjModel, y: QuasiProjModel) -> QuasiProjModel:
    """Kunneth product of quasi-projective models.

    Filtration dimensions convolve through graded pieces
    gr^a = F^a/F^{a+1}; the lattice table convolves the same way, which is
    the correct default whenever one factor is cohomologically trivial
    (the A^1-invariance use case) and a documented lower-bound heuristic
    otherwise.  A compact factor must first be re-presented with
    ``as_quasiproj``.
    """
    if not (isinstance(x, QuasiProjModel) and isinstance(y, QuasiProjModel)):
        raise ModelError("quasi_product takes quasi-projective models; re-present a compact factor with as_quasiproj")

    def gr(table, a: int, n: int) -> int:
        # The constructor holds both tables non-increasing in p.
        return table(a, n) - table(a + 1, n)

    def cell(p: int, n: int) -> tuple[int, int]:
        f = 0
        lat = 0
        for i in range(0, n + 1):
            for a in range(0, i + 1):
                for bb in range(0, (n - i) + 1):
                    if a + bb >= p:
                        f += gr(x.filtration_dim, a, i) * gr(y.filtration_dim, bb, n - i)
                        lat += gr(x.lattice_rank_in_filtration, a, i) * gr(y.lattice_rank_in_filtration, bb, n - i)
        return f, min(lat, f, betti[n])

    def pieces(n: int) -> tuple[dict, dict]:
        cells = [cell(p, n) for p in range(1, n + 1)]
        return _steps([betti[n]] + [f for f, _lat in cells]), _steps([betti[n]] + [lat for _f, lat in cells])

    betti = _convolve(x.betti, y.betti)
    return QuasiProjModel._of_pieces(
        f"{x.name} x {y.name}", betti, {n: pieces(n) for n in betti}, _convolve(x.hodge_class_rank, y.hodge_class_rank)
    )
