"""Cohomological models of complex varieties.

Two model kinds feed the engine:

* :class:`KahlerModel` -- a compact Kahler manifold presented by its
  integral Betti groups, Hodge numbers h^{s,t} and the ranks of its groups
  of integral Hodge classes.  Filtration dimensions are derived:
  dim F^p H^n = sum_{s >= p} h^{s, n-s}, read from the Hodge numbers
  indexed by degree once per model.

* :class:`QuasiProjModel` -- a smooth quasi-projective variety presented by
  (torsion-free) Betti ranks together with explicit tables for
  dim F^p H^n(X; C) and for the rank of the sublattice of H^n(X; Z) whose
  complex span lies in F^p.  Mixed Hodge weights are not modelled; the
  filtration tables are all the engine consumes.

Products and projective bundles convolve tables.  A product's Hodge
numbers and Hodge-class ranks are the convolutions of its factors' tables,
and its Betti groups follow the integral Kunneth formula (tensor products
plus Tor).  A rank-r bundle's tables are the base's convolved with
1 + t + ... + t^(r-1) in the matching grading (the projective bundle
formula; a Kahler bundle direct-sums the base's Betti groups, torsion
included).  One helper fills the ``filt`` and ``lattice`` windows of every
quasi-projective result from its graded pieces gr^a H^n, degree by degree.

Hodge-class ranks are data, not derived: the rank of the group of integral
Hodge classes is not a function of the h^{s,t} (Picard numbers vary in
families).  The constructors install the defaults that are correct for
them -- cellular spaces use h^{q,q}, products and bundles the convolution
-- and callers override any field with ``.replace``.  Each model class
has one construction path, its ``__init__``: it drops zero entries, builds
the derived data and refuses inconsistent tables with a ModelError.

The position of the integral lattice relative to the Hodge filtration on a
KahlerModel follows one documented rule ("cellular Hodge-Tate"): see
:meth:`KahlerModel.lattice_rank_in_filtration`.  Its Hodge-class ranks
are held to what Hodge theory allows: at most h^{q,q}, and all of b_2q
where H^2q has type (q, q) alone.
"""

from __future__ import annotations

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


class KahlerModel(Frozen):
    """A compact Kahler manifold presented by cohomological data."""

    _fields = ("name", "dim", "betti", "hodge", "hodge_class_rank", "ring")
    __slots__ = _fields + ("_levels", "_support", "has_torsion")

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
        hodge = _nonzero(hodge)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "hodge_class_rank", _nonzero(hodge_class_rank))
        object.__setattr__(self, "ring", ring)
        # Derived data, built once per instance beside the fields (a
        # ``replace`` copy is a new instance, so none of it goes stale).
        levels: dict = {}  # the Hodge table by degree: n -> [(s, h^{s, n-s}), ...], s increasing
        for (s, t), v in sorted(hodge.items()):
            levels.setdefault(s + t, []).append((s, v))
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_support", tuple(sorted(betti)))
        object.__setattr__(self, "has_torsion", any(g.torsion for g in betti.values()))
        self._check()

    # The benchmark's probes still call make (ROADMAP item 1); construct directly.
    make = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))

    # -- accessors shared with QuasiProjModel ---------------------------------

    def betti_rank(self, n: int) -> int:
        g = self.betti.get(n)
        return g.free_rank if g is not None else 0

    def betti_torsion(self, n: int) -> tuple[int, ...]:
        g = self.betti.get(n)
        return g.torsion if g is not None else ()

    @property
    def max_degree(self) -> int:
        return 2 * self.dim

    def support_degrees(self) -> tuple[int, ...]:
        return self._support

    def hcr(self, q: int) -> int:
        return self.hodge_class_rank.get(q, 0)

    def filtration_dim(self, p: int, n: int) -> int:
        """dim F^p H^n(X; C) = sum_{s >= p} h^{s, n-s}."""
        return sum(v for s, v in self._levels.get(n, ()) if s >= p)

    def lattice_rank_in_filtration(self, q: int, m: int) -> int:
        """Rank of the sublattice of H^m(X; Z) whose C-span lies in F^q H^m.

        Cellular Hodge-Tate rule.  At or below the smallest Hodge level the
        filtration is everything and the full lattice qualifies.  Above it,
        a real class in F^q has types (s, t) with s, t >= q, so none exists
        in odd degree or for 2q > m; otherwise the lattice part inside F^q
        is the group of integral Hodge classes, whose rank is model data.
        The constructor holds that rank to b_m where H^m has type (q, q)
        alone, so the two readings agree there.
        """
        b = self.betti_rank(m)
        if b == 0:
            return 0
        if q <= self._levels[m][0][0]:
            return b
        return 0 if m % 2 or 2 * q > m else self.hcr(m // 2)

    def _check(self) -> None:
        """Refuse tables that no Kahler manifold has; Hodge numbers are read by degree."""
        name, d = self.name, self.dim
        if d < 0:
            raise ModelError(f"{name}: negative dimension")
        ranks = {}  # the nonzero Betti ranks
        for n, g in self.betti.items():
            if not 0 <= n <= 2 * d:
                raise ModelError(f"{name}: Betti group in degree {n} outside [0, {2 * d}]")
            if g.free_rank:
                ranks[n] = g.free_rank
        hsums = {}
        for n, row in self._levels.items():
            if row != [(n - s, v) for s, v in reversed(row)]:
                h = dict(row)
                s = next(s for s, v in row if h.get(n - s, 0) != v)
                raise ModelError(
                    f"{name}: Hodge symmetry fails, h^{{{s},{n - s}}} = {h[s]} != h^{{{n - s},{s}}} = {h.get(n - s, 0)}"
                )
            s = row[0][0]  # the smallest s, and by symmetry n - s is the largest
            if s < 0 or n - s > d:
                raise ModelError(f"{name}: h^{{{s},{n - s}}} nonzero outside [0, {d}]^2")
            values = [v for _s, v in row]
            if min(values) < 0:
                s = next(s for s, v in row if v < 0)
                raise ModelError(f"{name}: negative Hodge number h^{{{s},{n - s}}}")
            hsums[n] = sum(values)
        # Symmetric Hodge numbers pair up in odd degrees, so these sums also
        # hold every odd-degree Betti rank even.
        if hsums != ranks:
            n = _first_difference(hsums, ranks)
            raise ModelError(f"{name}: Hodge numbers in degree {n} sum to {hsums.get(n, 0)}, Betti rank is {ranks.get(n, 0)}")
        for n, b in ranks.items():
            if ranks.get(2 * d - n) != b:
                raise ModelError(f"{name}: Poincare duality fails between degrees {n} and {2 * d - n}")
        for q, v in self.hodge_class_rank.items():
            row = self._levels.get(2 * q, ())
            hqq = row[len(row) // 2][1] if len(row) % 2 else 0  # the middle of a symmetric row
            if v < 0 or v > hqq:
                raise ModelError(f"{name}: hodge_class_rank({q}) = {v} outside [0, h^{{{q},{q}}} = {hqq}]")
        for n, row in self._levels.items():
            q, b = row[0]  # the smallest s; at n / 2, H^n has type (q, q) alone and b is its rank
            if 2 * q == n and self.hcr(q) != b:
                raise ModelError(
                    f"{name}: H^{n} has type ({q},{q}) alone, so every class is a Hodge class:"
                    f" hodge_class_rank({q}) = {self.hcr(q)}, b_{n} = {b}"
                )
        _check_ring(self, ranks)


class QuasiProjModel(Frozen):
    """A smooth quasi-projective variety presented by filtration tables.

    ``filt`` and ``lattice`` store only the window 1 <= p <= n of the
    degrees with Betti rank; outside it the values are forced: everything
    for p <= 0, zero for p > n.
    """

    _fields = ("name", "betti", "filt", "lattice", "hodge_class_rank", "ring")
    __slots__ = _fields + ("_support",)

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
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "filt", _nonzero(filt))
        object.__setattr__(self, "lattice", _nonzero(lattice))
        object.__setattr__(self, "hodge_class_rank", _nonzero(hodge_class_rank or {}))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_support", tuple(sorted(betti)))  # derived, as on KahlerModel
        self._check()

    make = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))  # as on KahlerModel

    def betti_rank(self, n: int) -> int:
        return self.betti.get(n, 0)

    def betti_torsion(self, n: int) -> tuple[int, ...]:
        return ()

    @property
    def max_degree(self) -> int:
        return max(self.betti, default=0)

    def support_degrees(self) -> tuple[int, ...]:
        return self._support

    def hcr(self, q: int) -> int:
        return self.hodge_class_rank.get(q, 0)

    # The constructor holds every entry inside the window, so a cell outside
    # it finds none.
    def filtration_dim(self, p: int, n: int) -> int:
        return self.betti.get(n, 0) if p <= 0 else self.filt.get((p, n), 0)

    def lattice_rank_in_filtration(self, q: int, n: int) -> int:
        return self.betti.get(n, 0) if q <= 0 else self.lattice.get((q, n), 0)

    def _check(self) -> None:
        name, betti = self.name, self.betti
        for n, b in betti.items():
            if b < 0:
                raise ModelError(f"{name}: negative Betti rank in degree {n}")
            if n < 0:
                raise ModelError(f"{name}: cohomology in negative degree {n}")
        for table in (self.filt, self.lattice):
            for p, n in table:
                if not 1 <= p <= n or n not in betti:
                    raise ModelError(
                        f"{name}: filtration entry at (p={p}, n={n}) outside the windows 1 <= p <= n of the degrees with Betti rank"
                    )
        filt, lattice = self.filt, self.lattice
        for n, b in betti.items():
            fs, lats = [b], [b]  # by p from 0: F^0 H^n = H^n, and the lattice inside it has full rank
            for p in range(1, n + 1):  # F^(n+1) H^n = 0 meets both bounds
                cur = filt.get((p, n), 0)
                if cur > fs[-1]:
                    raise ModelError(f"{name}: dim F^{p}H^{n} = {cur} exceeds dim F^{p - 1}H^{n} = {fs[-1]}")
                # cur <= F^(p-1) <= ... <= betti_rank(n), so cur is min(Betti, filtration).
                lat = lattice.get((p, n), 0)
                if lat < 0 or lat > cur:
                    raise ModelError(
                        f"{name}: lattice rank {lat} at (p={p}, n={n}) exceeds min(Betti, filtration) = {cur}"
                    )
                # The lattice inside F^p lies inside F^(p-1): non-increasing in p.
                if lat > lats[-1]:
                    raise ModelError(
                        f"{name}: lattice rank {lat} at (p={p}, n={n}) exceeds the rank {lats[-1]} at (p={p - 1}, n={n})"
                    )
                fs.append(cur)
                lats.append(lat)
            # On a smooth variety h^{s,t}(H^n) = 0 unless s, t <= n <= s + t, and h^{s,t} = h^{t,s}
            # on each weight (Deligne, Hodge II 3.2, III 8.2): (s, t) -> (t, s) maps the types with
            # s <= a, a complement of F^(a+1), into F^(n-a).  If F^p H^n = H^n, all the lattice is in F^p.
            for a in range(n):
                f, lat, mirror = fs[a + 1], lats[a + 1], fs[n - a]
                if f == b and lat != b:
                    raise ModelError(f"{name}: F^{a + 1}H^{n} = H^{n}, yet its lattice rank is {lat}, not b_{n} = {b}")
                if b - f > mirror:
                    raise ModelError(f"{name}: codim F^{a + 1}H^{n} = {b - f} exceeds dim F^{n - a}H^{n} = {mirror}")
        for q, v in self.hodge_class_rank.items():
            # Hodge classes are lattice classes inside F^q H^2q, as h^{q,q} bounds them on KahlerModel.
            bound = self.lattice_rank_in_filtration(q, 2 * q)
            if v < 0 or v > bound:
                raise ModelError(f"{name}: hodge_class_rank({q}) = {v} outside [0, lattice rank in F^{q}H^{2 * q} = {bound}]")
        _check_ring(self, betti)


Model = KahlerModel | QuasiProjModel


# -- constructors ---------------------------------------------------------------

# A quasi-projective model's windows grow with the square of its top degree, and
# so does building a bundle over a quasi-projective base (on a two-CPU Xeon host,
# P(P(Gm, 60), 60), degree 237, 14,161 filt entries: 24 ms; P(P(Gm, 200), 200),
# degree 797: 0.35 s).
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


def _window_tables(degrees, pieces) -> tuple[dict, dict]:
    """Nonzero ``filt`` and ``lattice`` entries on the windows 1 <= p <= n of
    ``degrees``, from pieces(n) = ({a: dim gr^a H^n}, {a: the lattice's step at a}):
    the value at p is the sum of the pieces at a >= p, one suffix sum per degree."""
    filt = {}
    lattice = {}
    for n in degrees:
        for table, gr in zip((filt, lattice), pieces(n)):
            total = 0
            for p in range(max(gr, default=0), 0, -1):
                total += gr.get(p, 0)
                if total:
                    table[(p, n)] = total
    return filt, lattice


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
        betti={2 * q: FgAbelianGroup(1) for q in range(n + 1)},
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
    gr: dict = {}  # n -> the bundle's pieces in degree n: the base's, shifted by (i, 2i)
    for m, b in x.betti.items():
        base = [_steps([b] + [table.get((p, m), 0) for p in range(1, m + 1)]) for table in (x.filt, x.lattice)]
        for i in shifts:
            for out, piece in zip(gr.setdefault(m + 2 * i, ({}, {})), base):
                for a, v in piece.items():
                    out[a + i] = out.get(a + i, 0) + v
    betti_q = _convolve(x.betti, {2 * i: 1 for i in shifts})
    filt, lattice = _window_tables(betti_q, gr.__getitem__)
    return QuasiProjModel(
        name=name, betti=betti_q, filt=filt, lattice=lattice, hodge_class_rank=hcr, ring=ring,
    )


def affine_space(n: int) -> QuasiProjModel:
    """A^n: cohomologically a point, with the filtration of weight zero."""
    if n < 0:
        raise ModelError("affine_space needs n >= 0")
    return QuasiProjModel(
        name=f"A{n}", betti={0: 1}, filt={}, lattice={}, hodge_class_rank={0: 1},
    )


def gm() -> QuasiProjModel:
    """The multiplicative group C^*: H^1 is spanned by dz/z, which has
    filtration level one (the class carries a weight-2 mixed structure)."""
    return QuasiProjModel(
        name="Gm",
        betti={0: 1, 1: 1},
        filt={(1, 1): 1},
        lattice={(1, 1): 1},
        hodge_class_rank={0: 1},
    )


def as_quasiproj(x: Model) -> QuasiProjModel:
    """Re-present a torsion-free model through explicit filtration tables."""
    if isinstance(x, QuasiProjModel):
        return x
    if x.has_torsion:
        raise ModelError(f"{x.name}: cannot re-present a torsion Betti table as quasi-projective data")
    betti = {n: x.betti_rank(n) for n in x.support_degrees()}

    def pieces(n: int) -> tuple[dict, dict]:
        # gr^s H^n is h^{s, n-s}.  The lattice rule steps from b_n to the Hodge classes
        # above the smallest Hodge level s, and from them to 0 above n / 2.
        row, half = x._levels[n], n // 2
        s = row[0][0]
        hodge = x.hcr(half) if n % 2 == 0 and s < half else 0
        return dict(row), {half: hodge, s: betti[n] - hodge}  # one step, b_n, where s = half

    filt, lattice = _window_tables(betti, pieces)
    return QuasiProjModel(
        name=x.name, betti=betti, filt=filt, lattice=lattice,
        hodge_class_rank=dict(x.hodge_class_rank),
    )


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
    filt, lattice = _window_tables(betti, pieces)
    return QuasiProjModel(
        name=f"{x.name} x {y.name}", betti=betti, filt=filt, lattice=lattice,
        hodge_class_rank=_convolve(x.hodge_class_rank, y.hodge_class_rank),
    )
