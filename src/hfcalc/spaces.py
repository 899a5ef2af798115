"""Cohomological models of complex varieties.

Two model kinds feed the engine:

* :class:`KahlerModel` -- a compact Kahler manifold presented by its
  integral Betti groups, Hodge numbers h^{s,t} and the ranks of its groups
  of integral Hodge classes.  Filtration dimensions are derived:
  dim F^p H^n = sum_{s >= p} h^{s, n-s}.

* :class:`QuasiProjModel` -- a smooth quasi-projective variety presented by
  (torsion-free) Betti ranks together with explicit tables for
  dim F^p H^n(X; C) and for the rank of the sublattice of H^n(X; Z) whose
  complex span lies in F^p.  Mixed Hodge weights are not modelled; the
  filtration tables are all the engine consumes.

Products and projective bundles convolve tables: a product's Betti ranks,
Hodge numbers and Hodge-class ranks are the convolutions of its factors'
tables (Kunneth), and a rank-r bundle's are the base's convolved with
1 + t + ... + t^(r-1) in the matching grading (the projective bundle
formula).

Hodge-class ranks are data, not derived: the rank of the group of integral
Hodge classes is not a function of the h^{s,t} (Picard numbers vary in
families).  The constructors install the defaults that are correct for
them -- cellular spaces use h^{q,q}, products and bundles the convolution
-- and callers may override.

The position of the integral lattice relative to the Hodge filtration on a
KahlerModel follows one documented rule ("cellular Hodge-Tate"): see
:meth:`KahlerModel.lattice_rank_in_filtration`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from hfcalc.abelian import FgAbelianGroup
from hfcalc.errors import ModelError
from hfcalc.rings import Poly, RingModel, bundle_extension, polynomial_ring_mod_power, tensor_rings, trivial_ring

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

@dataclass(frozen=True)
class KahlerModel:
    """A compact Kahler manifold presented by cohomological data."""

    name: str
    dim: int
    betti: dict  # n -> FgAbelianGroup
    hodge: dict  # (s, t) -> int
    hodge_class_rank: dict  # q -> int
    ring: Optional[RingModel] = None

    @classmethod
    def make(cls, name, dim, betti, hodge, hodge_class_rank, ring=None) -> "KahlerModel":
        """Normalize (drop zero entries), build, and validate."""
        b = {int(n): g for n, g in betti.items() if not g.is_trivial}
        h = {(int(s), int(t)): int(v) for (s, t), v in hodge.items() if v != 0}
        hcr = {int(q): int(v) for q, v in hodge_class_rank.items() if v != 0}
        model = cls(name=name, dim=int(dim), betti=b, hodge=h, hodge_class_rank=hcr, ring=ring)
        model.validate()
        return model

    # -- accessors shared with QuasiProjModel ---------------------------------

    def betti_rank(self, n: int) -> int:
        g = self.betti.get(n)
        return g.free_rank if g is not None else 0

    def betti_torsion(self, n: int) -> tuple[int, ...]:
        g = self.betti.get(n)
        return g.torsion if g is not None else ()

    @property
    def has_torsion(self) -> bool:
        return any(g.torsion for g in self.betti.values())

    @property
    def max_degree(self) -> int:
        return 2 * self.dim

    def support_degrees(self) -> list[int]:
        return sorted(self.betti)

    def hodge_number(self, s: int, t: int) -> int:
        return self.hodge.get((s, t), 0)

    def hcr(self, q: int) -> int:
        return self.hodge_class_rank.get(q, 0)

    def filtration_dim(self, p: int, n: int) -> int:
        """dim F^p H^n(X; C) = sum_{s >= p} h^{s, n-s}."""
        if n < 0 or n > 2 * self.dim:
            return 0
        return sum(v for (s, t), v in self.hodge.items() if s + t == n and s >= p)

    def smallest_hodge_level(self, n: int) -> Optional[int]:
        levels = [s for (s, t), v in self.hodge.items() if s + t == n and v != 0]
        return min(levels) if levels else None

    def lattice_rank_in_filtration(self, q: int, m: int) -> int:
        """Rank of the sublattice of H^m(X; Z) whose C-span lies in F^q H^m.

        Cellular Hodge-Tate rule.  For odd m the lattice is real, so it lies
        in F^q exactly when F^q is everything (q at most the smallest Hodge
        level).  For even m: below the smallest Hodge level the filtration is
        everything and the full lattice qualifies; at levels up to m/2 the
        lattice part inside F^q is the group of integral Hodge classes,
        whose rank is model data; above m/2 a real class in F^q would have to
        be of type (s, t) with s, t >= q > m/2, which cannot happen.
        """
        b = self.betti_rank(m)
        if b == 0:
            return 0
        s_min = self.smallest_hodge_level(m)
        if m % 2 != 0:
            return b if q <= s_min else 0
        if q <= min(s_min, m // 2 - 1):
            return b
        if q <= m // 2:
            return self.hcr(m // 2)
        return 0

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        d = self.dim
        if d < 0:
            raise ModelError(f"{self.name}: negative dimension")
        for n, g in self.betti.items():
            if n < 0 or n > 2 * d:
                raise ModelError(f"{self.name}: Betti group in degree {n} outside [0, {2 * d}]")
        hsums = Counter()
        for (s, t), v in self.hodge.items():
            hsums[s + t] += v
            if v < 0:
                raise ModelError(f"{self.name}: negative Hodge number h^{{{s},{t}}}")
            if not (0 <= s <= d and 0 <= t <= d):
                raise ModelError(f"{self.name}: h^{{{s},{t}}} nonzero outside [0, {d}]^2")
            if self.hodge.get((t, s), 0) != v:
                raise ModelError(
                    f"{self.name}: Hodge symmetry fails, h^{{{s},{t}}} = {v} != h^{{{t},{s}}} = {self.hodge.get((t, s), 0)}"
                )
        for n in range(0, 2 * d + 1):
            hsum = hsums[n]
            b = self.betti_rank(n)
            if hsum != b:
                raise ModelError(
                    f"{self.name}: Hodge numbers in degree {n} sum to {hsum}, Betti rank is {b}"
                )
            if n % 2 == 1 and b % 2 != 0:
                raise ModelError(f"{self.name}: odd Betti rank {b} in odd degree {n}")
            if self.betti_rank(2 * d - n) != b:
                raise ModelError(
                    f"{self.name}: Poincare duality fails between degrees {n} and {2 * d - n}"
                )
        for q, v in self.hodge_class_rank.items():
            if v < 0 or v > self.hodge_number(q, q):
                raise ModelError(
                    f"{self.name}: hodge_class_rank({q}) = {v} outside [0, h^{{{q},{q}}} = {self.hodge_number(q, q)}]"
                )
        if self.ring is not None:
            rdims = self.ring.graded_dimensions()
            for n in range(0, 2 * d + 1):
                if rdims[n] != self.betti_rank(n):
                    raise ModelError(
                        f"{self.name}: ring presentation has dimension {rdims[n]} in degree {n}, Betti rank is {self.betti_rank(n)}"
                    )


@dataclass(frozen=True)
class QuasiProjModel:
    """A smooth quasi-projective variety presented by filtration tables.

    ``filt`` and ``lattice`` store only the window 1 <= p <= n; outside it
    the values are forced: everything for p <= 0, zero for p > n.
    """

    name: str
    betti: dict  # n -> int (torsion-free)
    filt: dict  # (p, n) -> dim F^p H^n, window 1 <= p <= n
    lattice: dict  # (p, n) -> lattice rank inside F^p, same window
    hodge_class_rank: dict  # q -> int
    ring: Optional[RingModel] = None

    @classmethod
    def make(cls, name, betti, filt, lattice, hodge_class_rank=None, ring=None) -> "QuasiProjModel":
        b = {int(n): int(v) for n, v in betti.items() if v != 0}
        f = {(int(p), int(n)): int(v) for (p, n), v in filt.items() if v != 0}
        lat = {(int(p), int(n)): int(v) for (p, n), v in lattice.items() if v != 0}
        hcr = {int(q): int(v) for q, v in (hodge_class_rank or {}).items() if v != 0}
        model = cls(name=name, betti=b, filt=f, lattice=lat, hodge_class_rank=hcr, ring=ring)
        model.validate()
        return model

    def betti_rank(self, n: int) -> int:
        return self.betti.get(n, 0)

    def betti_torsion(self, n: int) -> tuple[int, ...]:
        return ()

    @property
    def has_torsion(self) -> bool:
        return False

    @property
    def max_degree(self) -> int:
        return max(self.betti, default=0)

    def support_degrees(self) -> list[int]:
        return sorted(self.betti)

    def hcr(self, q: int) -> int:
        return self.hodge_class_rank.get(q, 0)

    def filtration_dim(self, p: int, n: int) -> int:
        b = self.betti_rank(n)
        if b == 0:
            return 0
        if p <= 0:
            return b
        if p > n:
            return 0
        return self.filt.get((p, n), 0)

    def lattice_rank_in_filtration(self, q: int, n: int) -> int:
        b = self.betti_rank(n)
        if b == 0:
            return 0
        if q <= 0:
            return b
        if q > n:
            return 0
        return self.lattice.get((q, n), 0)

    def validate(self) -> None:
        for n, b in self.betti.items():
            if b < 0:
                raise ModelError(f"{self.name}: negative Betti rank in degree {n}")
            if n < 0:
                raise ModelError(f"{self.name}: cohomology in negative degree {n}")
        for (p, n), v in list(self.filt.items()) + list(self.lattice.items()):
            if not (1 <= p <= n):
                raise ModelError(
                    f"{self.name}: filtration entry at (p={p}, n={n}) outside the window 1 <= p <= n"
                )
        for n in self.betti:
            prev = self.betti_rank(n)
            for p in range(1, n + 2):
                cur = self.filtration_dim(p, n)
                if cur > prev:
                    raise ModelError(
                        f"{self.name}: dim F^{p}H^{n} = {cur} exceeds dim F^{p - 1}H^{n} = {prev}"
                    )
                lat = self.lattice_rank_in_filtration(p, n)
                if lat < 0 or lat > min(self.betti_rank(n), cur):
                    raise ModelError(
                        f"{self.name}: lattice rank {lat} at (p={p}, n={n}) exceeds min(Betti, filtration) = {min(self.betti_rank(n), cur)}"
                    )
                prev = cur


Model = KahlerModel | QuasiProjModel


# -- constructors ---------------------------------------------------------------


def _convolve(a: Mapping, b: Mapping) -> dict:
    """out[k + l] += a[k] * b[l]; keys are integers or (s, t) pairs, added
    componentwise."""
    out: dict = {}
    for k, u in a.items():
        for l, v in b.items():
            key = k + l if isinstance(k, int) else (k[0] + l[0], k[1] + l[1])
            out[key] = out.get(key, 0) + u * v
    return out


def point() -> KahlerModel:
    return KahlerModel.make(
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
    return KahlerModel.make(
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
        return replace(projective_space(1), name="curve(0)")
    return KahlerModel.make(
        name=f"curve({g})",
        dim=1,
        betti={0: FgAbelianGroup(1), 1: FgAbelianGroup(2 * g), 2: FgAbelianGroup(1)},
        hodge={(0, 0): 1, (1, 0): g, (0, 1): g, (1, 1): 1},
        hodge_class_rank={0: 1, 1: 1},
    )


def product(x: KahlerModel, y: KahlerModel, hodge_class_rank: Mapping[int, int] | None = None) -> KahlerModel:
    """Kunneth product of two torsion-free Kahler models.

    The factors are independent: ``product(curve(1), curve(1))`` is the
    product of two generic elliptic curves with independent moduli, not
    E x E for one curve E.  With one shared tau the self-product carries
    more integral classes: H^2 has rank 3 in F^1 on E x E (the diagonal
    adds one), not 2.  The default hodge_class_rank table is the
    convolution of the factors' tables (products of Hodge classes);
    override it when the product is known to carry more.  The odd-degree
    lattice ranks cannot be overridden.
    """
    for factor in (x, y):
        for n in sorted(factor.betti):
            if factor.betti_torsion(n):
                raise ModelError(f"product factor {factor.name} has torsion in degree {n}")
    ranks = _convolve(
        {n: g.free_rank for n, g in x.betti.items()}, {n: g.free_rank for n, g in y.betti.items()}
    )
    if hodge_class_rank is None:
        hodge_class_rank = _convolve(x.hodge_class_rank, y.hodge_class_rank)
    ring = None
    if x.ring is not None and y.ring is not None:
        ring = tensor_rings(x.ring, y.ring)
    return KahlerModel.make(
        name=f"{x.name} x {y.name}", dim=x.dim + y.dim,
        betti={n: FgAbelianGroup(r) for n, r in ranks.items()},
        hodge=_convolve(x.hodge, y.hodge), hodge_class_rank=hodge_class_rank, ring=ring,
    )


def projective_bundle(x: Model, r: int, chern: list[Poly] | None = None) -> Model:
    """P(V) for a rank-r bundle V on x: tables are r-fold shifted sums.

    When the base carries a ring presentation the bundle ring adjoins a
    degree-2 class subject to the alternating Chern-class relation
    (``chern`` = [c_1, ..., c_r] as base ring elements, default trivial).
    """
    if r < 1:
        raise ModelError("projective_bundle needs r >= 1")
    shifts = range(r)
    name = f"P(V^{r} -> {x.name})"
    hcr = _convolve(x.hodge_class_rank, {i: 1 for i in shifts})
    ring = bundle_extension(x.ring, r, chern) if x.ring is not None else None
    if isinstance(x, KahlerModel):
        dim = x.dim + r - 1
        betti = {}
        for n in range(0, 2 * dim + 1):
            free = sum(x.betti_rank(n - 2 * i) for i in shifts)
            tors: list[int] = []
            for i in shifts:
                tors.extend(x.betti_torsion(n - 2 * i))
            if free or tors:
                betti[n] = FgAbelianGroup.of(free, tors)
        return KahlerModel.make(
            name=name, dim=dim, betti=betti, hodge=_convolve(x.hodge, {(i, i): 1 for i in shifts}),
            hodge_class_rank=hcr, ring=ring,
        )
    betti_q = _convolve(x.betti, {2 * i: 1 for i in shifts})
    filt = {}
    lattice = {}
    for n in betti_q:
        for p in range(1, n + 1):
            f = sum(x.filtration_dim(p - i, n - 2 * i) for i in shifts)
            lat = sum(x.lattice_rank_in_filtration(p - i, n - 2 * i) for i in shifts)
            if f:
                filt[(p, n)] = f
            if lat:
                lattice[(p, n)] = lat
    return QuasiProjModel.make(
        name=name, betti=betti_q, filt=filt, lattice=lattice, hodge_class_rank=hcr, ring=ring,
    )


def affine_space(n: int) -> QuasiProjModel:
    """A^n: cohomologically a point, with the filtration of weight zero."""
    if n < 0:
        raise ModelError("affine_space needs n >= 0")
    return QuasiProjModel.make(
        name=f"A{n}", betti={0: 1}, filt={}, lattice={}, hodge_class_rank={0: 1},
    )


def gm() -> QuasiProjModel:
    """The multiplicative group C^*: H^1 is spanned by dz/z, which has
    filtration level one (the class carries a weight-2 mixed structure)."""
    return QuasiProjModel.make(
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
    filt = {}
    lattice = {}
    for n in betti:
        for p in range(1, n + 1):
            f = x.filtration_dim(p, n)
            lat = x.lattice_rank_in_filtration(p, n)
            if f:
                filt[(p, n)] = f
            if lat:
                lattice[(p, n)] = lat
    return QuasiProjModel.make(
        name=x.name, betti=betti, filt=filt, lattice=lattice,
        hodge_class_rank=dict(x.hodge_class_rank),
    )


def quasi_product(x: QuasiProjModel, y: QuasiProjModel) -> QuasiProjModel:
    """Kunneth product of quasi-projective models.

    Filtration dimensions convolve through graded pieces
    gr^a = F^a/F^{a+1}; the lattice table convolves the same way, which is
    the correct default whenever one factor is cohomologically trivial
    (the A^1-invariance use case) and a documented lower-bound heuristic
    otherwise.
    """

    def gr(model: QuasiProjModel, a: int, n: int) -> int:
        return max(model.filtration_dim(a, n) - model.filtration_dim(a + 1, n), 0)

    def gr_lat(model: QuasiProjModel, a: int, n: int) -> int:
        return max(
            model.lattice_rank_in_filtration(a, n) - model.lattice_rank_in_filtration(a + 1, n), 0
        )

    betti = _convolve(x.betti, y.betti)
    filt = {}
    lattice = {}
    for n, b in betti.items():
        for p in range(1, n + 1):
            f = 0
            lat = 0
            for i in range(0, n + 1):
                for a in range(0, i + 1):
                    for bb in range(0, (n - i) + 1):
                        if a + bb >= p:
                            f += gr(x, a, i) * gr(y, bb, n - i)
                            lat += gr_lat(x, a, i) * gr_lat(y, bb, n - i)
            if f:
                filt[(p, n)] = f
            if lat:
                lattice[(p, n)] = min(lat, f, b)
    return QuasiProjModel.make(
        name=f"{x.name} x {y.name}", betti=betti, filt=filt, lattice=lattice,
        hodge_class_rank=_convolve(x.hodge_class_rank, y.hodge_class_rank),
    )
