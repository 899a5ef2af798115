"""The Hodge filtered cohomology calculator.

For a rationally even theory E presented by the ranks r_j of pi_{2j}E and a
space presented by cohomological data, the groups computed here sit in a
long exact sequence

  ... -> H^{n-1}(X; pi_{2*}E (x) C) -> E_D^n(p)(X)
      -> E^n(X) (+) F^{p+*}H^n(X; pi_{2*}E (x) C) -> H^n(X; pi_{2*}E (x) C) -> ...

which splits as 0 -> coker(alpha) -> E_D^n(p)(X) -> ker(beta) -> 0.  All
graded pieces decompose into j-blocks: the block in degree m = n + 2j has
total dimension betti_rank(m) * r_j and filtered dimension
filtration_dim(p + j, m) * r_j.  The engine therefore computes:

* ker(beta): the sublattice of E^n(X) whose complexification lands in the
  filtered part, blockwise from the models' lattice rule, plus all Betti
  torsion when E is ordinary integral cohomology;

* coker(alpha): per block V/(F + L) where V is the block, F its filtered
  subspace and L the (full-rank, totally real) lattice image.  At rank
  level the quotient is (R/Z)^(D - lam) x R^(D - 2f + lam) with D, f, lam
  the block's total, filtered and lattice-in-F counts.  The shape is
  certified exact when the filtration meets the real structure trivially:
  always when f = 0, and on a Kahler model whenever 2(p + j) > m, since a
  real class inside F^q would need Hodge type (s, t) with s, t >= q.  On
  the diagonal n = 2p every block has m = 2(p + j) - 1, so the cokernel is
  a compact complex torus (the generalized Jacobian) and the descriptor is
  the extension of the Hodge classes by it.  Non-certified blocks are
  reported at rank level and flagged.

One fold, ``_cell``, turns the block lists of degrees n and n - 1 into a
cell; ``point_table`` builds each row's block lists once and folds them for
every p.

Results are Lie-group-type descriptors (free rank, torsion, circles, real
lines, optional complex-torus dimension): exactly the information the long
exact sequence determines, never cocycle-level representatives.
"""

from __future__ import annotations

from typing import Iterable, Optional

from hfcalc._frozen import Frozen
from hfcalc.abelian import FgAbelianGroup, divisibility_chain
from hfcalc.coefficients import CoefficientTheory, builtin_theory, mu_rank
from hfcalc.errors import EngineError, RingError
from hfcalc.rings import Poly, bundle_extension
from hfcalc.spaces import (
    KahlerModel,
    Model,
    QuasiProjModel,
    affine_space,
    point,
    projective_bundle,
    quasi_product,
)

__all__ = [
    "GroupDescriptor",
    "EXACT",
    "RANK_LEVEL",
    "e_rank",
    "filtered_dim",
    "jacobian",
    "hodge_group",
    "hfc_group",
    "variant_for",
    "point_table",
    "rational_splitting_check",
    "mv_consistency",
    "a1_invariance_check",
    "pbf_check",
    "grothendieck_check",
    "transfer_normalization_check",
    "descriptor_sum",
]

EXACT = "exact"
RANK_LEVEL = "rank-level"

ANALYTIC = "analytic"
LOG = "log"

MAX_GRID_CELLS = 100_000  # about 1 us a cell: 301 x 301 MU cells take 0.09 s


class GroupDescriptor(Frozen):
    """Lie-group isomorphism type of a Hodge filtered cohomology group.

    free_rank and torsion describe the discrete part, circle_rank counts
    R/Z factors and real_rank counts R factors.  When the connected
    component is known to be a compact complex torus, complex_torus_dim is
    set (and then circle_rank == 2 * complex_torus_dim, real_rank == 0).
    A C/Z factor contributes one circle and one real line.  ``exactness``
    is "rank-level" when some block's Lie type was not certified and only
    the rank bookkeeping is asserted.
    """

    __slots__ = _fields = ("free_rank", "torsion", "circle_rank", "real_rank", "complex_torus_dim", "exactness")

    def __init__(
        self, free_rank: int = 0, torsion: tuple[int, ...] = (), circle_rank: int = 0, real_rank: int = 0,
        complex_torus_dim: Optional[int] = None, exactness: str = EXACT,
    ):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "circle_rank", circle_rank)
        object.__setattr__(self, "real_rank", real_rank)
        object.__setattr__(self, "complex_torus_dim", complex_torus_dim)
        object.__setattr__(self, "exactness", exactness)
        if min(free_rank, circle_rank, real_rank) < 0:
            raise EngineError("descriptor counts must be nonnegative")
        for i, d in enumerate(torsion):
            if d < 2 or (i > 0 and d % torsion[i - 1] != 0):
                raise EngineError(f"torsion {torsion} is not a divisibility chain")
        if complex_torus_dim is not None:
            if circle_rank != 2 * complex_torus_dim or real_rank != 0:
                raise EngineError("a complex torus of dim t is (R/Z)^(2t) as a real group")
        if exactness not in (EXACT, RANK_LEVEL):
            raise EngineError(f"unknown exactness flag {exactness!r}")

    @property
    def is_zero(self) -> bool:
        return (
            self.free_rank == 0
            and not self.torsion
            and self.circle_rank == 0
            and self.real_rank == 0
        )

    def direct_sum(self, other: "GroupDescriptor") -> "GroupDescriptor":
        ctd = None
        if self.complex_torus_dim is not None and other.complex_torus_dim is not None:
            ctd = self.complex_torus_dim + other.complex_torus_dim
        elif self.complex_torus_dim is not None and other.circle_rank == other.real_rank == 0:
            ctd = self.complex_torus_dim
        elif other.complex_torus_dim is not None and self.circle_rank == self.real_rank == 0:
            ctd = other.complex_torus_dim
        return GroupDescriptor(
            free_rank=self.free_rank + other.free_rank,
            torsion=tuple(divisibility_chain(self.torsion + other.torsion)),
            circle_rank=self.circle_rank + other.circle_rank,
            real_rank=self.real_rank + other.real_rank,
            complex_torus_dim=ctd,
            exactness=EXACT if self.exactness == other.exactness == EXACT else RANK_LEVEL,
        )


def descriptor_sum(parts: Iterable[GroupDescriptor]) -> GroupDescriptor:
    total = GroupDescriptor()
    for d in parts:
        total = total.direct_sum(d)
    return total


# -- rank primitives -----------------------------------------------------------


def _require_compatible(model: Model, theory: CoefficientTheory) -> None:
    if model.has_torsion and not theory.is_ordinary_integral:
        raise EngineError(
            f"{model.name} has Betti torsion; {theory.name}-queries assume the torsion-free "
            "Atiyah-Hirzebruch decomposition E^*(X) = H^*(X; Z) (x) pi_*E"
        )


def _blocks(model: Model, theory: CoefficientTheory, degree: int) -> list[tuple[int, int, int, int]]:
    """The blocks (m, j, r_j, D) of total degree ``degree``: m = degree + 2j
    runs over the cohomological support, r_j and the block's total
    dimension D = betti_rank(m) * r_j are nonzero."""
    blocks = []
    for m in model.support_degrees():
        if (m - degree) % 2:
            continue
        j = (m - degree) // 2
        r = theory.rank_at(j)
        if r:
            d = model.betti_rank(m) * r
            if d:
                blocks.append((m, j, r, d))
    return blocks


def e_rank(model: Model, theory: CoefficientTheory, n: int) -> int:
    """Rank of E^n(X) = sum_j rank H^{n+2j}(X) * rank pi_{2j}E."""
    _require_compatible(model, theory)
    return sum(d for _m, _j, _r, d in _blocks(model, theory, n))


def filtered_dim(model: Model, theory: CoefficientTheory, n: int, p: int) -> int:
    """dim F^{p+*}H^n(X; pi_{2*}E (x) C) = sum_j dim F^{p+j}H^{n+2j} * r_j."""
    _require_compatible(model, theory)
    return sum(model.filtration_dim(p + j, m) * r for m, j, r, _d in _blocks(model, theory, n))


def jacobian(model: KahlerModel, theory: CoefficientTheory, p: int) -> GroupDescriptor:
    """The generalized Jacobian J_E^{2p-1}(X), a compact complex torus.

    Its real dimension is the full odd-degree rank e_rank(X, E, 2p-1); by
    Hodge symmetry the filtered part is exactly half of it, so the complex
    dimension is e_rank / 2 (KahlerModel holds odd Betti ranks even).
    """
    if not isinstance(model, KahlerModel):
        raise EngineError("the generalized Jacobian is defined for compact Kahler models")
    e = e_rank(model, theory, 2 * p - 1)
    return GroupDescriptor(circle_rank=e, complex_torus_dim=e // 2)


def hodge_group(model: KahlerModel, theory: CoefficientTheory, p: int) -> FgAbelianGroup:
    """Hdg_E^{2p}(X): elements of E^{2p}(X) of pure type (p+j, p+j) blockwise."""
    if not isinstance(model, KahlerModel):
        raise EngineError("Hodge classes are computed on compact Kahler models")
    _require_compatible(model, theory)
    free = sum(model.hcr(p + j) * r for _m, j, r, _d in _blocks(model, theory, 2 * p))
    torsion = model.betti_torsion(2 * p) if theory.is_ordinary_integral else ()
    return FgAbelianGroup.of(free, torsion)


# -- the main computation ------------------------------------------------------


def variant_for(model: Model) -> str:
    """The default variant: "analytic" on Kahler models, "log" otherwise."""
    return ANALYTIC if isinstance(model, KahlerModel) else LOG


def hfc_group(
    model: Model,
    theory: CoefficientTheory,
    n: int,
    p: int,
    variant: str | None = None,
) -> GroupDescriptor:
    """The Hodge filtered E-cohomology group E_D^n(p)(X) (or E_log for the
    logarithmic variant) as a group descriptor.

    See the module docstring for the block calculus.  ``variant`` defaults
    to ``variant_for(model)``; the analytic variant refuses quasi-projective
    models.
    """
    if variant is None:
        variant = variant_for(model)
    if variant not in (ANALYTIC, LOG):
        raise EngineError(f"unknown variant {variant!r} (expected 'analytic' or 'log')")
    if variant == ANALYTIC and not isinstance(model, KahlerModel):
        raise EngineError(
            f"{model.name} is not compact Kahler; use the log variant for quasi-projective models"
        )
    _require_compatible(model, theory)
    torsion = model.betti_torsion(n) if theory.is_ordinary_integral else ()
    return GroupDescriptor(*_cell(
        model, p, _blocks(model, theory, n), _blocks(model, theory, n - 1), torsion,
        isinstance(model, KahlerModel), n == 2 * p,
    ))


def _cell(
    model: Model, p: int, ker_blocks: list, coker_blocks: list, torsion: tuple, kahler: bool, diagonal: bool
) -> tuple:
    """The fields of E_D^n(p): ker(beta) from the blocks of degree n (plus the
    Betti torsion, already a divisibility chain), coker(alpha) from the
    blocks of degree n - 1."""
    # ker(beta): sublattice of E^n(X) inside the filtered part.
    free = 0
    for m, j, r, _d in ker_blocks:
        free += model.lattice_rank_in_filtration(p + j, m) * r

    # coker(alpha): per block V / (F + L).
    circle = 0
    real = 0
    exact = True
    for m, j, r, d_block in coker_blocks:
        q = p + j
        f_block = model.filtration_dim(q, m) * r
        if f_block >= d_block:
            continue
        lam = model.lattice_rank_in_filtration(q, m) * r
        certified = (2 * q > m) if kahler else (f_block == 0)
        ambient = 2 * (d_block - f_block)
        lattice_image = d_block - lam
        excess = ambient - lattice_image
        if excess >= 0:
            circle += lattice_image
            real += excess
        else:
            # Lattice rank exceeds the ambient real dimension, so its image
            # cannot be discrete; report the maximal compact shape.
            circle += ambient
            certified = False
        exact = exact and certified

    # Diagonal of a Kahler model: every block has m = 2(p+j) - 1, the
    # cokernel is the generalized Jacobian (compact complex torus, possibly
    # of dim 0).
    ctd = circle // 2 if kahler and diagonal else None
    return free, torsion, circle, real, ctd, EXACT if exact else RANK_LEVEL


def point_table(
    theory: CoefficientTheory,
    n_range: tuple[int, int],
    p_range: tuple[int, int],
) -> dict[tuple[int, int], GroupDescriptor]:
    """Grid of E_D^n(p)(pt) over inclusive ranges of n and p, at most
    MAX_GRID_CELLS cells.

    Each row n builds its block lists once (degree n - 1's is the previous
    row's degree n) and folds them for every p; cells of equal value share
    one descriptor."""
    cells = max(0, n_range[1] - n_range[0] + 1) * max(0, p_range[1] - p_range[0] + 1)
    if cells > MAX_GRID_CELLS:
        raise EngineError(f"point table of {cells} cells exceeds the limit of {MAX_GRID_CELLS}")
    pt = point()
    table = {}
    descriptors: dict[tuple, GroupDescriptor] = {}
    below = _blocks(pt, theory, n_range[0] - 1)
    for n in range(n_range[0], n_range[1] + 1):
        here = _blocks(pt, theory, n)
        for p in range(p_range[0], p_range[1] + 1):
            fields = _cell(pt, p, here, below, (), True, n == 2 * p)
            desc = descriptors.get(fields)
            if desc is None:
                desc = descriptors[fields] = GroupDescriptor(*fields)
            table[(n, p)] = desc
        below = here
    return table


# -- consistency checkers ------------------------------------------------------


def rational_splitting_check(
    model: Model, n: int, p: int
) -> tuple[bool, GroupDescriptor, GroupDescriptor]:
    """Rationally, Hodge filtered bordism splits into shifted ordinary
    pieces: MUQ_D^n(p)(X) = sum_j HQ_D^{n+2j}(p+j)(X) (x) pi_{2j}MU.
    Both sides are computed by the same block calculus and compared
    field-by-field."""
    muq = builtin_theory("MUQ")
    hq = builtin_theory("HQ")
    variant = variant_for(model)
    lhs = hfc_group(model, muq, n, p, variant)
    top = model.max_degree
    # Beyond j_hi every summand is zero; j = 0 is always included so the
    # empty sum keeps the diagonal's (possibly zero-dimensional) torus marker.
    j_hi = max(0, (top + 2 - n) // 2)

    def copies(cell: GroupDescriptor, k: int) -> GroupDescriptor:
        # The direct sum of k copies of an HQ cell, which carries no torsion.
        ctd = cell.complex_torus_dim
        return cell.replace(
            free_rank=k * cell.free_rank, circle_rank=k * cell.circle_rank,
            real_rank=k * cell.real_rank, complex_torus_dim=None if ctd is None else k * ctd,
        )

    rhs = descriptor_sum(
        copies(hfc_group(model, hq, n + 2 * j, p + j, variant), mu_rank(j)) for j in range(j_hi + 1)
    )
    return lhs == rhs, lhs, rhs


def mv_consistency(
    x: Model, u: Model, v: Model, w: Model, theory: CoefficientTheory, p: int
) -> bool:
    """Euler-characteristic test for the Mayer-Vietoris sequence of the
    covering X = U u V with W = U n V: the alternating sum of each long
    exact sequence ingredient must vanish, for E-ranks and for filtered
    dimensions at every twist.

    Each j-block of those sums is r_j times an ordinary Euler sum over the
    spaces' degrees, so the test is block by block: sum_m (-1)^m b_m and
    sum_m (-1)^m dim F^q H^m, signed over X, U, V, W, vanish at every
    filtration level q.  This covers every twist p at once; a theory whose
    ranks are all zero constrains nothing."""
    models = (x, u, v, w)
    signs = (1, -1, -1, 1)
    for m in models:
        _require_compatible(m, theory)
    if theory.kind == "finite" and not any(r for _j, r in theory.table):
        return True
    top = max(m.max_degree for m in models)

    def euler(dim) -> int:
        return sum((-1) ** n * s * dim(m, n) for n in range(top + 1) for m, s in zip(models, signs))

    if euler(lambda m, n: m.betti_rank(n)) != 0:
        return False
    return all(euler(lambda m, n: m.filtration_dim(q, n)) == 0 for q in range(-1, top + 2))


def a1_invariance_check(
    x: QuasiProjModel, theory: CoefficientTheory, n: int, p: int
) -> tuple[bool, GroupDescriptor, GroupDescriptor]:
    """E_log is A^1-invariant: crossing with the affine line (which leaves
    every table unchanged) must not move the descriptor."""
    if not isinstance(x, QuasiProjModel):
        raise EngineError("check a1 needs a quasiprojective space")
    lhs = hfc_group(x, theory, n, p, LOG)
    rhs = hfc_group(quasi_product(x, affine_space(1)), theory, n, p, LOG)
    return lhs == rhs, lhs, rhs


def pbf_check(
    model: Model, r: int, n: int, p: int, theory: CoefficientTheory
) -> tuple[bool, GroupDescriptor, GroupDescriptor]:
    """Projective bundle formula: E_D^n(p)(P(V)) = sum_{i<r} E_D^{n-2i}(p-i)(X)."""
    variant = variant_for(model)
    bundle = projective_bundle(model, r)
    lhs = hfc_group(bundle, theory, n, p, variant)
    rhs = descriptor_sum(hfc_group(model, theory, n - 2 * i, p - i, variant) for i in range(r))
    return lhs == rhs, lhs, rhs


def grothendieck_check(model: Model, r: int, chern: list[Poly] | None = None) -> bool:
    """The alternating Chern-class sum sum_q (-1)^q c_q xi^{r-q}, formed here
    independently of the relation ``bundle_extension`` stores, reduces to
    zero in the bundle's ring presentation."""
    if model.ring is None:
        raise RingError(f"{model.name} carries no ring presentation")
    bundle_ring = bundle_extension(model.ring, r, chern)

    def lift(p0: Poly, xi_power: int) -> Poly:
        return {m + (xi_power,): c for m, c in p0.items()}

    classes: list[Poly] = [model.ring.unit()]
    classes.extend(list(chern or []))
    while len(classes) < r + 1:
        classes.append({})
    total: Poly = {}
    for q in range(r + 1):
        cq = classes[q]
        if not cq:
            continue
        sign = 1 if q % 2 == 0 else -1
        term = {m: sign * c for m, c in lift(cq, r - q).items()}
        for mono, coeff in term.items():
            total[mono] = total.get(mono, 0) + coeff
    return bundle_ring.is_zero(total)


def transfer_normalization_check(model: Model, divisor_class: Poly) -> tuple[bool, int, int]:
    """Pushforward normalization along a smooth divisor: the unit class of
    the divisor lands, after the codimension shift by (2, 1), on the first
    Chern class of its line bundle.  At rank level the check is that the
    line generated by the divisor class fits inside the degree-(2,1) Hodge
    filtered bordism group: returns (ok, class rank, group rank)."""
    if model.ring is None:
        raise RingError(f"{model.name} carries no ring presentation")
    reduced = model.ring.reduce(divisor_class)
    if reduced:
        deg = model.ring.degree_of(reduced)
        if deg != 2:
            raise RingError(f"divisor class must have degree 2, got {deg}")
    class_rank = 0 if model.ring.is_zero(reduced) else 1
    group = hfc_group(model, builtin_theory("MU"), 2, 1, variant_for(model))
    return class_rank <= group.free_rank, class_rank, group.free_rank
