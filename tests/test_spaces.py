"""Space models: constructors, invariants, filtration and lattice rules."""

import json
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hfcalc.abelian import FgAbelianGroup
from hfcalc.coefficients import builtin_theory
from hfcalc.engine import e_rank, hfc_group
from hfcalc.errors import ModelError
from hfcalc.io import emit_space, parse_space, parse_space_text
from hfcalc.rings import polynomial_ring_mod_power, trivial_ring
from hfcalc.spaces import (
    MAX_QUASI_DEGREE,
    KahlerModel,
    QuasiProjModel,
    affine_space,
    as_quasiproj,
    curve,
    gm,
    point,
    product,
    projective_bundle,
    projective_space,
    quasi_product,
)

ALL_KAHLER = [
    point(),
    projective_space(1),
    projective_space(2),
    projective_space(3),
    curve(0),
    curve(1),
    curve(2),
    curve(3),
    product(projective_space(1), projective_space(1)),
    product(curve(1), curve(1)),
    projective_bundle(curve(1), 2),
    projective_bundle(projective_space(1), 3),
]


class TestConstructors:
    def test_point(self):
        pt = point()
        assert pt.betti_rank(0) == 1
        assert pt.hodge[(0, 0)] == 1
        assert pt.hcr(0) == 1

    def test_projective_space(self):
        p2 = projective_space(2)
        assert p2.hodge[(1, 1)] == 1
        assert p2.betti_rank(2) == 1
        assert projective_space(1).betti_rank(1) == 0

    def test_projective_space_ring_relation(self):
        p3 = projective_space(3)
        assert p3.ring.is_zero({(4,): 1})
        assert not p3.ring.is_zero({(3,): 1})

    def test_curve(self):
        e = curve(1)
        assert e.betti_rank(1) == 2
        assert e.hodge[(1, 0)] == 1
        g3 = curve(3)
        assert g3.filtration_dim(1, 1) == 3

    def test_curve_zero_is_p1(self):
        c0, p1 = curve(0), projective_space(1)
        assert c0.betti == p1.betti
        assert c0.hodge == p1.hodge
        assert c0.hodge_class_rank == p1.hodge_class_rank
        assert c0.ring == p1.ring

    def test_negative_arguments(self):
        with pytest.raises(ModelError):
            projective_space(-1)
        with pytest.raises(ModelError):
            curve(-2)
        with pytest.raises(ModelError):
            affine_space(-1)

    def test_hodge_numbers_must_sum_to_betti_rank(self):
        # h^{1,0} + h^{0,1} = 2 against b_1 = 4; degrees 0 and 2 agree.
        with pytest.raises(ModelError, match="bad: Hodge numbers in degree 1 sum to 2, Betti rank is 4"):
            KahlerModel(
                name="bad",
                dim=1,
                betti={0: FgAbelianGroup(1), 1: FgAbelianGroup(4), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                hodge_class_rank={0: 1, 1: 1},
            )

    def test_all_constructors_validate(self):
        # replace() rebuilds through the class's checking constructor.
        for model in ALL_KAHLER + [affine_space(0), affine_space(3), gm()]:
            assert model.replace() == model


class TestProduct:
    def test_p1_squared(self):
        s = product(projective_space(1), projective_space(1))
        assert s.hodge[(1, 1)] == 2
        assert s.betti_rank(2) == 2

    def test_abelian_surface(self):
        s = product(curve(1), curve(1))
        assert s.hodge[(1, 1)] == 4
        assert s.betti_rank(2) == 6
        # default Hodge-class rank counts only the two pullback classes
        assert s.hcr(1) == 2

    def test_point_is_identity(self):
        e = curve(1)
        s = product(e, point())
        assert s.betti == e.betti
        assert s.hodge == e.hodge
        assert s.hodge_class_rank == e.hodge_class_rank

    def test_hodge_class_override(self):
        s = product(curve(1), curve(1)).replace(hodge_class_rank={0: 1, 1: 3, 2: 1})
        assert s.hcr(1) == 3

    def test_torsion_factor_kunneth(self):
        # H^*(fake) = Z, 0, Z + Z/2.  Squared: Z/2 (x) Z/2 adds to degrees 2
        # and 4, and Tor(H^2, H^2) = Z/2 lands in degree 3.
        torsion = KahlerModel(
            name="fake",
            dim=1,
            betti={0: FgAbelianGroup(1), 2: FgAbelianGroup.of(1, [2])},
            hodge={(0, 0): 1, (1, 1): 1},
            hodge_class_rank={0: 1, 1: 1},
        )
        assert product(torsion, point()).betti == torsion.betti
        assert product(torsion, torsion).betti == {
            0: FgAbelianGroup(1),
            2: FgAbelianGroup.of(2, [2, 2]),
            3: FgAbelianGroup.of(0, [2]),
            4: FgAbelianGroup.of(1, [2, 2, 2]),
        }


def _torsion_surface():
    """A surface-shaped table with torsion in two degrees: Z, 0, Z + Z/4, Z/6, Z."""
    return KahlerModel(
        name="tsurf",
        dim=2,
        betti={0: FgAbelianGroup(1), 2: FgAbelianGroup.of(1, [4]), 3: FgAbelianGroup.of(0, [6]), 4: FgAbelianGroup(1)},
        hodge={(0, 0): 1, (1, 1): 1, (2, 2): 1},
        hodge_class_rank={0: 1, 1: 1, 2: 1},
    )


def _mod_p_dims(model, p):
    """dim H^n(X; F_p) = b_n + t_p(H^n) + t_p(H^(n+1)) (universal coefficients),
    t_p counting the cyclic torsion factors of order divisible by p."""
    def t(n):
        return sum(1 for d in model.betti_torsion(n) if d % p == 0)

    return {n: model.betti_rank(n) + t(n) + t(n + 1) for n in range(-1, model.max_degree + 1)}


class TestKunnethWithTorsion:
    # The integral Kunneth formula with its Tor term.
    FACTORS = {"torsion": lambda: _torsion_fixture(), "tsurf": _torsion_surface}

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(FACTORS))
    def test_product_with_projective_space_is_bundle(self, name, k):
        x = self.FACTORS[name]()
        prod, bundle = product(x, projective_space(k)), projective_bundle(x, k + 1)
        assert prod.betti == bundle.betti
        assert (prod.hodge, prod.hodge_class_rank) == (bundle.hodge, bundle.hodge_class_rank)
        hz = builtin_theory("HZ")
        top = prod.max_degree
        for n in range(-1, top + 2):
            for p in range(-1, top + 2):
                assert hfc_group(prod, hz, n, p) == hfc_group(bundle, hz, n, p), (n, p)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("pair", [("torsion", "torsion"), ("torsion", "tsurf"), ("tsurf", "tsurf")])
    def test_mod_p_universal_coefficients(self, pair, p):
        # Over F_p the Kunneth formula has no Tor term, so the mod-p
        # dimensions of X x Y are the convolution of the factors'.
        x, y = (self.FACTORS[name]() for name in pair)
        dx, dy = _mod_p_dims(x, p), _mod_p_dims(y, p)
        want = {}
        for i, a in dx.items():
            for j, b in dy.items():
                want[i + j] = want.get(i + j, 0) + a * b
        got = _mod_p_dims(product(x, y), p)
        assert {n: v for n, v in got.items() if v} == {n: v for n, v in want.items() if v}

    def test_commutative(self):
        x, y = _torsion_fixture(), _torsion_surface()
        xy, yx = product(x, y), product(y, x)
        assert (xy.betti, xy.hodge, xy.hodge_class_rank) == (yx.betti, yx.hodge, yx.hodge_class_rank)
        hz = builtin_theory("HZ")
        for n in range(-1, xy.max_degree + 2):
            for p in range(-1, 4):
                assert hfc_group(xy, hz, n, p) == hfc_group(yx, hz, n, p), (n, p)


class TestProjectiveBundle:
    def test_over_point_is_projective_space(self):
        pb = projective_bundle(point(), 3)
        ps = projective_space(2)
        assert pb.betti == ps.betti
        assert pb.hodge == ps.hodge
        assert pb.hodge_class_rank == ps.hodge_class_rank

    def test_over_curve(self):
        pb = projective_bundle(curve(1), 2)
        assert pb.betti_rank(1) == 2
        assert pb.betti_rank(2) == 2
        assert pb.hodge[(1, 1)] == 2

    def test_over_p1(self):
        pb = projective_bundle(projective_space(1), 2)
        assert [pb.betti_rank(i) for i in range(5)] == [1, 0, 2, 0, 1]

    def test_rank_zero_rejected(self):
        with pytest.raises(ModelError):
            projective_bundle(point(), 0)

    def test_ring_dimensions_match_betti(self):
        pb = projective_bundle(projective_space(1), 3)
        for n in range(0, 2 * pb.dim + 1):
            assert pb.ring.graded_dimension(n) == pb.betti_rank(n)

    def test_quasiproj_top_degree_limit(self):
        # Refused before any work: the base's Betti keys (its top degree) are
        # all that is read.  Top degree 1 + 2 (r - 1): 239 builds, 241 does not.
        g = gm()
        base = g.replace(betti=CountingDict(g.betti))
        base.betti.reads = 0
        with pytest.raises(ModelError, match="top degree 241 exceeds the limit of 240"):
            projective_bundle(base, 121)
        assert base.betti.reads <= len(base.betti)
        assert MAX_QUASI_DEGREE == 240
        assert projective_bundle(gm(), 120).max_degree == 239
        with pytest.raises(ModelError, match="top degree 397"):
            projective_bundle(projective_bundle(gm(), 100), 100)

    def test_quasiproj_base(self):
        pb = projective_bundle(gm(), 2)
        assert isinstance(pb, QuasiProjModel)
        assert pb.betti_rank(2) == 1
        assert pb.filtration_dim(1, 2) == 1


class TestQuasiProj:
    def test_affine_space_data(self):
        a3 = affine_space(3)
        pt = as_quasiproj(point())
        assert a3.betti == pt.betti
        assert a3.filt == pt.filt
        assert a3.lattice == pt.lattice

    def test_constructed_models_meet_deligne(self):
        # Kahler tables meet Deligne's constraints by Hodge symmetry and the
        # lattice rule, and products and bundles keep them; the constructor checks.
        compact = [as_quasiproj(x) for x in ALL_KAHLER]
        for x in compact + [gm(), affine_space(2), projective_bundle(gm(), 3)]:
            for y in (gm(), affine_space(1), compact[2]):
                quasi_product(x, y)

    def test_gm_filtration(self):
        g = gm()
        assert g.filtration_dim(1, 1) == 1
        assert g.filtration_dim(2, 1) == 0
        assert g.filtration_dim(0, 1) == 1
        assert g.lattice_rank_in_filtration(1, 1) == 1

    def test_monotonicity_violation(self):
        with pytest.raises(ModelError, match="exceeds"):
            QuasiProjModel(
                name="bad", betti={2: 1}, filt={(2, 2): 1}, lattice={}, hodge_class_rank={},
            )

    def test_lattice_bound_violation(self):
        with pytest.raises(ModelError, match="lattice"):
            QuasiProjModel(
                name="bad", betti={1: 1}, filt={}, lattice={(1, 1): 1}, hodge_class_rank={},
            )

    @pytest.mark.parametrize("betti, filt, lattice, message", [
        ({1: 2}, {(1, 1): 1}, {(1, 1): 2}, "q: lattice rank 2 at (p=1, n=1) exceeds min(Betti, filtration) = 1"),
        ({2: 3}, {(1, 2): 3, (2, 2): 1}, {(2, 2): 2}, "q: lattice rank 2 at (p=2, n=2) exceeds min(Betti, filtration) = 1"),
        ({1: 2}, {}, {(1, 1): 1}, "q: lattice rank 1 at (p=1, n=1) exceeds min(Betti, filtration) = 0"),
    ])
    def test_lattice_bound_message(self, betti, filt, lattice, message):
        # The bound is the filtration dimension, which the monotonicity check
        # has already held under the Betti rank; the text still names both.
        with pytest.raises(ModelError) as info:
            QuasiProjModel(name="q", betti=betti, filt=filt, lattice=lattice)
        assert str(info.value) == message

    def test_quasi_product_refuses_compact_factor(self):
        for x, y in ((projective_space(1), gm()), (gm(), curve(1)), (point(), point())):
            with pytest.raises(ModelError, match="as_quasiproj"):
                quasi_product(x, y)

    @pytest.mark.parametrize("x, y", [
        (gm, gm),
        (lambda: curve(1), gm),
        (gm, lambda: curve(1)),
        (lambda: projective_space(1), lambda: as_quasiproj(curve(1))),
    ], ids=["gm-gm", "curve-gm", "gm-curve", "p1-quasi_curve"])
    def test_product_refuses_quasi_projective_factor(self, x, y):
        # product builds Kahler models only, and names the constructor that
        # multiplies quasi-projective ones.  The factors are built here, not
        # at collection, so a model check that refuses one fails this test.
        with pytest.raises(ModelError, match="quasi_product.*as_quasiproj"):
            product(x(), y())

    def test_ring_dimensions_are_betti_ranks(self):
        # A^1 with the ring Z[x]/(x^3) loaded, and check transfer then
        # printed FAIL on it: class rank 1 against group rank 0.
        with pytest.raises(ModelError, match="A1: ring presentation has dimension 1 in degree 2, Betti rank is 0"):
            affine_space(1).replace(ring=polynomial_ring_mod_power("x", 2, 3))
        # P(V^2 -> A^1) with the bundle ring Z[xi]/(xi^2) is consistent, as a document too.
        bundle = projective_bundle(affine_space(1).replace(ring=trivial_ring()), 2)
        assert dict(bundle.ring.graded_dimensions()) == bundle.betti == {0: 1, 2: 1}
        assert parse_space(emit_space(bundle)) == bundle

    def test_quasi_product_with_affine_is_identity(self):
        for model in (gm(), affine_space(2), as_quasiproj(projective_space(2))):
            prod = quasi_product(model, affine_space(1))
            assert prod.betti == model.betti
            assert prod.filt == model.filt
            assert prod.lattice == model.lattice


class TestFiltration:
    def test_examples(self):
        assert curve(1).filtration_dim(1, 1) == 1
        assert projective_space(2).filtration_dim(1, 2) == 1
        assert projective_space(2).filtration_dim(2, 2) == 0

    def test_full_below_zero(self):
        for model in ALL_KAHLER:
            for n in model.support_degrees():
                assert model.filtration_dim(0, n) == model.betti_rank(n)
                assert model.filtration_dim(-3, n) == model.betti_rank(n)

    def test_outside_range(self):
        assert curve(1).filtration_dim(0, 3) == 0
        assert curve(1).filtration_dim(0, -1) == 0

    def test_odd_degree_complement_identity(self):
        # For odd n the filtration and its conjugate-level complement tile
        # the whole space: F^p + F^(n+1-p) has full dimension.
        for model in ALL_KAHLER:
            for n in range(1, model.max_degree + 1, 2):
                for p in range(-1, model.dim + 2):
                    total = model.filtration_dim(p, n) + model.filtration_dim(n + 1 - p, n)
                    assert total == model.betti_rank(n)


class TestLatticeRule:
    def test_point(self):
        pt = point()
        assert pt.lattice_rank_in_filtration(0, 0) == 1
        assert pt.lattice_rank_in_filtration(1, 0) == 0
        assert pt.lattice_rank_in_filtration(-2, 0) == 1

    def test_odd_degree_real_lattice(self):
        e = curve(1)
        assert e.lattice_rank_in_filtration(0, 1) == 2
        assert e.lattice_rank_in_filtration(1, 1) == 0

    def test_even_degree_hodge_classes(self):
        s = product(curve(1), curve(1))
        # at the middle level only the declared Hodge classes qualify
        assert s.lattice_rank_in_filtration(1, 2) == 2
        # below the smallest Hodge level the filtration is everything
        assert s.lattice_rank_in_filtration(0, 2) == 6
        assert s.lattice_rank_in_filtration(2, 2) == 0


class TestValidation:
    def test_hodge_symmetry_named(self):
        with pytest.raises(ModelError, match=r"h\^\{1,0\}"):
            KahlerModel(
                name="asym",
                dim=1,
                betti={0: FgAbelianGroup(1), 1: FgAbelianGroup(2), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 1, (1, 0): 2, (0, 1): 0, (1, 1): 1},
                hodge_class_rank={0: 1, 1: 1},
            )

    def test_hodge_sum_mismatch(self):
        with pytest.raises(ModelError, match="degree 2"):
            KahlerModel(
                name="bad-sum",
                dim=1,
                betti={0: FgAbelianGroup(1), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 1, (1, 1): 2},
                hodge_class_rank={0: 1},
            )

    def test_poincare_duality(self):
        with pytest.raises(ModelError, match="Poincare"):
            KahlerModel(
                name="bad-pd",
                dim=1,
                betti={0: FgAbelianGroup(2), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 2, (1, 1): 1},
                hodge_class_rank={0: 1},
            )

    def test_odd_rank_must_be_even(self):
        # Symmetric Hodge numbers pair up in odd degree, so symmetry refuses b_1 = 3.
        with pytest.raises(ModelError, match="bad-odd: Hodge symmetry fails"):
            KahlerModel(
                name="bad-odd",
                dim=1,
                betti={0: FgAbelianGroup(1), 1: FgAbelianGroup(3), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 1, (1, 0): 2, (0, 1): 1, (1, 1): 1},
                hodge_class_rank={0: 1},
            )

    def test_hodge_class_rank_bound(self):
        with pytest.raises(ModelError, match="hodge_class_rank"):
            KahlerModel(
                name="bad-hcr",
                dim=1,
                betti={0: FgAbelianGroup(1), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 1, (1, 1): 1},
                hodge_class_rank={0: 1, 1: 2},
            )


# -- reference constructors ------------------------------------------------------
#
# The quadratic code the constructors and accessors replaced, kept as oracles:
# the whole-table Hodge scan, the smallest Hodge level, the Kahler bundle's
# Betti loop over every degree and shift, the three window loops and the
# quasi-projective check's walk over every window cell.  The lattice rule
# keeps its parity branches and quasi_product its two clamped graded-piece
# helpers, as they stood before each became one test.


def reference_window_check(name, betti, filt, lattice, hodge_class_rank):
    """The quasi-projective check as a walk over every window cell (p, n),
    1 <= p <= n, degree by degree in Betti order: a ModelError on the first
    rule that fails."""
    betti, filt, lattice = _nonzero(betti), _nonzero(filt), _nonzero(lattice)
    for n, b in betti.items():
        if b < 0:
            raise ModelError(f"{name}: negative Betti rank in degree {n}")
        if n < 0:
            raise ModelError(f"{name}: cohomology in negative degree {n}")
    for table in (filt, lattice):
        for p, n in table:
            if not 1 <= p <= n or n not in betti:
                raise ModelError(
                    f"{name}: filtration entry at (p={p}, n={n}) outside the windows 1 <= p <= n of the degrees with Betti rank"
                )
    for n, b in betti.items():
        fs, lats = [b], [b]
        for p in range(1, n + 1):
            cur = filt.get((p, n), 0)
            if cur > fs[-1]:
                raise ModelError(f"{name}: dim F^{p}H^{n} = {cur} exceeds dim F^{p - 1}H^{n} = {fs[-1]}")
            lat = lattice.get((p, n), 0)
            if lat < 0 or lat > cur:
                raise ModelError(f"{name}: lattice rank {lat} at (p={p}, n={n}) exceeds min(Betti, filtration) = {cur}")
            if lat > lats[-1]:
                raise ModelError(
                    f"{name}: lattice rank {lat} at (p={p}, n={n}) exceeds the rank {lats[-1]} at (p={p - 1}, n={n})"
                )
            fs.append(cur)
            lats.append(lat)
        for a in range(n):
            f, lat, mirror = fs[a + 1], lats[a + 1], fs[n - a]
            if f == b and lat != b:
                raise ModelError(f"{name}: F^{a + 1}H^{n} = H^{n}, yet its lattice rank is {lat}, not b_{n} = {b}")
            if b - f > mirror:
                raise ModelError(f"{name}: codim F^{a + 1}H^{n} = {b - f} exceeds dim F^{n - a}H^{n} = {mirror}")
    for q, v in _nonzero(hodge_class_rank).items():
        bound = betti.get(2 * q, 0) if q <= 0 else lattice.get((q, 2 * q), 0)
        if v < 0 or v > bound:
            raise ModelError(f"{name}: hodge_class_rank({q}) = {v} outside [0, lattice rank in F^{q}H^{2 * q} = {bound}]")


def reference_filtration_dim(model, p, n):
    if n < 0 or n > 2 * model.dim:
        return 0
    return sum(v for (s, t), v in model.hodge.items() if s + t == n and s >= p)


def reference_smallest_hodge_level(model, n):
    levels = [s for (s, t), v in model.hodge.items() if s + t == n and v != 0]
    return min(levels) if levels else None


def reference_lattice_rank(model, q, m):
    b = model.betti_rank(m)
    if b == 0:
        return 0
    s_min = reference_smallest_hodge_level(model, m)
    if m % 2 != 0:
        return b if q <= s_min else 0
    if q <= min(s_min, m // 2 - 1):
        return b
    if q <= m // 2:
        return model.hcr(m // 2)
    return 0


def reference_convolve(a, b):
    out = {}
    for k, u in a.items():
        for l, v in b.items():
            key = k + l if isinstance(k, int) else (k[0] + l[0], k[1] + l[1])
            out[key] = out.get(key, 0) + u * v
    return {k: v for k, v in out.items() if v}


def reference_bundle_betti(x, r):
    dim = x.dim + r - 1
    betti = {}
    for n in range(0, 2 * dim + 1):
        free = sum(x.betti_rank(n - 2 * i) for i in range(r))
        tors = []
        for i in range(r):
            tors.extend(x.betti_torsion(n - 2 * i))
        if free or tors:
            betti[n] = FgAbelianGroup.of(free, tors)
    return betti


def _nonzero(table):
    return {k: v for k, v in table.items() if v}


def reference_as_quasiproj_tables(x):
    filt = {}
    lattice = {}
    for n in sorted(x.betti):
        for p in range(1, n + 1):
            filt[(p, n)] = reference_filtration_dim(x, p, n)
            lattice[(p, n)] = reference_lattice_rank(x, p, n)
    return _nonzero(filt), _nonzero(lattice)


def reference_quasi_bundle_tables(x, r):
    filt = {}
    lattice = {}
    for n in reference_convolve(x.betti, {2 * i: 1 for i in range(r)}):
        for p in range(1, n + 1):
            filt[(p, n)] = sum(x.filtration_dim(p - i, n - 2 * i) for i in range(r))
            lattice[(p, n)] = sum(x.lattice_rank_in_filtration(p - i, n - 2 * i) for i in range(r))
    return _nonzero(filt), _nonzero(lattice)


def reference_quasi_product_tables(x, y):
    def gr(model, a, n):
        return max(model.filtration_dim(a, n) - model.filtration_dim(a + 1, n), 0)

    def gr_lat(model, a, n):
        return max(model.lattice_rank_in_filtration(a, n) - model.lattice_rank_in_filtration(a + 1, n), 0)

    filt = {}
    lattice = {}
    for n, b in reference_convolve(x.betti, y.betti).items():
        for p in range(1, n + 1):
            f = 0
            lat = 0
            for i in range(0, n + 1):
                for a in range(0, i + 1):
                    for bb in range(0, (n - i) + 1):
                        if a + bb >= p:
                            f += gr(x, a, i) * gr(y, bb, n - i)
                            lat += gr_lat(x, a, i) * gr_lat(y, bb, n - i)
            filt[(p, n)] = f
            lattice[(p, n)] = min(lat, f, b) if lat else 0
    return _nonzero(filt), _nonzero(lattice)


# -- constructor trees -------------------------------------------------------------


def _torsion_fixture():
    return parse_space_text((Path(__file__).parent / "fixtures" / "torsion.json").read_text())


def _renamed_document():
    return parse_space({"kind": "construct", "name": "renamed", "expr": ["product", ["projective_space", 1], ["curve", 1]]})


def _swapped_curve():
    # curve(1) with its degree index already built, then replaced by genus 2's
    # tables: the index must be rebuilt, not carried over.
    e, c2 = curve(1), curve(2)
    assert e.filtration_dim(1, 1) == 1
    return e.replace(name="swapped", betti=c2.betti, hodge=c2.hodge)


KAHLER_LEAVES = {
    "point": point,
    "P0": lambda: projective_space(0),
    "P1": lambda: projective_space(1),
    "P2": lambda: projective_space(2),
    "P3": lambda: projective_space(3),
    "curve0": lambda: curve(0),
    "curve1": lambda: curve(1),
    "curve2": lambda: curve(2),
    "renamed": _renamed_document,
    "swapped": _swapped_curve,
    "torsion": _torsion_fixture,
    # E x E for one curve E: the diagonal is a third Hodge class in H^2.
    "ee_diagonal": lambda: product(curve(1), curve(1)).replace(name="ExE", hodge_class_rank={0: 1, 1: 3, 2: 1}),
}
QUASI_LEAVES = {"gm": gm, "A0": lambda: affine_space(0), "A1": lambda: affine_space(1), "A2": lambda: affine_space(2)}
# quasi_product factors: top degree at most 2, so a product has top degree 4.
SMALL_QUASI = [("gm",), ("A1",), ("as_quasiproj", ("P1",)), ("as_quasiproj", ("curve1",)), ("as_quasiproj", ("point",))]


def kahler_trees(depth, torsion_free=False):
    names = sorted(k for k in KAHLER_LEAVES if not (torsion_free and k == "torsion"))
    leaves = st.sampled_from(names).map(lambda k: (k,))
    if depth == 0:
        return leaves
    return st.one_of(
        leaves,
        st.tuples(st.just("product"), kahler_trees(depth - 1, True), kahler_trees(depth - 1, True)),
        st.tuples(st.just("bundle"), kahler_trees(depth - 1, torsion_free), st.integers(1, 4)),
    )


def quasi_trees(depth):
    leaves = st.sampled_from(sorted(QUASI_LEAVES)).map(lambda k: (k,))
    if depth == 0:
        return leaves
    return st.one_of(
        leaves,
        st.tuples(st.just("as_quasiproj"), kahler_trees(depth - 1, True)),
        st.tuples(st.just("bundle"), quasi_trees(depth - 1), st.integers(1, 4)),
        st.tuples(st.just("quasi_product"), st.sampled_from(SMALL_QUASI), st.sampled_from(SMALL_QUASI)),
    )


def check_accessors(model):
    """Both accessors read the tail sums of the model's graded pieces at every
    cell, the pieces of a degree sum to its Betti rank, and a Kahler model's
    accessors agree with the reference scan."""
    top = model.max_degree
    for n in range(-1, top + 2):
        f, lat = model.graded_pieces(n)
        assert sum(f.values()) == sum(lat.values()) == model.betti_rank(n), (model.name, n)
        for p in range(-1, top + 2):
            got = model.filtration_dim(p, n), model.lattice_rank_in_filtration(p, n)
            assert got == (sum(v for a, v in f.items() if a >= p), sum(v for a, v in lat.items() if a >= p)), (model.name, p, n)
            if isinstance(model, KahlerModel):
                assert got == (reference_filtration_dim(model, p, n), reference_lattice_rank(model, p, n)), (model.name, p, n)


def build_checked(tree):
    """The model of ``tree``, every node checked against the reference
    constructors applied to the same children."""
    head, args = tree[0], tree[1:]
    if head in KAHLER_LEAVES:
        model = KAHLER_LEAVES[head]()
    elif head in QUASI_LEAVES:
        model = QUASI_LEAVES[head]()
    elif head == "product":
        x, y = build_checked(args[0]), build_checked(args[1])
        model = product(x, y)
        assert model.betti == {n: FgAbelianGroup(r) for n, r in reference_convolve(
            {n: g.free_rank for n, g in x.betti.items()}, {n: g.free_rank for n, g in y.betti.items()}).items()}
        assert model.hodge == reference_convolve(x.hodge, y.hodge)
    elif head == "bundle":
        x, r = build_checked(args[0]), args[1]
        model = projective_bundle(x, r)
        if isinstance(x, KahlerModel):
            assert model.betti == reference_bundle_betti(x, r)
            assert model.hodge == reference_convolve(x.hodge, {(i, i): 1 for i in range(r)})
        else:
            assert model.betti == reference_convolve(x.betti, {2 * i: 1 for i in range(r)})
            assert (model.filt, model.lattice) == reference_quasi_bundle_tables(x, r)
    elif head == "as_quasiproj":
        x = build_checked(args[0])
        model = as_quasiproj(x)
        assert model.betti == {n: g.free_rank for n, g in x.betti.items()}
        assert (model.filt, model.lattice) == reference_as_quasiproj_tables(x)
        assert model.hodge_class_rank == x.hodge_class_rank
    elif head == "quasi_product":
        x, y = build_checked(args[0]), build_checked(args[1])
        model = quasi_product(x, y)
        assert model.betti == reference_convolve(x.betti, y.betti)
        assert (model.filt, model.lattice) == reference_quasi_product_tables(x, y)
    else:
        raise AssertionError(head)
    check_accessors(model)
    return model


class TestReferenceConstructors:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(kahler_trees(2), quasi_trees(2)))
    def test_trees_match_reference(self, tree):
        build_checked(tree)

    @pytest.mark.parametrize("name", sorted(KAHLER_LEAVES))
    def test_every_kahler_leaf(self, name):
        build_checked((name,))

    def test_every_kind_of_node(self):
        for tree in [
            ("bundle", ("torsion",), 4),
            ("bundle", ("bundle", ("swapped",), 2), 3),
            ("product", ("renamed",), ("curve0",)),
            ("as_quasiproj", ("product", ("curve2",), ("P2",))),
            ("bundle", ("as_quasiproj", ("curve1",)), 4),
            ("bundle", ("bundle", ("gm",), 2), 3),
            ("quasi_product", ("as_quasiproj", ("curve1",)), ("gm",)),
            ("bundle", ("bundle", ("gm",), 6), 5),
            ("as_quasiproj", ("product", ("product", ("curve1",), ("curve1",)), ("curve1",))),
            ("bundle", ("as_quasiproj", ("product", ("ee_diagonal",), ("P1",))), 3),
        ]:
            model = build_checked(tree)
            # A document round trip: the same model, and the same bytes when emitted again.
            text = json.dumps(emit_space(model))
            again = parse_space_text(text)
            assert again == model and json.dumps(emit_space(again)) == text, tree


@st.composite
def window_tables(draw):
    """Small quasi-projective tables: Betti ranks in degrees up to 6, per degree
    a filtration column from p = 1 (sorted or not, now and then one cell past
    the window) and a lattice column (clamped under it or not), a stray entry
    now and then, and Hodge-class ranks."""
    small = st.integers(-1, 3)
    rank = st.sampled_from([-1, 0] + [1, 2, 3] * 4)
    betti = draw(st.dictionaries(st.sampled_from([-1] + list(range(7)) * 4), rank, max_size=4))
    filt, lattice = {}, {}
    for n, b in betti.items():
        values = small if draw(st.booleans()) else st.integers(0, max(b, 0))
        columns = [draw(st.lists(values, max_size=max(n, 0) + draw(st.sampled_from([0, 0, 0, 1])))) for _ in "fl"]
        if draw(st.booleans()):
            columns = [sorted(column, reverse=True) for column in columns]
        if draw(st.booleans()):
            columns[1] = [min(f, lat) for f, lat in zip(columns[0] + [0] * len(columns[1]), columns[1])]
        for table, column in zip((filt, lattice), columns):
            table.update(((p, n), v) for p, v in enumerate(column, 1))
    stray = st.dictionaries(st.tuples(st.integers(0, 7), st.integers(-1, 7)), small, min_size=1, max_size=1)
    for table in (filt, lattice):
        table.update(draw(st.one_of(st.just({}), st.just({}), st.just({}), stray)))
    hcr = draw(st.dictionaries(st.integers(-1, 3), st.sampled_from([-1, 0, 1, 1, 2]), max_size=2))
    return betti, filt, lattice, hcr


class TestPieceCheck:
    # The check on stored pieces evaluates each rule where its inputs change;
    # the window walk evaluates every cell.  Same verdict, same first refusal.
    @settings(max_examples=100, deadline=None)
    @given(window_tables())
    def test_same_verdict_as_the_window_walk(self, tables):
        betti, filt, lattice, hcr = tables
        want = got = None
        try:
            reference_window_check("q", betti, filt, lattice, hcr)
        except ModelError as exc:
            want = str(exc)
        try:
            model = QuasiProjModel("q", betti, filt, lattice, hcr)
        except ModelError as exc:
            got = str(exc)
        assert got == want
        if got is None:
            assert (model.filt, model.lattice) == (_nonzero(filt), _nonzero(lattice))
            for n in range(-1, 8):
                for p in range(-1, 9):
                    b = betti.get(n, 0)
                    assert model.filtration_dim(p, n) == (b if p <= 0 else filt.get((p, n), 0)), (p, n)
                    assert model.lattice_rank_in_filtration(p, n) == (b if p <= 0 else lattice.get((p, n), 0)), (p, n)


class TestDerivedData:
    @pytest.mark.parametrize("cls", [KahlerModel, QuasiProjModel])
    def test_no_cached_property(self, cls):
        # A cached_property stores into the instance __dict__, and on CPython
        # 3.11 a materialised __dict__ makes every later attribute load on
        # that model about a third slower; derived data is set in __init__.
        assert not [name for name, value in vars(cls).items() if isinstance(value, cached_property)]

    def test_replace_rebuilds_derived_data(self):
        e, c2 = curve(1), curve(2)
        swapped = e.replace(betti=c2.betti, hodge=c2.hodge)
        assert swapped.support_degrees() == (0, 1, 2)
        assert swapped.filtration_dim(1, 1) == 2
        torsion = _torsion_fixture()
        assert torsion.has_torsion and not torsion.replace(betti=e.betti, hodge=e.hodge).has_torsion
        h3 = {(p, 3): 2 for p in (1, 2, 3)}  # all of H^3 in F^3, as on Gm^3
        assert gm().replace(betti={0: 1, 3: 2}, filt=h3, lattice=h3).support_degrees() == (0, 3)


# -- growth without the wall clock ---------------------------------------------------


class CountingDict(dict):
    """A dict that counts the entries read through it."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def __iter__(self):
        for key in super().__iter__():
            self.reads += 1
            yield key

    def items(self):
        for item in super().items():
            self.reads += 1
            yield item

    def values(self):
        for value in super().values():
            self.reads += 1
            yield value


class TestGrowth:
    def test_bundle_reads_base_betti_linearly_in_rank(self):
        def reads(r):
            p1 = projective_space(1)
            base = p1.replace(betti=CountingDict(p1.betti))
            projective_bundle(base, r)
            return base.betti.reads

        small, large = reads(100), reads(200)
        assert small > 0
        assert large <= 2.2 * small, (small, large)

    def test_quasi_bundle_reads_base_tables_once(self):
        # The base's Betti table and stored pieces are read once per base
        # degree, whatever the rank, not once per cell of the bundle.
        def reads(r):
            g = projective_bundle(gm(), 5)
            base = g.replace(betti=CountingDict(g.betti))
            tables = (base.betti, CountingDict(base._filt), CountingDict(base._lattice))
            object.__setattr__(base, "_filt", tables[1])
            object.__setattr__(base, "_lattice", tables[2])
            before = [t.reads for t in tables]
            projective_bundle(base, r)
            return sum(t.reads for t in tables) - sum(before)

        small = reads(50)
        assert small > 0
        assert reads(100) == small

    def test_as_quasiproj_stores_pieces_not_windows(self):
        # P^400 has 401 degrees and one filtration and one lattice piece in
        # each, stored beside the head F^0 = L^0; its windows 1 <= p <= n held
        # 80,200 entries per table.
        q = as_quasiproj(projective_space(400))
        assert len(q.betti) == 401 and len(q.filt) == 80200
        assert sum(len(gr) for n in q.betti for gr in q.graded_pieces(n)) <= 2 * 401
        assert sum(len(pos) for tails in (q._filt, q._lattice) for pos, _sums in tails.values()) <= 2 * 2 * 401

    def test_projective_space_mu_cell_reads_hodge_linearly(self):
        mu = builtin_theory("MU")

        def reads(d):
            pd = projective_space(d)
            model = pd.replace(hodge=CountingDict(pd.hodge))
            assert hfc_group(model, mu, 0, 0) == hfc_group(pd, mu, 0, 0)
            return model.hodge.reads

        small, large = reads(100), reads(200)
        assert 0 < small <= 3 * 101, small
        assert large <= 2.2 * small, (small, large)

    def test_rank_20000_bundle(self):
        r = 20000
        pb = projective_bundle(projective_space(1), r)
        assert pb.dim == r
        assert [pb.betti_rank(n) for n in (0, 1, 2, 2 * r - 2, 2 * r)] == [1, 0, 2, 2, 1]
        assert sum(g.free_rank for g in pb.betti.values()) == 2 * r

    def test_p2000_mu_cell(self):
        mu = builtin_theory("MU")
        p2000 = projective_space(2000)
        d = hfc_group(p2000, mu, 0, 0)
        assert d.free_rank == e_rank(p2000, mu, 0)
        assert d.circle_rank == d.real_rank == 0
