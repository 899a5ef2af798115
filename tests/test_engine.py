"""Engine queries and consistency checkers.

The point table is checked against an independent transcription of the
closed-form case analysis (see ``point_table_oracle``); everything else is
spot values worked out by hand from the block sums, plus structural
properties (fundamental short exact sequence, additivity in the
coefficient table, rational splitting, bundle formula).
"""

import time

import pytest

import hfcalc.engine as engine
from hfcalc.abelian import FgAbelianGroup
from hfcalc.coefficients import builtin_theory, custom_theory, mu_rank
from hfcalc.engine import (
    EXACT,
    RANK_LEVEL,
    GroupDescriptor,
    a1_invariance_check,
    descriptor_sum,
    e_rank,
    filtered_dim,
    grothendieck_check,
    hfc_group,
    hodge_group,
    jacobian,
    mv_consistency,
    pbf_check,
    point_table,
    rational_splitting_check,
    transfer_normalization_check,
)
from hfcalc.errors import EngineError, ModelError, RingError
from hfcalc.io import parse_ring_element
from hfcalc.spaces import (
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
)

MU = builtin_theory("MU")
HZ = builtin_theory("HZ")
HQ = builtin_theory("HQ")
MUQ = builtin_theory("MUQ")


def point_table_oracle(n: int, p: int) -> GroupDescriptor:
    """Literal transcription of the closed-form case analysis for the point.

    Even n = 2k: a free group of rank p(-k) iff p <= 0 and k >= p (the
    diagonal n = 2p is the k = p <= 0 case; for p > 0 both sides vanish).
    Odd n = 2k + 1: one block of C/Z factors of rank p(-k) iff p > k.
    """
    if n % 2 == 0:
        k = n // 2
        free = mu_rank(-k) if (p <= 0 and k >= p) else 0
        ctd = 0 if n == 2 * p else None
        return GroupDescriptor(free_rank=free, complex_torus_dim=ctd)
    k = (n - 1) // 2
    cz = mu_rank(-k) if p > k else 0
    return GroupDescriptor(circle_rank=cz, real_rank=cz)


class TestERank:
    def test_point_negative_degree(self):
        assert e_rank(point(), MU, -4) == 2

    def test_point_odd(self):
        assert e_rank(point(), MU, 1) == 0

    def test_curve_degree_one(self):
        assert e_rank(curve(1), MU, 1) == 2

    def test_negative_j_min_theory(self):
        t = custom_theory({-1: 1, 0: 1})
        # contributions from H^0 at j = 0 and H^2 at... j = (m-n)/2
        assert e_rank(projective_space(1), t, 2) == 2  # H^2 (j=0) + H^0 (j=-1)


class TestFilteredDim:
    def test_curve_hz(self):
        assert filtered_dim(curve(1), HZ, 1, 1) == 1

    def test_point_mu(self):
        assert filtered_dim(point(), MU, 0, 0) == 1

    def test_p1_mu(self):
        assert filtered_dim(projective_space(1), MU, 0, 0) == 2


class TestJacobian:
    def test_classical_jacobian(self):
        j = jacobian(curve(1), HZ, 1)
        assert j.complex_torus_dim == 1
        assert j.circle_rank == 2
        assert j.real_rank == 0

    def test_no_odd_cohomology(self):
        j = jacobian(projective_space(2), MU, 1)
        assert j.is_zero
        assert j.complex_torus_dim == 0

    def test_genus_two(self):
        assert jacobian(curve(2), MU, 1).complex_torus_dim == 2
        assert jacobian(curve(2), MU, 2).is_zero

    def test_quasiproj_rejected(self):
        with pytest.raises(EngineError):
            jacobian(gm(), HZ, 1)


class TestHodgeGroup:
    def test_p2_hz(self):
        assert hodge_group(projective_space(2), HZ, 1) == FgAbelianGroup(1)

    def test_p1_mu_p0(self):
        assert hodge_group(projective_space(1), MU, 0) == FgAbelianGroup(2)

    def test_p1_mu_p1(self):
        assert hodge_group(projective_space(1), MU, 1) == FgAbelianGroup(1)


class TestHfcGroup:
    def test_point_diagonal(self):
        for p in range(-4, 5):
            d = hfc_group(point(), MU, 2 * p, p)
            assert d.free_rank == mu_rank(-p)
            assert d.torsion == ()
            assert d.circle_rank == 0

    def test_point_odd_above_diagonal(self):
        for k in range(-4, 3):
            for p in range(-6, 7):
                d = hfc_group(point(), MU, 2 * k + 1, p)
                want = mu_rank(-k) if p > k else 0
                assert d.circle_rank == want and d.real_rank == want

    def test_analytic_picard_shape(self):
        d = hfc_group(curve(1), HZ, 2, 1)
        assert d.free_rank == 1
        assert d.complex_torus_dim == 1
        assert d.circle_rank == 2 and d.real_rank == 0
        assert d.exactness == EXACT

    def test_deligne_h1_of_curve(self):
        # H_D^1(X; Z(1)) is the units C* = C/Z
        d = hfc_group(curve(1), HZ, 1, 1)
        assert (d.circle_rank, d.real_rank) == (1, 1)

    def test_variant_gating(self):
        with pytest.raises(EngineError, match="Kahler"):
            hfc_group(gm(), HZ, 1, 1, "analytic")
        with pytest.raises(EngineError, match="variant"):
            hfc_group(point(), HZ, 0, 0, "weird")
        # log accepts both kinds
        assert hfc_group(point(), HZ, 0, 0, "log").free_rank == 1

    def test_rank_level_clamp(self):
        # On an abelian surface the (3,1) cell has a block whose lattice
        # rank exceeds the ambient quotient dimension; the engine reports
        # the maximal compact shape and flags it.
        s = product(curve(1), curve(1))
        d = hfc_group(s, HZ, 3, 1)
        assert d.exactness == RANK_LEVEL
        assert d.free_rank == 4
        assert d.circle_rank == 2 and d.real_rank == 0

    def test_certified_off_diagonal(self):
        # (3,2) on the abelian surface: F^2 H^2 meets the real structure
        # trivially, so the C/Z-type shape is exact.
        s = product(curve(1), curve(1))
        d = hfc_group(s, HZ, 3, 2)
        assert d.exactness == EXACT
        assert (d.free_rank, d.circle_rank, d.real_rank) == (0, 6, 4)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: product() takes its lattice ranks from the cellular Hodge-Tate rule, "
        "which misses the integral classes [pt] x alpha in F^1 H^3 of E^3; quasi_product of the "
        "as_quasiproj factors gives 12. The one model core fixes this.",
    )
    def test_e_cubed_product_agrees_with_quasi_product(self):
        e = curve(1)
        assert hfc_group(product(product(e, e), e), HZ, 3, 1).free_rank == 12


TORSION_MODEL = KahlerModel(
    name="torsion-surface",
    dim=1,
    betti={0: FgAbelianGroup(1), 2: FgAbelianGroup.of(1, [2])},
    hodge={(0, 0): 1, (1, 1): 1},
    hodge_class_rank={0: 1, 1: 1},
)


class TestTorsion:
    def test_mu_refused(self):
        with pytest.raises(EngineError, match="Atiyah-Hirzebruch"):
            e_rank(TORSION_MODEL, MU, 2)
        with pytest.raises(EngineError):
            hfc_group(TORSION_MODEL, MU, 2, 1)
        with pytest.raises(EngineError):
            e_rank(TORSION_MODEL, HQ, 2)

    def test_hz_carries_torsion(self):
        d = hfc_group(TORSION_MODEL, HZ, 2, 1)
        assert d.free_rank == 1
        assert d.torsion == (2,)
        assert hodge_group(TORSION_MODEL, HZ, 1) == FgAbelianGroup.of(1, [2])

    def test_custom_ordinary_equals_hz(self):
        fake_hz = custom_theory({0: 1})
        for model in (TORSION_MODEL, curve(1), projective_space(2)):
            for n in range(0, 5):
                for p in range(0, 3):
                    assert hfc_group(model, fake_hz, n, p) == hfc_group(model, HZ, n, p)


class TestPointTable:
    def test_matches_oracle_on_acceptance_grid(self):
        table = point_table(MU, (-12, 12), (-6, 6))
        for (n, p), got in table.items():
            assert got == point_table_oracle(n, p), (n, p)

    def test_paper_values(self):
        table = point_table(MU, (-4, 4), (-2, 2))
        assert table[(0, 0)].free_rank == 1
        # MU_D^{2k+1}(p)(pt) = MU^{2k} (x) C/Z for k = -1 < p = 1
        assert (table[(-1, 1)].circle_rank, table[(-1, 1)].real_rank) == (1, 1)
        # and the even cell (-2, 1) vanishes (p > 0 with no filtered block)
        assert table[(-2, 1)].is_zero
        assert table[(3, 1)].is_zero

    @pytest.mark.parametrize("theory", [MU, MUQ, HZ, HQ, custom_theory({-2: 1, -1: 3, 0: 1, 2: 2})],
                             ids=lambda t: t.name + str(t.table))
    def test_matches_hfc_group(self, theory):
        # Negative and positive n, n = 0 and every diagonal n = 2p in range.
        table = point_table(theory, (-9, 9), (-5, 5))
        pt = point()
        assert table == {(n, p): hfc_group(pt, theory, n, p) for n in range(-9, 10) for p in range(-5, 6)}
        assert list(table) == [(n, p) for n in range(-9, 10) for p in range(-5, 6)]

    def test_one_descriptor_per_distinct_value(self, monkeypatch):
        made = []
        init = GroupDescriptor.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GroupDescriptor, "__init__", counting)
        table = point_table(MU, (-40, 40), (-20, 20))
        assert len(table) == 81 * 41
        assert len(made) == len(set(table.values())) <= 61

    def test_hz_point_table_units(self):
        # H_D^1(pt; Z(p)) = C/Z = C* for every p >= 1
        for p in range(1, 4):
            d = hfc_group(point(), HZ, 1, p)
            assert (d.circle_rank, d.real_rank) == (1, 1)
            mu_cell = hfc_group(point(), MU, 1, p)
            assert mu_cell.circle_rank >= d.circle_rank


class TestFundamentalSes:
    # free part + torsion = Hodge classes, connected part = Jacobian
    SPACES = [point(), projective_space(1), projective_space(2), curve(1), curve(2),
              product(projective_space(1), projective_space(1)), TORSION_MODEL]

    def test_ses_bookkeeping(self):
        for model in self.SPACES:
            theories = (HZ,) if model.has_torsion else (HZ, MU)
            for theory in theories:
                for p in range(-2, 4):
                    d = hfc_group(model, theory, 2 * p, p)
                    hdg = hodge_group(model, theory, p)
                    jac = jacobian(model, theory, p)
                    assert d.free_rank == hdg.free_rank
                    assert d.torsion == hdg.torsion
                    assert (d.circle_rank, d.real_rank) == (jac.circle_rank, jac.real_rank)
                    assert d.complex_torus_dim == jac.complex_torus_dim

    def test_torus_dimension_integral(self):
        for model in self.SPACES:
            for p in range(-2, 4):
                assert e_rank(model, HZ, 2 * p - 1) % 2 == 0


class TestAdditivity:
    def test_descriptor_distributes_over_table_sum(self):
        t1 = custom_theory({0: 1, 1: 2}, name="t1")
        t2 = custom_theory({0: 2, 2: 1}, name="t2")
        t12 = custom_theory({0: 3, 1: 2, 2: 1}, name="t12")
        for model in (curve(1), projective_space(2)):
            for n in range(-2, 6):
                for p in range(-1, 4):
                    lhs = hfc_group(model, t12, n, p)
                    rhs = hfc_group(model, t1, n, p).direct_sum(hfc_group(model, t2, n, p))
                    assert lhs == rhs, (model.name, n, p)


def splitting_oracle(model, n, p):
    """The check as first written: each HQ cell repeated p(j) times, then summed."""
    variant = "analytic" if isinstance(model, KahlerModel) else "log"
    lhs = hfc_group(model, MUQ, n, p, variant)
    parts = []
    for j in range(0, max(0, (model.max_degree + 2 - n) // 2) + 1):
        cell = hfc_group(model, HQ, n + 2 * j, p + j, variant)
        parts.extend([cell] * mu_rank(j))
    rhs = parts[0] if len(parts) == 1 else descriptor_sum(parts)
    return lhs == rhs, lhs, rhs


class TestSplitting:
    def test_point_above_diagonal(self):
        ok, lhs, rhs = rational_splitting_check(point(), 1, 1)
        assert ok
        assert (lhs.circle_rank, lhs.real_rank) == (1, 1)

    def test_p2(self):
        ok, lhs, rhs = rational_splitting_check(projective_space(2), 2, 1)
        assert ok and lhs == rhs

    def test_zero_cells(self):
        ok, lhs, _ = rational_splitting_check(projective_space(1), 5, -1)
        assert ok and lhs.is_zero

    def test_acceptance_grid(self):
        for model in (point(), projective_space(1), projective_space(2), curve(1), curve(2)):
            for n in range(0, 7):
                for p in range(0, 4):
                    ok, lhs, rhs = rational_splitting_check(model, n, p)
                    assert ok, (model.name, n, p, lhs, rhs)

    def test_matches_replicated_sum(self):
        models = (point(), projective_space(1), projective_space(2), curve(1), curve(2),
                  product(curve(1), curve(1)), gm(), projective_bundle(gm(), 2))
        for model in models:
            for n in range(-2, 7):
                for p in range(-1, 4):
                    assert rational_splitting_check(model, n, p) == splitting_oracle(model, n, p), (
                        model.name, n, p)

    def test_large_projective_space(self):
        # P150 at n = 0 sums 152 HQ cells, the last taken p(151) = 45060624582 times.
        model = projective_space(150)
        start = time.perf_counter()
        ok, lhs, rhs = rational_splitting_check(model, 0, 0)
        assert ok and lhs == rhs
        assert time.perf_counter() - start < 1.0


MV_THEORIES = [HZ, HQ, MU, MUQ, custom_theory({-1: 2, 0: 1, 3: 1}, name="custom")]


def corrupted_gm():
    """Gm with an extra H^1 class: chi drops by one, so Mayer-Vietoris fails."""
    return QuasiProjModel(
        name="bad-gm", betti={0: 1, 1: 2}, filt={(1, 1): 1},
        lattice={(1, 1): 1}, hodge_class_rank={0: 1},
    )


class TestMayerVietoris:
    def test_p1_cover(self):
        for theory in MV_THEORIES:
            for p in (-3, 0, 1, 3):
                assert mv_consistency(
                    projective_space(1), affine_space(1), affine_space(1), gm(), theory, p
                ), (theory.name, p)

    def test_trivial_cover(self):
        x = gm()
        assert mv_consistency(x, x, x, x, MU, 2)

    def test_corrupted_intersection(self):
        for theory in MV_THEORIES:
            for p in (-3, 0, 1, 3):
                assert not mv_consistency(
                    projective_space(1), affine_space(1), affine_space(1), corrupted_gm(), theory, p
                ), (theory.name, p)

    def test_zero_theory_constrains_nothing(self):
        zero = custom_theory({0: 0}, name="zero")
        assert mv_consistency(
            projective_space(1), affine_space(1), affine_space(1), corrupted_gm(), zero, 1
        )


class TestA1Invariance:
    def test_gm(self):
        ok, lhs, rhs = a1_invariance_check(gm(), HZ, 1, 1)
        assert ok and lhs == rhs

    def test_affine_matches_point(self):
        pt = as_quasiproj(point())
        for n in range(-2, 5):
            for p in range(-1, 3):
                assert hfc_group(affine_space(2), HZ, n, p, "log") == hfc_group(pt, HZ, n, p, "log")
                assert a1_invariance_check(affine_space(2), MU, n, p)[0]

    def test_self_comparison(self):
        for model in (gm(), affine_space(3), as_quasiproj(curve(2))):
            for n in range(0, 4):
                assert a1_invariance_check(model, MU, n, 1)[0]

    def test_compact_model_refused(self):
        for model in (projective_space(1), curve(1)):
            with pytest.raises(EngineError, match="check a1 needs a quasiprojective space"):
                a1_invariance_check(model, HZ, 0, 0)


class TestBundleFormula:
    def test_point_rank_two(self):
        ok, lhs, rhs = pbf_check(point(), 2, 2, 1, MU)
        assert ok
        # MU_D^2(1)(P^1) = MU_D^2(1)(pt) + MU_D^0(0)(pt) = 0 + Z
        assert lhs.free_rank == 1 and lhs.torsion == ()

    def test_curve_hz(self):
        assert pbf_check(curve(1), 2, 2, 1, HZ)[0]

    def test_rank_one_identity(self):
        for n in range(-3, 4):
            ok, lhs, rhs = pbf_check(curve(1), 1, n, 1, HZ)
            assert ok and lhs == rhs

    def test_acceptance_grid(self):
        for model in (point(), projective_space(1), curve(1)):
            for r in (1, 2, 3):
                for n in range(-8, 9):
                    for p in range(-4, 5):
                        for theory in (MU, HZ):
                            ok, lhs, rhs = pbf_check(model, r, n, p, theory)
                            assert ok, (model.name, r, n, p, theory.name, lhs, rhs)

    def test_other_builtin_bases(self):
        # including quasi-projective bases, where the bundle is again
        # presented by filtration tables
        for model in (projective_space(2), curve(2), gm(), affine_space(1)):
            for r in (1, 2, 3):
                for n in range(-4, 7):
                    for p in range(-2, 4):
                        for theory in (MU, HZ):
                            ok, lhs, rhs = pbf_check(model, r, n, p, theory)
                            assert ok, (model.name, r, n, p, theory.name, lhs, rhs)


class TestGrothendieck:
    def test_trivial_bundle_over_point(self):
        for r in (1, 2, 4):
            assert grothendieck_check(point(), r)

    def test_imposed_relation(self):
        p1 = projective_space(1)
        assert grothendieck_check(p1, 2, chern=[p1.ring.gen("x"), None])

    def test_detects_corruption(self, monkeypatch):
        # Flip the sign of the c_1 xi^(r-1) term of the relation that
        # bundle_extension stores; the checker's own alternating sum is the
        # independent reference and must no longer reduce to zero.
        real = engine.bundle_extension

        def flipped(base, rank, classes=None):
            ring = real(base, rank, classes)
            power, tail = ring.rules[-1]
            rule = (power, {m: -c if m[-1] == rank - 1 else c for m, c in tail.items()})
            return ring.replace(rules=ring.rules[:-1] + (rule,))

        cases = [(1, 2, ["x", None]), (2, 2, ["x", "x^2"]), (2, 3, ["x", None, "x^3"])]
        for n, r, chern in cases:
            pn = projective_space(n)
            classes = [None if c is None else parse_ring_element(pn.ring, c) for c in chern]
            assert grothendieck_check(pn, r, classes)
            with monkeypatch.context() as m:
                m.setattr(engine, "bundle_extension", flipped)
                assert not grothendieck_check(pn, r, classes), (n, r, chern)

    def test_missing_ring(self):
        with pytest.raises(RingError, match="ring"):
            grothendieck_check(curve(1), 2)


class TestTransfer:
    def test_p2_line(self):
        p2 = projective_space(2)
        ok, class_rank, group_rank = transfer_normalization_check(p2, p2.ring.gen("x"))
        assert ok and class_rank == 1

    def test_zero_divisor(self):
        p2 = projective_space(2)
        ok, class_rank, _ = transfer_normalization_check(p2, p2.ring.zero())
        assert ok and class_rank == 0

    def test_ruling_on_quadric(self):
        s = product(projective_space(1), projective_space(1))
        ok, class_rank, group_rank = transfer_normalization_check(s, s.ring.gen("x"))
        assert ok and class_rank == 1 and group_rank >= 2

    def test_no_room_for_the_class(self):
        # A quadric model whose declared Hodge classes above degree zero are
        # erased: the divisor class has nowhere to land.
        s = product(projective_space(1), projective_space(1)).replace(hodge_class_rank={0: 1})
        ok, class_rank, group_rank = transfer_normalization_check(s, s.ring.gen("x"))
        assert not ok and class_rank == 1 and group_rank == 0

    def test_degree_checked(self):
        p2 = projective_space(2)
        with pytest.raises(RingError, match="degree 2"):
            transfer_normalization_check(p2, p2.ring.power(p2.ring.gen("x"), 2))


class TestDescriptorArithmetic:
    def test_sum_identity(self):
        parts = [GroupDescriptor(free_rank=1), GroupDescriptor(circle_rank=2, real_rank=1)]
        total = descriptor_sum(parts)
        assert (total.free_rank, total.circle_rank, total.real_rank) == (1, 2, 1)

    def test_torsion_normalized(self):
        a = GroupDescriptor(torsion=(2,))
        b = GroupDescriptor(torsion=(3,))
        assert a.direct_sum(b).torsion == (6,)

    def test_torus_marker_propagation(self):
        torus = GroupDescriptor(circle_rank=2, complex_torus_dim=1)
        discrete = GroupDescriptor(free_rank=3)
        assert torus.direct_sum(discrete).complex_torus_dim == 1
        mixed = GroupDescriptor(circle_rank=1, real_rank=1)
        assert torus.direct_sum(mixed).complex_torus_dim is None

    def test_invariant_enforced(self):
        with pytest.raises(EngineError):
            GroupDescriptor(circle_rank=1, complex_torus_dim=1)
        with pytest.raises(EngineError):
            GroupDescriptor(free_rank=-1)
