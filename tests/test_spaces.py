"""Space models: constructors, invariants, filtration and lattice rules."""

import pytest

from hfcalc.abelian import FgAbelianGroup
from hfcalc.errors import ModelError
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
        assert pt.hodge_number(0, 0) == 1
        assert pt.hcr(0) == 1
        pt.validate()

    def test_projective_space(self):
        p2 = projective_space(2)
        assert p2.hodge_number(1, 1) == 1
        assert p2.betti_rank(2) == 1
        assert projective_space(1).betti_rank(1) == 0

    def test_projective_space_ring_relation(self):
        p3 = projective_space(3)
        x = p3.ring.gen("x")
        assert p3.ring.is_zero(p3.ring.power(x, 4))
        assert not p3.ring.is_zero(p3.ring.power(x, 3))

    def test_curve(self):
        e = curve(1)
        assert e.betti_rank(1) == 2
        assert e.hodge_number(1, 0) == 1
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
            KahlerModel.make(
                name="bad",
                dim=1,
                betti={0: FgAbelianGroup(1), 1: FgAbelianGroup(4), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                hodge_class_rank={0: 1, 1: 1},
            )

    def test_all_constructors_validate(self):
        for model in ALL_KAHLER:
            model.validate()
        for model in (affine_space(0), affine_space(3), gm()):
            model.validate()


class TestProduct:
    def test_p1_squared(self):
        s = product(projective_space(1), projective_space(1))
        assert s.hodge_number(1, 1) == 2
        assert s.betti_rank(2) == 2

    def test_abelian_surface(self):
        s = product(curve(1), curve(1))
        assert s.hodge_number(1, 1) == 4
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
        s = product(curve(1), curve(1), hodge_class_rank={0: 1, 1: 3, 2: 1})
        assert s.hcr(1) == 3

    def test_torsion_factor_rejected(self):
        torsion = KahlerModel.make(
            name="fake",
            dim=1,
            betti={0: FgAbelianGroup(1), 2: FgAbelianGroup.of(1, [2])},
            hodge={(0, 0): 1, (1, 1): 1},
            hodge_class_rank={0: 1, 1: 1},
        )
        with pytest.raises(ModelError, match="fake.*degree 2"):
            product(torsion, point())


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
        assert pb.hodge_number(1, 1) == 2

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

    def test_quasiproj_base(self):
        pb = projective_bundle(gm(), 2)
        assert isinstance(pb, QuasiProjModel)
        assert pb.betti_rank(2) == 1
        assert pb.filtration_dim(1, 2) == 1
        pb.validate()


class TestQuasiProj:
    def test_affine_space_data(self):
        a3 = affine_space(3)
        pt = as_quasiproj(point())
        assert a3.betti == pt.betti
        assert a3.filt == pt.filt
        assert a3.lattice == pt.lattice

    def test_gm_filtration(self):
        g = gm()
        assert g.filtration_dim(1, 1) == 1
        assert g.filtration_dim(2, 1) == 0
        assert g.filtration_dim(0, 1) == 1
        assert g.lattice_rank_in_filtration(1, 1) == 1

    def test_monotonicity_violation(self):
        with pytest.raises(ModelError, match="exceeds"):
            QuasiProjModel.make(
                name="bad", betti={2: 1}, filt={(2, 2): 1}, lattice={}, hodge_class_rank={},
            )

    def test_lattice_bound_violation(self):
        with pytest.raises(ModelError, match="lattice"):
            QuasiProjModel.make(
                name="bad", betti={1: 1}, filt={}, lattice={(1, 1): 1}, hodge_class_rank={},
            )

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
            KahlerModel.make(
                name="asym",
                dim=1,
                betti={0: FgAbelianGroup(1), 1: FgAbelianGroup(2), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 1, (1, 0): 2, (0, 1): 0, (1, 1): 1},
                hodge_class_rank={0: 1, 1: 1},
            )

    def test_hodge_sum_mismatch(self):
        with pytest.raises(ModelError, match="degree 2"):
            KahlerModel.make(
                name="bad-sum",
                dim=1,
                betti={0: FgAbelianGroup(1), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 1, (1, 1): 2},
                hodge_class_rank={0: 1},
            )

    def test_poincare_duality(self):
        with pytest.raises(ModelError, match="Poincare"):
            KahlerModel.make(
                name="bad-pd",
                dim=1,
                betti={0: FgAbelianGroup(2), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 2, (1, 1): 1},
                hodge_class_rank={0: 1},
            )

    def test_odd_rank_must_be_even(self):
        with pytest.raises(ModelError, match="odd"):
            KahlerModel.make(
                name="bad-odd",
                dim=1,
                betti={0: FgAbelianGroup(1), 1: FgAbelianGroup(3), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 1, (1, 0): 2, (0, 1): 1, (1, 1): 1},
                hodge_class_rank={0: 1},
            )

    def test_hodge_class_rank_bound(self):
        with pytest.raises(ModelError, match="hodge_class_rank"):
            KahlerModel.make(
                name="bad-hcr",
                dim=1,
                betti={0: FgAbelianGroup(1), 2: FgAbelianGroup(1)},
                hodge={(0, 0): 1, (1, 1): 1},
                hodge_class_rank={0: 1, 1: 2},
            )
