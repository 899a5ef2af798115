"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Tolerances and ranges are pinned here and nowhere else.
"""

import random
import time
from pathlib import Path

from mpmath import mp, mpf

from hfcalc.abeljacobi import Divisor, EllipticCurve
from hfcalc.coefficients import builtin_theory, mu_rank
from hfcalc.engine import (
    a1_invariance_check,
    hfc_group,
    hodge_group,
    jacobian,
    mv_consistency,
    pbf_check,
    point_table,
    rational_splitting_check,
)
from hfcalc.spaces import (
    QuasiProjModel,
    affine_space,
    as_quasiproj,
    curve,
    gm,
    point,
    projective_space,
)

from .test_abelian import snf_matches_minor_oracle
from .test_coefficients import monomial_count
from .test_engine import point_table_oracle
from .test_io_cli import (
    AJ_GOLDEN_COMMANDS,
    CHECK_GOLDEN_COMMANDS,
    EMIT_GOLDEN_MODELS,
    GOLDEN,
    GOLDEN_COMMANDS,
    golden_output,
    run_cli,
)

MU = builtin_theory("MU")
HZ = builtin_theory("HZ")


def report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_point_table():
    start = time.monotonic()
    table = point_table(MU, (-12, 12), (-6, 6))
    mismatches = [
        (n, p)
        for (n, p), got in table.items()
        if got != point_table_oracle(n, p)
    ]
    elapsed = time.monotonic() - start
    assert mismatches == []
    assert elapsed < 1.0
    report(1, f"point table (-12..12)x(-6..6) matches the closed-form transcription in {elapsed:.3f}s")


def test_criterion_2_fundamental_ses():
    picard = hfc_group(curve(1), HZ, 2, 1)
    assert picard.free_rank == 1
    assert picard.complex_torus_dim == 1
    assert picard.torsion == () and picard.real_rank == 0

    d = hfc_group(projective_space(2), MU, 2, 1)
    hdg = hodge_group(projective_space(2), MU, 1)
    jac = jacobian(projective_space(2), MU, 1)
    assert jac.is_zero and jac.complex_torus_dim == 0
    assert (d.free_rank, d.torsion) == (hdg.free_rank, hdg.torsion)
    assert d.circle_rank == d.real_rank == 0
    report(2, "fundamental short exact sequence shapes for curve(1)/HZ and P2/MU at (2,1)")


def test_criterion_3_rational_splitting():
    spaces = [point(), projective_space(1), projective_space(2), curve(1), curve(2)]
    for model in spaces:
        for n in range(0, 7):
            for p in range(0, 4):
                ok, lhs, rhs = rational_splitting_check(model, n, p)
                assert ok, (model.name, n, p, lhs, rhs)
    report(3, "rational splitting over 5 spaces, 0<=n<=6, 0<=p<=3 (exact descriptor equality)")


def test_criterion_4_projective_bundle_formula():
    for model in (point(), projective_space(1), curve(1)):
        for r in (1, 2, 3):
            for n in range(-8, 9):
                for p in range(-4, 5):
                    for theory in (MU, HZ):
                        ok, lhs, rhs = pbf_check(model, r, n, p, theory)
                        assert ok, (model.name, r, n, p, theory.name, lhs, rhs)
    report(4, "projective bundle formula over 3 bases, r<=3, |n|<=8, |p|<=4, theories MU and HZ")


def test_criterion_5_a1_and_mayer_vietoris():
    grid_spaces = [as_quasiproj(point()), gm(), affine_space(1), affine_space(2), affine_space(3)]
    for model in grid_spaces:
        for theory in (MU, HZ):
            for n in range(-2, 5):
                for p in range(-1, 3):
                    ok, lhs, rhs = a1_invariance_check(model, theory, n, p)
                    assert ok, (model.name, theory.name, n, p, lhs, rhs)
    assert mv_consistency(projective_space(1), affine_space(1), affine_space(1), gm(), HZ, 1)
    corrupted = QuasiProjModel.make(
        name="corrupted-gm", betti={0: 1, 1: 2}, filt={(1, 1): 1},
        lattice={(1, 1): 1}, hodge_class_rank={0: 1},
    )
    assert not mv_consistency(
        projective_space(1), affine_space(1), affine_space(1), corrupted, HZ, 1
    )
    report(5, "A^1-invariance grids and Mayer-Vietoris consistency (incl. corrupted fixture)")


def test_criterion_6_coefficient_ring():
    start = time.monotonic()
    for j in range(0, 21):
        assert mu_rank(j) == monomial_count(j)
    assert [mu_rank(j) for j in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(6, f"partition-number coefficient ranks vs monomial enumeration, j<=20, in {elapsed:.3f}s")


def test_criterion_7_smith_normal_form():
    from hfcalc.abelian import IntMatrix

    rng = random.Random(20240901)
    for i in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = tuple(rng.randint(-9, 9) for _ in range(rows * cols))
        m = IntMatrix(rows, cols, entries)
        assert snf_matches_minor_oracle(m), (i, m)
    report(7, "Smith normal form vs gcd-of-minors oracle on 500 random matrices <= 5x5")


def test_criterion_8_abel_jacobi():
    tol = mpf(10) ** -9

    start = time.monotonic()
    e = EllipticCurve(4, 0, digits=40)
    with mp.workdps(60):
        oracle = mp.quad(lambda x: 1 / mp.sqrt(4 * x ** 3 - 4 * x), [1, mp.inf])
        err_a = abs(e.w1 / 2 - oracle)
    t_a = time.monotonic() - start
    assert err_a < tol and t_a < 5.0

    start = time.monotonic()
    rng = random.Random(99)
    with mp.workdps(e._workdps):
        worst = mpf(0)
        for i in range(50):
            if i % 2 == 0:
                p = e.point_from_x(mpf(rng.uniform(1.1, 8.0)), 1)
                d = Divisor.of([(p, 1), ((p[0], -p[1]), 1), (None, -2)])
            else:
                p = e.point_from_x(mpf(rng.uniform(1.1, 4.0)), 1)
                q = e.point_from_x(mpf(rng.uniform(4.5, 9.0)), -1)
                slope = (q[1] - p[1]) / (q[0] - p[0])
                xr = slope * slope / 4 - p[0] - q[0]
                r = (xr, slope * (xr - p[0]) + p[1])
                d = Divisor.of([(p, 1), (q, 1), (r, 1), (None, -3)])
            worst = max(worst, e.lattice_distance(e.aj(d)))
    t_b = time.monotonic() - start
    assert worst < tol and t_b < 5.0

    start = time.monotonic()
    with mp.workdps(e._workdps):
        worst_h = mpf(0)
        for _ in range(10):
            z1 = mpf(rng.uniform(0.1, 0.9)) * e.w1 + mpf(rng.uniform(0.1, 0.9)) * e.w2
            z2 = mpf(rng.uniform(0.1, 0.9)) * e.w1 + mpf(rng.uniform(0.1, 0.9)) * e.w2
            d1 = Divisor.of([(e.point_at(z1), 1), (None, -1)])
            d2 = Divisor.of([(e.point_at(z2), 1), (None, -1)])
            worst_h = max(worst_h, e.lattice_distance(e.aj(d1 + d2) - e.aj(d1) - e.aj(d2)))
    t_c = time.monotonic() - start
    assert worst_h < tol and t_c < 5.0
    report(
        8,
        "Abel-Jacobi: half-period vs quadrature {:.1e}, 50 principal divisors worst {:.1e}, "
        "homomorphism worst {:.1e} (times {:.2f}/{:.2f}/{:.2f}s)".format(
            float(err_a), float(worst), float(worst_h), t_a, t_b, t_c
        ),
    )


def test_criterion_9_golden_cli_outputs():
    for name in sorted(GOLDEN_COMMANDS):
        argv = GOLDEN_COMMANDS[name]
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        assert code1 == code2 == 0
        assert out1 == out2, name
        assert out1 == (GOLDEN / name).read_text(encoding="utf-8"), name
    report(9, "point-table and three compute fixtures byte-identical across runs and vs goldens")


def test_criterion_9_aj_golden_outputs(monkeypatch):
    for name in sorted(AJ_GOLDEN_COMMANDS):
        digits, argv = AJ_GOLDEN_COMMANDS[name]
        monkeypatch.setenv("HFCALC_AJ_PRECISION", str(digits))
        code, out = run_cli(*argv)
        assert code == 0, name
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), name
    report(9, "five Abel-Jacobi outputs (real, complex, 2-torsion, 100 digits) byte-identical vs goldens")


def test_criterion_9_check_and_emit_golden_outputs(tmp_path):
    names = sorted(CHECK_GOLDEN_COMMANDS) + sorted(EMIT_GOLDEN_MODELS)
    for name in names:
        _code, out = golden_output(name, tmp_path)
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), name
    report(9, f"{len(names)} check and emit-space outputs (six kinds, a FAIL, an error) byte-identical vs goldens")
