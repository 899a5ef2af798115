"""Abel-Jacobi numerics.

Oracles: mpmath's Durand-Kerner ``polyroots`` for the roots, adaptive
quadrature for the real half-period and for the elliptic logarithm,
lattice-invariant round trips for the periods, the Laurent series of wp
(plain O(K^2) recurrence) for (wp, wp'), forward evaluation of (wp, wp')
for the elliptic logarithm, and the group law for principal divisors
(three points on a line sum to zero in C/L).
"""

import cmath
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from hfcalc import _elementary, _fixedpoint, abeljacobi
from hfcalc.abeljacobi import Divisor, EllipticCurve, _numbers, complex_agm, lattice_invariants
from hfcalc.coefficients import builtin_theory
from hfcalc.engine import jacobian
from hfcalc.errors import CurveError
from hfcalc.spaces import curve
from tests import aj_identity

TOL9 = mpf(10) ** -9


# One curve of each shape: real with positive and with negative
# discriminant, complex, and near-singular (|disc| / scale about 2e-12).
SHAPES = {
    "real_pos": (4, 0),
    "real_neg": (-4, 2),
    "complex": (mpc(3, 1), mpc(-1, 2)),
    "near_singular": (3, mpf("1.000000000001")),
}


def nearer(a, b):
    """b or -b, whichever lies closer to a (b on a tie): |a - b|^2 - |a + b|^2
    = -4 Re(a conj(b)), the sign rule of every square root in the AGM, the
    logarithm's walk and Cardano's formula."""
    return -b if a.real * b.real + a.imag * b.imag < 0 else b


def cubic_roots(g2, g3, t):
    """The roots of 4x^3 - g2 x - g3 as the curve takes them, unsorted:
    ``_cardano`` at B = 2 prec + 20 bits, 2^t a bound on the curve's size,
    chopped (``_chop``) and each rounded once: an mpf if real, else an mpc."""
    b = 2 * mp.prec + 20
    g = abeljacobi._fixed(g2, b - 4 * t), abeljacobi._fixed(g3, b - 6 * t)
    roots = _fixedpoint._chop(_fixedpoint._cardano(*g, b), 2 * t - b, mp.prec)
    out = [abeljacobi._unfixed(*r, 2 * t - b) for r in roots]
    return [root if im else root.real for root, (_re, im) in zip(out, roots)]


def reduce_tau(w1, w2):
    """``_reduce_basis`` on the exact integers of w1 and w2: the reduced
    basis, each vector rounded once, and the matrix."""
    v1, v2, unit = _elementary._align(abeljacobi._exact(w1), abeljacobi._exact(w2))
    r1, r2, matrix = _fixedpoint._reduce_basis(v1, v2, mp.dps)
    return abeljacobi._unfixed(*r1, unit), abeljacobi._unfixed(*r2, unit), matrix


def point_from_x(e, x, sign=1):
    """The point (x, sign * sqrt(4x^3 - g2 x - g3)) at the curve's working precision."""
    with mp.workdps(e._workdps):
        x = mpc(x)
        return x, sign * mp.sqrt(4 * x ** 3 - e.g2 * x - e.g3)


def sizes(e):
    """(s^2, s^3) of the curve, s = max(|g2|^(1/4), |g3|^(1/6)), at its working precision."""
    with mp.workdps(e._workdps):
        s = max(abs(e.g2) ** (mpf(1) / 4), abs(e.g3) ** (mpf(1) / 6))
        return s * s, s * s * s


def rho(e):
    """|r1|, the length of a shortest lattice vector (the reduced basis starts with one)."""
    with mp.workdps(e._workdps):
        return abs(e._reduced[0])


def solve_coords(z, w1, w2):
    """Real coordinates (a, b) with z = a w1 + b w2, by Cramer's rule."""
    det = w1.real * w2.imag - w1.imag * w2.real
    return (z.real * w2.imag - z.imag * w2.real) / det, (w1.real * z.imag - w1.imag * z.real) / det


def on_curve_residual(e, pt):
    """The residual the curve's on-curve check measures:
    |y^2 - (4x^3 - g2 x - g3)| / max(|y^2|, |4x^3 - g2 x - g3|, s^6),
    exact on the check's fixed-point coordinates."""
    with mp.workdps(e._workdps):
        t, big_x, big_y = e._fixed_point(*_numbers(pt, "point coordinates"))
        num, den = _fixedpoint._residual2(big_x, big_y, e._g_fixed, e._sizes[2], t - e._t, e._bits)
        return mp.sqrt(mpf(num) / den)


def require_on_curve(e, pt):
    """The curve's on-curve check, which ``elliptic_log`` runs first."""
    with mp.workdps(e._workdps):
        e._require_on_curve(*_numbers(pt, "point coordinates"))


def torsion_order(e, pt, bound):
    """Least k <= bound with k * log(P) in the lattice, else None."""
    if pt is None:
        return 1
    with mp.workdps(e._workdps):
        z = e.elliptic_log(pt)
        tol = abs(e.w1) * mpf(10) ** (-(e.digits - 10))
        return next((k for k in range(1, bound + 1) if e.lattice_distance(k * z) <= tol), None)


@pytest.fixture(scope="module")
def lemniscatic():
    return EllipticCurve(4, 0, digits=40)


def log_by_quadrature(e, x, y):
    """Elliptic logarithm of (x, y) by integrating dt / sqrt(4 t^3 - g2 t - g3)
    from x to infinity along t = x + s^2.

    Each factor t - e_i moves right along a horizontal line, so principal
    square roots stay continuous; real roots ahead of a real x are
    integrable branch points and become split points.
    """
    e1, e2, e3 = e.roots
    splits = [mpf(0)]
    for root in e.roots:
        d = root - x
        if abs(mp.im(d)) < mpf(10) ** (-e._workdps + 5) and mp.re(d) > 0:
            splits.append(mp.sqrt(mp.re(d)))
    splits = sorted(set(splits))
    far = max(abs(e1 - x), abs(e2 - x), abs(e3 - x), mpf(1))
    splits.append(2 * mp.sqrt(far))

    def w(s):
        return 2 * mp.sqrt(x - e1 + s * s) * mp.sqrt(x - e2 + s * s) * mp.sqrt(x - e3 + s * s)

    w0 = w(mpf(0))
    sign = 1 if abs(w0) == 0 or abs(y) == 0 or abs(w0 - y) <= abs(w0 + y) else -1

    def integrand(s):
        return 2 * s / (sign * w(s))

    head = mp.quad(integrand, splits)
    # tail via s = 1/u; the integrand tends to a finite limit at u = 0
    tail = mp.quad(lambda u: integrand(1 / u) / u ** 2, [mpf(0), 1 / splits[-1]])
    return head + tail


def curve_agm_start(e):
    """(a, b) of the curve's AGM M(a, b), as ``_periods`` starts it."""
    e1, e2, e3 = e.roots
    a = mp.sqrt(e1 - e3)
    return a, nearer(a, mp.sqrt(e1 - e2))


def agm_log(walk, e2, e3, x):
    """``_agm_log`` on mpc arguments: x - e3 and x - e2 in as triples, z out as an mpc."""
    d3, d2 = abeljacobi._exact(x - e3), abeljacobi._exact(x - e2)
    return abeljacobi._unfixed(*abeljacobi._agm_log(walk, d3, d2, mp.prec))


def log_start(unit, e2, e3, x):
    """``_log_start`` on mpc arguments, as ``agm_log`` calls it."""
    return _fixedpoint._log_start(unit, abeljacobi._exact(x - e3), abeljacobi._exact(x - e2))


def agm_values(unit, pairs):
    """The integer pairs of ``_agm_sequence`` as mpc pairs (a_n, b_n)."""
    return [(abeljacobi._unfixed(ar, ai, unit), abeljacobi._unfixed(br, bi, unit)) for ar, ai, br, bi in pairs]


def chord_third_point(curve_, p, q):
    """Third intersection of the line through p and q with the curve."""
    m = (q[1] - p[1]) / (q[0] - p[0])
    xr = m * m / 4 - p[0] - q[0]
    yr = m * (xr - p[0]) + p[1]
    return (xr, yr)


class TestPeriods:
    def test_real_half_period_against_quadrature(self, lemniscatic):
        with mp.workdps(60):
            oracle = mp.quad(lambda x: 1 / mp.sqrt(4 * x ** 3 - 4 * x), [1, mp.inf])
            assert abs(lemniscatic.w1 / 2 - oracle) < TOL9

    def test_rectangular_normalization(self, lemniscatic):
        assert abs(mp.im(lemniscatic.w1)) < TOL9
        assert abs(mp.re(lemniscatic.w2)) < TOL9
        assert mp.im(lemniscatic.tau) > 0

    def test_eisenstein_round_trip(self, lemniscatic):
        with mp.workdps(lemniscatic._workdps):
            g2r, g3r = lattice_invariants(lemniscatic.w1, lemniscatic.w2)
            tol = mpf(10) ** (-(lemniscatic.digits - 3))
            assert abs(g2r - 4) < tol
            assert abs(g3r) < tol

    def test_round_trip_negative_discriminant(self):
        e = EllipticCurve(0, 4, digits=40)
        with mp.workdps(e._workdps):
            g2r, g3r = lattice_invariants(e.w1, e.w2)
            tol = mpf(10) ** (-(e.digits - 3))
            assert abs(g2r) < tol and abs(g3r - 4) < tol

    def test_round_trip_complex_invariants(self):
        e = EllipticCurve(mpc(3, 1), mpc(-1, 2), digits=40)
        with mp.workdps(e._workdps):
            g2r, g3r = lattice_invariants(e.w1, e.w2)
            tol = mpf(10) ** (-(e.digits - 3))
            assert abs(g2r - e.g2) < tol and abs(g3r - e.g3) < tol

    def test_scaling_law(self, lemniscatic):
        # (g2, g3) -> (g2 / l^4, g3 / l^6) scales both periods by l = 2
        with mp.workdps(60):
            scaled = EllipticCurve(mpf(4) / 16, 0, digits=40)
            w1s, w2s = scaled.w1, scaled.w2
            assert abs(w1s - 2 * lemniscatic.w1) < TOL9
            assert abs(w2s - 2 * lemniscatic.w2) < TOL9

    def test_precision_improves_monotonically(self):
        with mp.workdps(90):
            reference = EllipticCurve(mpf(5), mpf(2), digits=70).w1
            errors = []
            for digits in (15, 25, 35):
                w1 = EllipticCurve(mpf(5), mpf(2), digits=digits).w1
                errors.append(abs(w1 - reference))
            assert errors[0] > errors[1] > errors[2]
            assert errors[2] < mpf(10) ** -30

    def test_root_order_independent_of_precision(self):
        # The conjugate roots' real parts agree far below 10^-100, where
        # rounding noise differs from one precision to the next: it must not
        # reorder them, or the curve would take another period basis.
        curves = [EllipticCurve(1, 1 + 8.07e-303j, digits) for digits in (100, 140)]
        with mp.workdps(160):
            assert [[mp.sign(r.imag) for r in e.roots] for e in curves] == [[0, 1, -1]] * 2
            tol = mpf(10) ** -97
            assert all(abs(a - b) < tol for a, b in zip(*(e.roots for e in curves)))
            assert abs(curves[0].w1 - curves[1].w1) < tol and abs(curves[0].w2 - curves[1].w2) < tol

    @pytest.mark.parametrize("g2, g3", [(4, 0), (-4, 2), (12, 4), (mpc(3, 1), mpc(-1, 2)), (mpc(0, 2), 5)])
    def test_sign_rule_basis_for_every_root_order(self, g2, g3):
        e = EllipticCurve(g2, g3, digits=30)
        with mp.workdps(e._workdps):
            tol = mpf(10) ** (-(e.digits - 3))
            for order in itertools.permutations(e.roots):
                *roots, unit = _elementary._align(*(abeljacobi._exact(r) for r in order))
                w1, w2 = (abeljacobi._unfixed(*w) for w in _fixedpoint._periods(*roots, unit, mp.prec, mp.dps)[:2])
                g2r, g3r = lattice_invariants(w1, w2)
                assert abs(g2r - e.g2) <= tol * max(1, abs(e.g2)), order
                assert abs(g3r - e.g3) <= tol * max(1, abs(e.g3)), order

    @pytest.mark.parametrize("g2, g3", SHAPES.values(), ids=SHAPES.keys())
    def test_stored_agm_pairs_give_w1(self, g2, g3):
        # The curve runs its (a, b) AGM once; the logarithm walks its pairs
        # n = 1..N through d_n = a_n^2 - b_n^2, which the curve stores.
        e = EllipticCurve(g2, g3, digits=30)
        with mp.workdps(e._workdps):
            # Exactly: the walk is the AGM of the square roots of the exact
            # differences of the roots' integers, and w1 = pi / M from its
            # mean, one division rounded once.
            walk_unit, ds, m2 = e._walk
            (r1, i1), (r2, i2), (r3, i3), low = _elementary._align(*(abeljacobi._exact(r) for r in e.roots))
            agm = _fixedpoint._agm_roots((r1 - r3, i1 - i3), (r1 - r2, i1 - i2), low, mp.prec, mp.dps)
            assert _fixedpoint._log_walk(*agm) == e._walk
            wp = mp.prec + 40
            pi = (2 * _elementary._pi(wp, mp.prec), 0, -wp)
            assert e.w1 == abeljacobi._unfixed(*_elementary._zdiv(pi, (*m2, walk_unit), mp.prec))
            # The same AGM started from mpc square roots gives the same
            # numbers to the working precision.
            a, b = curve_agm_start(e)
            unit, pairs = abeljacobi._agm_sequence(a, b, mp.prec, mp.dps)
            m, tol = complex_agm(a, b), mpf(10) ** -(e._workdps - 3)
            assert m == abeljacobi._unfixed(pairs[-1][0] + pairs[-1][2], pairs[-1][1] + pairs[-1][3], unit - 1)
            assert abs(abeljacobi._unfixed(*m2, walk_unit - 1) - m) <= tol * abs(m)
            assert abs(e.w1 - mp.pi / m) <= tol * abs(e.w1)
            assert len(ds) == len(pairs) - 1 >= 1
            for (dr, di), (an, bn) in zip(ds, agm_values(unit, pairs[1:])):
                d = abeljacobi._unfixed(dr, di, 2 * walk_unit)
                assert abs(d - (an * an - bn * bn)) <= mpf(10) ** -(e._workdps - 3) * abs(an) ** 2

    def test_hostile_precision_rejected(self):
        with pytest.raises(CurveError, match="above 1000 digits"):
            EllipticCurve(4, 0, digits=abeljacobi.MAX_DIGITS + 1)

    def test_theta_values_must_separate_the_roots(self, monkeypatch):
        # wp at the reduced half periods names the half period of each root;
        # two roots nearest one theta value leave a root without one.
        theta_lattice = abeljacobi._theta_lattice

        def merged(*args):
            *head, (e1, _e2, e3), g2, g3 = theta_lattice(*args)
            return (*head, (e1, e1, e3), g2, g3)

        monkeypatch.setattr(abeljacobi, "_theta_lattice", merged)
        with pytest.raises(CurveError, match="do not separate"):
            EllipticCurve(4, 0, digits=20)

    def test_singular_curve_rejected(self):
        with pytest.raises(CurveError, match="singular"):
            EllipticCurve(3, 1, digits=20)  # g2^3 = 27 g3^2
        with pytest.raises(CurveError, match="singular"):
            EllipticCurve(0, 0, digits=20)


class TestWeierstrassFunctions:
    def test_forward_backward(self, lemniscatic):
        e = lemniscatic
        rng = random.Random(2024)
        with mp.workdps(e._workdps):
            for _ in range(8):
                z0 = mpf(rng.uniform(0.05, 0.95)) * e.w1 + mpf(rng.uniform(0.05, 0.95)) * e.w2
                if e.lattice_distance(z0) < mpf("0.05"):
                    continue
                p, pp = e.wp_pair(z0)
                assert abs(pp ** 2 - (4 * p ** 3 - e.g2 * p - e.g3)) < mpf(10) ** (-e.digits) * max(
                    1, abs(pp) ** 2
                )
                z = e.elliptic_log((p, pp))
                assert e.lattice_distance(z - z0) < TOL9 * 1e-20

    def test_differential_equation_many_curves(self):
        for g2, g3 in ((4, 0), (0, 4), (mpc(2, 1), mpc(0, -1))):
            e = EllipticCurve(g2, g3, digits=30)
            with mp.workdps(e._workdps):
                z = mpf("0.21") * e.w1 + mpf("0.37") * e.w2
                p, pp = e.wp_pair(z)
                res = abs(pp ** 2 - (4 * p ** 3 - e.g2 * p - e.g3))
                assert res < mpf(10) ** (-(e.digits - 3)) * max(1, abs(pp) ** 2)

    def test_pole_rejected(self, lemniscatic):
        with pytest.raises(CurveError, match="lattice"):
            lemniscatic.wp_pair(0)


class TestEllipticLog:
    def test_infinity(self, lemniscatic):
        assert lemniscatic.elliptic_log(None) == 0

    def test_not_a_pair(self, lemniscatic):
        # The logarithm is aj of [P] - [O], so Divisor refuses the entry.
        with pytest.raises(CurveError, match="must be"):
            lemniscatic.elliptic_log((1,))

    def test_two_torsion_at_half_periods(self, lemniscatic):
        e = lemniscatic
        with mp.workdps(e._workdps):
            z = e.elliptic_log((e.roots[0], mpf(0)))
            assert e.lattice_distance(z - e.w1 / 2) < TOL9 * 1e-10
            z3 = e.elliptic_log((e.roots[2], mpf(0)))
            assert e.lattice_distance(z3 - e.w2 / 2) < TOL9 * 1e-10

    def test_off_curve_rejected(self, lemniscatic):
        with pytest.raises(CurveError, match="residual"):
            lemniscatic.elliptic_log((mpf(2), mpf(1)))

    def test_wp_prime_sign_resolved(self, lemniscatic):
        e = lemniscatic
        with mp.workdps(e._workdps):
            x = mpf("2.5")
            for sign in (1, -1):
                pt = point_from_x(e, x, sign)
                z = e.elliptic_log(pt)
                p, pp = e.wp_pair(z)
                assert abs(p - pt[0]) < mpf(10) ** (-(e.digits - 3))
                assert abs(pp - pt[1]) < mpf(10) ** (-(e.digits - 3)) * max(1, abs(pp))

    def test_quadrature_fallback_agrees(self, lemniscatic):
        e = lemniscatic
        with mp.workdps(e._workdps):
            for x in (mpf("1.5"), mpf("-0.5"), mpc("0.3", "1.2")):
                pt = point_from_x(e, x, 1)
                z_fast = e.elliptic_log(pt)
                z_quad = log_by_quadrature(e, pt[0], pt[1])
                d = min(e.lattice_distance(z_quad - z_fast), e.lattice_distance(z_quad + z_fast))
                assert d < mpf(10) ** -25

    @pytest.mark.parametrize("g2, g3", SHAPES.values(), ids=SHAPES.keys())
    def test_walk_converges_quadratically(self, g2, g3):
        # Walking only the pairs up to a gap r = |a_k - b_k| / |a_k| leaves an
        # error of order r^2 against Carlson's R_F; a walk that skips the c step
        # of its last pair is off by order r.
        e = EllipticCurve(g2, g3, digits=30)
        with mp.workdps(e._workdps):
            floor = mpf(10) ** (-(e._workdps - 5))
            unit, pairs = abeljacobi._agm_sequence(*curve_agm_start(e), mp.prec, mp.dps)
            for u, v in (("0.21", "0.37"), ("0.05", "0.9")):
                x, _y = e.point_at(mpf(u) * e.w1 + mpf(v) * e.w2)
                zr = abeljacobi.carlson_rf(*(x - root for root in e.roots))
                for k in range(1, len(pairs)):
                    (a, b), = agm_values(unit, pairs[k : k + 1])
                    r = abs(a - b) / abs(a)
                    walk = _fixedpoint._log_walk(unit, pairs[: k + 1])
                    z = agm_log(walk, e.roots[1], e.roots[2], x)
                    d = min(e.lattice_distance(z - zr), e.lattice_distance(z + zr)) / abs(e.w1)
                    assert d <= r ** mpf("1.5") + floor, (u, v, k)

    def test_residual_miss_raises(self, monkeypatch):
        e = EllipticCurve(4, 0, digits=20)
        pt = point_from_x(e, mpf("2.5"), 1)
        monkeypatch.setattr(abeljacobi, "_agm_log", lambda *args: abeljacobi._exact(mpc("0.3", "0.2")))
        with pytest.raises(CurveError, match="misses the point"):
            e.elliptic_log(pt)

    @pytest.mark.parametrize("g2, g3", SHAPES.values(), ids=SHAPES.keys())
    def test_branch_points_snap_to_distinct_half_periods(self, g2, g3):
        e = EllipticCurve(g2, g3, digits=30)
        with mp.workdps(e._workdps):
            halves = [e.w1 / 2, e.w2 / 2, (e.w1 + e.w2) / 2]
            found = []
            for root in e.roots:
                z = e.elliptic_log((root, 0))
                found.append(min(range(3), key=lambda i: e.lattice_distance(z - halves[i])))
                assert e.lattice_distance(z - halves[found[-1]]) <= mpf(10) ** (-(e._workdps - 5)) * abs(e.w1)
                x, _y = e.wp_pair(z)
                assert abs(x - root) <= mpf(10) ** (-(e.digits - 3)) * max(1, abs(root))
            assert sorted(found) == [0, 1, 2]

    def test_points_far_from_the_origin(self):
        # z is about 1/sqrt(x) there, so asin(M / c) works on a small argument
        # and needs its relative accuracy; a 100-digit curve is the reference.
        e, ref = EllipticCurve(4, 0, digits=40), EllipticCurve(4, 0, digits=100)
        for x in ("1e70+1e69j", "1e100"):
            with mp.workdps(ref._workdps):
                pt = point_from_x(ref, mp.mpmathify(x), 1)
                want = ref.elliptic_log(pt)
            z = e.elliptic_log(pt)
            with mp.workdps(e._workdps):
                assert abs(z - want) <= mpf(10) ** -(e.digits - 3) * abs(want)
        # |z| falls below the pole's tolerance 10^-(workdps - 5) rho.
        with mp.workdps(e._workdps):
            pt = point_from_x(e, mpf("1e300"), 1)
        with pytest.raises(CurveError, match="lattice point"):
            e.elliptic_log(pt)

    @pytest.mark.parametrize(
        "pt",
        [(1, mpf("inf")), (mpc(1, "nan"), 0), (1e400, 2)],
        ids=["y_inf", "x_imaginary_nan", "x_float_overflow"],
    )
    def test_non_finite_point_is_curve_error(self, lemniscatic, pt):
        with pytest.raises(CurveError, match="must be finite"):
            lemniscatic.elliptic_log(pt)
        with pytest.raises(CurveError, match="must be finite"):
            lemniscatic.aj(Divisor.of([(pt, 1), (None, -1)]))


class TestAbelJacobi:
    def test_trivial_divisor(self, lemniscatic):
        e = lemniscatic
        pt = point_from_x(e, mpf(3), 1)
        d = Divisor.of([(pt, 1), (pt, -1)])
        assert e.lattice_distance(e.aj(d)) < TOL9 * 1e-20

    def test_vertical_principal_divisor(self, lemniscatic):
        # div(x - x(P)) = (P) + (-P) - 2(inf)
        e = lemniscatic
        with mp.workdps(e._workdps):
            pt = point_from_x(e, mpf(2), 1)
            d = Divisor.of([(pt, 1), ((pt[0], -pt[1]), 1), (None, -2)])
            assert e.lattice_distance(e.aj(d)) < TOL9

    def test_fifty_random_principal_divisors(self, lemniscatic):
        e = lemniscatic
        rng = random.Random(99)
        with mp.workdps(e._workdps):
            worst = mpf(0)
            for i in range(50):
                if i % 2 == 0:
                    x = mpf(rng.uniform(1.1, 8.0))
                    p = point_from_x(e, x, 1)
                    d = Divisor.of([(p, 1), ((p[0], -p[1]), 1), (None, -2)])
                else:
                    p = point_from_x(e, mpf(rng.uniform(1.1, 4.0)), 1)
                    q = point_from_x(e, mpf(rng.uniform(4.5, 9.0)), -1)
                    r = chord_third_point(e, p, q)
                    d = Divisor.of([(p, 1), (q, 1), (r, 1), (None, -3)])
                worst = max(worst, e.lattice_distance(e.aj(d)))
            assert worst < TOL9

    def test_homomorphism(self, lemniscatic):
        e = lemniscatic
        rng = random.Random(7)
        with mp.workdps(e._workdps):
            for _ in range(10):
                z1 = mpf(rng.uniform(0.1, 0.9)) * e.w1 + mpf(rng.uniform(0.1, 0.9)) * e.w2
                z2 = mpf(rng.uniform(0.1, 0.9)) * e.w1 + mpf(rng.uniform(0.1, 0.9)) * e.w2
                d1 = Divisor.of([(e.point_at(z1), 1), (None, -1)])
                d2 = Divisor.of([(e.point_at(z2), 1), (None, -1)])
                lhs = e.aj(d1 + d2)
                rhs = e.aj(d1) + e.aj(d2)
                assert e.lattice_distance(lhs - rhs) < TOL9

    @pytest.mark.parametrize("bad", [("abc", "1"), ("1+2j", "3"), (None, "1")])
    def test_non_numeric_point_is_curve_error(self, lemniscatic, bad):
        with pytest.raises(CurveError, match="point coordinates must be numbers"):
            lemniscatic.aj(Divisor.of([(bad, 1), (None, -1)]))

    @pytest.mark.parametrize(
        "entries",
        [[((1, 2, 3), 1)], [((1, 2), "abc")], [(5, 1)], [None], [((1, 2), 1.5)]],
        ids=["three_coordinates", "text_multiplicity", "point_not_a_pair", "entry_none", "float_multiplicity"],
    )
    def test_malformed_divisor_entry_is_curve_error(self, entries):
        with pytest.raises(CurveError, match="divisor entry"):
            Divisor.of(entries)

    def test_degree_rejected(self, lemniscatic):
        d = Divisor.of([(point_from_x(lemniscatic, mpf(2), 1), 1)])
        with pytest.raises(CurveError, match="degree 1"):
            lemniscatic.aj(d)

    def test_nontorsion_witness(self, lemniscatic):
        # multiples of a non-torsion point stay away from the lattice
        e = lemniscatic
        p = point_from_x(e, mpf(2), 1)
        assert torsion_order(e, p, 12) is None
        with mp.workdps(e._workdps):
            z = e.elliptic_log(p)
            for k in range(1, 13):
                assert e.lattice_distance(k * z) > mpf("1e-3")


class TestEdgeCases:
    def test_coordinates_snap_to_integers(self):
        # z lies on the imaginary axis with w2, so its coordinate a is 0; the
        # computed a is guard-digit noise, about 3e-127, and prints as 0.
        e = EllipticCurve(mpf("-0.858960721707243"), mpf("-9.917354271135034"), digits=100)
        with mp.workdps(130):
            x = mpf("-1.9771763063479823839961614257160494393829885810266")
            y = mp.sqrt(4 * x ** 3 - e.g2 * x - e.g3)
        z = e.aj(Divisor.of([((x, y), 1), (None, -1)]))
        a, b = e.frac_coords(z)
        assert a == 0 and z.real == 0 and 0 < b < 1
        with mp.workdps(e._workdps):
            # a = 1 - 1e-110 is 1, so 0 mod 1; a small z keeps its coordinates.
            cases = ((mpf(1 - mpf("1e-110")) * e.w1 + e.w2 / 3, 0), (mpf("1e-90") * e.w1, mpf("1e-90")))
            for z, want in cases:
                a, _b = e.frac_coords(z)
                assert abs(a - want) <= mpf(10) ** -(e._workdps - 2) * abs(want) if want else a == 0

    def test_near_two_torsion_recovery(self, lemniscatic):
        # wp' is tiny near half periods; the elliptic logarithm must still
        # invert the parametrization well inside the contract.
        e = lemniscatic
        with mp.workdps(e._workdps):
            for eps in ("1e-6", "1e-12", "1e-20"):
                z0 = e.w1 / 2 + mpf(eps) * e.w1
                pt = e.point_at(z0)
                z = e.elliptic_log(pt)
                d = min(e.lattice_distance(z - z0), e.lattice_distance(z + z0))
                assert d < mpf(10) ** (-(e.digits - 3))

    def test_negative_discriminant_principal_divisor(self):
        e = EllipticCurve(-4, 2, digits=40)  # one real branch point
        with mp.workdps(e._workdps):
            p = point_from_x(e, mpf(2), 1)
            q = point_from_x(e, mpf(3), -1)
            r = chord_third_point(e, p, q)
            d = Divisor.of([(p, 1), (q, 1), (r, 1), (None, -3)])
            assert e.lattice_distance(e.aj(d)) < TOL9

    def test_complex_curve_principal_divisor(self):
        e = EllipticCurve(mpc(2, 1), mpc(0, -1), digits=40)
        with mp.workdps(e._workdps):
            p = point_from_x(e, mpc(1, 1), 1)
            q = point_from_x(e, mpc(-2, "0.5"), -1)
            r = chord_third_point(e, p, q)
            d = Divisor.of([(p, 1), (q, 1), (r, 1), (None, -3)])
            assert e.lattice_distance(e.aj(d)) < TOL9


class TestLibraryLimits:
    """complex_agm and lattice_invariants refuse what they cannot compute
    with a CurveError, at once."""

    @pytest.mark.parametrize("call, args", [
        (complex_agm, (mp.inf, 1)),
        (complex_agm, ("x", 1)),
        (complex_agm, (1, mpf("1e-100000000"))),  # integers of 10^8 bits
        (lattice_invariants, (1, "x")),
        (lattice_invariants, (mp.nan, 1j)),
        (lattice_invariants, (0, 1j)),
        (lattice_invariants, (0, 0)),
        (lattice_invariants, (1, mpc(0, "1e100"))),  # reduced Im(tau) 10^100
        (lattice_invariants, (1, mpc(0, "1e-100000000"))),  # 10^(10^8)
        (lattice_invariants, (1, mpc("0.5", "1e-10"))),  # found only by the reduction
        (lattice_invariants, (1, mpc("1e100000000", 1))),  # parts 3.3 * 10^8 bits apart
    ], ids=["agm-inf", "agm-text", "agm-gap", "text", "nan", "zero", "zeros", "tau-1e100", "tau-1e1e8", "tau-reduced",
            "parts-gap"])
    def test_refused_at_once(self, call, args):
        start = time.perf_counter()
        with pytest.raises(CurveError):
            call(*args)
        assert time.perf_counter() - start < 1.0

    def test_far_apart_parts_compute(self):
        # Z + Z(10^30 + i) = Z + Zi: the periods enter exactly, so the part
        # 30 orders below the other is kept, not read as dependent.
        with mp.workdps(15):
            assert lattice_invariants(1, mpc("1e30", 1)) == lattice_invariants(1, 1j)

    def test_long_lattices_below_the_bound(self):
        # At Im(tau) = 1000, q = exp(-2000 pi) vanishes at any precision here:
        # g2 = (2 pi)^4 / 12 and g3 = (2 pi)^6 / 216 for w1 = 1.
        with mp.workdps(50):
            for w2 in (1000j, mpc("0.3", 1000), mpc(0, abeljacobi.MAX_IM_TAU - 1)):
                g2, g3 = lattice_invariants(1, w2)
                assert abs(g2 - (2 * mp.pi) ** 4 / 12) <= mpf(10) ** -47 * g2.real
                assert abs(g3 - (2 * mp.pi) ** 6 / 216) <= mpf(10) ** -47 * g3.real


class TestTorsion:
    def test_two_torsion(self, lemniscatic):
        assert torsion_order(lemniscatic, (lemniscatic.roots[0], 0), 5) == 2

    def test_infinity(self, lemniscatic):
        assert torsion_order(lemniscatic, None, 5) == 1

    def test_four_torsion(self, lemniscatic):
        e = lemniscatic
        with mp.workdps(e._workdps):
            pt = e.point_at(e.w1 / 4)
            assert torsion_order(e, pt, 8) == 4

    def test_generic_point_not_torsion(self, lemniscatic):
        e = lemniscatic
        rng = random.Random(31)
        with mp.workdps(e._workdps):
            for _ in range(3):
                z = mpf(rng.uniform(0.05, 0.95)) * e.w1 + mpf(rng.uniform(0.05, 0.95)) * e.w2
                pt = e.point_at(z)
                # measure-zero event; deterministic seed keeps this stable
                assert torsion_order(e, pt, 20) is None


class TestJacobianBridge:
    def test_real_torus_shape_matches_engine(self, lemniscatic):
        # J^1 = C/L has two circle directions, matching the engine's
        # jacobian of a genus-one curve with ordinary coefficients.
        desc = jacobian(curve(1), builtin_theory("HZ"), 1)
        assert desc.circle_rank == 2
        assert desc.complex_torus_dim == 1
        a, b = lemniscatic.frac_coords(lemniscatic.w1 / 3 + lemniscatic.w2 / 5)
        assert 0 <= a < 1 and 0 <= b < 1


def reference_laurent(g2, g3, terms):
    """Plain complex O(K^2) recurrence for the Laurent coefficients of wp."""
    c = [mpc(0)] * (terms + 1)
    c[1] = mpc(g2) / 20
    c[2] = mpc(g3) / 28
    for k in range(3, terms + 1):
        acc = mpc(0)
        for m in range(1, k - 1):
            acc += c[m] * c[k - 1 - m]
        c[k] = 3 * acc / ((2 * k + 3) * (k - 2))
    return c


def reference_wp_pair(c, z):
    """Termwise Laurent series of (wp, wp') near the origin."""
    p, pp, power = 1 / z ** 2, -2 / z ** 3, z  # power = z^(2k - 1)
    for k in range(1, len(c)):
        pp += 2 * k * c[k] * power
        power *= z
        p += c[k] * power
        power *= z
    return p, pp


def assert_wp_matches_laurent(e, radius="0.25"):
    """(wp, wp') at |z| = radius * rho against the termwise Laurent series.

    The series converges like radius^(2k) there (rho is the distance to the
    nearest pole), so workdps / log10(radius^-2) terms and a margin reach the
    working precision.
    """
    with mp.workdps(e._workdps):
        tol = mpf(10) ** (-(e._workdps - 3))
        radius = mpf(radius)
        want = reference_laurent(e.g2, e.g3, int(e._workdps / -mp.log10(radius ** 2)) + 10)
        for phase in (0, 1, 2.5, 4):
            z = radius * rho(e) * mp.expj(phase)
            p, pp = e.wp_pair(z)
            rp, rpp = reference_wp_pair(want, z)
            assert abs(p - rp) <= tol * abs(rp)
            assert abs(pp - rpp) <= tol * abs(rpp)


class TestLaurentTable:
    """The theta-function (wp, wp') against the reference Laurent table."""

    @pytest.mark.parametrize("digits", [20, 40, 100])
    @pytest.mark.parametrize(
        "g2, g3", [(4, 0), (-3, 1), (0, 4), (mpc(1.5, 0.3), mpc(-2, 1)), (mpc(0, 2), 5)]
    )
    def test_table_and_wp_against_reference(self, g2, g3, digits):
        assert_wp_matches_laurent(EllipticCurve(g2, g3, digits=digits))

    def test_wp_against_reference_at_400_digits(self):
        # Nearer the pole the O(K^2) reference needs half the terms it needs
        # at 0.25 rho; the theta series need as many as anywhere else.
        assert_wp_matches_laurent(EllipticCurve(mpc(1.5, 0.3), mpc(-2, 1), digits=400), radius="0.05")


def theta_values(q4, big_l, v):
    """The four theta values of the fixed-point ``_theta_sums`` as mpc."""
    sums, exp = abeljacobi._theta_sums(abeljacobi._exact(q4), big_l, abeljacobi._exact(mpc(v)), mp.prec, mp.dps)
    return tuple(abeljacobi._unfixed(re, im, exp) for re, im in sums)


def reference_theta(q4, v):
    """The theta values of ``_theta_sums`` as a plain mpc loop at the current precision."""
    big_l = float(-4 * mp.log(abs(q4)))
    terms = int(2 * abs(float(mp.im(v))) / big_l + math.sqrt(4 * mp.dps * math.log(10) / big_l + 1))
    c, s = mp.cos_sin(v)
    two_c = 2 * c
    c_prev, s_prev = mp.one, mp.zero  # cos and sin of (m - 1)v; c, s of mv
    t, step, q2 = q4, q4 ** 3, q4 * q4  # t = q^(m^2/4), step = q^((2m + 1)/4)
    cos_sums = [mp.zero] * 4  # sum of q^(m^2/4) cos(mv) over each class of m mod 4
    sin_sums = [mp.zero] * 4
    for m in range(1, terms + 1):
        cos_sums[m % 4] += t * c
        if m % 2:
            sin_sums[m % 4] += t * s
        t, step = t * step, step * q2
        c_prev, c = c, two_c * c - c_prev
        s_prev, s = s, two_c * s - s_prev
    return (
        2 * (sin_sums[1] - sin_sums[3]),
        2 * (cos_sums[1] + cos_sums[3]),
        1 + 2 * (cos_sums[0] + cos_sums[2]),
        1 + 2 * (cos_sums[0] - cos_sums[2]),
    )


@st.composite
def theta_cases(draw):
    """(dps, x, y, a, b, shrink): a reduced tau = x + iy with y up to 80 (|q|
    down to about 1e-109, as for a curve whose |disc| / scale is about that
    small), and v = pi (a + b tau) 10^-shrink with a, b in [-1/2, 1/2] (the
    reduction bound |Im v| <= pi Im(tau) / 2) and shrink up to dps / 2."""
    dps = draw(st.integers(20, abeljacobi.MAX_DIGITS + 25))
    x = draw(st.floats(-0.5, 0.5))
    y = draw(st.floats(math.sqrt(1 - x * x), 80))
    a, b = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    return dps, x, y, a, b, draw(st.integers(0, dps // 2))


class TestThetaKernel:
    """The fixed-point ``_theta_sums`` against the plain mpc loop it replaced."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(theta_cases())
    @example((1025, 0.0, 80.0, 0.5, 0.5, 0))  # largest |Im v| at the largest precision
    @example((45, 0.5, math.sqrt(0.75), 0.25, 0.0, 22))  # corner of the domain, |v| = 1e-22
    def test_kernel_matches_mpc_loop(self, case):
        dps, x, y, a, b, shrink = case
        # theta2, theta3, theta4 vanish at the half periods pi (a + b tau) with
        # (a, b) = (1/2, 0), (1/2, 1/2), (0, 1/2): both sums are only absolutely
        # accurate there, so relative errors are compared away from them.
        if shrink == 0:
            assume(min(abs(abs(a) - 0.5) + abs(b), abs(abs(a) - 0.5) + abs(abs(b) - 0.5), abs(a) + abs(abs(b) - 0.5)) > 1e-3)
        with mp.workdps(dps):
            tau = mpc(x, y)
            q4 = mp.expj(mp.pi * tau / 4)
            v = mp.pi * (a + b * tau) * mpf(10) ** -shrink
            got = theta_values(q4, float(mp.pi * y), v)
            with mp.workdps(dps + 20):
                want = reference_theta(q4, v)
            for i, (g, w) in enumerate(zip(got, want)):
                if w == 0:
                    assert g == 0, i
                else:
                    assert abs(g - w) <= mpf(10) ** -(dps - 2) * abs(w), (i, g, w)

    @pytest.mark.parametrize("dps", [20, 65, 1025])
    def test_real_and_imaginary_inputs_keep_exact_zeros(self, dps):
        # A real nome (tau on the imaginary axis): theta(real v) is real and
        # theta(i y) is real but for theta1, which is purely imaginary.
        with mp.workdps(dps):
            q4 = mp.expj(mp.pi * mpc(0, "1.3") / 4)
            assert q4.imag == 0
            for v in (mp.zero, mpc("0.7", 0), mpf("1e-12"), mpc(0, "1.9"), mpc(0, "1e-12")):
                got = theta_values(q4, float(mp.pi * mpf("1.3")), v)
                want = reference_theta(q4, v)
                if v.imag == 0:
                    assert all(t.imag == 0 for t in got), v
                else:
                    assert got[0].real == 0 and all(t.imag == 0 for t in got[1:]), v
                assert (got[0] == 0) == (v == 0)
                for g, w in zip(got, want):
                    assert abs(g - w) <= mpf(10) ** -(dps - 2) * abs(w)


def reference_agm_sequence(a, b):
    """The AGM pairs of ``_agm_sequence`` as the plain mpc loop it replaced."""
    pairs = [(a, b)]
    tol = mpf(10) ** (-(mp.dps - 3))
    for _ in range(mp.dps * 4 + 40):
        a, b = (a + b) / 2, mp.sqrt(a * b)
        d = a.real * b.real + a.imag * b.imag
        if d < 0 or (d == 0 and mp.im(b / a) < 0):
            b = -b
        pairs.append((a, b))
        if abs(a - b) <= tol * abs(a):
            return pairs
    raise AssertionError("reference AGM failed to converge")


def reference_agm_log(pairs, e3, x):
    """``_agm_log`` as the plain mpc walk it replaced: from c = sqrt(x - e3),
    c <- (c + sqrt(c^2 - a_n^2 + b_n^2))/2 (the root nearer c) per pair."""
    c = mp.sqrt(x - e3)
    for a, b in pairs:
        c = (c + nearer(c, mp.sqrt(c * c - a * a + b * b))) / 2
    m = (a + b) / 2
    u = m / c
    with mp.extraprec(max(0, -mp.mag(u))):
        return mp.asin(u) / m


@st.composite
def agm_cases(draw):
    """(dps, a, b, e1, x): |a| in 1e-8..1e8, |b| / |a| in 1e-12..1, the angle
    between them under 0.45 pi (``_periods`` makes Re(a conj(b)) >= 0),
    either of them the smaller; roots e1, e2 = e1 - b^2, e3 = e1 - a^2 and a
    point x = e1 + t h^2, h the larger of a and b, with |t| in 0.1..1e12.  A
    small ratio puts two roots close together, a curve near its node, where
    the logarithm of points near the node is ill-conditioned (dz = dx / y),
    so x keeps to the scale of h."""
    dps = draw(st.integers(20, abeljacobi.MAX_DIGITS + 25))
    angle = draw(st.floats(0, 2 * math.pi))
    size, ratio = draw(st.floats(-8, 8)), draw(st.floats(-12, 0))
    with mp.workdps(dps):
        a = mpf(10) ** size * mp.expj(angle)
        b = a * mpf(10) ** ratio * mp.expj(draw(st.floats(-0.45, 0.45)) * mp.pi)
        if draw(st.booleans()):
            a, b = b, a
        h2 = max(abs(a), abs(b)) ** 2
        e1 = h2 * mpc(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
        t = mpf(10) ** draw(st.floats(-1, 12)) * mp.expj(draw(st.floats(0, 2 * math.pi)))
        return dps, a, b, e1, e1 + t * h2


class TestAgmKernel:
    """The fixed-point AGM and logarithm walk against the mpc loops they replaced."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(agm_cases())
    @example((1025, mpc(1, 0), mpc("1e-12", "1e-13"), mpc("0.5", "0.3"), mpc(3, 2)))
    @example((20, mpc("1e-12", 0), mpc(0, 1), mpc(2, 0), mpc("1e12", 1)))
    def test_pairs_mean_and_log_match_mpc_loops(self, case):
        dps, a, b, e1, x = case
        with mp.workdps(dps):
            e2, e3 = e1 - b * b, e1 - a * a
            tol = mpf(10) ** -(dps - 3)
            unit, pairs = abeljacobi._agm_sequence(a, b, mp.prec, mp.dps)
            want = reference_agm_sequence(a, b)
            assert len(pairs) == len(want)
            for (ga, gb), (wa, wb) in zip(agm_values(unit, pairs), want):
                assert abs(ga - wa) <= tol * abs(wa) and abs(gb - wb) <= tol * abs(wb)
            walk = _fixedpoint._log_walk(unit, pairs)
            z, zr = agm_log(walk, e2, e3, x), reference_agm_log(want, e3, x)
            mean = abeljacobi._unfixed(*walk[2], walk[0] - 1)
            assert abs(z - zr) <= tol * max(abs(zr), 1 / abs(mean))
            with mp.workdps(dps + 10):
                want = reference_agm_sequence(a, b)
                m = (want[-1][0] + want[-1][1]) / 2
            assert abs(mean - m) <= tol * abs(m)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(20, 400), st.floats(-8, 8), st.floats(0, 2 * math.pi), st.booleans())
    @example(65, 0.0, math.pi / 4, True)
    def test_conjugate_pair_steps_to_exact_axis(self, dps, size, angle, negate):
        # b = conj(a) steps to exactly real pairs, b = -conj(a) to exactly
        # imaginary ones: the integers of b are those of a, negated exactly.
        with mp.workdps(dps):
            a = mpf(10) ** size * mp.expj(angle)
            b = -mp.conj(a) if negate else mp.conj(a)
            _unit, pairs = abeljacobi._agm_sequence(a, b, mp.prec, mp.dps)
            for ar, ai, br, bi in pairs[1:]:
                assert (ar, br) == (0, 0) if negate else (ai, bi) == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(2 ** 300), 2 ** 300), st.integers(-(2 ** 300), 2 ** 300))
    @example(0, 0)
    @example(-(4 ** 50), 0)
    @example(4 ** 50, 0)
    @example(1, 1)
    def test_csqrt(self, re, im):
        r, i = _elementary._csqrt(re, im)
        assert r >= 0
        if im:
            assert _elementary._csqrt(re, -im) == (r, -i)
        else:  # an exact 0 part: sqrt of a real is real, or i sqrt(-re)
            assert i == 0 if re >= 0 else r == 0
        # (r + i j)^2 = re + im j to the rounding of one unit of the root.
        size = math.isqrt(abs(re) + abs(im)) + 1
        assert abs(r * r - i * i - re) <= 4 * size and abs(2 * r * i - im) <= 4 * size


@st.composite
def sign_cases(draw):
    """(dps, a, b): complex a, b of any moduli, the angle between them drawn
    near a right angle as often as away from it."""
    dps = draw(st.integers(20, 125))
    mags = [10 ** draw(st.floats(-8, 8)) for _ in range(2)]
    phase = draw(st.floats(0, 2 * math.pi))
    gap = draw(st.one_of(st.floats(0, math.pi), st.sampled_from([0.5, -0.5]).map(lambda h: math.pi * h)))
    gap += draw(st.sampled_from([0, 1e-15, -1e-15, 1e-9]))
    with mp.workdps(dps):
        a = mags[0] * mp.expj(phase)
        b = mags[1] * mp.expj(phase + gap)
    return dps, a, b


class TestSignTests:
    """The sign tests compare Re(a conj(b)) with 0 instead of |a - b| with |a + b|."""

    @settings(max_examples=60, deadline=None)
    @given(sign_cases())
    def test_same_sign_as_the_moduli(self, case):
        dps, a, b = case
        # |a - b|^2 - |a + b|^2 = -4 Re(a conj(b)); the rounded moduli resolve
        # that difference only when it clears eps (|a|^2 + |b|^2), which is
        # |a| |b| up to a factor 2 when |a| and |b| are alike, as in the AGM.
        with mp.workdps(dps):
            margin = mpf(10) ** -(dps - 5)
            if abs(mp.re(a * mp.conj(b))) > margin * (abs(a) ** 2 + abs(b) ** 2):
                want = -b if abs(a - b) > abs(a + b) else b
                assert nearer(a, b) == want
            # One AGM step from (a, b): the same rule on (a1, sqrt(a b)).  The
            # integer pair holds a1 and b1 to 2^unit, the AGM's rounding unit.
            unit, pairs = abeljacobi._agm_sequence(a, b, mp.prec, mp.dps)
            (a1, b1), = agm_values(unit, pairs[1:2])
            root, ulp = mp.sqrt(a * b), mpf(2) ** (unit + 1)
            assert abs(a1 - (a + b) / 2) <= ulp + mp.eps * abs(a1)
            assert min(abs(b1 - root), abs(b1 + root)) <= ulp + mp.eps * abs(root)
            if abs(mp.re(a1 * mp.conj(root))) > margin * (abs(a1) ** 2 + abs(root) ** 2):
                want = -root if abs(a1 - root) > abs(a1 + root) else root
                assert abs(b1 - want) < abs(b1 + want)

    def test_exact_ties(self):
        for a, b in ((mpf(2), mpc(0, 3)), (mpc(1, 1), mpc(1, -1)), (mpc(0, -5), mpf("0.5"))):
            assert nearer(a, b) is b
        # (-3, 1) steps to a1 = -1 and sqrt(-3) = i sqrt(3), a tie that the AGM
        # breaks towards Im(b/a) > 0; from (3, -1), i sqrt(3) already has it.
        # The integer pairs keep the exact 0 parts.
        for a, b, sign in ((-3, 1, -1), (3, -1, 1)):
            unit, pairs = abeljacobi._agm_sequence(mpf(a), mpf(b), mp.prec, mp.dps)
            assert pairs[1] == (sign << -unit, 0, 0, sign * math.isqrt(3 << (-2 * unit)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(20, 125), st.floats(-6, 6), st.floats(-6, 6))
    def test_complex_agm_is_mp_agm_on_positive_reals(self, dps, x, y):
        with mp.workdps(dps):
            a, b = mpf(10) ** mpf(x), mpf(10) ** mpf(y)
            want = mp.agm(a, b)
            assert abs(complex_agm(a, b) - want) <= mpf(10) ** -(dps - 3) * want


@st.composite
def curve_invariants(draw):
    """(g2, g3) with |g2|, |g3| in 1e-3..1e4: real, complex or near-singular."""
    shape = draw(st.sampled_from(["real", "complex", "near_singular"]))
    if shape == "near_singular":
        # g3 close to a root of g2^3 = 27 g3^2, |g3| kept inside 1e-3..1e4.
        g2 = 10 ** draw(st.floats(-1.5, 2.5)) * cmath.exp(1j * draw(st.sampled_from([0.0, 1.0, 2.2])))
        offset = draw(st.sampled_from([-1, 1])) * 10 ** -draw(st.floats(2, 8))
        return g2, cmath.sqrt(g2 ** 3 / 27) * (1 + offset)
    mags = [10 ** draw(st.floats(-3, 4)) for _ in range(2)]
    if shape == "real":
        return tuple(draw(st.sampled_from([-1, 1])) * m for m in mags)
    return tuple(m * cmath.exp(1j * draw(st.floats(0, 2 * math.pi))) for m in mags)


@st.composite
def near_singular_at_cli_precision(draw):
    """(g2, g3, digits) with g3 = sqrt(g2^3 / 27)(1 + 10^-u), u in 1..digits/2,
    rounded to digits + 10, the precision the CLI parses coefficients at."""
    digits = draw(st.sampled_from([20, 40, 100]))
    u = draw(st.integers(1, digits // 2))
    g2 = 10 ** draw(st.floats(-1.5, 2.5)) * cmath.exp(1j * draw(st.sampled_from([0.0, 1.0, 2.2])))
    with mp.workdps(digits + 10):
        g2 = mpc(g2)
        return g2, mp.sqrt(g2 ** 3 / 27) * (1 + mpf(10) ** -u), digits


def assert_invariants_on_weights(e):
    """lattice_invariants(w1, w2) reproduces (g2, g3) to 10^-(digits-3) of
    s^4 and s^6, s = max(|g2|^(1/4), |g3|^(1/6)) the curve's scale."""
    with mp.workdps(e._workdps):
        tol = mpf(10) ** (-(e.digits - 3))
        s = max(abs(e.g2) ** (mpf(1) / 4), abs(e.g3) ** (mpf(1) / 6))
        g2r, g3r = lattice_invariants(e.w1, e.w2)
        assert abs(g2r - e.g2) <= tol * s ** 4
        assert abs(g3r - e.g3) <= tol * s ** 6


def assert_round_trip(e, a, b):
    """aj([point_at(z0)] - [O]) = z0 mod L for z0 = a w1 + b w2."""
    with mp.workdps(e._workdps):
        z0 = mpf(a) * e.w1 + mpf(b) * e.w2
        z1 = e.aj(Divisor.of([(e.point_at(z0), 1), (None, -1)]))
        assert e.lattice_distance(z1 - z0) <= mpf(10) ** (-(e.digits - 3)) * abs(e.w1)


def assert_lattice_and_round_trip(g2, g3, digits, a, b):
    e = EllipticCurve(g2, g3, digits=digits)
    with mp.workdps(e._workdps):
        tol = mpf(10) ** (-(digits - 3))
        g2r, g3r = lattice_invariants(e.w1, e.w2)
        assert abs(g2r - e.g2) <= tol * max(1, abs(e.g2))
        assert abs(g3r - e.g3) <= tol * max(1, abs(e.g3))
    assert_round_trip(e, a, b)


class TestThetaWp:
    @settings(max_examples=24, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        curve_invariants(),
        st.sampled_from([20, 40, 100]),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    def test_differential_equation_and_parity(self, invariants, digits, a, b):
        e = EllipticCurve(*invariants, digits=digits)
        with mp.workdps(e._workdps):
            tol = mpf(10) ** (-(digits - 4))
            z = mpf(a) * e.w1 + mpf(b) * e.w2
            p, pp = e.wp_pair(z)
            rhs = 4 * p ** 3 - e.g2 * p - e.g3
            scale = max(1, abs(pp) ** 2, abs(4 * p ** 3), abs(e.g2 * p), abs(e.g3))
            assert abs(pp ** 2 - rhs) <= tol * scale
            pm, ppm = e.wp_pair(-z)
            assert abs(pm - p) <= tol * max(1, abs(p))
            assert abs(ppm + pp) <= tol * max(1, abs(pp))

    @pytest.mark.parametrize("g2, g3", SHAPES.values(), ids=SHAPES.keys())
    def test_half_periods_take_the_roots(self, g2, g3):
        e = EllipticCurve(g2, g3, digits=30)
        with mp.workdps(e._workdps):
            found = []
            for h in (e.w1 / 2, e.w2 / 2, (e.w1 + e.w2) / 2):
                x, _y = e.wp_pair(h)
                idx = min(range(3), key=lambda i: abs(e.roots[i] - x))
                assert abs(x - e.roots[idx]) <= mpf(10) ** (-(e.digits - 3)) * max(1, abs(x))
                found.append(idx)
            assert sorted(found) == [0, 1, 2]


class TestRegressionFence:
    @settings(max_examples=24, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        curve_invariants(),
        st.sampled_from([20, 40, 100]),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    def test_lattice_and_round_trip(self, invariants, digits, a, b):
        assert_lattice_and_round_trip(*invariants, digits, a, b)

    @settings(max_examples=24, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        curve_invariants(),
        st.sampled_from([20, 40, 100]),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    def test_agm_log_matches_carlson(self, invariants, digits, a, b):
        # Carlson's R_F integral is the independent oracle: both give the
        # logarithm up to sign and the lattice.  At the half period
        # (w1 + w2)/2 both keep only about half the working digits (the curve
        # translates points there through the branch point instead), so the
        # point stays away from it.
        assume(max(abs(a - 0.5), abs(b - 0.5)) > 0.01)
        e = EllipticCurve(*invariants, digits=digits)
        with mp.workdps(e._workdps):
            x, _y = e.point_at(mpf(a) * e.w1 + mpf(b) * e.w2)
            z = agm_log(e._walk, e.roots[1], e.roots[2], x)
            zr = abeljacobi.carlson_rf(*(x - root for root in e.roots))
            d = min(e.lattice_distance(z - zr), e.lattice_distance(z + zr))
            assert d <= mpf(10) ** (-(digits - 3)) * abs(e.w1)

    @settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(near_singular_at_cli_precision(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_near_singular_round_trip(self, curve_digits, a, b):
        # Root differences lose about half the digits by which |disc| falls
        # short of its scale; the curve adds working digits to cover them.
        assert_lattice_and_round_trip(*curve_digits, a, b)


# The first curve of each shape the identity corpus draws (tests/aj_identity.py).
CORPUS_SHAPES = {
    shape: aj_identity._invariants(shape, 20, random.Random(aj_identity.SEED)) for shape in aj_identity.COUNTS
}


class TestCurveScale:
    """Set-up thresholds are measured on the curve's weights, not on 1."""

    @pytest.mark.parametrize(
        "g2, g3, digits",
        [(1e20, 1, 40), (1e40, 1, 40), (1, 1e100, 40), (mpc(0, 1e30), 1, 40), (1e-40, 1e-40, 40)],
        ids=["g3_small_1e20", "g3_small_1e40", "g2_small", "imaginary_g2", "tiny_weights"],
    )
    def test_curves_far_from_unit_scale(self, g2, g3, digits):
        # g3 << |g2|^(3/2) cancels in 4 e1 e2 e3, and (1e-40, 1e-40) has
        # |disc| / |g3|^2 about 27: each is a valid curve on its own scale.
        e = EllipticCurve(g2, g3, digits=digits)
        assert_invariants_on_weights(e)
        assert_round_trip(e, "0.31", "0.27")
        with mp.workdps(e._workdps):
            if mp.im(e.g2) == 0 and mp.im(e.g3) == 0:
                # The real period 2 int_{e1}^inf dx / y, with x = e1 + t^2 and
                # polyroots for the roots, lies in the lattice.
                roots = mp.polyroots([4, 0, -mp.re(e.g2), -mp.re(e.g3)], maxsteps=200, extraprec=mp.prec)
                e1 = max((r for r in roots if mp.im(r) == 0), key=mp.re)
                d2, d3 = (e1 - r for r in roots if r is not e1)
                half = mp.quad(lambda t: 1 / mp.sqrt((t * t + d2) * (t * t + d3)), [0, mp.sqrt(abs(d2)), mp.inf])
                assert e.lattice_distance(2 * mp.re(half)) <= mpf(10) ** -(digits - 3) * abs(e.w1)

    @settings(max_examples=24, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(curve_invariants(), st.sampled_from([20, 40, 100]), st.integers(-10, 10))
    @example(invariants=(12, 4 * (1 + 1e-8)), digits=20, k=-10)  # near-singular, roots of size 1e-20
    @example(invariants=(20.1 + 6.7j, -1.9 + 3.9j), digits=20, k=-10)  # complex roots of size 1e-20
    @example(invariants=CORPUS_SHAPES["real_pos"], digits=20, k=-40)  # corpus curves at l = 10^-40 and 10^40
    @example(invariants=CORPUS_SHAPES["real_neg"], digits=40, k=-40)
    @example(invariants=CORPUS_SHAPES["complex"], digits=20, k=-40)
    @example(invariants=CORPUS_SHAPES["near_singular"], digits=40, k=-40)
    @example(invariants=CORPUS_SHAPES["real_pos"], digits=40, k=40)
    @example(invariants=CORPUS_SHAPES["complex"], digits=100, k=40)
    def test_weight_scaling_law(self, invariants, digits, k):
        # (g2, g3) -> (l^4 g2, l^6 g3) divides both periods by l; every
        # threshold of the set-up is measured on the curve's own weights.
        base = EllipticCurve(*invariants, digits=digits)
        lam = mpf(10) ** k
        with mp.workdps(base._workdps + 10):
            g2, g3 = lam ** 4 * mpc(invariants[0]), lam ** 6 * mpc(invariants[1])
        e = EllipticCurve(g2, g3, digits=digits)
        with mp.workdps(e._workdps):
            tol = mpf(10) ** -(digits - 3) * abs(base.w1)
            assert abs(lam * e.w1 - base.w1) <= tol
            assert abs(lam * e.w2 - base.w2) <= tol


    @pytest.mark.parametrize("rel", ["1e-15", "1e-18"])
    def test_off_curve_point_on_small_weights(self, rel):
        # On (1e-40, 1e-40), s is about 2e-7: x = 3e-14 and y = 3e-21 are of
        # the curve's size, and y (1 + rel) is off the curve by 2 rel.
        e = EllipticCurve(1e-40, 1e-40, 40)
        with mp.workdps(e._workdps):
            x = mpf("3e-14")
            y = mp.sqrt(4 * x ** 3 - e.g2 * x - e.g3)
            assert on_curve_residual(e, (x, y)) <= mpf(10) ** -(e._workdps - 3)
            with pytest.raises(CurveError, match="point is not on the curve"):
                e.elliptic_log((x, y * (1 + mpf(rel))))

    def test_near_half_period_on_small_weights(self):
        # |y| is tiny beside 1 but not beside s^3: the point is no branch point.
        for g in (1, 1e-40):
            e = EllipticCurve(g, g, 40)
            with mp.workdps(e._workdps):
                z0 = e.w1 / 2 + mpf("1e-18") * e.w1
                z = e.elliptic_log(e.point_at(z0))
                d = min(e.lattice_distance(z - z0), e.lattice_distance(z + z0))
                assert d <= mpf(10) ** -(e.digits - 3) * abs(e.w1), g

    @settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(curve_invariants(), st.integers(-10, 10), st.floats(0.05, 0.45), st.floats(0.05, 0.95))
    def test_residual_on_weights(self, invariants, k, a, b):
        # (l^4 g2, l^6 g3, l^2 x, l^3 y) is the same point on the same curve:
        # the residual of a point off by 1e-20 reads the same at every scale
        # (a < 1/2 keeps z off the half periods, where y = 0).
        base = EllipticCurve(*invariants, digits=40)
        lam = mpf(10) ** k
        with mp.workdps(base._workdps + 10):
            x, y = base.point_at(mpf(a) * base.w1 + mpf(b) * base.w2)
            y *= 1 + mpf("1e-20")
            g2, g3 = lam ** 4 * mpc(invariants[0]), lam ** 6 * mpc(invariants[1])
            scaled = (lam ** 2 * x, lam ** 3 * y)
        e = EllipticCurve(g2, g3, digits=40)
        r, r_scaled = on_curve_residual(base, (x, y)), on_curve_residual(e, scaled)
        assert r > mpf("1e-30") and abs(r_scaled - r) <= mpf("1e-10") * r


@st.composite
def root_cases(draw):
    """(g2, g3, digits): a ``curve_invariants`` draw or a curve nearer the node."""
    if draw(st.booleans()):
        return draw(near_singular_at_cli_precision())
    return (*draw(curve_invariants()), draw(st.sampled_from([20, 40, 100])))


class TestCubicRoots:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(root_cases())
    @example((4, 0, 20))  # an exact zero root and two real chops
    @example((0, 1, 40))  # one real chop beside a conjugate pair
    @example((0, mpc(0, -4), 40))  # x = i: the real part chopped
    @example((mpc(0, 2), 5, 100))
    def test_cardano_matches_polyroots(self, case):
        # Durand-Kerner (mp.polyroots) at the precision the curve used to
        # give it is the oracle: same roots, same chops, same types.
        g2, g3, digits = case
        e = EllipticCurve(g2, g3, digits=digits)
        with mp.workdps(e._workdps):
            got = cubic_roots(e.g2, e.g3, e._t)
            want = mp.polyroots([4, 0, -e.g2, -e.g3], maxsteps=200, extraprec=mp.prec)
            tol = mpf(10) ** -(e._workdps - 2) * max(abs(w) for w in want)
            match = [min(range(3), key=lambda i: abs(got[i] - w)) for w in want]
            assert sorted(match) == [0, 1, 2]
            for i, w in zip(match, want):
                r = got[i]
                assert abs(r - w) <= tol, (r, w)
                assert type(r) is type(w), (r, w)
                assert (r == 0) == (w == 0) and (mp.re(r) == 0) == (mp.re(w) == 0), (r, w)


    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(root_cases())
    @example((4, 0, 20))
    @example((-4, -2, 40))
    @example((mpc(3, 1), mpc(-1, 2), 100))
    def test_integer_cardano_matches_mpc_formula(self, case):
        # The integer Cardano against the mpc formula it replaced, at twice
        # the working precision plus 20 digits: every root to 10^-(2 workdps - 5)
        # of the largest before its working-precision rounding.
        g2, g3, digits = case
        e = EllipticCurve(g2, g3, digits=digits)
        with mp.workdps(e._workdps):
            got = cubic_roots(e.g2, e.g3, e._t)
            with mp.workdps(2 * e._workdps + 20):
                want = reference_cubic_roots(e.g2, e.g3)
                size = max(abs(w) for w in want)
                for g in got:
                    assert min(abs(g - w) for w in want) <= mpf(10) ** -(e._workdps - 2) * size, (g, want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(40, 3000), st.floats(0, 2 * math.pi), st.sampled_from(["generic", "real", "imaginary"]))
    @example(200, math.pi, "real")  # a negative real: its real cube root
    def test_ccbrt_matches_mpc(self, bits, angle, kind):
        # A cube root within 2 units, the real one of a real input.
        with mp.workprec(bits + 30):
            v = mp.expj(angle)
            v = {"generic": v, "real": mpc(v.real, 0), "imaginary": mpc(0, v.imag)}[kind]
            re, im = abeljacobi._fixed(v, 3 * bits)
            assume(re or im)  # Cardano's v is never 0 (that curve is singular)
            ur, ui = abeljacobi._ccbrt(re, im)
            u = mpc(ur, ui) / mpf(2) ** bits
            assert abs(u ** 3 - mpc(re, im) / mpf(2) ** (3 * bits)) <= 8 * mpf(2) ** -bits
            if not im:
                assert ui == 0


def reference_cubic_roots(g2, g3):
    """Cardano's roots as the mpc formula at the current precision: u^3 =
    g3/8 +- sqrt(g3^2/64 - g2^3/1728), x = u + g2 / (12 u)."""
    t, s = g3 / 8, mp.sqrt(g3 * g3 / 64 - g2 ** 3 / 1728)
    u = mp.cbrt(t + nearer(t, s))
    omega = mp.expj(2 * mp.pi / 3)
    return [v + g2 / (12 * v) for v in (u, u * omega, u * omega ** 2)]


def residual_by_moduli(e, pt, extra=0):
    """The on-curve residual with moduli, the reference for the squared
    comparisons: |y^2 - rhs| / max(|y^2|, |rhs|, s^6), at ``extra`` digits
    beyond the working precision."""
    with mp.workdps(e._workdps + extra):
        x, y = mpc(pt[0]), mpc(pt[1])
        lhs, rhs = y ** 2, 4 * x ** 3 - e.g2 * x - e.g3
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), sizes(e)[1] ** 2)


def miss_by_moduli(e, pt, z):
    """The miss residual of z with moduli, the reference for the squared
    comparisons: wp'(z) signed towards y, then
    max(|wp - x| / max(|x|, s^2), |wp' - y| / max(|y|, s^3))."""
    with mp.workdps(e._workdps):
        x, y = mpc(pt[0]), mpc(pt[1])
        p, pp = e.wp_pair(z)
        if abs(pp - y) > abs(pp + y):
            pp = -pp
        s2, s3 = sizes(e)
        return max(abs(p - x) / max(abs(x), s2), abs(pp - y) / max(abs(y), s3))


@st.composite
def log_points(draw):
    """(curve, z0): a curve_invariants draw at 20, 40 or 100 digits and z0 in
    the cell, either generic or at 10^-k w1 from a half period."""
    e = EllipticCurve(*draw(curve_invariants()), digits=draw(st.sampled_from([20, 40, 100])))
    with mp.workdps(e._workdps):
        if draw(st.booleans()):
            return e, mpf(draw(st.floats(0.05, 0.95))) * e.w1 + mpf(draw(st.floats(0.05, 0.95))) * e.w2
        half = draw(st.sampled_from([e.w1 / 2, e.w2 / 2, (e.w1 + e.w2) / 2]))
        return e, half + draw(st.sampled_from([1, -1])) * mpf(10) ** -draw(st.integers(1, 30)) * e.w1


def reported_translation_case():
    """(curve, z0) of a reported translation-law draw: z0 = w1/2 + 0.1 w1
    on the real curve (1, 1) at 100 digits."""
    e = EllipticCurve(1, 1, digits=100)
    with mp.workdps(e._workdps):
        return e, e.w1 / 2 + mpf(10) ** -1 * e.w1


def tied_roots_translation_case():
    """(curve, z0) of a translation-law draw, (1, 1 + 8.07e-303 i) at 100
    digits: the complex roots' real parts agree far below the working
    precision, so the curve and its digits + 40 copy sort them apart."""
    return EllipticCurve(1, mpc(1, 8.06541460369852e-303), digits=100), mpc("1.7211617829476653")


def near_half_period_case():
    """(curve, z0) with z0 = w2/2 + 10^-21 w1 at 20 digits: coordinates
    (1e-21, 1/2), whose 1e-21 frac_coords takes as 0."""
    e = EllipticCurve(4, 0, digits=20)
    with mp.workdps(e._workdps):
        return e, e.w2 / 2 + mpf(10) ** -21 * e.w1


class TestLogContract:
    """One reduction per aj, squared-modulus tests, thresholds kept."""

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(log_points())
    def test_elliptic_log_in_the_fundamental_cell(self, case):
        e, z0 = case
        z = e.elliptic_log(e.point_at(z0))
        with mp.workdps(e._workdps):
            a, b = solve_coords(z, e.w1, e.w2)
            tol = mpf(10) ** -(e._workdps - 5)
            assert -tol <= a < 1 + tol and -tol <= b < 1 + tol
            assert min(e.lattice_distance(z - z0), e.lattice_distance(z + z0)) <= mpf(10) ** -(e.digits - 3) * abs(e.w1)

    @settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(log_points(), st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.integers(-3, 3)),
                                  min_size=1, max_size=3))
    @example(case=near_half_period_case(), extra=[(0.5, 0.5, 1)])
    def test_aj_is_the_reduced_sum_of_logarithms(self, case, extra):
        # aj sums unreduced logarithms and reduces once; elliptic_log reduces
        # each.  Both give the same point of C/L at digits: frac_coords takes
        # a coordinate within 10^-digits of an integer as that integer, so a
        # logarithm at 10^-21 w1 from a half period loses that part when
        # reduced alone (near_half_period_case).
        e, z0 = case
        with mp.workdps(e._workdps):
            entries = [(e.point_at(z0), 1), ((e.roots[0], 0), 2)]
            entries += [(e.point_at(mpf(a) * e.w1 + mpf(b) * e.w2), m) for a, b, m in extra]
            entries.append((None, -sum(m for _pt, m in entries)))
            a, b = e.frac_coords(sum(m * e.elliptic_log(pt) for pt, m in entries))
            want = a * e.w1 + b * e.w2
            got = e.aj(Divisor.of(entries))
            assert e.lattice_distance(got - want) <= mpf(10) ** -e.digits * abs(e.w1)

    def test_one_frac_coords_per_aj(self, monkeypatch, lemniscatic):
        # One reduction (_reduce, which frac_coords also calls) per aj.
        e = lemniscatic
        calls = []
        reduce = EllipticCurve._reduce

        def spy(self, z):
            calls.append(z)
            return reduce(self, z)

        monkeypatch.setattr(EllipticCurve, "_reduce", spy)
        with mp.workdps(e._workdps):
            p, q = point_from_x(e, mpf(2), 1), point_from_x(e, mpc(1, 3), -1)
            near = e.point_at(e.w2 / 2 + mpf("1e-30") * e.w1)
        e.aj(Divisor.of([(p, 2), (q, -1), ((e.roots[1], 0), 1), (near, 1), (None, -3)]))
        assert len(calls) == 1
        calls.clear()
        e.elliptic_log((e.roots[1], 0))  # a branch point: its half period's triple, reduced once
        assert calls == [e._half_exact[1]]

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(curve_invariants(), st.floats(0.05, 0.45), st.floats(0.05, 0.95), st.integers(-40, -1))
    def test_on_curve_residual_matches_moduli(self, invariants, a, b, k):
        # The check is exact on x and y truncated to W = prec + 16 bits below
        # their weights' size, so against the moduli at 20 more digits it
        # errs by a few units of 2^-W beside its relative rounding.
        e = EllipticCurve(*invariants, digits=40)
        with mp.workdps(e._workdps):
            x, y = e.point_at(mpf(a) * e.w1 + mpf(b) * e.w2)
            for pt in ((x, y), (x, y * (1 + mpf(10) ** k)), (x * (1 + mpf(10) ** k), y)):
                want, got = residual_by_moduli(e, pt, 20), on_curve_residual(e, pt)
                assert abs(got - want) <= mpf(10) ** -(e._workdps - 3) * want + mpf(2) ** (8 - e._bits)

    @pytest.mark.parametrize("g2, g3", SHAPES.values(), ids=SHAPES.keys())
    def test_on_curve_threshold_and_message(self, g2, g3):
        # y (1 + delta) is off the curve by about 2 delta |y^2| / s^6: a point
        # just above 10^-(digits-2) raises with the residual the moduli give,
        # also from elliptic_log; one just below passes the check.
        e = EllipticCurve(g2, g3, digits=30)
        limit = mpf(10) ** -(e.digits - 2)
        with mp.workdps(e._workdps):
            x, y = e.point_at(mpf("0.3") * e.w1 + mpf("0.2") * e.w2)
            for factor in ("1.01", "0.99"):
                delta = mpf(factor) * limit / 2
                for _ in range(3):  # y(1 + delta) gives residual r(delta); aim r at factor * limit
                    delta *= mpf(factor) * limit / residual_by_moduli(e, (x, y * (1 + delta)))
                pt = (x, y * (1 + delta))
                res = residual_by_moduli(e, pt)
                if res > limit:
                    with pytest.raises(CurveError) as info:
                        require_on_curve(e, pt)
                    assert str(info.value) == f"point is not on the curve: residual {mp.nstr(res, 8)}"
                    with pytest.raises(CurveError, match="point is not on the curve"):
                        e.elliptic_log(pt)
                else:
                    require_on_curve(e, pt)

    @pytest.mark.parametrize("g2, g3", SHAPES.values(), ids=SHAPES.keys())
    def test_miss_threshold_and_message(self, monkeypatch, g2, g3):
        # _agm_log patched to z + eps w1: the miss residual grows like eps; a
        # miss just above 10^-(digits-3) raises with the residual the moduli
        # give, one just below is returned.
        e = EllipticCurve(g2, g3, digits=30)
        limit = mpf(10) ** -(e.digits - 3)
        agm_log = abeljacobi._agm_log
        with mp.workdps(e._workdps):
            z0 = mpf("0.3") * e.w1 + mpf("0.2") * e.w2
            pt = e.point_at(z0)
        for factor in ("1.05", "0.95"):
            with mp.workdps(e._workdps):
                eps = limit
                for _ in range(3):
                    eps *= mpf(factor) * limit / miss_by_moduli(e, pt, z0 + eps * e.w1)
                wrong = z0 + eps * e.w1
                res = miss_by_moduli(e, pt, wrong)
            monkeypatch.setattr(abeljacobi, "_agm_log", lambda walk, d3, d2, prec: abeljacobi._exact(wrong))
            if res > limit:
                with pytest.raises(CurveError) as info:
                    e.elliptic_log(pt)
                assert str(info.value) == f"elliptic logarithm misses the point: residual {mp.nstr(res, 8)}"
            else:
                with mp.workdps(e._workdps):
                    assert e.lattice_distance(e.elliptic_log(pt) - wrong) <= mpf(10) ** -(e._workdps - 5) * abs(e.w1)
            monkeypatch.setattr(abeljacobi, "_agm_log", agm_log)

    def test_small_y_off_the_curve_is_named(self):
        # |y| is about 0.015 beside s^3 about 2.3: y (1 + 2.5e-25) passes the
        # on-curve check (residual 2.2e-29 < 10^-28) but is off the curve by
        # 1.7e-27 on y's weight, beyond the miss check's 10^-27.
        e = EllipticCurve(3, "1.000000000001", 30)
        with mp.workdps(e._workdps):
            x, y = e.point_at(mpf("0.3") * e.w1 + mpf("0.2") * e.w2)
            pt = (x, y * (1 + mpf("2.5e-25")))
        assert on_curve_residual(e, pt) < mpf(10) ** -(e.digits - 2)
        require_on_curve(e, pt)
        with pytest.raises(CurveError) as info:
            e.elliptic_log(pt)
        assert str(info.value).startswith("point is not on the curve: residual 1.65")
        with pytest.raises(CurveError, match="point is not on the curve"):
            e.aj(Divisor.of([(pt, 1), (None, -1)]))


# (g2, g3) of the near-half-period sweep: real with positive discriminant,
# complex, and tiny weights.
SWEEP_CURVES = {"real_pos": (4, 0), "complex": (mpc(3, 1), mpc(-1, 2)), "tiny_weights": (1e-40, 1e-40)}


class TestNearHalfPeriod:
    """Points at 10^-k |w1| from a half period: x has lost about 2k digits,
    y keeps them, and the logarithm translates through the branch point."""

    @pytest.mark.parametrize("digits", [40, 100])
    @pytest.mark.parametrize("g2, g3", SWEEP_CURVES.values(), ids=SWEEP_CURVES.keys())
    def test_sweep_over_k(self, g2, g3, digits):
        # Points from a curve at digits + 40; every answer within
        # 10^-digits |w1| of z0.  From k = 29 on, the logarithm of x alone
        # misses the point at both precisions; from k = workdps on, the
        # distance lies below the working precision.
        e, ref = EllipticCurve(g2, g3, digits), EllipticCurve(g2, g3, digits + 40)
        ks = sorted({*range(29, 38), digits - 2, digits + 10, e._workdps - 1, e._workdps, e._workdps + 9})
        for h in range(3):
            for k in ks:
                with mp.workdps(ref._workdps):
                    z0 = (ref.w1 / 2, ref.w2 / 2, (ref.w1 + ref.w2) / 2)[h] + mpf(10) ** -k * ref.w1
                    pt = ref.point_at(z0)
                z = e.elliptic_log(pt)
                with mp.workdps(ref._workdps):
                    d = min(ref.lattice_distance(z - z0), ref.lattice_distance(z + z0))
                    assert d <= mpf(10) ** -digits * abs(ref.w1), (h, k, mp.nstr(d, 5))

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(log_points(), st.integers(0, 2))
    @example(reported_translation_case(), 1)
    @example(tied_roots_translation_case(), 1)
    def test_translation_law(self, case, i):
        # P + T_i = (e_i + C / (x - e_i), -C y / (x - e_i)^2), with
        # C = (e_i - e_j)(e_i - e_k): z(P + T_i) = z(P) + w_i mod L, w_i the
        # half period of the branch point T_i = (e_i, 0).  Near w_i, x - e_i
        # keeps few digits, so both points come from a curve at digits + 40,
        # and T_i is the curve's root nearest that curve's e_i: roots whose
        # real parts tie below the working precision sort by rounding.
        e, z0 = case
        ref = EllipticCurve(e.g2, e.g3, e.digits + 40)
        with mp.workdps(ref._workdps):
            x, y = ref.point_at(z0)
            ei, ej, ek = ref.roots[i], ref.roots[i - 1], ref.roots[i - 2]
            assume(abs(x - ei) > mpf(10) ** -(ref._workdps - 10) * max(1, abs(ei)))
            c = (ei - ej) * (ei - ek)
            moved = (ei + c / (x - ei), -c * y / (x - ei) ** 2)
        with mp.workdps(e._workdps):
            w_i = e.elliptic_log((min(e.roots, key=lambda r: abs(r - ei)), 0))
            d = e.lattice_distance(e.elliptic_log(moved) - e.elliptic_log((x, y)) - w_i)
            assert d <= mpf(10) ** -(e.digits - 3) * abs(e.w1)

    def test_far_points_take_the_inverse_square_root(self):
        # Beyond |x| = 10^(workdps/2) s^2 the logarithm is x^(-1/2), which
        # the AGM walk reproduces there; far beyond it the walk would run on
        # integers of log2|x| bits, and the point or the translated point
        # still answers at once.
        e = EllipticCurve(4, 0, digits=40)
        with mp.workdps(e._workdps):
            x = mp.sqrt(mp.ldexp(e._far2[0], e._far2[1])) * mpc(3, 1)
            z = agm_log(e._walk, e.roots[1], e.roots[2], x)
            assert min(abs(z - 1 / mp.sqrt(x)), abs(z + 1 / mp.sqrt(x))) <= mpf(10) ** -(e._workdps - 3) * abs(z)
            far = point_from_x(e, mpf(10) ** 200000, 1)
            tiny_y = (e.roots[0], mpf(10) ** -100000)
        with pytest.raises(CurveError, match="lattice point"):
            e.elliptic_log(far)
        with mp.workdps(e._workdps):
            assert e.lattice_distance(e.elliptic_log(tiny_y) - e.w1 / 2) <= mpf(10) ** -(e._workdps - 5)


def reference_log_start(e2, e3, x):
    """``_log_start`` as the mpc step it replaced: c = sqrt(x - e3), then
    c <- (c + s)/2 with s = sqrt(x - e2) taken nearer c."""
    c = mp.sqrt(x - e3)
    return (c + nearer(c, mp.sqrt(x - e2))) / 2


def reference_log_starts(e2, e3, x, tie):
    """The values ``_log_start`` may give: the reference step, and where
    |Re(c conj(s))| <= tie |c| |s| (c and s so nearly orthogonal that s and
    -s are equally near c up to rounding) the step with -s as well."""
    c, s = mp.sqrt(x - e3), mp.sqrt(x - e2)
    if abs(c.real * s.real + c.imag * s.imag) <= tie * abs(c) * abs(s):
        return [(c + s) / 2, (c - s) / 2]
    return [reference_log_start(e2, e3, x)]


@st.composite
def log_start_cases(draw):
    """(dps, a, b, roots, x): a and b as in agm_cases with |a| in
    1e-10..1e10, so the roots e1, e2 = e1 - b^2, e3 = e1 - a^2 have weights
    from 1e-20 to 1e20; x either at a quarter of one root's gap from it, the
    nearest a point gets before the logarithm translates it, or
    x = e1 + t h^2, h the larger of a and b, with |t| from 0.1 up to the far
    path's threshold 10^(dps/2)."""
    dps = draw(st.integers(20, abeljacobi.MAX_DIGITS + 25))
    size, ratio = draw(st.floats(-10, 10)), draw(st.floats(-12, 0))
    i = draw(st.integers(0, 3))
    with mp.workdps(dps):
        a = mpf(10) ** size * mp.expj(draw(st.floats(0, 2 * math.pi)))
        b = a * mpf(10) ** ratio * mp.expj(draw(st.floats(-0.45, 0.45)) * mp.pi)
        if draw(st.booleans()):
            a, b = b, a
        h2 = max(abs(a), abs(b)) ** 2
        e1 = h2 * mpc(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
        roots = (e1, e1 - b * b, e1 - a * a)
        direction = mp.expj(draw(st.floats(0, 2 * math.pi)))
        if i < 3:
            gap = min(abs(roots[i] - r) for j, r in enumerate(roots) if j != i)
            x = roots[i] + gap / 4 * direction
        else:
            x = e1 + mpf(10) ** draw(st.floats(-1, dps / 2)) * h2 * direction
        return dps, a, b, roots, x


def reference_wp_pair_theta(e, z):
    """``wp_pair`` as the mpc formula it replaced, on the plain mpc theta
    loop: wp = k^2 [(theta2 theta3 theta4(v) / theta1(v))^2 - (theta2^4 + theta3^4)/3],
    wp' = -2 k^3 (theta2 theta3 theta4)^2 theta2(v) theta3(v) theta4(v) / theta1(v)^3."""
    r1, r2 = e._reduced
    a, b = solve_coords(z, r1, r2)
    z = z - mp.nint(a) * r1 - mp.nint(b) * r2
    k, q4 = mp.pi / r1, mp.expj(mp.pi * (r2 / r1) / 4)
    _zero, t2, t3, t4 = reference_theta(q4, mp.zero)
    th1, th2, th3, th4 = reference_theta(q4, k * z)
    inv = 1 / th1
    p = k * k * ((t2 * t3 * th4 * inv) ** 2 - (t2 ** 4 + t3 ** 4) / 3)
    pp = -2 * k * (k * t2 * t3 * t4) ** 2 * th2 * th3 * th4 * inv ** 3
    return p, pp


class TestIntegerGlue:
    """The integer step of pair 0, (wp, wp') from the integer theta sums, and
    the facts the set-up derives once, against what they replaced."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(log_start_cases())
    @example((1025, mpc(1, 0), mpc("1e-12", "1e-13"), (mpc(2, 1), mpc(2, 1) - mpc("1e-12", "1e-13") ** 2, mpc(1, 1)),
              mpc("1e500", "1e500")))
    @example((20, mpc("1e10", 0), mpc(0, "1e-2"), (mpc("1e20", 0), mpc("1e20", "1e-4"), mpc(0, 0)), mpc("2.5e19", 0)))
    # x - e3 and x - e2 opposite imaginaries: an exact tie between the two roots.
    @example((20, mpc(1, "3.69e-38"), mpc(1, 0), (mpc(0, 0), mpc(-1, 0), mpc(-1, "-7.38e-38")), mpc(-1, "-1.40e-38")))
    def test_log_start_matches_mpc_step(self, case):
        # Both round absolutely in the AGM's unit 2^unit, apart from the
        # relative rounding of x - e3 and x - e2 at the working precision.
        # Where the two roots are orthogonal to rounding, both signs are
        # equally near and either step is right.
        dps, a, b, (_e1, e2, e3), x = case
        with mp.workdps(dps):
            unit, _pairs = abeljacobi._agm_sequence(a, b, mp.prec, mp.dps)
            cr, ci = log_start(unit, e2, e3, x)
            bound, tie = 2 - mp.prec, mpf(2) ** (8 - mp.prec)
        with mp.workdps(dps + 20):
            wants = reference_log_starts(e2, e3, x, tie)
            got = abeljacobi._unfixed(cr, ci, unit)
            assert any(abs(got - want) <= mpf(2) ** (unit + 3) + mpf(2) ** bound * abs(want) for want in wants), (got, wants)

    @pytest.mark.parametrize("digits", [10, 40, 100, 1000])
    def test_log_start_on_a_real_curve_keeps_an_exact_zero_part(self, digits):
        # e2 = conj(e3) and a real x: sqrt(x - e2) is exactly conj(sqrt(x - e3)),
        # so c is exactly real, or exactly imaginary where Re(x - e3) < 0,
        # as the mpc step gives it.
        e = EllipticCurve(-4, 2, digits=digits)
        e1, e2, e3 = e.roots
        with mp.workdps(e._workdps):
            assert e2 == mp.conj(e3) and e1.imag == 0
            for x in (e1 + 1, e1 + mpf("1e-9"), e3.real - 1, mpf(10) ** 30, -mpf(10) ** 30, mpf(0)):
                cr, ci = log_start(e._walk[0], e2, e3, mpc(x))
                want = reference_log_start(e2, e3, mpc(x))
                assert (ci == 0, cr == 0) == (want.imag == 0, want.real == 0) and (ci == 0 or cr == 0), x
                assert (ci == 0) == (x > e3.real)

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(curve_invariants(), st.sampled_from([20, 40, 100]), st.floats(0.05, 0.95), st.floats(0.05, 0.95),
           st.floats(0, 2 * math.pi))
    @example((4, 0), 40, 0.3, 0.2, 1.0)
    @example((1e-40, 1e-40), 20, 0.7, 0.6, 2.0)
    @example((mpc(3, 1), mpc(-1, 2)), 100, 0.45, 0.55, 0.5)
    def test_wp_pair_matches_mpc_formula(self, invariants, digits, a, b, phase):
        # A generic z, z within 10^-(workdps-6) rho of the lattice point 0
        # (ten times the pole's tolerance; near another lattice point the
        # reduction's rounding would dominate), and the three half periods,
        # where wp' = 0: wp to 10^-(workdps-3) of max(|wp|, s^2), wp' of
        # max(|wp'|, s^3).
        e = EllipticCurve(*invariants, digits=digits)
        with mp.workdps(e._workdps):
            tol = mpf(10) ** -(e._workdps - 3)
            w1, w2 = e.w1, e.w2
            near = mpf(10) ** -(e._workdps - 6) * rho(e) * mp.expj(phase)
            s2, s3 = sizes(e)
            zs = [mpf(a) * w1 + mpf(b) * w2, near, -near, near * 1j, w1 / 2, w2 / 2, (w1 + w2) / 2]
            for z in zs:
                p, pp = e.wp_pair(z)
                with mp.workdps(e._workdps + 20):
                    rp, rpp = reference_wp_pair_theta(e, z)
                    assert abs(p - rp) <= tol * max(abs(rp), s2), z
                    assert abs(pp - rpp) <= tol * max(abs(rpp), s3), z

    @settings(max_examples=30, deadline=None)
    @given(curve_invariants(), st.sampled_from([20, 40, 100]),
           st.integers(-6, 6), st.integers(-6, 6))
    def test_reduction_matrix(self, invariants, digits, q, r):
        # Start from the basis M (w1, w2), M = ((1, q), (0, 1)) ((1, 0), (r, 1))
        # in SL_2(Z), so that the reduction takes several steps: the matrix it
        # returns is integral with determinant 1 and maps the basis it was
        # given to (r1, r2).
        e = EllipticCurve(*invariants, digits=digits)
        with mp.workdps(e._workdps):
            v1, v2 = (1 + q * r) * e.w1 + q * e.w2, r * e.w1 + e.w2
            r1, r2, (a, b, c, d) = reduce_tau(v1, v2)
            assert all(type(x) is int for x in (a, b, c, d)) and a * d - b * c == 1
            tol = mpf(10) ** -(e._workdps - 5) * (abs(v1) + abs(v2))
            assert abs(a * v1 + b * v2 - r1) <= tol and abs(c * v1 + d * v2 - r2) <= tol
            tau, slack = r2 / r1, mpf(10) ** -(e._workdps - 2)
            assert abs(tau.real) <= mpf("0.5") + slack and abs(tau) >= 1 - slack

    @pytest.mark.parametrize("g2, g3", [*SHAPES.values(), (3, "1.00000000000000000000000000000001")],
                             ids=[*SHAPES.keys(), "near_singular_1e-32"])
    def test_stored_nome_exponent(self, g2, g3):
        # L = pi Im(tau), stored at set-up for the theta sums' term count.
        e = EllipticCurve(g2, g3, digits=40)
        with mp.workdps(e._workdps):
            want = float(-4 * mp.log(abs(abeljacobi._unfixed(*e._q4))))
        assert type(e._big_l) is float
        assert abs(e._big_l - want) <= 4 * sys.float_info.epsilon * want

    @pytest.mark.parametrize("g2, g3", SHAPES.values(), ids=SHAPES.keys())
    def test_lone_branch_point_is_reduced_once(self, monkeypatch, g2, g3):
        # aj([T] - [O]) takes the one path of every divisor: the branch
        # point's logarithm is its exact half-period triple, reduced once,
        # which leaves it w1/2, w2/2 or (w1 + w2)/2 at the working precision,
        # a different one for each root.
        e = EllipticCurve(g2, g3, digits=30)
        with mp.workdps(e._workdps):
            halves = [e.w1 / 2, e.w2 / 2, (e.w1 + e.w2) / 2]
        calls = []
        reduce = EllipticCurve._reduce
        monkeypatch.setattr(EllipticCurve, "_reduce", lambda self, z: calls.append(z) or reduce(self, z))
        found = set()
        for i, root in enumerate(e.roots):
            for entries in ([((root, 0), 1), (None, -1)], [(None, -1), ((root, 0), 1)], [((root, 0), 1), (None, -1), (None, 0)]):
                found.add(halves.index(e.aj(Divisor(entries))))
                assert calls == [e._half_exact[i]]
                calls.clear()
        assert found == {0, 1, 2}
        for entries in ([((e.roots[0], 0), -1), (None, 1)], [((e.roots[0], 0), 2), (None, -2)],
                        [((e.roots[0], 0), 1), ((e.roots[1], 0), 1), (None, -2)]):
            e.aj(Divisor(entries))
            assert len(calls) == 1
            calls.clear()


def fixed_sqrt(z):
    """The principal square root of the mpc z by ``_csqrt`` with 10 guard
    bits, rounded once to the current precision."""
    if not z:
        return mpc(0)
    k = (abeljacobi._mag(z) >> 1) - mp.prec - 10  # z in units of 2^(2k), the root in 2^k
    return abeljacobi._unfixed(*_elementary._csqrt(*abeljacobi._fixed(z, -2 * k)), k)


@st.composite
def complex_values(draw):
    """(dps, z): z = 10^size e^(i angle) with |size| <= 30, or its real or
    imaginary part alone, or 0."""
    dps = draw(st.integers(15, 400))
    kind = draw(st.sampled_from(["generic", "real", "imaginary", "zero"]))
    with mp.workdps(dps):
        z = mpf(10) ** draw(st.floats(-30, 30)) * mp.expj(draw(st.floats(0, 2 * math.pi)))
        z = {"generic": z, "real": mpc(z.real, 0), "imaginary": mpc(0, z.imag), "zero": mpc(0)}[kind]
    return dps, z


@st.composite
def real_invariants(draw):
    """(g2, g3, digits): real coefficients of either sign with |g2|, |g3| in
    1e-3..1e4, away from the node, at 20, 40 or 100 digits."""
    g2 = draw(st.sampled_from([-1, 1])) * 10 ** draw(st.floats(-3, 4))
    g3 = draw(st.sampled_from([-1, 1])) * 10 ** draw(st.floats(-3, 4))
    assume(abs(g2 ** 3 - 27 * g3 ** 2) > 1e-6 * max(abs(g2) ** 3, 27 * g3 ** 2))
    return g2, g3, draw(st.sampled_from([20, 40, 100]))


class TestIntegerSetUp:
    """The set-up and point checks on integers against the mpc arithmetic
    they replaced, at 20 more digits."""

    @settings(max_examples=40, deadline=None)
    @given(complex_values())
    @example((30, mpc(-4, 0)))  # a negative real: exactly imaginary
    @example((30, mpc("1e-30", "1e30")))  # one part far below the other
    def test_sqrt_matches_mpc(self, case):
        dps, z = case
        with mp.workdps(dps):
            got, got_conj = fixed_sqrt(z), fixed_sqrt(mp.conj(z))
            conj = mp.conj(got)
            bound = mpf(2) ** (1 - mp.prec)
        with mp.workdps(dps + 20):
            want = mp.sqrt(z)
            assert abs(got - want) <= bound * abs(want), (got, want)
        if z.imag == 0:  # a real z: an exactly real or exactly imaginary root
            assert (got.imag == 0) if z.real >= 0 else (got.real == 0)
        if z.imag or z.real >= 0:  # off the branch cut: the conjugate root, exactly
            assert got_conj == conj

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(theta_cases())
    @example((1025, 0.0, 80.0, 0.0, 0.0, 0))  # the smallest |q| at the largest precision
    @example((45, 0.5, math.sqrt(0.75), 0.0, 0.0, 0))  # the corner of the domain, the largest |q|
    def test_theta_constants_match_mpc_loop(self, case):
        # The theta constants are the theta sums at v = 0, as _theta_lattice
        # takes them: theta1 is an exact 0 there.
        dps, x, y, *_rest = case
        zero = (0, 0, 0)
        with mp.workdps(dps):
            q4 = mp.expj(mp.pi * mpc(x, y) / 4)
            (theta1, *consts), exp = _fixedpoint._theta_sums(
                abeljacobi._exact(q4), float(mp.pi * y), zero, mp.prec, mp.dps)
            assert theta1 == (0, 0)
            got = [abeljacobi._unfixed(re, im, exp) for re, im in consts]
            with mp.workdps(dps + 20):
                _theta1, *want = reference_theta(q4, mp.zero)
            for g, w in zip(got, want):
                assert abs(g - w) <= mpf(10) ** -(dps - 2) * abs(w), (g, w)
        with mp.workdps(dps):  # a real nome gives exactly real constants
            q4 = abeljacobi._exact(mp.expj(mp.pi * mpc(0, y) / 4))
            consts, _exp = _fixedpoint._theta_sums(q4, float(mp.pi * y), zero, mp.prec, mp.dps)
            assert all(im == 0 for _re, im in consts)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(curve_invariants(), st.sampled_from([20, 40, 100]))
    @example((4, 0), 40)
    @example((mpc(3, 1), mpc(-1, 2)), 100)
    @example((1e-3, -1e4), 20)
    def test_theta_lattice_matches_mpc_formula(self, invariants, digits):
        # e_i = k^2 (...)/3, g2 = 2 sum e_i^2, g3 = 4 e1 e2 e3, K2 and K3 as
        # the mpc formula gave them, each to 10^-(workdps-3) of its weight's size.
        e = EllipticCurve(*invariants, digits=digits)
        s2, s3 = sizes(e)
        with mp.workdps(e._workdps):
            (r1, r2), bits, t = e._reduced, e._bits, e._t
            k, q4, _big_l, k2, k3, es, g2, g3 = abeljacobi._theta_lattice(*e._basis[1][:3], t, mp.prec, mp.dps)
            k, q4, k2, k3 = (abeljacobi._unfixed(*v) for v in (k, q4, k2, k3))
            got_e = [abeljacobi._unfixed(*v, 2 * t - bits) for v in es]
            got_g = abeljacobi._unfixed(*g2, 4 * t - bits), abeljacobi._unfixed(*g3, 6 * t - bits)
            tol = mpf(10) ** -(e._workdps - 3)
            with mp.workdps(e._workdps + 20):
                kk = mp.pi / r1
                _theta1, t2, t3, t4 = reference_theta(q4, mp.zero)
                c = kk * kk / 3
                want_e = [c * (t3 ** 4 + t4 ** 4), c * (t2 ** 4 - t4 ** 4), -c * (t2 ** 4 + t3 ** 4)]
                assert all(abs(g - w) <= tol * s2 for g, w in zip(got_e, want_e)), (got_e, want_e)
                assert abs(got_g[0] - 2 * sum(w * w for w in want_e)) <= tol * s2 ** 2
                assert abs(got_g[1] - 4 * want_e[0] * want_e[1] * want_e[2]) <= tol * s3 ** 2
                assert abs(k - kk) <= tol * abs(kk)
                want_k2, want_k3 = (kk * t2 * t3) ** 2, -2 * kk * (kk * t2 * t3 * t4) ** 2
                assert abs(k2 - want_k2) <= tol * abs(want_k2) and abs(k3 - want_k3) <= tol * abs(want_k3)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(real_invariants())
    @example((4, 0, 20))
    @example((-4, 2, 40))
    @example((-4, -2, 40))  # a negative radicand: its real cube root
    @example((12, 4, 100))
    def test_real_curves_keep_exact_zero_parts(self, case):
        # Positive discriminant: three roots with exact 0 imaginary parts and
        # a rectangular lattice; negative: one root an mpf, the other two
        # exactly conjugate.  The integer roots and theta values keep them.
        g2, g3, digits = case
        e = EllipticCurve(g2, g3, digits=digits)
        with mp.workdps(e._workdps):
            if e.discriminant.real > 0:
                assert all(type(r) is mpc and r.imag == 0 for r in e.roots)
                assert e.w1.imag == 0 and e.w2.real == 0
                assert all(im == 0 for _re, im in e._roots_fixed)
                *_head, es, g2f, g3f = abeljacobi._theta_lattice(*e._basis[1][:3], e._t, mp.prec, mp.dps)
                assert all(im == 0 for _re, im in es) and g2f[1] == 0 and g3f[1] == 0
            else:
                real = [r for r in e.roots if type(r) is mpf]
                pair = [r for r in e.roots if type(r) is mpc]
                assert len(real) == 1 and len(pair) == 2 and pair[0] == mp.conj(pair[1])
                assert e.g2.imag == 0 and e.g3.imag == 0

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(log_points(), st.integers(-30, 0))
    def test_point_tests_match_mpc_moduli(self, case, k):
        # The nearest root, the branch-point size max(|x|^2, s^4) and the
        # half-period gap, read on integers, agree with the mpc moduli at 20
        # more digits to a few units of 2^-W of the weight's size; the point
        # is moved by 10^k of its size off z0 to reach every distance.
        e, z0 = case
        with mp.workdps(e._workdps):
            x, y = e.point_at(z0)
            x = x * (1 + mpf(10) ** k)
            bits = e._bits
            t, big_x, _big_y = e._fixed_point(x, mpc(0))
            dt = t - e._t
            dist = [abeljacobi._dist2(big_x, (er >> 2 * dt, ei >> 2 * dt)) for er, ei in e._roots_fixed]
            gaps = [g >> 4 * dt for g in e._gaps]
            unit = mpf(2) ** (2 * (2 * t - bits))
            slack = mpf(2) ** (8 - bits) * mpf(2) ** (4 * t)
            with mp.workdps(e._workdps + 20):
                want = [abs(x - r) ** 2 for r in e.roots]
                for d, w in zip(dist, want):
                    assert abs(d * unit - w) <= slack, (d * unit, w)
                want_gaps = [min(abs(r - e.roots[i - 1]), abs(r - e.roots[i - 2])) ** 2 for i, r in enumerate(e.roots)]
                for g, w in zip(gaps, want_gaps):
                    assert abs(g * unit - w) <= slack
                # s^4 is a threshold's size, taken before a near-singular
                # curve adds working digits: 10^-(digits + 20) of itself.
                size = max(abs(x) ** 2, sizes(e)[0] ** 2)
                got = max(abeljacobi._dist2(big_x, (0, 0)), e._sizes[0] >> 4 * dt) * unit
                assert abs(got - size) <= slack + mpf(10) ** -(e.digits + 20) * size


class TestIdentityCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        # 150 curves at 20, 40 and 100 digits (tests/aj_identity.py).
        curves = []
        return aj_identity, aj_identity.corpus_lines(curves), curves

    def test_corpus_matches_golden(self, corpus):
        aj_identity, lines, _curves = corpus
        assert aj_identity.differences(lines, aj_identity.GOLDEN.read_text()) == []

    def test_corpus_after_a_max_digits_curve(self):
        # mpmath caches pi, log 2 and its cos/sin and atan tables at the
        # highest precision used so far and rounds them down; a
        # MAX_DIGITS curve and those constants at its precision, first,
        # in a fresh process, must leave the corpus byte for byte as the
        # golden has it: the AJ values read none of that state.
        root = Path(__file__).resolve().parent.parent
        code = (
            "from mpmath import mp, mpc, mpf\n"
            "from hfcalc.abeljacobi import MAX_DIGITS, EllipticCurve\n"
            "EllipticCurve(4, 0, MAX_DIGITS)\n"
            "with mp.workdps(MAX_DIGITS + 25):\n"
            "    +mp.pi, +mp.ln2, mp.cos_sin(mpc(1, 1)), mp.asin(mpc(mpf(1) / 3, 2)), mp.expj(1)\n"
            "from tests import aj_identity\n"
            "raise SystemExit(aj_identity.main([]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), str(root), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, cwd=root)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert proc.stdout.endswith("0 of 1350 lines differ\n")

    def test_lattice_invariants_on_every_curve(self, corpus):
        for e in corpus[2]:
            assert_invariants_on_weights(e)

    def test_reduction_matrix_gives_the_solved_parities(self, corpus):
        # The rows of the reduction matrix are the coordinates of r1 and r2
        # in (w1, w2) that a 2x2 solve gives, rounded, and the half period
        # they name for each root is a nonzero one where wp takes that root.
        _aj_identity, _lines, curves = corpus
        assert len(curves) == 150
        for e in curves:
            with mp.workdps(e._workdps):
                r1, r2, (a, b, c, d) = reduce_tau(e.w1, e.w2)
                assert (r1, r2) == e._reduced
                solved = [solve_coords(r, e.w1, e.w2) for r in (r1, r2)]
                assert [[int(mp.nint(x)) for x in xy] for xy in solved] == [[a, b], [c, d]]
                assert all(abs(x - mp.nint(x)) <= mpf(10) ** -(e._workdps - 5) for xy in solved for x in xy)
                halves = [e.w1 / 2, e.w2 / 2, (e.w1 + e.w2) / 2]
                for root in e.roots:
                    half = e.aj(Divisor([((root, 0), 1), (None, -1)]))
                    assert half in halves
                    m, n = (int(mp.nint(x)) for x in e.coords(2 * half))
                    assert [m % 2, n % 2] != [0, 0]
                    assert abs(e.wp_pair(half)[0] - root) <= mpf(10) ** -(e.digits - 4) * max(abs(root), sizes(e)[0])
