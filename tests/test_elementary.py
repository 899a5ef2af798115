"""The integer kernels of the Abel-Jacobi path against mpmath at 20 more digits.

``hfcalc._elementary`` computes pi, log 2, exp, cos and sin (the theta
argument) and the arcsine on Python integers, and reduces a point into the
fundamental cell on the exact integers of the basis.  Each is compared with
mpmath on Hypothesis draws, at the edges where branch choices or exact
zeros decide the answer: the arcsine's branch points and cuts, real and
imaginary arguments, and points on the cell's edges.  The kernel modules
import nothing from mpmath, and their integers do not depend on its
ambient precision.
"""

import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from hfcalc import _elementary, _fixedpoint, abeljacobi
from hfcalc.abeljacobi import MAX_DIGITS, Divisor, EllipticCurve, complex_agm
from hfcalc.errors import CurveError

# Working precisions of curves at 10 to MAX_DIGITS digits, and beyond for a
# near-singular curve's added digits.
DPS = st.sampled_from([20, 45, 65, 125, 330, MAX_DIGITS + 25])


def fixed(x, wp):
    """An mpf or mpc as integers (re, im) in units of 2^-wp."""
    return abeljacobi._fixed(mpc(x), wp)


def value(re, im, wp):
    """Integers (re, im) in units of 2^-wp as an exact mpc."""
    with mp.workdps(mp.dps + 20):
        return mpc(mp.ldexp(re, -wp), mp.ldexp(im, -wp))


def units(err, wp):
    """An absolute error in units of 2^-wp."""
    return err * mpf(2) ** wp


class TestConstants:
    @settings(max_examples=10, deadline=None)
    @given(DPS)
    def test_pi_and_log2(self, dps):
        with mp.workdps(dps):
            prec = mp.prec
        wp = prec + 20
        pi, ln2 = _elementary._pi(wp, prec), _elementary._ln2(wp, prec)
        bits = 2 * prec + 40 + 50  # past the memo's bits: the series itself
        far = _elementary._pi(bits, prec), _elementary._ln2(bits, prec)
        with mp.workdps(dps + 40):
            assert units(abs(mp.ldexp(pi, -wp) - mp.pi), wp) <= 2
            assert units(abs(mp.ldexp(ln2, -wp) - mp.ln2), wp) <= 2
        with mp.workdps(2 * dps + 60):
            assert units(abs(mp.ldexp(far[0], -bits) - mp.pi), bits) <= 2
            assert units(abs(mp.ldexp(far[1], -bits) - mp.ln2), bits) <= 2

    def test_one_entry_per_precision(self):
        # The memo holds pi and log 2 once per bit count, 2 prec + 40.
        memo, bits = _elementary._pi_ln2_memo, 2 * 260 + 40
        first, other = memo(bits), memo(bits + 2)
        assert memo(bits) is first and other is not first
        assert _elementary._pi(bits, 260) == first[0] and _elementary._ln2(bits - 9, 260) == first[1] >> 9

    def test_pi_on_first_use_and_a_bounded_table(self, monkeypatch):
        # complex_agm needs neither pi nor log 2: they wait for their first
        # use, then are summed once per bit count.  Every smaller unit
        # truncates the memo; a larger one sums the series itself.
        calls = []
        series, module_memo = _elementary._pi_ln2, _elementary._pi_ln2_memo
        assert module_memo.cache_info().maxsize == 64
        memo = _elementary.functools.lru_cache(maxsize=64)(lambda p: calls.append(p) or series(p))
        monkeypatch.setattr(_elementary, "_pi_ln2_memo", memo)
        with mp.workdps(1234):
            complex_agm(mpc(1, 2), mpc(3, -1))
            prec = mp.prec
        assert calls == []
        pi = _elementary._pi(prec, prec)
        assert _elementary._pi(prec - 7, prec) == pi >> 7 and _elementary._ln2(prec + 30, prec)
        assert _elementary._pi(prec, prec) == pi and calls == [2 * prec + 40]
        _elementary._pi(prec, prec + 1)
        assert calls == [2 * prec + 40, 2 * prec + 42]
        # Two curves at one working precision and an aj on one: one more.
        e = EllipticCurve(4, 0, digits=40)
        with mp.workdps(e._workdps):
            pt = e.point_at(mpf("0.3") * e.w1 + mpf("0.2") * e.w2)
        e.aj(Divisor([(pt, 1), (None, -1)]))
        EllipticCurve(-4, 2, digits=40)
        assert calls[2:] == [2 * e._prec + 40]
        # Callers at ever new precisions leave at most 64 entries in the
        # module's own memo.
        monkeypatch.undo()
        module_memo.cache_clear()
        for p in range(1000, 1130):
            _elementary._pi(p, p)
        info = module_memo.cache_info()
        assert info.misses == 130 and info.currsize <= 64


class TestMpmathFree:
    """The kernel modules are functions of their integers alone."""

    @pytest.mark.parametrize("module", [_elementary, _fixedpoint], ids=["_elementary", "_fixedpoint"])
    def test_imports_nothing_from_mpmath(self, module):
        modules = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module)
        assert not [m for m in modules if m.split(".")[0] == "mpmath"], modules
        assert not [k for k, v in vars(module).items() if getattr(v, "__module__", "").startswith("mpmath")]

    def test_kernels_ignore_the_ambient_precision(self):
        # The same integer arguments give the same integers whatever
        # mp.prec is when the kernel runs.
        e = EllipticCurve(mpc(3, 1), mpc(-1, 2), digits=40)
        prec, dps = e._prec, e._workdps
        with mp.workdps(dps):
            x, _y = e.point_at(mpf("0.3") * e.w1 + mpf("0.2") * e.w2)
            d3, d2 = (abeljacobi._exact(x - r) for r in (e.roots[2], e.roots[1]))
            v = abeljacobi._exact(mpc("0.7", "-0.4"))
        b = 2 * prec + 20
        g = tuple(abeljacobi._fixed(c, b - k * e._t) for c, k in ((e.g2, 4), (e.g3, 6)))
        kernels = {
            "_agm_log": lambda: _fixedpoint._agm_log(e._walk, d3, d2, prec),
            "_theta_sums": lambda: _fixedpoint._theta_sums(e._q4, e._big_l, v, prec, dps),
            "_cardano": lambda: _fixedpoint._cardano(*g, b),
            "_asin": lambda: _elementary._asin(3 << prec - 2, 5 << prec - 3, prec, prec),
            "_zdiv": lambda: _elementary._zdiv(d3, d2, prec),
        }
        for name, kernel in kernels.items():
            with mp.workprec(53):
                low = kernel()
            with mp.workprec(3000):
                high = kernel()
            assert low == high, name


@st.composite
def theta_arguments(draw):
    """(dps, v): v = a + ib with |a| <= 2.4 (a reduced point's pi Re(z / r1)),
    |b| up to 400, or real, imaginary, tiny or 0."""
    dps = draw(DPS)
    kind = draw(st.sampled_from(["generic", "real", "imaginary", "tiny", "tall", "zero"]))
    a, b = draw(st.floats(-2.4, 2.4)), draw(st.floats(-3, 3))
    with mp.workdps(dps):
        v = {
            "generic": mpc(a, b),
            "real": mpc(a, 0),
            "imaginary": mpc(0, b),
            "tiny": mpc(a, b) * mpf(10) ** -draw(st.integers(5, dps // 2)),
            "tall": mpc(a, 130 * b),
            "zero": mpc(0),
        }[kind]
    return dps, v


def mpmath_round(z, prec):
    """The triple z as mpmath makes it an mpc at ``prec`` bits, read back exactly."""
    re, im, exp = z
    return abeljacobi._exact(mp.make_mpc((from_man_exp(re, exp, prec, "n"), from_man_exp(im, exp, prec, "n"))))


class TestRound:
    """``_round`` is mpmath's rounding of a number it makes, on integers:
    each part to nearest, ties to even, in mpmath's form."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 400), st.integers(-(1 << 600), 1 << 600), st.integers(-(1 << 600), 1 << 600),
           st.integers(-1000, 1000))
    @example(53, (1 << 60) - 1, 0, 0)  # carries into a bit of its own
    @example(3, 0, 0, 5)
    def test_matches_mpmath(self, prec, re, im, exp):
        assert _elementary._round((re, im, exp), prec) == mpmath_round((re, im, exp), prec)

    @pytest.mark.parametrize("prec", [2, 53, 113, 333])
    def test_ties(self, prec):
        rng = random.Random(prec)
        for _ in range(300):
            k = rng.randint(1, 80)
            top = rng.choice(((1 << prec) - 1, rng.getrandbits(prec - 1) | 1 << prec - 1))
            for low in (1 << k - 1, (1 << k - 1) - 1, (1 << k - 1) + 1, (1 << k) - 1):
                n = (top << k | low) * rng.choice((1, -1))
                z = n, rng.choice((0, n, -3, top << k | 1 << k - 1)), rng.randint(-200, 200)
                assert _elementary._round(z, prec) == mpmath_round(z, prec)
            # An exact tie goes to the even neighbour, on either sign.
            for sign in (1, -1):
                re, _im, exp = _elementary._round((sign * (top << k | 1 << k - 1), 0, 0), prec)
                assert re << exp - k == sign * (top + (top & 1))


class TestCosSin:
    """cos v and sin v of ``_cos_sin``, the theta sums' argument."""

    @settings(max_examples=40, deadline=None)
    @given(theta_arguments())
    @example((45, mpc("1e-30", "-1e-30")))
    @example((MAX_DIGITS + 25, mpc("2.4", "390")))
    def test_matches_mpmath(self, case):
        # Absolute in units of 2^-wp times cosh(Im v), the size of cos v and
        # sin v: the theta sums' guard bits pay for that size.
        dps, v = case
        with mp.workdps(dps):
            wp = mp.prec + 10
            vr, vi = fixed(v, wp)
            (cr, ci), (sr, si) = _elementary._cos_sin(vr, vi, wp, mp.prec)
            x = value(vr, vi, wp)
            with mp.workdps(dps + 20 + int(abs(x.imag) / math.log(10))):
                size = mp.cosh(x.imag)
                assert units(abs(value(cr, ci, wp) - mp.cos(x)), wp) <= 4 * size
                assert units(abs(value(sr, si, wp) - mp.sin(x)), wp) <= 4 * size

    @settings(max_examples=30, deadline=None)
    @given(theta_arguments())
    def test_exact_zeros_and_symmetry(self, case):
        dps, v = case
        with mp.workdps(dps):
            prec = mp.prec
            wp = prec + 10
            vr, vi = fixed(v, wp)
        (cr, ci), (sr, si) = got = _elementary._cos_sin(vr, vi, wp, prec)
        assert _elementary._cos_sin(vr, -vi, wp, prec) == ((cr, -ci), (sr, -si))  # conj(v)
        assert _elementary._cos_sin(-vr, -vi, wp, prec) == ((cr, ci), (-sr, -si))  # -v
        if vi == 0:
            assert ci == 0 and si == 0
        if vr == 0:
            assert ci == 0 and sr == 0
        if vr == vi == 0:
            assert got == ((1 << wp, 0), (0, 0))


@st.composite
def arcsine_arguments(draw):
    """(dps, u) over the arcsine's plane and its special places: generic,
    real inside [-1, 1], real on the cuts |u| > 1, exactly +-1, purely
    imaginary, within 10^-k of +-1, and large."""
    dps = draw(DPS)
    kind = draw(st.sampled_from(["generic", "inside", "cut", "unit", "imaginary", "near_unit", "large"]))
    x, y = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
    sign = draw(st.sampled_from([-1, 1]))
    with mp.workdps(dps):
        u = {
            "generic": mpc(x, y),
            "inside": mpc(x / 3, 0),
            "cut": mpc(sign * (1 + abs(x) * 10 ** draw(st.integers(-12, 4))), 0),
            "unit": mpc(sign, 0),
            "imaginary": mpc(0, y * 10 ** draw(st.integers(-20, 20))),
            "near_unit": sign + mpc(x, y) * mpf(10) ** -draw(st.integers(1, dps // 2)),
            "large": mpc(x, y) * mpf(10) ** draw(st.integers(1, 200)),
        }[kind]
    return dps, u


class TestArcsine:
    """``_asin``, the last step of the elliptic logarithm."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(arcsine_arguments())
    @example((45, mpc(2, 0)))  # on the cut: pi/2 - i acosh(2)
    @example((45, mpc(-2, 0)))  # on the cut: -pi/2 + i acosh(2)
    @example((65, mpc(1, 0)))
    @example((65, mpc(-1, 0)))
    @example((65, mpc(0, "1e-40")))
    @example((125, mpc("0.5", "1e-30")))  # the switch between the two forms
    def test_matches_mpmath(self, case):
        dps, u = case
        with mp.workdps(dps):
            wp = mp.prec + 10
            ur, ui = fixed(u, wp)
            vr, vi = _elementary._asin(ur, ui, wp, mp.prec)
            x = value(ur, ui, wp)
            with mp.workdps(dps + 20):
                want = mp.asin(x.real if ui == 0 else x)  # a real u: mpmath's values on the cuts
                assert units(abs(value(vr, vi, wp) - want), wp) <= 8, (u, want)

    @settings(max_examples=40, deadline=None)
    @given(arcsine_arguments())
    def test_exact_zeros_and_conjugates(self, case):
        dps, u = case
        with mp.workdps(dps):
            prec = mp.prec
            wp = prec + 10
            ur, ui = fixed(u, wp)
        vr, vi = _elementary._asin(ur, ui, wp, prec)
        if ui:  # off the cuts: the conjugate, exactly
            assert _elementary._asin(ur, -ui, wp, prec) == (vr, -vi)
        if ui == 0 and abs(ur) <= 1 << wp:
            assert vi == 0
        if ur == 0:
            assert vr == 0
        if ui == 0 and abs(ur) == 1 << wp:  # +-pi/2 exactly
            assert (vr, vi) == ((1 if ur > 0 else -1) * (_elementary._pi(wp, prec) >> 1), 0)

    def test_beyond_the_float_range(self):
        with pytest.raises(CurveError, match="beyond"):
            _elementary._asin(1 << 1100, 0, 60, 50)


class TestNome:
    @settings(max_examples=30, deadline=None)
    @given(DPS, st.floats(-0.5, 0.5), st.floats(0.87, 80), st.booleans())
    @example(65, 0.0, 1.3, True)
    def test_matches_mpmath(self, dps, x, y, rectangular):
        # q^(1/4) = exp(i pi tau / 4) of a reduced tau = r2 / r1, relative to
        # its size, and L = pi Im(tau); a rectangular basis, r1 real and r2
        # imaginary, gives an exactly real nome.
        with mp.workdps(dps):
            r1 = mpc(1000, 0) if rectangular else mpc(1000, 300)
            r2 = mpc(0, 1000 * y) if rectangular else r1 * mpc(x, y)
            v1, v2, _unit = _elementary._align(abeljacobi._exact(r1), abeljacobi._exact(r2))
            q4, big_l = _fixedpoint._nome(v1, v2, mp.prec)
            got = abeljacobi._unfixed(*q4)
            with mp.workdps(dps + 20):
                tau = mpc(*v2) / mpc(*v1)
                want = mp.expj(mp.pi * tau / 4)
                assert abs(got - want) <= mpf(10) ** -(dps - 2) * abs(want)
                assert abs(big_l - float(mp.pi * tau.imag)) <= 1e-12 * big_l
        if rectangular:
            assert q4[1] == 0


# One curve of each shape at 30 digits.
CURVES = {"real_pos": (4, 0), "real_neg": (-4, 2), "complex": (mpc(3, 1), mpc(-1, 2))}


@st.composite
def cell_points(draw):
    """(curve, z, (a, b)): z = a w1 + b w2 with each of a, b generic, on a
    cell edge (an integer or a half), or off one by 10^-k for k from
    digits - 8 (kept) to digits + 8 (snapped to the edge)."""
    e = EllipticCurve(*CURVES[draw(st.sampled_from(sorted(CURVES)))], digits=30)
    coords = []
    for _ in range(2):
        kind = draw(st.sampled_from(["generic", "edge", "near_edge"]))
        base = mpf(draw(st.integers(-3, 3))) / draw(st.sampled_from([1, 2]))
        with mp.workdps(e._workdps + 20):
            if kind == "generic":
                c = mpf(draw(st.floats(-3, 3)))
            elif kind == "edge":
                c = base
            else:
                c = base + draw(st.sampled_from([-1, 1])) * mpf(10) ** -draw(st.integers(e.digits - 8, e.digits + 8))
        coords.append(c)
    with mp.workdps(e._workdps + 20):
        z = coords[0] * e.w1 + coords[1] * e.w2
    return e, z, tuple(coords)


class TestCellReduction:
    """z mod L on the exact integers of the basis against a solve at 20
    more digits, with frac_coords' rule: a coordinate within 10^-digits of
    the larger one of an integer is that integer."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cell_points())
    def test_matches_mpmath(self, case):
        e, z, _coords = case
        with mp.workdps(e._workdps):
            got_z, got_a, got_b = e._reduce(abeljacobi._exact(z))
        with mp.workdps(e._workdps + 20):
            w1, w2 = e.w1, e.w2
            det = w1.real * w2.imag - w1.imag * w2.real
            a = (z.real * w2.imag - z.imag * w2.real) / det
            b = (w1.real * z.imag - w1.imag * z.real) / det
            tol = mpf(10) ** -e.digits * max(abs(a), abs(b))
            want = []
            for c in (a, b):
                gap = abs(c - mp.nint(c))
                if abs(gap - tol) <= mpf(10) ** -(e._workdps - 2) * max(1, abs(c)):
                    return  # on the snap threshold itself: either answer is right
                want.append(mp.zero if gap <= tol else c - mp.floor(c))
            slack = mpf(10) ** -(e._workdps - 3) * max(1, abs(a), abs(b))
            assert abs(got_a - want[0]) <= slack and abs(got_b - want[1]) <= slack, ((got_a, got_b), want)
            assert (got_a == 0) == (want[0] == 0) and (got_b == 0) == (want[1] == 0)
            assert 0 <= got_a < 1 and 0 <= got_b < 1
            assert abs(got_z - (want[0] * w1 + want[1] * w2)) <= slack * abs(w1)

    @pytest.mark.parametrize("g2, g3", [(4, 0), (12, 4), (-4, 2)])
    def test_real_curves_keep_exact_zeros(self, g2, g3):
        # A real point on a real curve: its logarithm, the aj sum and the
        # reduced value have an exactly zero imaginary part or lie exactly
        # on the w2 line; branch points give their half periods.
        e = EllipticCurve(g2, g3, digits=40)
        with mp.workdps(e._workdps):
            x = e.roots[0] + 1
            pt = (x, mp.sqrt(4 * x ** 3 - e.g2 * x - e.g3))
            assert pt[1].imag == 0
            z = e.aj(Divisor([(pt, 1), (None, -1)]))
            zz = e.aj(Divisor([(pt, 2), (None, -2)]))
            _z, a, b = e._aj_coords(Divisor([(pt, 1), (None, -1)]))
            if e.w1.imag == 0:  # rectangular: the point lies on the real axis
                assert z.imag == 0 and zz.imag == 0 and b == 0
            halves = [e.w1 / 2, e.w2 / 2, (e.w1 + e.w2) / 2]
            got = [e.aj(Divisor([((r, 0), 1), (None, -1)])) for r in e.roots]
            assert sorted(map(halves.index, got)) == [0, 1, 2]


def shifted_cell_coords(z, basis):
    """``_cell_coords`` with the power of two applied: exact fractions
    (num_a, num_b, den), as a reduction computes them by brute force."""
    w1, w2, unit, det = basis
    na, nb, k = _elementary._cell_coords(z, w1, w2, unit, det)
    return (na << k, nb << k, det) if k >= 0 else (na, nb, det << -k)


def shifted_cell_reduce(z, basis, ten_digits):
    """The coordinates of ``_cell_reduce`` by brute force, the exponents'
    gap applied as a shift: (num_a, num_b, den)."""
    na, nb, den = shifted_cell_coords(z, basis)
    tol = max(abs(na), abs(nb))
    return (*(0 if abs(n - _elementary._nint(n, den) * den) * ten_digits <= tol else n % den for n in (na, nb)), den)


@pytest.fixture(scope="module")
def complex_curve():
    return EllipticCurve(*CURVES["complex"], digits=30)


class TestFarFromTheBasis:
    """A z whose unit lies far above or below the basis's: the reductions
    give what the exponents' gap applied as a shift gives, and where that
    gap is 10^9 bits they finish at once."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-300, 3000), st.integers(-2 ** 200, 2 ** 200), st.integers(-2 ** 200, 2 ** 200))
    @example(1, 1, 0)
    def test_nearest_matches_the_shift(self, complex_curve, k, zr, zi):
        basis = w1, w2, unit, det = complex_curve._basis[1]
        z = (zr, zi, unit + k)
        na, nb, den = shifted_cell_coords(z, basis)
        a, b = _elementary._nint(na, den), _elementary._nint(nb, den)
        shift = max(k, 0)
        zr, zi = zr << shift, zi << shift  # z in units of 2^min(exp, unit)
        w1, w2 = ((v[0] << -min(k, 0), v[1] << -min(k, 0)) for v in (w1, w2))
        want = (zr - a * w1[0] - b * w2[0], zi - a * w1[1] - b * w2[1], min(z[2], unit))
        assert _elementary._cell_nearest(z, basis) == want

    @pytest.mark.parametrize("zr, want", [(1, 4), (3, -4), (5, 4), (7, -4)])
    def test_nearest_ties_to_even(self, zr, want):
        # Coordinates (2m + 1)/2 of a z two bits coarser than the basis
        # (8, 8i): the nearest lattice point has even coordinates, as mp.nint.
        assert _elementary._cell_nearest((zr, 0, 2), ((8, 0), (0, 8), 0, 64)) == (want, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-3000, 3000), st.integers(-2 ** 200, 2 ** 200), st.integers(-2 ** 200, 2 ** 200))
    def test_reduce_matches_the_shift(self, complex_curve, k, zr, zi):
        # The same fractions, and z mod L = a w1 + b w2 from them.
        e = complex_curve
        basis = w1, w2, unit, _det = e._basis[0]
        z = (zr, zi, unit + k)
        (re, im, exp), na, nb, den = _elementary._cell_reduce(z, basis, e._ten_digits, e._bits)
        want_a, want_b, want_den = shifted_cell_reduce(z, basis, e._ten_digits)
        assert (na * want_den, nb * want_den) == (want_a * den, want_b * den)
        with mp.workdps(e._workdps + 20):
            got = mpc(mp.ldexp(re, exp), mp.ldexp(im, exp))
            a, b = mpf(want_a) / want_den, mpf(want_b) / want_den
            want = mpc(a * w1[0] + b * w2[0], a * w1[1] + b * w2[1]) * mp.ldexp(1, unit)
            assert abs(got - want) <= mpf(2) ** (4 - e._bits) * max(abs(want), abs(e.w1))

    @pytest.mark.parametrize("z", ["1e1000000000", "-1e-1000000000", "1e-1000000000", "(1+1e-100000000j)"])
    def test_public_calls_finish(self, complex_curve, z):
        import time

        e = complex_curve
        start = time.perf_counter()
        z = mp.mpmathify(z)
        e.frac_coords(z)
        a, b = e.coords(z)
        try:
            e.point_at(z)
        except CurveError as exc:
            assert "lattice point" in str(exc)
        assert time.perf_counter() - start < 5
        with mp.workdps(e._workdps + 20):
            w1, w2 = e.w1, e.w2
            det = w1.real * w2.imag - w1.imag * w2.real
            zc = mpc(z)
            want = (zc.real * w2.imag - zc.imag * w2.real) / det, (w1.real * zc.imag - w1.imag * zc.real) / det
        for got, w in zip((a, b), want):
            assert abs(got - w) <= mpf(10) ** -(e._workdps - 3) * max(abs(want[0]), abs(want[1]))
