"""Numerical Abel-Jacobi map for elliptic curves.

Everything works on the Weierstrass model y^2 = 4x^3 - g2 x - g3 over C.
The period lattice L = Z w1 + Z w2 realizes the Jacobian J^1 = C/L, the
elliptic logarithm inverts the parametrization z -> (wp(z), wp'(z)), and
the Abel-Jacobi map sends a degree-zero divisor to the sum of the
unreduced logarithms of its points, reduced into the fundamental cell once.
Every modulus test compares squared moduli, as in |a - b|^2 - |a + b|^2 =
-4 Re(a conj(b)), with thresholds squared once at set-up; a square root is
taken only to print a failing residual.  A divisor whose only point other
than O is a branch point, with multiplicity 1, maps to that point's stored
half period with no reduction, as its elliptic logarithm does.

Numerical scheme (all at a configurable working precision, default 40
decimal digits, at most MAX_DIGITS, plus internal guard digits; near-singular
curves get more, see ``EllipticCurve``):

* roots of 4x^3 - g2 x - g3 by Cardano's formula (DLMF 1.11(iii)) at twice
  the working precision, with no iteration;
* periods by the arithmetic-geometric mean over C with the optimal-branch
  rule (|a - b| <= |a + b| at every step, tested without square roots as
  Re(a conj(b)) >= 0), after Cremona-Thongjunthug
  (J. Number Theory 133, 2013): with the roots sorted e1, e2, e3, take
  a = sqrt(e1 - e3), b = sqrt(e1 - e2), c = sqrt(e2 - e3), negate b or c
  when that brings it closer to a, and set w1 = pi / M(a, b),
  w2 = pi i / M(a, c).  The AGM runs in fixed point on Python integers
  (``_agm_sequence``), each part of a_n and b_n one integer in units of
  2^(e - wp), e = max(mag a, mag b), with wp = prec + 30 + |mag a - mag b|
  bits so that the smaller of a and b keeps its relative accuracy; square
  roots are ``math.isqrt``, conversion and halving truncate towards 0, so a
  conjugate pair steps to exactly real pairs, and the sign test and the stop
  rule are exact integer comparisons.  The SL_2(Z) reduction of the basis
  tracks its integer matrix, whose rows give the coordinates of the reduced
  basis in (w1, w2) and so the half period of each root with no solve.
  The theta constants of the reduced basis, computed once, give g2 and g3
  of the lattice, which must reproduce the inputs to 10^-(digits-3) s^4 and s^6,
  s = max(|g2|^(1/4), |g3|^(1/6)): g2 and g3 have weights 4 and 6, so the
  check, like the singular-curve test, reads the same on (l^4 g2, l^6 g3)
  for every scale l;
* elliptic logarithm from the same AGM (Cremona-Thongjunthug): the curve
  keeps d_n = a_n^2 - b_n^2, n = 1..N, of the pairs of M(a, b), N >= 1 the
  first index with |a_N - b_N| <= 10^-(dps-3) |a_N|, and the mean
  M = (a_N + b_N)/2, and every logarithm walks them: from c = sqrt(x - e3),
  c <- (c + s)/2 with s the root of c^2 - a_n^2 + b_n^2 nearer c, per pair,
  then z = asin(M / c) / M.  Every step runs on integers in the AGM's
  units; the step of pair 0 (``_log_start``) takes s = sqrt(x - e2), the
  same number by exact algebra, by ``_csqrt`` of x - e3 and x - e2, so a
  real point on a real curve with e2 = conj(e3) gets a c with an exact 0
  part.  Only x - e3, x - e2 and the final c cross between mpc and
  integers.  z is signed so that wp'(z) = y, and one
  evaluation of (wp, wp') at z must reproduce the point to 10^-(digits-3)
  of max(|x|, s^2) and max(|y|, s^3), x and y having weights 2 and 3.  A
  branch point (e_i, 0), y = 0 exactly, maps to its half period w1/2, w2/2
  or (w1 + w2)/2 without a logarithm: at set-up each root is matched to the
  nearest of the theta values of wp at the reduced basis's half periods
  (DLMF 23.6(i)), a match that must be one to one.  Near a half period w_i
  (x within a quarter of e_i's gap to the other roots), x - e_i comes from
  y, and the logarithm is that of P + T_i, near O, plus w_i;
* wp and wp' from Jacobi theta functions on the same reduced basis (DLMF
  23.6(i)), about sqrt(digits) terms per evaluation and no table.  The
  theta sums run in fixed point on Python integers, with guard bits that
  follow from the terms' size bound (``_theta_sums``); the term count needs
  L = -4 log|q^(1/4)| = pi Im(tau), stored at set-up.  wp and wp' take the
  ratios R = theta4/theta1 and S = theta2 theta3/theta1^2 on those
  integers, convert only R and S to mpc, and finish as wp = K2 R^2 + e3,
  wp' = K3 R S with K2 and K3 stored at set-up.

Real curves with positive discriminant come out in the rectangular
normalization (w1 real, w2 purely imaginary); in all cases Im(w2/w1) > 0.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Sequence

from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero, from_man_exp, mpf_add, mpf_mul, mpf_shift, to_int

from hfcalc._frozen import Frozen
from hfcalc.errors import CurveError

__all__ = ["EllipticCurve", "Divisor", "lattice_invariants", "complex_agm", "carlson_rf"]

_GUARD_DIGITS = 25
MAX_DIGITS = 1000  # curve set-up: about 0.01 s at 400 digits, 0.05 s at 800

Point = Optional[tuple]  # (x, y) affine, or None for the point at infinity


def _numbers(values, what):
    """The values as mpc at the current precision; CurveError if mpc rejects
    one or a real or imaginary part is infinite or nan."""
    try:
        out = tuple(mpc(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise CurveError(f"{what} must be numbers: {exc}")
    for v in out:
        if not mp.isfinite(v):
            raise CurveError(f"{what} must be finite numbers, got {mp.nstr(v)}")
    return out


def _nearer(a, b):
    """b or -b, whichever lies closer to a (b on a tie).  |a - b|^2 - |a + b|^2
    = -4 Re(a conj(b)), so the sign test needs no square root."""
    return -b if a.real * b.real + a.imag * b.imag < 0 else b


def _abs2(z):
    """|z|^2 of an mpf or mpc, rounded once: a modulus test without a square root."""
    re, im = z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, fzero)
    return mp.make_mpf(mpf_add(mpf_mul(re, re), mpf_mul(im, im), *mp._prec_rounding))


def _fixed(x, wp):
    """(Re x, Im x) as integers in units of 2^-wp, truncated towards 0, so
    that -x and conj(x) give exactly the negated parts; a zero part stays 0."""
    return to_int(mpf_shift(x.real._mpf_, wp)), to_int(mpf_shift(x.imag._mpf_, wp))


def _unfixed(re, im, exp):
    """The mpc (re + i im) 2^exp, rounded once to the current precision."""
    prec, rnd = mp._prec_rounding
    return mp.make_mpc((from_man_exp(re, exp, prec, rnd), from_man_exp(im, exp, prec, rnd)))


def _half(n):
    """n / 2 truncated towards 0, so that -n halves to exactly the negation."""
    return (n + (n < 0)) >> 1


def _csqrt(re, im):
    """Principal square root of re + i im, integers in units of 2^(2k), as
    integers in units of 2^k.  The part that carries at least half the
    modulus is an isqrt, the other |im| over twice it, rounded to nearest;
    so im = 0 gives an exact 0 part and (re, -im) exactly the conjugate."""
    m = math.isqrt(re * re + im * im)
    if re >= 0:
        r = math.isqrt((m + re) >> 1)
        if not r:
            return 0, 0
        q = (abs(im) + r) // (2 * r)
        return r, (q if im >= 0 else -q)
    t = math.isqrt((m - re) >> 1)
    return (abs(im) + t) // (2 * t), (t if im >= 0 else -t)


def _agm_sequence(a, b):
    """The AGM pairs (a_0, b_0), ..., (a_N, b_N) of ``complex_agm``, with N >= 1
    the first index where |a_N - b_N| <= 10^-(dps-3) |a_N|, as (unit, pairs):
    each pair is the integers (Re a_n, Im a_n, Re b_n, Im b_n) in units of
    2^unit.

    Every a_n and b_n is at most 2^e, e = max(mag a, mag b), so unit =
    e - wp with wp = prec + 30 + |mag a - mag b| guard bits: rounding is
    absolute, and the smaller of a and b keeps its relative accuracy.
    Conversion and halving truncate towards 0 and ``_csqrt`` is
    conjugate-symmetric, so a conjugate pair b = conj(a) steps to exactly
    real pairs.  The sign test and the stop rule are exact integer
    comparisons.
    """
    mag_a, mag_b = mp.mag(a), mp.mag(b)
    unit = max(mag_a, mag_b) - mp.prec - 30 - abs(mag_a - mag_b)
    (ar, ai), (br, bi) = _fixed(a, -unit), _fixed(b, -unit)
    pairs = [(ar, ai, br, bi)]
    inv_tol2 = 10 ** (2 * (mp.dps - 3))
    for _ in range(mp.dps * 4 + 40):
        (br, bi), ar, ai = _csqrt(ar * br - ai * bi, ar * bi + ai * br), _half(ar + br), _half(ai + bi)
        d = ar * br + ai * bi  # Re(a conj(b)), as in _nearer
        if d < 0 or (d == 0 and ar * bi - ai * br < 0):  # ties towards Im(b/a) > 0
            br, bi = -br, -bi
        pairs.append((ar, ai, br, bi))
        dr, di = ar - br, ai - bi
        if (dr * dr + di * di) * inv_tol2 <= ar * ar + ai * ai:
            return unit, pairs
    raise CurveError("complex AGM failed to converge")


def _agm_mean(unit, pair):
    """(a_n + b_n)/2 of an integer pair of ``_agm_sequence``, rounded once."""
    ar, ai, br, bi = pair
    return _unfixed(ar + br, ai + bi, unit - 1)


def complex_agm(a, b):
    """Arithmetic-geometric mean over C with the optimal branch rule.

    At every step the square root sign is chosen so that
    |a_{n+1} - b_{n+1}| <= |a_{n+1} + b_{n+1}|, ties broken towards
    Im(b/a) > 0.  Converges quadratically away from b = -a.
    """
    a, b = mpc(a), mpc(b)
    if a == 0 or b == 0:
        return mp.zero
    unit, pairs = _agm_sequence(a, b)
    return _agm_mean(unit, pairs[-1])


def _log_walk(unit, pairs):
    """What the elliptic logarithm keeps of the AGM ``pairs``: unit,
    d_n = a_n^2 - b_n^2 for n = 1..N in units of 2^(2 unit), and the mean M."""
    ds = [(ar * ar - ai * ai - br * br + bi * bi, 2 * (ar * ai - br * bi)) for ar, ai, br, bi in pairs[1:]]
    return unit, ds, _agm_mean(unit, pairs[-1])


def carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral R_F(x, y, z).

    Duplication theorem with principal square roots, finished with the
    standard fifth-order Taylor expansion around the equal-argument point.
    The curve's logarithm uses the AGM instead (``_agm_log``), which
    converges quadratically; R_F(x - e1, x - e2, x - e3) is the same
    logarithm up to sign and the lattice, an independent check of it.
    """
    x, y, z = mpc(x), mpc(y), mpc(z)
    if sum(1 for v in (x, y, z) if v == 0) > 1:
        raise CurveError("R_F diverges when two arguments vanish")
    cutoff = mpf(10) ** (-mp.dps / mpf(6))
    for _ in range(mp.dps * 4 + 60):
        sx, sy, sz = mp.sqrt(x), mp.sqrt(y), mp.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
        mu = (x + y + z) / 3
        if mu == 0:
            raise CurveError("R_F duplication degenerated")
        eps = max(abs(x - mu), abs(y - mu), abs(z - mu)) / abs(mu)
        if eps < cutoff:
            big_x = 1 - x / mu
            big_y = 1 - y / mu
            big_z = -big_x - big_y
            e2 = big_x * big_y - big_z ** 2
            e3 = big_x * big_y * big_z
            series = 1 - e2 / 10 + e3 / 14 + e2 ** 2 / 24 - 3 * e2 * e3 / 44
            return series / mp.sqrt(mu)
    raise CurveError("R_F failed to converge")


def _reduce_tau(w1, w2):
    """SL_2(Z)-reduce the basis so tau = w2/w1 is in the fundamental domain:
    (r1, r2, (a, b, c, d)) with r1 = a w1 + b w2, r2 = c w1 + d w2 and
    ad - bc = 1, the integers tracked through the steps."""
    inside2 = (1 - mpf(10) ** (-mp.dps)) ** 2  # |tau| < 1 - 10^-dps, squared
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10000):
        tau = w2 / w1
        shift = int(mp.nint(tau.real))
        if shift != 0:
            w2 = w2 - shift * w1
            c, d = c - shift * a, d - shift * b
            tau = w2 / w1
        if _abs2(tau) < inside2:
            w1, w2 = w2, -w1
            a, b, c, d = c, d, -a, -b
            continue
        return w1, w2, (a, b, c, d)
    raise CurveError("lattice basis reduction failed")


def _theta_sums(q4, big_l, v):
    """Jacobi theta functions (theta1, ..., theta4)(v) of the nome q = q4^4
    (DLMF 20.2(i)) as integers: ((re, im) of each, exp), theta_j =
    (re + i im) 2^exp.  They are sums of q^(m^2/4) sin(mv) (theta1, odd m)
    and q^(m^2/4) cos(mv) (theta2 odd m, theta3 and theta4 even m).

    f((m + 1)v) = 2 cos(v) f(mv) - f((m - 1)v) keeps sin(mv) accurate as
    v -> 0, where theta1 vanishes.  Term m is at most
    exp(-L m^2/4 + m |Im v|), L = -4 log|q4| = pi Im(tau), so summing to
    m = 2 |Im v|/L + sqrt(4 dps log(10)/L + 1) leaves every later term
    10^-dps under the largest of its parity.

    The sums run on Python integers in units of 2^-wp, wp = prec + guard,
    each part of a complex number one integer.  Rounding there is absolute,
    so the guard bits are 20, plus terms |Im v| / log 2 because |cos(mv)|
    and |sin(mv)| reach exp(m |Im v|), plus -log2|v| and -log2|q4| (when
    positive) because theta1(v) is about 2 q4 v and theta2(0) about 2 q4
    and must keep their relative accuracy.  A zero part of q4, cos v or
    sin v stays an exact 0, so real inputs give exactly real outputs.
    """
    im_v = abs(float(v.imag))
    terms = int(2 * im_v / big_l + math.sqrt(4 * mp.dps * math.log(10) / big_l + 1))
    guard = 20 + math.ceil(terms * im_v / math.log(2)) + max(0, -mp.mag(q4))
    if v:
        guard += max(0, -mp.mag(v))
    wp = mp.prec + guard
    with mp.extraprec(guard):
        c, s = mp.cos_sin(v)
    (tr, ti), (cr, ci), (sr, si) = (_fixed(x, wp) for x in (q4, c, s))
    # t = q^(m^2/4), u = q^((2m + 1)/4), h = q^(1/2); cos and sin of mv
    # (c, s) and of (m - 1)v (cp, sp); products shift once by wp.
    hr, hi = (tr * tr >> wp) - (ti * ti >> wp), 2 * (tr * ti >> wp)
    ur, ui = (hr * tr >> wp) - (hi * ti >> wp), (hr * ti >> wp) + (hi * tr >> wp)
    two_cr, two_ci = 2 * cr, 2 * ci
    cpr, cpi, spr, spi = 1 << wp, 0, 0, 0
    # Sums of q^(m^2/4) cos(mv) and sin(mv) over each class of m mod 4, in
    # units of 2^(-2 wp): the products t c and t s are not shifted.
    cos_r, cos_i, sin_r, sin_i = [0] * 4, [0] * 4, [0] * 4, [0] * 4
    for m in range(1, terms + 1):
        r = m % 4
        cos_r[r] += tr * cr - ti * ci
        cos_i[r] += tr * ci + ti * cr
        if m % 2:
            sin_r[r] += tr * sr - ti * si
            sin_i[r] += tr * si + ti * sr
        tr, ti = (tr * ur >> wp) - (ti * ui >> wp), (tr * ui >> wp) + (ti * ur >> wp)
        ur, ui = (ur * hr >> wp) - (ui * hi >> wp), (ur * hi >> wp) + (ui * hr >> wp)
        cpr, cpi, cr, ci = (
            cr, ci, (two_cr * cr >> wp) - (two_ci * ci >> wp) - cpr, (two_cr * ci >> wp) + (two_ci * cr >> wp) - cpi
        )
        spr, spi, sr, si = (
            sr, si, (two_cr * sr >> wp) - (two_ci * si >> wp) - spr, (two_cr * si >> wp) + (two_ci * sr >> wp) - spi
        )
    # theta = 2 (sums), or 1 + 2 (sums), in units of 2^(1 - 2 wp).
    half = 1 << (2 * wp - 1)
    return (
        (sin_r[1] - sin_r[3], sin_i[1] - sin_i[3]),
        (cos_r[1] + cos_r[3], cos_i[1] + cos_i[3]),
        (half + cos_r[0] + cos_r[2], cos_i[0] + cos_i[2]),
        (half + cos_r[0] - cos_r[2], cos_i[0] - cos_i[2]),
    ), 1 - 2 * wp


def _theta(q4, big_l, v):
    """The four theta values of ``_theta_sums`` as mpc, each rounded once."""
    sums, exp = _theta_sums(q4, big_l, v)
    return tuple(_unfixed(re, im, exp) for re, im in sums)


def _theta_lattice(r1, r2):
    """For a reduced basis: k = pi / r1, q^(1/4) = exp(i pi tau / 4) with
    tau = r2 / r1, L = -4 log|q^(1/4)| = pi Im(tau) as a float,
    (theta2, theta3, theta4) at 0, (e1, e2, e3) = wp at
    (r1/2, (r1 + r2)/2, r2/2), g2 and g3.

    wp takes e1 = k^2 (theta3^4 + theta4^4)/3, e2 = k^2 (theta2^4 - theta4^4)/3
    and e3 = -k^2 (theta2^4 + theta3^4)/3 at those half periods (DLMF 23.6(i)),
    so g2 = 2 (e1^2 + e2^2 + e3^2) and g3 = 4 e1 e2 e3.
    """
    k, tau = mp.pi / r1, r2 / r1
    q4, big_l = mp.expj(mp.pi * tau / 4), float(mp.pi * tau.imag)
    _zero, t2, t3, t4 = _theta(q4, big_l, mp.zero)
    s, p2, p3, p4 = k * k / 3, t2 ** 4, t3 ** 4, t4 ** 4
    e1, e2, e3 = s * (p3 + p4), s * (p2 - p4), -s * (p2 + p3)
    return k, q4, big_l, (t2, t3, t4), (e1, e2, e3), 2 * (e1 * e1 + e2 * e2 + e3 * e3), 4 * e1 * e2 * e3


def lattice_invariants(w1, w2):
    """Weierstrass g2, g3 of the lattice Z w1 + Z w2 from the theta constants
    of an SL_2(Z)-reduced basis, where |q| <= exp(-pi sqrt 3 / 2)."""
    w1, w2 = mpc(w1), mpc(w2)
    if mp.im(w2 / w1) < 0:
        w2 = -w2
    if mp.im(w2 / w1) == 0:
        raise CurveError("degenerate lattice: periods are R-linearly dependent")
    return _theta_lattice(*_reduce_tau(w1, w2)[:2])[5:]


class Divisor(Frozen):
    """A formal sum of curve points with integer multiplicities."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Sequence[tuple]):  # ((x, y) or None, multiplicity), ...
        # Coordinates are kept as given; they are coerced to mpc inside the
        # curve's working precision at evaluation time (converting here
        # would round them to the ambient precision).
        out = []
        for entry in entries:
            try:
                pt, mult = entry
                if pt is not None:
                    x, y = pt
                    pt = (x, y)
                out.append((pt, operator.index(mult)))
            except (TypeError, ValueError) as exc:
                raise CurveError(f"divisor entry {entry!r} must be ((x, y) or None, integer multiplicity): {exc}")
        object.__setattr__(self, "entries", tuple(out))

    # Kept because the benchmark still calls it; construct directly.
    of = classmethod(lambda cls, entries: cls(entries))

    @property
    def degree(self) -> int:
        return sum(m for _pt, m in self.entries)

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(self.entries + other.entries)


def _coords(z, w1, w2):
    """Real coordinates (a, b) with z = a w1 + b w2."""
    det = w1.real * w2.imag - w1.imag * w2.real
    a = (z.real * w2.imag - z.imag * w2.real) / det
    b = (w1.real * z.imag - w1.imag * z.real) / det
    return a, b


def _cubic_roots(g2, g3):
    """The roots of 4x^3 - g2 x - g3 by Cardano's formula (DLMF 1.11(iii)).

    x = u + g2 / (12 u) over the three cube roots u of
    g3/8 +- sqrt(g3^2/64 - g2^3/1728), with the sign of larger modulus
    (``_nearer``: |t + s| >= |t - s| exactly when Re(t conj(s)) >= 0; u = 0
    only if g2 = g3 = 0).  Near a double root the roots differ by
    about sqrt(disc), so twice the working precision keeps every working
    digit while |disc| / scale >= 10^-digits.  Back at working precision,
    parts below eps are chopped as ``polyroots`` chops them: a real root
    comes out an mpf.
    """
    with mp.extraprec(mp.prec):
        t, s = g3 / 8, mp.sqrt(g3 * g3 / 64 - g2 ** 3 / 1728)
        u = mp.cbrt(t + _nearer(t, s))
        omega = mpc(-0.5, mp.sqrt(3) / 2)
        roots = [v + g2 / (12 * v) for v in (u, u * omega, u * omega.conjugate())]
    out, eps2 = [], mp.eps ** 2
    for r in roots:
        r = +r
        if _abs2(r) < eps2:
            r = mp.zero
        elif abs(r.imag) < mp.eps:
            r = r.real
        elif abs(r.real) < mp.eps:
            r = r.imag * 1j
        out.append(r)
    return out


def _period_basis(e1, e2, e3):
    """Cremona-Thongjunthug periods (w1, w2) of the roots in this order, and
    the ``_log_walk`` of the AGM of (a, b) whose mean M gives w1 = pi / M."""
    a = mp.sqrt(e1 - e3)
    b, c = _nearer(a, mp.sqrt(e1 - e2)), _nearer(a, mp.sqrt(e2 - e3))
    walk = _log_walk(*_agm_sequence(a, b))
    w1 = mp.pi / walk[2]  # the mean M
    w2 = mp.pi * 1j / complex_agm(a, c)
    if mp.im(w2 / w1) < 0:
        w2 = -w2
    return w1, w2, walk


def _log_start(unit, e2, e3, x):
    """c after the step of pair 0 of the logarithm walk, as integers in
    units of 2^unit: (sqrt(x - e3) + sqrt(x - e2))/2, the second root taken
    nearer the first.  That is c <- (c + sqrt(c^2 - a_0^2 + b_0^2))/2 from
    c = sqrt(x - e3) by exact algebra, (x - e3) - (e1 - e3) + (e1 - e2) =
    x - e2, so the difference of nearly equal roots is never formed.

    x - e3 and x - e2 convert to units of 2^(2 unit) and take ``_csqrt``;
    rounding is absolute in the AGM's unit, and truncation and ``_csqrt``
    are conjugate-symmetric, so a real x on a real curve with
    e2 = conj(e3) gives c an exact 0 part."""
    cr, ci = _csqrt(*_fixed(x - e3, -2 * unit))
    sr, si = _csqrt(*_fixed(x - e2, -2 * unit))
    if cr * sr + ci * si < 0:  # the root nearer c, as in _nearer
        sr, si = -sr, -si
    return _half(cr + sr), _half(ci + si)


def _agm_log(walk, e2, e3, x):
    """Cremona-Thongjunthug elliptic logarithm: z with wp(z) = x, up to sign
    and the lattice.  ``walk`` comes from ``_period_basis`` of the roots
    e1, e2, e3: c starts at sqrt(x - e3) and takes one step
    c <- (c + sqrt(c^2 - d_n))/2, the root nearer c, per pair, on integers
    in the AGM's units (pair 0 by ``_log_start``)."""
    unit, ds, m = walk
    cr, ci = _log_start(unit, e2, e3, x)
    for dr, di in ds:
        sr, si = _csqrt(cr * cr - ci * ci - dr, 2 * cr * ci - di)
        if cr * sr + ci * si < 0:  # the root nearer c, as in _nearer
            sr, si = -sr, -si
        cr, ci = _half(cr + sr), _half(ci + si)
    u = m / _unfixed(cr, ci, unit)
    # asin's error is absolute (about 10^-dps), so a small u (a point with
    # large |x|) needs -mag(u) more bits to keep its relative accuracy.
    with mp.extraprec(max(0, -mp.mag(u))):
        s = mp.asin(u)
    return s / m


class EllipticCurve:
    """y^2 = 4x^3 - g2 x - g3 with its period lattice and elliptic logarithm.

    The working precision is ``digits`` plus guard digits.  When |disc|
    falls k orders of magnitude short of scale = max(|g2|^3, |g3|^2),
    differences of nearly equal roots lose about k/2 digits, and at points
    near the node the logarithm loses about k/2 more, since dz = dx / y
    there ((wp, wp') lose under one digit, measured for k up to 80).  The
    guard digits absorb k up to 20; beyond that the curve adds k - 20
    working digits.
    """

    def __init__(self, g2, g3, digits: int = 40):
        if digits < 10:
            raise CurveError("working precision below 10 digits is not supported")
        if digits > MAX_DIGITS:
            raise CurveError(f"working precision above {MAX_DIGITS} digits is not supported")
        self.digits = int(digits)
        self._workdps = self.digits + _GUARD_DIGITS
        with mp.workdps(self._workdps):
            self.g2, self.g3 = _numbers((g2, g3), "curve coefficients")
            disc = self.g2 ** 3 - 27 * self.g3 ** 2
            scale = max(abs(self.g2) ** 3, abs(self.g3) ** 2)
            # The curve's size s = scale^(1/12) on the weights of x and y:
            # g2 ~ s^4, g3 ~ s^6, x ~ s^2, y ~ s^3.
            s = mp.root(scale, 12)
            self._s2, self._s3 = s * s, s * s * s
            if abs(disc) <= scale * mpf(10) ** (-self.digits):
                raise CurveError(f"singular curve: discriminant {disc} vanishes at working precision")
            self.discriminant = disc
            if abs(disc) < scale * mpf(10) ** -20:  # near-singular: k > 20
                self._workdps += int(mp.ceil(-mp.log10(abs(disc) / scale))) - 20
        with mp.workdps(self._workdps):
            # Every modulus test compares squares, so the thresholds 10^-k and
            # the sizes s^k are squared here, once.
            self._s4, self._s6 = self._s2 ** 2, self._s3 ** 2
            self._s12 = self._s6 ** 2
            self._tol2 = mpf(10) ** (6 - 2 * self.digits)  # 10^-(digits-3): results
            self._res_tol2 = mpf(10) ** (4 - 2 * self.digits)  # 10^-(digits-2): on the curve
            self._root_tol2 = mpf(10) ** (8 - 2 * self.digits)  # 10^-(digits-4): at a root
            self._snap = mpf(10) ** -self.digits  # frac_coords
            # Beyond |x| = 10^(workdps/2) s^2, wp(z) = z^-2 (1 + g2 z^4/20 + ...)
            # gives z = x^(-1/2) at working precision.
            self._far2 = mpf(10) ** self._workdps * self._s4
            self.roots = self._sorted_roots()
            self.w1, self.w2, self._walk = self._compute_periods()
            self.tau = self.w2 / self.w1
            self._rho = abs(self._reduced[0])  # a reduced basis starts with a shortest vector
            self._pole2 = (mpf(10) ** (5 - self._workdps) * self._rho) ** 2

    # -- lattice construction ---------------------------------------------------

    def _sorted_roots(self):
        roots = _cubic_roots(self.g2, self.g3)
        size2 = max(_abs2(r) for r in roots)
        if all(mp.im(r) ** 2 < mpf(10) ** (-2 * self.digits) * size2 for r in roots):
            roots = [mpc(mp.re(r)) for r in roots]
        return sorted(roots, key=lambda r: (-mp.re(r), -mp.im(r)))

    def _compute_periods(self):
        """Periods and the logarithm's AGM walk, checked by the reduced basis's
        theta constants; for each root the half period where wp takes it, and
        what the translation by its branch point needs."""
        w1, w2, walk = _period_basis(*self.roots)
        r1, r2, (a, b, c, d) = _reduce_tau(w1, w2)
        self._reduced = r1, r2
        k, self._q4, self._big_l, (t2, t3, t4), theta_e, g2r, g3r = _theta_lattice(r1, r2)
        # The constants of wp_pair_raw: k, K2 = (k theta2 theta3)^2,
        # K3 = -2 k (k theta2 theta3 theta4)^2 and e3.
        kt23 = k * t2 * t3
        self._k, self._k2, self._k3, self._e3 = k, kt23 ** 2, -2 * k * (kt23 * t4) ** 2, theta_e[2]
        # g2 and g3 have weights 4 and 6: measured on s^4 and s^6.
        err2 = max(_abs2(g2r - self.g2) / self._s4 ** 2, _abs2(g3r - self.g3) / self._s12)
        if err2 >= self._tol2:
            raise CurveError(f"period lattice does not reproduce (g2, g3); residual {mp.nstr(mp.sqrt(err2), 8)}")
        match = [min(range(3), key=lambda j: _abs2(root - theta_e[j])) for root in self.roots]
        if sorted(match) != [0, 1, 2]:
            raise CurveError("half periods do not separate the branch points")
        # Twice the half periods where wp takes theta_e are r1, r1 + r2 and r2,
        # whose coordinates in (w1, w2) are the rows of the reduction matrix.
        doubled = ((a, b), (a + c, b + d), (c, d))
        self._half_periods, self._branches = [], []
        e = self.roots
        for i, j in enumerate(match):
            m, n = (v % 2 for v in doubled[j])
            # Exact: 1 * w = w and w + 0 = w, so this is w1/2, w2/2 or (w1 + w2)/2.
            self._half_periods.append((m * w1 + n * w2) / 2)
            # The other two roots, (e_i - e_j)(e_i - e_k), and e_i's gap squared.
            ej, ek = e[i - 1], e[i - 2]
            gap2 = min(_abs2(e[i] - ej), _abs2(e[i] - ek))
            self._branches.append((ej, ek, (e[i] - ej) * (e[i] - ek), gap2))
        return w1, w2, walk

    # -- lattice bookkeeping ------------------------------------------------------

    def coords(self, z) -> tuple:
        """Real coordinates (a, b) with z = a w1 + b w2."""
        with mp.workdps(self._workdps):
            return _coords(mpc(z), self.w1, self.w2)

    def reduce_fundamental(self, z):
        """Representative with z = a w1 + b w2, a, b in [0, 1)."""
        with mp.workdps(self._workdps):
            a, b = self.frac_coords(z)
            return a * self.w1 + b * self.w2

    def frac_coords(self, z) -> tuple:
        """(a, b) mod 1, in [0, 1), with z = a w1 + b w2.  Solving for a and b
        rounds relative to the larger of them, so a coordinate within
        10^-digits max(|a|, |b|) of an integer is that integer: guard-digit
        noise reads 0, not 1e-127 or 1 - 1e-127, while a small z keeps its
        small coordinates."""
        with mp.workdps(self._workdps):
            a, b = self.coords(z)
            tol = self._snap * max(abs(a), abs(b))
            return tuple(mp.zero if abs(c - mp.nint(c)) <= tol else c - mp.floor(c) for c in (a, b))

    def lattice_distance(self, z) -> mpf:
        with mp.workdps(self._workdps):
            a, b = self.coords(z)
            zc = mpc(z) - mp.nint(a) * self.w1 - mp.nint(b) * self.w2
            return min(abs(zc - m * self.w1 - n * self.w2) for m in (-1, 0, 1) for n in (-1, 0, 1))

    # -- Weierstrass functions ------------------------------------------------------

    def wp_pair_raw(self, z) -> tuple:
        """(wp(z), wp'(z)) without precision management; z must avoid L.

        With v = k z and the theta constants theta2, theta3, theta4 at 0
        (DLMF 23.6(i); wp' by theta1'(0) = theta2 theta3 theta4):
        wp = k^2 [(theta2 theta3 theta4(v) / theta1(v))^2 - (theta2^4 + theta3^4)/3],
        wp' = -2 k^3 (theta2 theta3 theta4)^2 theta2(v) theta3(v) theta4(v) / theta1(v)^3.
        So wp = K2 R^2 + e3 and wp' = K3 R S with the set-up constants
        K2 = (k theta2 theta3)^2 and K3 = -2 k (k theta2 theta3 theta4)^2 and
        the ratios R = theta4(v) / theta1(v), S = theta2(v) theta3(v) / theta1(v)^2,
        which are formed on the integer theta sums with prec + 20 fraction
        bits and are the only numbers converted to mpc.  Their absolute
        rounding costs wp under 2^-prec of s^2 and wp' under 2^-prec of s^3:
        K2 and K3 carry |q| <= exp(-pi sqrt 3 / 2), and where R or S is large
        it keeps its relative accuracy.  Reducing z against (r1, r2) bounds
        |Im v| by L/2 = -2 log|q^(1/4)|.
        """
        r1, r2 = self._reduced
        z = mpc(z)
        a, b = _coords(z, r1, r2)
        z = z - mp.nint(a) * r1 - mp.nint(b) * r2
        if _abs2(z) < self._pole2:  # |z| < 10^-(workdps-5) rho
            raise CurveError("wp evaluated at a lattice point")
        ((t1r, t1i), (t2r, t2i), (t3r, t3i), (t4r, t4i)), _exp = _theta_sums(self._q4, self._big_l, self._k * z)
        bits = mp.prec + 20
        # theta_j / theta1 = theta_j conj(theta1) / |theta1|^2; the units 2^exp cancel.
        n1 = t1r * t1r + t1i * t1i
        rr, ri = ((t4r * t1r + t4i * t1i) << bits) // n1, ((t4i * t1r - t4r * t1i) << bits) // n1
        pr, pi = t2r * t3r - t2i * t3i, t2r * t3i + t2i * t3r  # theta2 theta3
        cr, ci = t1r * t1r - t1i * t1i, -2 * t1r * t1i  # conj(theta1)^2
        n2 = n1 * n1
        sr, si = ((pr * cr - pi * ci) << bits) // n2, ((pr * ci + pi * cr) << bits) // n2
        r, s = _unfixed(rr, ri, -bits), _unfixed(sr, si, -bits)
        return self._k2 * r * r + self._e3, self._k3 * r * s

    def wp_pair(self, z) -> tuple:
        with mp.workdps(self._workdps):
            return self.wp_pair_raw(z)

    # -- point and divisor utilities ---------------------------------------------

    def _residual2(self, x, y):
        """The squared on-curve residual of parsed coordinates.  Both sides
        have weight 6: measured on s^6, not on 1."""
        lhs = y ** 2
        rhs = 4 * x ** 3 - self.g2 * x - self.g3
        return _abs2(lhs - rhs) / max(_abs2(lhs), _abs2(rhs), self._s12)

    def _require_on_curve(self, x, y) -> None:
        res2 = self._residual2(x, y)
        if res2 > self._res_tol2:
            raise CurveError(f"point is not on the curve: residual {mp.nstr(mp.sqrt(res2), 8)}")

    def point_at(self, z) -> Point:
        """Forward parametrization z -> (wp(z), wp'(z))."""
        return self.wp_pair(z)

    # -- elliptic logarithm -----------------------------------------------------------

    def _log(self, pt):
        """(z, exact): z with (wp(z), wp'(z)) = P, not reduced mod L, and
        whether z is a branch point's stored half period (already in the
        cell).  Runs at the working precision.

        With e_i the root nearest x: a branch point (y = 0 exactly, x within
        10^-(digits-4) max(|x|, s^2) of e_i) maps to its half period w_i.
        Within a quarter of e_i's gap, x has lost to rounding what y keeps
        (dz = dx / y), so d = x - e_i = y^2 / (4 (x - e_j)(x - e_k)) and
        z = log(P + T_i) + w_i, where P + T_i has x' = e_i + (e_i - e_j)
        (e_i - e_k) / d and lies near O.  The logarithm of x is x^(-1/2)
        beyond |x| = 10^(workdps/2) s^2, where the AGM walk would run on
        integers of about log2|x| bits, else ``_agm_log``.  z is signed so
        that Re(wp'(z) conj(y)) >= 0, and (wp, wp') at z must reproduce x to
        10^-(digits-3) max(|x|, s^2) and y to 10^-(digits-3) max(|y|, s^3).
        """
        x, y = _numbers(pt, "point coordinates")
        self._require_on_curve(x, y)
        e = self.roots
        dist2 = [_abs2(x - r) for r in e]
        i = min(range(3), key=dist2.__getitem__)
        size_x2 = max(_abs2(x), self._s4)
        if not y and dist2[i] <= self._root_tol2 * size_x2:
            return self._half_periods[i], True
        ej, ek, cross, gap2 = self._branches[i]
        if y and 16 * dist2[i] < gap2:
            d = y * y / (4 * (x - ej) * (x - ek))
            x_log, shift = e[i] + cross / d, self._half_periods[i]
        else:
            x_log, shift = x, 0
        if _abs2(x_log) > self._far2:
            z = 1 / mp.sqrt(x_log) + shift
        else:
            z = _agm_log(self._walk, e[1], e[2], x_log) + shift
        p, pp = self.wp_pair_raw(z)
        if pp.real * y.real + pp.imag * y.imag < 0:  # |pp - y| > |pp + y|, as in _nearer
            z, pp = -z, -pp
        miss2 = max(_abs2(p - x) / size_x2, _abs2(pp - y) / max(_abs2(y), self._s6))
        if miss2 > self._tol2:
            # Where |y|^2 << s^6 the on-curve check lets through a y that is
            # off the curve in this check's units: name it, not a miss.
            yc = mp.sqrt(4 * x ** 3 - self.g2 * x - self.g3)
            off2 = min(_abs2(y - yc), _abs2(y + yc)) / max(_abs2(y), self._s6)
            if off2 > self._tol2:
                raise CurveError(f"point is not on the curve: residual {mp.nstr(mp.sqrt(off2), 8)}")
            raise CurveError(f"elliptic logarithm misses the point: residual {mp.nstr(mp.sqrt(miss2), 8)}")
        return z, False

    def elliptic_log(self, pt: Point):
        """z with wp(z) = x(P), wp'(z) = y(P), reduced to the fundamental cell
        (see ``_log``); a branch point gives its stored half period as is.

        z is about 1/sqrt(x) far from the origin, so a point with |x| beyond
        about 10^(2 (workdps - 5)) / rho^2 lies within the pole's tolerance
        and raises "wp evaluated at a lattice point" (at 40 digits x = 1e100
        is fine, x = 1e300 is not).
        """
        if pt is None:
            return mpc(0)
        with mp.workdps(self._workdps):
            z, exact = self._log(pt)
            return z if exact else self.reduce_fundamental(z)

    # -- Abel-Jacobi ------------------------------------------------------------------

    def _aj_sum(self, divisor: Divisor):
        """(z, exact): the sum of m z(P) over the unreduced logarithms z(P) of
        ``_log``, and whether z is a lone branch point's stored half period
        (the divisor's only point other than O, with multiplicity 1).  Runs
        at the working precision."""
        if divisor.degree != 0:
            raise CurveError(f"divisor has degree {divisor.degree}, expected 0")
        terms = [(pt, mult) for pt, mult in divisor.entries if mult and pt is not None]
        total, exact = mpc(0), False
        for pt, mult in terms:
            z, exact = self._log(pt)
            total += mult * z
        return total, exact and len(terms) == 1 and terms[0][1] == 1

    def aj(self, divisor: Divisor):
        """Abel-Jacobi value of a degree-zero divisor in C/L (fundamental cell):
        the sum of m z(P) over the unreduced logarithms z(P) of ``_log``,
        reduced once.  A lone branch point (see ``_aj_sum``) gives its stored
        half period as is, as ``elliptic_log`` does."""
        with mp.workdps(self._workdps):
            z, exact = self._aj_sum(divisor)
            return z if exact else self.reduce_fundamental(z)

    def _aj_coords(self, divisor: Divisor) -> tuple:
        """(z, a, b): the value of ``aj`` and its coordinates (a, b) mod 1,
        z = a w1 + b w2, from one ``frac_coords`` solve."""
        with mp.workdps(self._workdps):
            z, exact = self._aj_sum(divisor)
            a, b = self.frac_coords(z)
            return (z if exact else a * self.w1 + b * self.w2), a, b
