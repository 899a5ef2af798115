"""Fixed-point kernels of the Abel-Jacobi map, on Python integers.

A complex number is a pair of integers (re, im) in units of 2^e.  Conversion
from mpc (``_fixed``) and halving (``_half``) truncate towards 0, and the
square root (``_csqrt``) is symmetric, so -x and conj(x) give exactly the
negated or conjugated integers and a zero part stays an exact 0: real
inputs give exactly real results.  Rounding is absolute in the unit, so
each caller picks the unit from a bound on the numbers it holds.  The
kernels are the square root, the complex AGM sequence (``_agm_sequence``),
and the Jacobi theta sums at v (``_theta_sums``) and at 0
(``_theta_constants``); ``hfcalc.abeljacobi`` builds the curve on them.
They are a module of their own so that no one module's compilation, which
each process without cached bytecode pays once, grows with all of them.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc
from mpmath.libmp import from_man_exp, mpf_shift, to_int

from hfcalc.errors import CurveError


def _fixed(x, wp):
    """(Re x, Im x) as integers in units of 2^-wp, truncated towards 0, so
    that -x and conj(x) give exactly the negated parts; a zero part stays 0."""
    return to_int(mpf_shift(x.real._mpf_, wp)), to_int(mpf_shift(x.imag._mpf_, wp))


def _fixed_rel(x, bits):
    """(Re x, Im x) as integers in units of 2^e, e = mag(x) - bits, and -e:
    ``bits`` bits relative to |x| whatever its size (0 gives (0, 0) and 0)."""
    wp = bits - _mag(x) if x else 0
    return _fixed(x, wp), wp


def _unfixed(re, im, exp):
    """The mpc (re + i im) 2^exp, rounded once to the current precision."""
    prec, rnd = mp._prec_rounding
    return mp.make_mpc((from_man_exp(re, exp, prec, rnd), from_man_exp(im, exp, prec, rnd)))


def _mag(x):
    """An integer e with |x| < 2^e for a nonzero mpf or mpc x (mpmath's
    ``mag``, read off the parts' exponents and bit counts)."""
    return max(exp + bc for _sign, man, exp, bc in (x.real._mpf_, x.imag._mpf_) if man)


def _half(n):
    """n / 2 truncated towards 0, so that -n halves to exactly the negation."""
    return (n + (n < 0)) >> 1


def _tdiv(n, d):
    """n / d truncated towards 0 for d > 0, so that -n divides to exactly the
    negation (``_half`` is the case d = 2)."""
    return -(-n // d) if n < 0 else n // d


def _ccbrt(re, im):
    """A cube root of re + i im, nonzero integers in units of 2^(3k), as
    integers in units of 2^k, within 2 units, and the real one for a real
    input.

    Newton's u <- (2u + v / u^2) / 3 starts from the float cube root of the
    leading bits and doubles its precision per step, each step on v
    truncated to the bits that step can use, so the cost is about that of
    two steps at full size.  Division truncates towards 0, so im = 0 keeps
    an exact 0 part."""
    m = max(re.bit_length(), im.bit_length()) // 3  # bits of the root
    levels = [m]
    while levels[-1] > 60:
        levels.append(levels[-1] // 2 + 4)
    ur = ui = None
    for bits in reversed(levels):
        drop = m - bits  # the root in units of 2^(k + drop)
        vr, vi = _tdiv(re, 1 << 3 * drop), _tdiv(im, 1 << 3 * drop)
        if ur is None:
            c = complex(vr, vi)
            c = complex(math.copysign(abs(vr) ** (1 / 3), vr) if not vi else c ** (1 / 3))
            ur, ui = int(c.real), int(c.imag)
        else:
            ur, ui = ur << last - drop, ui << last - drop
        last = drop
        for _ in range(1 if drop else 60):
            ar, ai = ur * ur - ui * ui, 2 * ur * ui
            den = ar * ar + ai * ai
            nr = _tdiv(2 * ur + _tdiv(vr * ar + vi * ai, den), 3)
            ni = _tdiv(2 * ui + _tdiv(vi * ar - vr * ai, den), 3)
            done = abs(nr - ur) <= 2 and abs(ni - ui) <= 2
            ur, ui = nr, ni
            if done and not drop:
                return ur, ui
    raise CurveError("complex cube root failed to converge")


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


def _sqrt(z):
    """Principal square root of the mpc z to the current precision, by
    ``_csqrt`` with 10 guard bits: exactly the conjugate for conj(z) off the
    negative real axis, and with an exact 0 part where z is real."""
    if not z:
        return mpc(0)
    k = (_mag(z) >> 1) - mp.prec - 10  # z in units of 2^(2k), the root in 2^k
    return _unfixed(*_csqrt(*_fixed(z, -2 * k)), k)


def _cmul(a, b, shift=0):
    """The product of two complex integers (re, im), shifted right by ``shift`` bits."""
    (ar, ai), (br, bi) = a, b
    return (ar * br - ai * bi) >> shift, (ar * bi + ai * br) >> shift


def _dist2(a, b):
    """|a - b|^2 of two complex integers (re, im)."""
    dr, di = a[0] - b[0], a[1] - b[1]
    return dr * dr + di * di


_ZERO = (0, 0)


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


def _theta_constants(q4, big_l):
    """(theta2, theta3, theta4) at v = 0 of the nome q = q4^4 as integers
    (re, im) in units of 2^-wp, and wp.

    At v = 0 every cos(mv) is 1 and theta1 vanishes, so one pass sums
    t = q^(m^2/4) over each class of m mod 4, two complex products a term,
    to the term count of ``_theta_sums``; the guard bits are 20 plus
    -log2|q4| (when positive), because theta2 is about 2 q4 and must keep
    its relative accuracy.  A real q4 gives exactly real constants.
    """
    terms = int(math.sqrt(4 * mp.dps * math.log(10) / big_l + 1))
    wp = mp.prec + 20 + max(0, -mp.mag(q4))
    # t = q^(m^2/4), u = q^((2m + 1)/4), h = q^(1/2), as in _theta_sums.
    tr, ti = _fixed(q4, wp)
    hr, hi = _cmul((tr, ti), (tr, ti), wp)
    ur, ui = _cmul((hr, hi), (tr, ti), wp)
    sum_r, sum_i = [0] * 4, [0] * 4
    for m in range(1, terms + 1):
        sum_r[m % 4] += tr
        sum_i[m % 4] += ti
        tr, ti = (tr * ur - ti * ui) >> wp, (tr * ui + ti * ur) >> wp
        ur, ui = (ur * hr - ui * hi) >> wp, (ur * hi + ui * hr) >> wp
    (r0, r1, r2, r3), (i0, i1, i2, i3) = sum_r, sum_i
    one = 1 << wp
    return ((2 * (r1 + r3), 2 * (i1 + i3)), (one + 2 * (r0 + r2), 2 * (i0 + i2)), (one + 2 * (r0 - r2), 2 * (i0 - i2))), wp
