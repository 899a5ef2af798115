"""Integer arithmetic and elementary functions for the fixed-point kernels.

Complex numbers are pairs of Python integers (re, im) in a unit the caller
picks, or triples (re, im, exp) that carry their own exponent 2^exp.
Division, halving and shifts truncate towards 0 and the square root is
symmetric, so -x and conj(x) give exactly the negated or conjugated
integers and a zero part stays an exact 0.  Beside the square and cube
roots there are exp, cos and sin (Taylor series after halving, then
squaring or doubling) and the arcsine (Halley's iteration on cos and sin
from the float value), with pi and log 2 as integers computed once per
bit count, on first use, and the reductions of a triple to the nearest
lattice point and into the fundamental cell on the exact integers of the
basis.  Nothing here reads mpmath: each function is one of its integer
arguments, the working precision among them as ``prec``, bits.
``hfcalc._fixedpoint`` builds the curve's kernels on them; the two are
separate modules so that neither compilation, which a process without
cached bytecode pays once, is large.
"""

from __future__ import annotations

import cmath
import functools
import math

from hfcalc.errors import CurveError


def _tdiv(n, d):
    """n / d truncated towards 0 for d > 0, so that -n divides to exactly the
    negation."""
    return -(-n // d) if n < 0 else n // d


def _tshift(n, k):
    """n / 2^k truncated towards 0, so that -n shifts to exactly the negation."""
    return -(-n >> k) if n < 0 else n >> k


def _scale(n, k):
    """n 2^k for any integer k, truncated towards 0 (``_tshift``) when k < 0."""
    return n << k if k >= 0 else _tshift(n, -k)


def _nint(n, d):
    """The integer nearest n / d for d > 0, ties to even (as ``mp.nint``)."""
    q, r = divmod(2 * n + d, 2 * d)
    return q - 1 if r == 0 and q % 2 else q


def _cmul(a, b, shift=0):
    """The product of two complex integers (re, im), shifted right by ``shift`` bits."""
    (ar, ai), (br, bi) = a, b
    return (ar * br - ai * bi) >> shift, (ar * bi + ai * br) >> shift


def _cdiv(a, b, shift):
    """(a / b) 2^shift of two complex integers (re, im), truncated towards 0
    (b nonzero), so that conj and negation carry through exactly."""
    (ar, ai), (br, bi) = a, b
    den = br * br + bi * bi
    return _tdiv((ar * br + ai * bi) << shift, den), _tdiv((ai * br - ar * bi) << shift, den)


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


def _dist2(a, b):
    """|a - b|^2 of two complex integers (re, im)."""
    dr, di = a[0] - b[0], a[1] - b[1]
    return dr * dr + di * di


_ZERO = (0, 0)


def _less(m, me, n, ne):
    """m 2^me < n 2^ne for integers m, n >= 0, exactly.  Unequal bit
    lengths of the two numbers decide without aligning them, so a wide gap
    between the exponents costs no shift of that many bits."""
    if not (m and n):
        return m < n
    a, b = m.bit_length() + me, n.bit_length() + ne
    if a != b:
        return a < b
    e = min(me, ne)
    return m << me - e < n << ne - e


# -- pi and log 2 ----------------------------------------------------------------

def _acot(n, g, alternating):
    """The integer sum over k of (-1)^k (if ``alternating``) / ((2k + 1) n^(2k + 1))
    in units of 2^-g, within k units after k terms: acot(n), or acoth(n)."""
    term, total, k, n2 = (1 << g) // n, 0, 1, n * n
    while term:
        total += -(term // k) if alternating and k % 4 == 3 else term // k
        term //= n2
        k += 2
    return total


def _pi_ln2(p):
    """pi = 16 acot(5) - 4 acot(239) and log 2 = 2 acoth(3) as integers in
    units of 2^-p, within a unit: the series carry log2(p) + 4 guard bits,
    more than their term counts' rounding."""
    g = p.bit_length() + 4
    q = p + g
    return (16 * _acot(5, q, True) - 4 * _acot(239, q, True)) >> g, 2 * _acot(3, q, False) >> g


# A curve's precisions are few (working dps <= 2 MAX_DIGITS + 25), but
# complex_agm and lattice_invariants run at their caller's: the memo keeps
# the last 64 bit counts.
_pi_ln2_memo = functools.lru_cache(maxsize=64)(_pi_ln2)


def _ln2(p, prec):
    """log 2 as an integer in units of 2^-p, within a unit: the memo's
    2 prec + 40 bits truncated, or the series itself beyond them."""
    bits = 2 * prec + 40
    return _pi_ln2_memo(bits)[1] >> bits - p if p <= bits else _pi_ln2(p)[1]


def _pi(p, prec):
    """pi as an integer in units of 2^-p, within a unit, as ``_ln2``."""
    bits = 2 * prec + 40
    return _pi_ln2_memo(bits)[0] >> bits - p if p <= bits else _pi_ln2(p)[0]


# -- elementary functions ------------------------------------------------------

def _exp_small(x, p):
    """exp(x) for x an integer in units of 2^-p with |x| <= 1, in those units:
    the Taylor series at x / 2^r, even and odd terms apart on x^2, squared r
    times, with r + 10 guard bits.  x = 0 gives exactly 2^p."""
    r = math.isqrt(p) >> 1
    q = p + r + 10
    x <<= 10  # x / 2^r in units of 2^-q
    one = 1 << q
    x2 = a = x * x >> q
    even = odd = one
    k = 2
    while a:
        a //= k
        even += a
        a //= k + 1
        odd += a
        k += 2
        a = a * x2 >> q
    s = even + (odd * x >> q)
    for _ in range(r):
        s = s * s >> q
    return s >> r + 10


def _exp_pair(x, wp, prec):
    """(exp(x), exp(-x)) for a real x, an integer in units of 2^-wp, in those
    units (absolute, however large exp(|x|) is), log 2 from ``prec``'s memo.
    |x| = m log 2 + y with |y| <= log 2 / 2; exp(y) carries m + log2(m) + 12
    extra bits so that 2^m exp(y) and 2^-m / exp(y) both keep every unit.
    Negating x swaps the pair exactly, and x = 0 gives (2^wp, 2^wp)."""
    if not x:
        return 1 << wp, 1 << wp
    ln2 = _ln2(wp + 4, prec)
    m = ((abs(x) << 5) + ln2) // (2 * ln2)  # the integer nearest |x| / log 2
    p = wp + m + 12 + m.bit_length()
    e = _exp_small((abs(x) << p - wp) - m * _ln2(p, prec), p)  # exp(|x| - m log 2), units 2^-p
    big, small = e >> p - wp - m, (1 << 2 * p) // e >> p - wp + m
    return (big, small) if x > 0 else (small, big)


def _cos_sin_real(x, p):
    """(cos x, sin x) for a real x, an integer in units of 2^-p with |x| <= 4,
    in those units: the Taylor series at |x| / 2^r, doubled r times, with
    r + 12 guard bits; sin takes the sign of x, so -x gives exactly (cos, -sin),
    and x = 0 gives exactly (2^p, 0)."""
    if not x:
        return 1 << p, 0
    r = math.isqrt(p) >> 1
    q = p + r + 12
    y = abs(x) << 12  # |x| / 2^r in units of 2^-q
    x2 = y * y >> q
    term = c = s = one = 1 << q
    j = 1
    while term:
        term = (term * x2 >> q) // ((2 * j - 1) * 2 * j)
        if j % 2:
            c, s = c - term, s - term // (2 * j + 1)
        else:
            c, s = c + term, s + term // (2 * j + 1)
        j += 1
    s = s * y >> q
    for _ in range(r):
        c, s = (c * c - s * s) >> q, (c * s) >> q - 1
    c, s = c >> r + 12, s >> r + 12
    return (c, s) if x > 0 else (c, -s)


def _cos_sin(vr, vi, wp, prec):
    """(cos v, sin v) for v = (vr + i vi) 2^-wp, |vr| <= 4, as integers
    (re, im) in units of 2^-wp, within a few units times cosh(Im v), their
    size (the theta sums' guard bits pay for it): cos v = cos a cosh b -
    i sin a sinh b and sin v = sin a cosh b + i cos a sinh b for v = a + ib.
    Products truncate towards 0, so conj(v) and -v give exactly the
    conjugated or negated parts, a real v exactly real cos and sin, and an
    imaginary v an exactly real cos and imaginary sin."""
    c, s = _cos_sin_real(vr, wp)
    ep, en = _exp_pair(vi, wp, prec)
    ch, sh = _tshift(ep + en, 1), _tshift(ep - en, 1)
    return (_tshift(c * ch, wp), -_tshift(s * sh, wp)), (_tshift(s * ch, wp), _tshift(c * sh, wp))


def _halley_asin(ur, ui, wp, prec):
    """asin(u) for u = (ur + i ui) 2^-wp away from the branch points +-1
    (|1 - u^2| >= 1/4), as integers in units of 2^-wp: Halley's step for
    f(v) = sin v - u, v <- v - 2 f f' / (2 f'^2 - f f''), from the float
    value, each step at three times the bits of the last, ending at wp."""
    precs = [wp]
    while precs[-1] > 150:
        precs.append(precs[-1] // 3 + 8)
    v = cmath.asin(complex(ur / (1 << wp), ui / (1 << wp)))
    p = precs[-1]
    vr, vi = int(math.ldexp(v.real, p)), int(math.ldexp(v.imag, p))
    for q in reversed(precs):
        vr, vi, p = vr << q - p, vi << q - p, q
        g = p + 12
        (cr, ci), (sr, si) = _cos_sin(vr << 12, vi << 12, g, prec)
        fr, fi = sr - _scale(ur, g - wp), si - _scale(ui, g - wp)
        # 2 f f' over 2 f'^2 - f f'' = 2 cos^2 + f sin, all in units of 2^-2g.
        num = 2 * (fr * cr - fi * ci), 2 * (fr * ci + fi * cr)
        den = 2 * (cr * cr - ci * ci) + fr * sr - fi * si, 4 * cr * ci + fr * si + fi * sr
        dr, di = _cdiv(num, den, p)
        vr, vi = vr - dr, vi - di
    return vr, vi


def _asin(ur, ui, wp, prec):
    """The principal arcsine of u = (ur + i ui) 2^-wp as integers (re, im)
    in units of 2^-wp, within a few units (pi from ``prec``'s memo), for |u| < 2^1000 (the float
    start's range); on the cuts, real u with |u| > 1, mpmath's values
    pi/2 - i acosh(u) for u > 1 and -pi/2 + i acosh(-u) for u < -1.  For
    |Re u| > 1/2, near the branch points +-1, it takes asin(u) =
    +-(pi/2 - 2 asin(sqrt((1 -+ u)/2))), where Halley's step converges fast,
    else ``_halley_asin`` directly.  Conjugating u conjugates the result
    exactly, a real u in [-1, 1] gives an exactly real one and an imaginary
    u an exactly imaginary one."""
    one = 1 << wp
    if max(abs(ur), abs(ui)).bit_length() > wp + 1000:
        raise CurveError("arcsine argument beyond 2^1000")
    if 2 * abs(ur) <= one:
        return _halley_asin(ur, ui, wp, prec)
    sign = 1 if ur > 0 else -1
    # (1 - u)/2 for u > 0 and (1 + u)/2 for u < 0, in units of 2^-(2 wp - 1)
    hr, hi = (one - sign * ur) << wp, -sign * ui << wp
    wr, wi = _csqrt(_tshift(hr, 1), _tshift(hi, 1))
    ar, ai = _halley_asin(wr, wi, wp, prec)
    half_pi = _pi(wp, prec) >> 1
    return sign * (half_pi - 2 * ar), sign * -2 * ai


# -- numbers with an exponent of their own -------------------------------------

# A complex number the logarithm and the lattice pass around is a triple
# (re, im, exp) of integers: (re + i im) 2^exp.  Sums align the exponents;
# a triple carries about ``_ZBITS`` bits beyond the working precision.

_ZBITS = 40


def _float(n, exp):
    """n 2^exp as a float (0.0 below its range)."""
    return n / (1 << -exp) if exp < 0 else float(n << exp)


def _zmag(z):
    """An integer e with |z| < 2^(e + 1) for a triple z (bit lengths, not
    rounded), -inf-like for 0."""
    re, im, exp = z
    return max(abs(re).bit_length(), abs(im).bit_length()) + exp if re or im else -(1 << 62)


def _zadd(a, b, prec, m=1):
    """a + m b of two triples, aligned to the smaller exponent, or to
    prec + ``_ZBITS`` bits below the larger term if that is coarser, so
    that a term far below the other does not blow up the integers."""
    if not (a[0] or a[1]):
        return m * b[0], m * b[1], b[2]
    if not (b[0] or b[1]):
        return a
    exp = max(min(a[2], b[2]), max(_zmag(a), _zmag(b)) - prec - _ZBITS)
    return (
        _scale(a[0], a[2] - exp) + m * _scale(b[0], b[2] - exp),
        _scale(a[1], a[2] - exp) + m * _scale(b[1], b[2] - exp),
        exp,
    )


def _zmul(a, b):
    """The product of two triples."""
    re, im = _cmul(a[:2], b[:2])
    return re, im, a[2] + b[2]


def _zdiv(a, b, prec):
    """a / b of two triples, with prec + ``_ZBITS`` bits (b nonzero)."""
    shift = prec + _ZBITS + max(0, _zmag((*b[:2], 0)) - _zmag((*a[:2], 0))) + 2
    re, im = _cdiv(a[:2], b[:2], shift)
    return re, im, a[2] - b[2] - shift


def _zsqrt(z, prec):
    """The principal square root of a nonzero triple, with prec + ``_ZBITS`` bits."""
    re, im, exp = z
    shift = 2 * (prec + _ZBITS) - _zmag((re, im, 0)) + 2
    shift += (exp - shift) % 2  # an even exponent
    r, i = _csqrt(_scale(re, shift), _scale(im, shift))
    return r, i, (exp - shift) >> 1


def _zfix(z, bits):
    """A triple as integers (re, im) in units of 2^-wp with ``bits`` bits,
    and wp: relative accuracy whatever its size (0 gives (0, 0) and 0)."""
    wp = bits - _zmag(z) if z[0] or z[1] else 0
    return (_scale(z[0], z[2] + wp), _scale(z[1], z[2] + wp)), wp


def _align(*zs):
    """The triples as integer pairs in one unit, exactly, and the unit."""
    unit = min(z[2] for z in zs)
    return (*((re << exp - unit, im << exp - unit) for re, im, exp in zs), unit)


def _round(z, prec):
    """The triple z with each part rounded to ``prec`` bits, nearest, ties to
    even, in the form mpmath makes and holds: no trailing zero bits, the
    exponent the smaller of the nonzero parts' (0 for 0)."""
    parts = []
    for n in z[:2]:
        k = max(0, abs(n).bit_length() - prec)
        n = _nint(n, 1 << k)
        zeros = (n & -n).bit_length() - 1 if n else 0
        parts.append((n >> zeros, z[2] + k + zeros))
    exp = min((e for n, e in parts if n), default=0)
    return (*(n << e - exp if n else 0 for n, e in parts), exp)


# -- reductions modulo a lattice basis ----------------------------------------

def _cell_coords(z, w1, w2, unit, det):
    """Real coordinates (a, b) of a triple z = a w1 + b w2 for the basis of
    integer pairs (w1, w2) in units of 2^unit, with det = Im(conj(w1) w2) > 0,
    by Cramer's rule: (num_a, num_b, k) with a = num_a 2^k / det exactly.
    The power 2^k, k = exp(z) - unit, is the caller's: a z far above or
    below the basis would need |k| bits to apply it."""
    zr, zi, ze = z
    return zr * w2[1] - zi * w2[0], w1[0] * zi - w1[1] * zr, ze - unit


def _cell_nearest(z, basis):
    """z minus its nearest lattice point by coordinates (each rounded to the
    nearest integer, ties to even), exactly, for a triple z and ``basis`` =
    (w1, w2, unit, det) of ``_cell_coords``, in z's unit or the basis's if
    finer: the coordinates' remainders r_a, r_b give (r_a w1 + r_b w2) / det.
    For k > 0 the numerators are taken mod 2 det first, an even shift that
    keeps the ties' parity, so a z far coarser than the basis costs no k-bit
    shift; for k < 0 the caller bounds -k."""
    w1, w2, unit, det = basis
    na, nb, k = _cell_coords(z, w1, w2, unit, det)
    if k > 0:
        m = pow(2, k, 2 * det)
        na, nb, den = na * m % (2 * det), nb * m % (2 * det), det
    else:
        den = det << -k
    na, nb = na - _nint(na, den) * den, nb - _nint(nb, den) * den
    return (na * w1[0] + nb * w2[0]) // det, (na * w1[1] + nb * w2[1]) // det, min(z[2], unit)


_FAR = 1 << 16  # bits of a z's coordinates below 1 that the reduction keeps


def _cell_reduce(z, basis, ten_digits, bits):
    """(z mod L, num_a, num_b, den) for a triple z and ``basis`` = (w1, w2,
    unit, det) of ``_cell_coords``: the coordinates (a, b) mod 1 in [0, 1),
    a = num_a / den, each 0 where it lies within max(|a|, |b|) / ten_digits
    of an integer, and z mod L = a w1 + b w2 as a triple with ``bits`` to spare.
    Where max(|a|, |b|) > ten_digits, both are 0 with no k-bit shift; a z
    more than ``_FAR`` bits below the basis's unit loses its coordinates'
    bits below 2^-_FAR first (below 10^-19728 of the lattice)."""
    w1, w2, unit, det = basis
    na, nb, k = _cell_coords(z, w1, w2, unit, det)
    if k > 0 and max(abs(na), abs(nb)).bit_length() + k > (ten_digits * det).bit_length():
        return (0, 0, unit), 0, 0, det
    if k < -_FAR:
        na, nb, k = _tshift(na, -k - _FAR), _tshift(nb, -k - _FAR), -_FAR
    na, nb, den = (na << k, nb << k, det) if k >= 0 else (na, nb, det << -k)
    tol = max(abs(na), abs(nb))
    na, nb = (0 if abs(n - _nint(n, den) * den) * ten_digits <= tol else n % den for n in (na, nb))
    shift = bits + max(0, den.bit_length() - max(na.bit_length(), nb.bit_length()))
    re, im = (_tdiv(na * u + nb * v << shift, den) for u, v in zip(w1, w2))
    return (re, im, unit - shift), na, nb, den
